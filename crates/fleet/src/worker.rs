//! The worker side of the `astree-fleet/1` protocol.
//!
//! A worker is a dumb executor: it decodes the coordinator's `init` frame
//! into a base configuration and a shared store, then answers each `job`
//! frame with a `done` frame until `bye` or EOF. All scheduling lives in
//! the coordinator; the worker's only policy is panic containment (a
//! panicking job becomes a [`JobStatus::Panicked`](crate::job::JobStatus)
//! outcome, the worker survives).
//!
//! When the `init` frame sets `store_sync` (and names no shared
//! `cache_dir`), the worker keeps a throwaway local invariant store and
//! brackets every job with a wire exchange: `store_get` pulls the
//! coordinator's warm store files before the solve, `store_put` ships the
//! files the job changed back afterwards. Workers on machines with no
//! shared filesystem get the same warm-start behavior as local ones.
//!
//! Two entry points: [`serve_stdio`] speaks over stdin/stdout for local
//! child processes, [`serve_listener`] accepts fleet connections on a Unix
//! or TCP socket for remote workers, one thread per connection.

use crate::exec::{execute_contained, ExecContext};
use crate::proto::{read_frame, write_frame, Endpoint, FLEET_PROTO, SYNC_BYTES_CAP};
use crate::wire::{config_from_json, content_fingerprint, outcome_to_json, spec_from_json};
use astree_core::InvariantStore;
use astree_obs::Json;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Serves one fleet conversation over stdin/stdout. Returns when the
/// coordinator says `bye` or closes the pipe.
pub fn serve_stdio() -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    serve_conn(&mut reader, &mut writer)
}

/// Binds `endpoint` and serves fleet conversations forever, one thread per
/// connection. A stale Unix socket file from a dead worker is replaced.
pub fn serve_listener(endpoint: &Endpoint) -> io::Result<()> {
    match endpoint {
        Endpoint::Unix(path) => {
            if path.exists() && UnixListener::bind(path).is_err() {
                std::fs::remove_file(path)?;
            }
            let listener = UnixListener::bind(path)?;
            eprintln!("astree worker listening on {endpoint}");
            for conn in listener.incoming() {
                let conn = conn?;
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(conn.try_clone().expect("clone unix socket"));
                    let mut writer = conn;
                    let _ = serve_conn(&mut reader, &mut writer);
                });
            }
        }
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            eprintln!("astree worker listening on tcp:{}", listener.local_addr()?);
            for conn in listener.incoming() {
                let conn = conn?;
                conn.set_nodelay(true).ok();
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(conn.try_clone().expect("clone tcp socket"));
                    let mut writer = conn;
                    let _ = serve_conn(&mut reader, &mut writer);
                });
            }
        }
    }
    Ok(())
}

fn bad_proto(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A worker-local invariant store backing the `store_get`/`store_put` wire
/// sync: a throwaway temp directory (no shared filesystem required) plus
/// the content fingerprints of everything already exchanged with the
/// coordinator, so each direction ships only files whose bytes changed.
///
/// Sync state is maintained incrementally — a pull refreshes only the
/// files it imported, a push re-reads only files whose `(len, mtime)`
/// stamp moved since the last exchange — so a warm no-change job costs a
/// handful of `stat` calls, not a full store read.
struct SyncStore {
    store: Arc<InvariantStore>,
    dir: PathBuf,
    /// Content fingerprint of each local file as of the last exchange;
    /// doubles as the `have` inventory sent with `store_get`.
    synced: HashMap<String, u64>,
    /// `(len, mtime_nanos)` of each local file at the last exchange: the
    /// cheap change detector deciding which files a push re-reads. A write
    /// that preserves both length and timestamp slips past it — the result
    /// merely fails to propagate this round (a stored result saves a
    /// solve, it is never required for one).
    meta: HashMap<String, (u64, u128)>,
    /// Coordinator store generation as of the last *complete* pull; 0
    /// before the first. When it still matches, the coordinator answers
    /// `store_get` without touching its disk.
    gen: u64,
}

impl SyncStore {
    fn create() -> io::Result<SyncStore> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "astree-fleet-sync-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = Arc::new(InvariantStore::open(&dir)?);
        Ok(SyncStore { store, dir, synced: HashMap::new(), meta: HashMap::new(), gen: 0 })
    }

    /// `(len, mtime_nanos)` of a local store file, if it exists.
    fn stat(&self, name: &str) -> Option<(u64, u128)> {
        let md = std::fs::metadata(self.dir.join(name)).ok()?;
        let mtime = md.modified().ok()?.duration_since(std::time::UNIX_EPOCH).ok()?.as_nanos();
        Some((md.len(), mtime))
    }

    /// Re-reads `name` and refreshes its sync state (or drops it when the
    /// file is gone).
    fn refresh(&mut self, name: &str) {
        match self.store.export_file(name) {
            Some(text) => {
                self.synced.insert(name.to_string(), content_fingerprint(&text));
                if let Some(m) = self.stat(name) {
                    self.meta.insert(name.to_string(), m);
                }
            }
            None => {
                self.synced.remove(name);
                self.meta.remove(name);
            }
        }
    }

    /// Asks the coordinator for store files this worker does not hold yet
    /// and imports the reply, repeating while the coordinator reports the
    /// sync incomplete (each round ships up to [`SYNC_BYTES_CAP`] of new
    /// content) so a capped exchange cannot cost this job its full hit.
    fn pull(
        &mut self,
        seq: u64,
        reader: &mut dyn BufRead,
        writer: &mut dyn Write,
    ) -> io::Result<()> {
        for _ in 0..8 {
            if self.pull_once(seq, reader, writer)? {
                break;
            }
        }
        Ok(())
    }

    /// One `store_get`/`store_files` exchange; returns whether the
    /// coordinator reported the sync complete.
    fn pull_once(
        &mut self,
        seq: u64,
        reader: &mut dyn BufRead,
        writer: &mut dyn Write,
    ) -> io::Result<bool> {
        let have = Json::Arr(
            self.synced
                .iter()
                .map(|(n, fp)| Json::Arr(vec![Json::str(n), Json::UInt(*fp)]))
                .collect(),
        );
        write_frame(
            writer,
            &Json::obj([
                ("frame", Json::str("store_get")),
                ("seq", Json::UInt(seq)),
                ("gen", Json::UInt(self.gen)),
                ("have", have),
            ]),
        )?;
        let reply = read_frame(reader)?
            .ok_or_else(|| bad_proto("coordinator went away mid store sync".into()))?;
        if reply.get("frame").and_then(Json::as_str) != Some("store_files") {
            return Err(bad_proto(format!("expected store_files, got {}", reply.to_compact())));
        }
        if let Some(Json::Arr(files)) = reply.get("files") {
            for item in files {
                let Json::Arr(kv) = item else { continue };
                if let (Some(name), Some(text)) =
                    (kv.first().and_then(Json::as_str), kv.get(1).and_then(Json::as_str))
                {
                    let name = name.to_string();
                    self.store.import_file(&name, text);
                    // Refresh from the local bytes, not the shipped text:
                    // the import may have refused it.
                    self.refresh(&name);
                }
            }
        }
        let complete = reply.get("complete").and_then(Json::as_bool).unwrap_or(true);
        if complete {
            self.gen = reply.get("gen").and_then(Json::as_u64).unwrap_or(0);
        }
        Ok(complete)
    }

    /// Ships files the job changed back to the coordinator, bounded by
    /// [`SYNC_BYTES_CAP`] per frame (files left behind ride a later job's
    /// push).
    fn push(&mut self, seq: u64, writer: &mut dyn Write) -> io::Result<()> {
        let names = self.store.file_names();
        // Drop sync state for files the store no longer holds, so the
        // `have` inventory never claims something this worker cannot serve.
        let live: std::collections::HashSet<&str> = names.iter().map(String::as_str).collect();
        self.synced.retain(|n, _| live.contains(n.as_str()));
        self.meta.retain(|n, _| live.contains(n.as_str()));

        let mut files = Vec::new();
        let mut bytes = 0usize;
        for name in &names {
            let cur = self.stat(name);
            if cur.is_some() && cur == self.meta.get(name.as_str()).copied() {
                continue; // stamp unchanged: the job did not touch this file
            }
            let Some(text) = self.store.export_file(name) else { continue };
            let fp = content_fingerprint(&text);
            if self.synced.get(name.as_str()) == Some(&fp) {
                // Metadata churn without a content change: remember the
                // new stamp so the next push skips the re-read.
                if let Some(m) = cur {
                    self.meta.insert(name.clone(), m);
                }
                continue;
            }
            if bytes + text.len() > SYNC_BYTES_CAP {
                continue;
            }
            bytes += text.len();
            self.synced.insert(name.clone(), fp);
            if let Some(m) = cur {
                self.meta.insert(name.clone(), m);
            }
            files.push(Json::Arr(vec![Json::str(name), Json::str(text)]));
        }
        if files.is_empty() {
            return Ok(());
        }
        write_frame(
            writer,
            &Json::obj([
                ("frame", Json::str("store_put")),
                ("seq", Json::UInt(seq)),
                ("files", Json::Arr(files)),
            ]),
        )
    }
}

impl Drop for SyncStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The per-connection loop shared by both entry points.
pub fn serve_conn(reader: &mut dyn BufRead, writer: &mut dyn Write) -> io::Result<()> {
    let Some(init) = read_frame(reader)? else {
        return Ok(()); // coordinator went away before init
    };
    if init.get("proto").and_then(Json::as_str) != Some(FLEET_PROTO) {
        return Err(bad_proto(format!("expected proto {FLEET_PROTO:?} in init frame")));
    }
    let config = init
        .get("config")
        .ok_or_else(|| bad_proto("init frame without config".into()))
        .and_then(|c| config_from_json(c).map_err(bad_proto))?;
    // A shared cache directory wins over wire sync: when the coordinator
    // names one, this worker can already see the coordinator's store
    // through the filesystem and the wire exchange would be redundant.
    let mut sync: Option<SyncStore> = None;
    let cache = match init.get("cache_dir").and_then(Json::as_str) {
        Some(dir) => Some(Arc::new(InvariantStore::open(dir)?)),
        None if init.get("store_sync").and_then(Json::as_bool) == Some(true) => {
            let s = SyncStore::create()?;
            let store = Arc::clone(&s.store);
            sync = Some(s);
            Some(store)
        }
        None => None,
    };
    let crash_on = init.get("crash_on").and_then(Json::as_str).map(str::to_string);

    write_frame(
        writer,
        &Json::obj([("frame", Json::str("ready")), ("pid", Json::UInt(std::process::id() as u64))]),
    )?;

    while let Some(frame) = read_frame(reader)? {
        match frame.get("frame").and_then(Json::as_str) {
            Some("job") => {
                let seq = frame
                    .get("seq")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad_proto("job frame without seq".into()))?;
                let spec = frame
                    .get("spec")
                    .ok_or_else(|| bad_proto("job frame without spec".into()))
                    .and_then(|s| spec_from_json(s).map_err(bad_proto))?;
                if crash_on.as_deref() == Some(spec.name.as_str()) {
                    // Fault injection: die exactly like a segfaulting worker
                    // would — no unwinding, no reply, no cleanup.
                    std::process::abort();
                }
                if let Some(sync) = sync.as_mut() {
                    sync.pull(seq, reader, writer)?;
                }
                let ctx = ExecContext {
                    config: &config,
                    cache: cache.clone(),
                    recorder: None,
                    pool: None,
                };
                let outcome = execute_contained(&spec, &ctx);
                if let Some(sync) = sync.as_mut() {
                    sync.push(seq, writer)?;
                }
                write_frame(
                    writer,
                    &Json::obj([
                        ("frame", Json::str("done")),
                        ("seq", Json::UInt(seq)),
                        ("outcome", outcome_to_json(&outcome)),
                    ]),
                )?;
            }
            Some("bye") => return Ok(()),
            other => return Err(bad_proto(format!("unexpected frame kind {other:?}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, JobStatus};
    use crate::wire::{config_to_json, outcome_from_json, spec_to_json};
    use astree_core::AnalysisConfig;
    use std::io::BufReader;

    #[test]
    fn conversation_over_in_memory_pipes() {
        let config = AnalysisConfig::default();
        let spec = JobSpec::new("ok", "int main() { int x = 1; return x; }\n");
        let mut request = Vec::new();
        write_frame(
            &mut request,
            &Json::obj([
                ("proto", Json::str(FLEET_PROTO)),
                ("frame", Json::str("init")),
                ("config", config_to_json(&config)),
                ("cache_dir", Json::Null),
                ("crash_on", Json::Null),
            ]),
        )
        .unwrap();
        write_frame(
            &mut request,
            &Json::obj([
                ("frame", Json::str("job")),
                ("seq", Json::UInt(0)),
                ("spec", spec_to_json(&spec)),
            ]),
        )
        .unwrap();
        write_frame(&mut request, &Json::obj([("frame", Json::str("bye"))])).unwrap();

        let mut reader = BufReader::new(&request[..]);
        let mut response = Vec::new();
        serve_conn(&mut reader, &mut response).unwrap();

        let mut r = BufReader::new(&response[..]);
        let ready = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(ready.get("frame").and_then(Json::as_str), Some("ready"));
        let done = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(done.get("frame").and_then(Json::as_str), Some("done"));
        assert_eq!(done.get("seq").and_then(Json::as_u64), Some(0));
        let outcome = outcome_from_json(done.get("outcome").unwrap()).unwrap();
        assert_eq!(outcome.status, JobStatus::Done);
        assert_eq!(outcome.alarms, Some(0));
    }

    #[test]
    fn wrong_proto_is_rejected() {
        let mut request = Vec::new();
        write_frame(&mut request, &Json::obj([("proto", Json::str("bogus/9"))])).unwrap();
        let mut reader = BufReader::new(&request[..]);
        let mut response = Vec::new();
        assert!(serve_conn(&mut reader, &mut response).is_err());
    }
}
