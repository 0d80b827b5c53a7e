//! The worker side of the `astree-fleet/2` protocol.
//!
//! A worker is a dumb executor: it decodes the coordinator's `init` frame
//! into a base configuration and a shared store, then answers each `job`
//! frame with a `done` frame until `bye` or EOF. All scheduling lives in
//! the coordinator; the worker's only policy is panic containment (a
//! panicking job becomes a [`JobStatus::Panicked`](crate::job::JobStatus)
//! outcome, the worker survives).
//!
//! When the `init` frame sets `store_sync` (and names no shared
//! `cache_dir`), the worker keeps a throwaway local invariant store: it
//! adds the store files a `job` frame carries before solving, and its
//! `done` frame carries the results the job stored. Workers on machines
//! with no shared filesystem get the same warm-start behavior as local
//! ones.
//!
//! Two entry points: [`serve_stdio`] speaks over stdin/stdout for local
//! child processes, [`serve_listener`] accepts fleet connections on a Unix
//! or TCP socket for remote workers, one thread per connection.

use crate::exec::{execute_contained, ExecContext};
use crate::proto::{read_frame, write_frame, Endpoint, Listener, FLEET_PROTO};
use crate::wire::{files_to_json, frame_files, outcome_to_json, pack_files, spec_from_json};
use astree_core::{AnalysisConfig, InvariantStore};
use astree_obs::Json;
use std::io::{self, BufRead, BufReader, Write};
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

/// Binds `endpoint` (see `proto::Listener::bind`: a live worker's socket is
/// refused, a stale one replaced) and serves fleet conversations forever,
/// one thread per connection.
pub fn serve_listener(endpoint: &Endpoint) -> io::Result<()> {
    let listener = Listener::bind(endpoint)?;
    eprintln!("astree worker listening on {}", listener.endpoint());
    loop {
        let conn = listener.accept()?;
        std::thread::spawn(move || {
            let mut writer = conn.writer;
            let _ = serve_conn(&mut BufReader::new(conn.reader), &mut writer);
        });
    }
}

fn bad_proto(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The name prefix of worker process `pid`'s wire-sync temp stores,
/// `astree-fleet-sync-<pid>-`, followed by a per-conversation number. The
/// worker names its stores with it; the coordinator removes a killed local
/// worker's with [`remove_sync_dirs`].
fn sync_dir_prefix(pid: u32) -> String {
    format!("astree-fleet-sync-{pid}-")
}

/// Removes the wire-sync temp stores of worker process `pid` from the temp
/// directory: a worker killed mid-conversation cannot remove its own.
pub(crate) fn remove_sync_dirs(pid: u32) {
    let prefix = sync_dir_prefix(pid);
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else { return };
    for entry in entries.flatten() {
        if entry.file_name().to_str().is_some_and(|name| name.starts_with(&prefix)) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// A worker-local invariant store for the wire sync, in a throwaway temp
/// directory that is removed when the conversation ends.
struct SyncStore {
    store: Arc<InvariantStore>,
    dir: PathBuf,
}

impl SyncStore {
    fn create() -> io::Result<SyncStore> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("{}{seq}", sync_dir_prefix(std::process::id())));
        let store = Arc::new(InvariantStore::open(&dir)?);
        Ok(SyncStore { store, dir })
    }

    /// Adds the store files a `job` frame carries; returns the (sorted)
    /// names held before the solve.
    fn receive(&self, job: &Json) -> Vec<String> {
        for (name, text) in frame_files(job) {
            self.store.import_file(name, text);
        }
        self.store.file_names()
    }

    /// The `files` of a `done` frame: what the job stored, i.e. the names
    /// that were not held `before` it.
    fn stored_since(&self, before: &[String]) -> Json {
        let mut new = self.store.file_names();
        new.retain(|n| before.binary_search(n).is_err());
        files_to_json(pack_files(&self.store, new))
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
    let mut config = AnalysisConfig::default();
    let sent = init.get("config").ok_or_else(|| bad_proto("init frame without config".into()))?;
    config.patch(sent).map_err(bad_proto)?;
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
                if frame.get("crash").and_then(Json::as_bool) == Some(true) {
                    // Fault injection: die exactly like a segfaulting worker
                    // would — no unwinding, no reply, no cleanup.
                    std::process::abort();
                }
                let held = sync.as_ref().map(|s| (s, s.receive(&frame)));
                let ctx = ExecContext {
                    config: &config,
                    cache: cache.clone(),
                    recorder: None,
                    pool: None,
                };
                let outcome = execute_contained(&spec, &ctx);
                let files =
                    held.map_or(Json::Arr(Vec::new()), |(s, before)| s.stored_since(&before));
                write_frame(
                    writer,
                    &Json::obj([
                        ("frame", Json::str("done")),
                        ("seq", Json::UInt(seq)),
                        ("outcome", outcome_to_json(&outcome)),
                        ("files", files),
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
    use crate::wire::{outcome_from_json, spec_to_json};
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
                ("config", config.to_json()),
                ("cache_dir", Json::Null),
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
