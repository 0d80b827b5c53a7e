//! The one resident process (`astree serve`): it keeps a shared
//! [`InvariantStore`] warm, so an edit-and-reanalyze loop pays the start-up
//! costs once, and it is the fleet's worker.
//!
//! A `run` request carries `wire::spec_to_json` job specs and is answered
//! with their `wire::outcome_to_json` outcomes, computed by one
//! [`FleetSession`] on the resident store — `astree batch`'s
//! execution path. One connection loop serves every peer, each on a thread
//! of its own: clients ([`client::Client`], `astree client`) and fleet
//! coordinators, which reach a local child on stdin/stdout ([`serve_stdio`])
//! and a remote one on its socket. Past `max_inflight` running requests the
//! process answers `overloaded` at once. Telemetry streams back as
//! `astree-events/1` records in `event` frames. The protocol,
//! `astree-serve/2`, is specified in `DESIGN.md`.

pub mod client;

pub use crate::proto::Endpoint;
pub use client::{Client, ClientError, RequestOutcome};

use crate::job::{JobSpec, JobStatus};
use crate::proto::{read_frame, write_frame, Conn, Listener};
use crate::session::FleetSession;
use crate::wire::{files_to_json, frame_files, outcome_to_json, pack_files, spec_from_json};
use astree_core::{AnalysisConfig, InvariantStore};
use astree_obs::{Event, Json, Recorder, ServeCounters};
use std::io::{self, BufReader, Read, Write};
use std::net::Shutdown;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The protocol identifier carried by every request and `status` frame.
pub const PROTO: &str = "astree-serve/2";

/// Serving-process configuration, filled in by the `astree serve` CLI.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Threads each analysis runs on (1 = sequential, no threads).
    pub jobs: usize,
    /// Concurrent requests admitted before `overloaded` rejections.
    pub max_inflight: usize,
    /// Directory of the shared invariant store (None = no cache).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { jobs: 1, max_inflight: 8, cache_dir: None }
    }
}

/// Everything the connection handlers share.
struct Daemon {
    /// The base configuration of every job: defaults on `jobs` threads.
    config: AnalysisConfig,
    store: Option<Arc<InvariantStore>>,
    max_inflight: usize,
    inflight: AtomicUsize,
    stop: AtomicBool,
    counters: Mutex<ServeCounters>,
    started: Instant,
}

impl Daemon {
    fn new(opts: &ServeOptions) -> io::Result<Daemon> {
        let jobs = opts.jobs.max(1);
        let store = opts.cache_dir.as_ref().map(InvariantStore::open).transpose()?.map(Arc::new);
        Ok(Daemon {
            config: AnalysisConfig { jobs, ..AnalysisConfig::default() },
            store,
            max_inflight: opts.max_inflight.max(1),
            inflight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            counters: Mutex::new(ServeCounters::default()),
            started: Instant::now(),
        })
    }

    /// Tries to take an admission slot; `None` means overloaded.
    fn admit(self: &Arc<Daemon>) -> Option<AdmitGuard> {
        let take = |n: usize| (n < self.max_inflight).then_some(n + 1);
        let cur = self.inflight.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take).ok()?;
        self.count(|c| c.max_inflight_seen = c.max_inflight_seen.max(cur as u64 + 1));
        Some(AdmitGuard { daemon: Arc::clone(self) })
    }

    fn count(&self, f: impl FnOnce(&mut ServeCounters)) {
        f(&mut self.counters.lock().unwrap_or_else(|e| e.into_inner()));
    }
}

/// Releases the admission slot on drop, whatever path the request took.
struct AdmitGuard {
    daemon: Arc<Daemon>,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.daemon.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves one connection on stdin/stdout, until end-of-stream or
/// `shutdown`: `astree serve --stdio`, a coordinator's local worker.
pub fn serve_stdio(opts: &ServeOptions) -> io::Result<()> {
    handle_connection(Arc::new(Daemon::new(opts)?), io::stdin(), Box::new(io::stdout()));
    Ok(())
}

/// A bound, not-yet-serving daemon.
pub struct Server {
    daemon: Arc<Daemon>,
    listener: Listener,
}

impl Server {
    /// Opens the store and binds the endpoint
    /// (`proto::Listener::bind`: a live daemon's Unix socket is refused, a stale
    /// one replaced). For `Endpoint::Tcp` with port 0 the resolved address
    /// is available from [`Server::endpoint`].
    pub fn bind(endpoint: Endpoint, opts: ServeOptions) -> io::Result<Server> {
        let daemon = Arc::new(Daemon::new(&opts)?);
        Ok(Server { daemon, listener: Listener::bind(&endpoint)? })
    }

    /// The endpoint clients should connect to (TCP port resolved).
    pub fn endpoint(&self) -> &Endpoint {
        self.listener.endpoint()
    }

    /// Serves until a `shutdown` request arrives. Then it drops the
    /// listener, so no new peer connects, ends every connection's reads, so
    /// a handler waiting on an idle peer returns, and joins the handlers: a
    /// `run` in flight still sends its `result`.
    pub fn serve(self) -> io::Result<()> {
        let Server { daemon, listener } = self;
        let mut handlers: Vec<(std::thread::JoinHandle<()>, Conn)> = Vec::new();
        while !daemon.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(conn) => {
                    let (Ok(reader), Ok(peer)) = (conn.try_clone(), conn.try_clone()) else {
                        continue;
                    };
                    let daemon = Arc::clone(&daemon);
                    let handler = move || handle_connection(daemon, reader, Box::new(conn));
                    handlers.push((std::thread::spawn(handler), peer));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Err(e) => return Err(e),
            }
            // Reap finished handlers so a long-lived daemon does not
            // accumulate join handles.
            handlers.retain(|(h, _)| !h.is_finished());
        }
        drop(listener);
        for (_, peer) in &handlers {
            peer.shutdown(Shutdown::Read);
        }
        for (h, _) in handlers {
            let _ = h.join();
        }
        Ok(())
    }

    /// Runs [`Server::serve`] on a background thread — the in-process form
    /// used by tests and benches.
    pub fn spawn(self) -> ServerHandle {
        let endpoint = self.endpoint().clone();
        let daemon = Arc::clone(&self.daemon);
        let thread = std::thread::spawn(move || self.serve());
        ServerHandle { endpoint, daemon, thread }
    }
}

/// Handle on a daemon spawned in-process.
pub struct ServerHandle {
    endpoint: Endpoint,
    daemon: Arc<Daemon>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Snapshot of the daemon-lifetime counters.
    pub fn counters(&self) -> ServeCounters {
        *self.daemon.counters.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits for the daemon to shut down (send it a `shutdown` request
    /// first, e.g. via [`Client::shutdown`]).
    pub fn join(self) -> io::Result<()> {
        self.thread.join().map_err(|_| io::Error::other("serve thread panicked"))?
    }
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn send(writer: &SharedWriter, frame: &Json) {
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    // A client that hung up mid-request only loses its own frames.
    let _ = write_frame(&mut **w, frame);
}

fn error_frame(id: u64, code: &str, message: &str) -> Json {
    Json::obj([
        ("frame", Json::str("error")),
        ("id", Json::UInt(id)),
        ("code", Json::str(code)),
        ("message", Json::str(message)),
    ])
}

/// The name prefix of process `pid`'s temp stores,
/// `astree-fleet-sync-<pid>-`, followed by a per-connection number. The
/// process names its stores with it; a coordinator removes a killed local
/// worker's with [`remove_sync_dirs`].
fn sync_dir_prefix(pid: u32) -> String {
    format!("astree-fleet-sync-{pid}-")
}

/// Removes the temp stores of process `pid` from the temp directory: a
/// process killed mid-connection cannot remove its own.
pub(crate) fn remove_sync_dirs(pid: u32) {
    let prefix = sync_dir_prefix(pid);
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else { return };
    for entry in entries.flatten() {
        if entry.file_name().to_str().is_some_and(|name| name.starts_with(&prefix)) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// A connection's own invariant store, for the store exchange with a
/// process started without `--cache`: a temp directory, removed when the
/// connection ends.
struct TempStore(Arc<InvariantStore>);

impl TempStore {
    fn create() -> io::Result<TempStore> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = format!("{}{seq}", sync_dir_prefix(std::process::id()));
        Ok(TempStore(Arc::new(InvariantStore::open(std::env::temp_dir().join(dir))?)))
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0.dir());
    }
}

/// The one connection loop, for sockets and stdio alike.
fn handle_connection(daemon: Arc<Daemon>, reader: impl Read, writer: Box<dyn Write + Send>) {
    let mut reader = BufReader::new(reader);
    let writer: SharedWriter = Arc::new(Mutex::new(writer));
    let mut temp: Option<TempStore> = None;
    loop {
        let req = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // client closed cleanly
            Err(_) => {
                daemon.count(|c| c.bad_requests += 1);
                send(&writer, &error_frame(0, "bad_request", "malformed frame"));
                return;
            }
        };
        daemon.count(|c| c.requests += 1);
        let id = req.get("id").and_then(Json::as_u64).unwrap_or(0);
        match req.get("req").and_then(Json::as_str) {
            Some("status") => send(&writer, &status_frame(&daemon, id)),
            Some("shutdown") => {
                daemon.count(|c| c.completed += 1);
                send(&writer, &Json::obj([("frame", Json::str("bye")), ("id", Json::UInt(id))]));
                daemon.stop.store(true, Ordering::SeqCst);
                return;
            }
            Some("run") => handle_run(&daemon, &writer, id, &req, &mut temp),
            other => {
                daemon.count(|c| c.bad_requests += 1);
                let msg = match other {
                    Some(r) => format!("unknown request `{r}`"),
                    None => "missing `req` field".to_string(),
                };
                send(&writer, &error_frame(id, "bad_request", &msg));
            }
        }
    }
}

fn status_frame(daemon: &Arc<Daemon>, id: u64) -> Json {
    daemon.count(|c| c.completed += 1);
    let counters = *daemon.counters.lock().unwrap_or_else(|e| e.into_inner());
    Json::obj([
        ("frame", Json::str("status")),
        ("id", Json::UInt(id)),
        ("proto", Json::str(PROTO)),
        ("workers", Json::UInt(daemon.config.jobs as u64)),
        ("max_inflight", Json::UInt(daemon.max_inflight as u64)),
        ("inflight", Json::UInt(daemon.inflight.load(Ordering::SeqCst) as u64)),
        ("uptime_ms", Json::UInt(daemon.started.elapsed().as_millis() as u64)),
        ("serve", counters.to_json()),
        ("cache", daemon.store.as_ref().map_or(Json::Null, |s| s.counters().to_json())),
    ])
}

/// Which telemetry events stream back to the client.
#[derive(Clone, Copy, PartialEq)]
enum EventMode {
    None,
    /// Every streamed record but the high-volume per-iteration ones
    /// (`loop_iter` and batched `domain_op`).
    Coarse,
    /// Every record a `--metrics-stream` file holds.
    All,
}

/// Streams `astree-events/1` records back to the requesting client, each
/// wrapped in an `event` frame tagged with the request id: the records of
/// [`Event::to_record`], so a captured stream is schema-identical to
/// `--metrics-stream` output.
struct FrameRecorder {
    writer: SharedWriter,
    id: u64,
    mode: EventMode,
    streamed: AtomicU64,
}

impl Recorder for FrameRecorder {
    fn enabled(&self) -> bool {
        self.mode != EventMode::None
    }

    fn record(&self, event: &Event) {
        let wanted = match self.mode {
            EventMode::None => false,
            EventMode::Coarse => !matches!(event, Event::LoopIter(_) | Event::DomainOps { .. }),
            EventMode::All => true,
        };
        let Some(record) = wanted.then(|| event.to_record()).flatten() else { return };
        let frame = Json::obj([
            ("frame", Json::str("event")),
            ("id", Json::UInt(self.id)),
            ("event", record),
        ]);
        self.streamed.fetch_add(1, Ordering::Relaxed);
        send(&self.writer, &frame);
    }
}

/// Decodes a `run` request's jobs and event mode. A job's analysis runs on
/// at most the daemon's `jobs` threads.
fn parse_run(daemon: &Daemon, req: &Json) -> Result<(Vec<JobSpec>, EventMode), String> {
    let Some(Json::Arr(items)) = req.get("jobs") else {
        return Err("run needs a `jobs` array".into());
    };
    let jobs = items
        .iter()
        .map(|item| {
            let mut spec = spec_from_json(item)?;
            let mut config = spec.config(&daemon.config)?;
            config.jobs = config.jobs.min(daemon.config.jobs);
            spec.overrides = config.to_json();
            Ok(spec)
        })
        .collect::<Result<_, String>>()?;
    let mode = match req.get("events").map(Json::as_str) {
        None => EventMode::Coarse,
        Some(Some("none")) => EventMode::None,
        Some(Some("coarse")) => EventMode::Coarse,
        Some(Some("all")) => EventMode::All,
        _ => return Err("`events` must be \"none\", \"coarse\" or \"all\"".into()),
    };
    Ok((jobs, mode))
}

/// Runs a `run` request as one [`FleetSession`] on the daemon's store,
/// streaming events through the connection.
fn handle_run(
    daemon: &Arc<Daemon>,
    writer: &SharedWriter,
    id: u64,
    req: &Json,
    temp: &mut Option<TempStore>,
) {
    if req.get("crash").and_then(Json::as_bool) == Some(true) {
        // Fault injection (`--crash-on`): die as a segfaulting process
        // would — no unwinding, no reply, no cleanup.
        std::process::abort();
    }
    let Some(guard) = daemon.admit() else {
        daemon.count(|c| c.rejected_overloaded += 1);
        let msg = format!("{} requests already in flight", daemon.max_inflight);
        send(writer, &error_frame(id, "overloaded", &msg));
        return;
    };
    // Debug aid for deterministic overload tests: occupy the admission slot
    // for a bit before doing any work.
    if let Some(ms) = req.get("hold_ms").and_then(Json::as_u64) {
        std::thread::sleep(Duration::from_millis(ms.min(10_000)));
    }
    let (jobs, mode) = match parse_run(daemon, req) {
        Ok(parts) => parts,
        Err(msg) => {
            daemon.count(|c| c.bad_requests += 1);
            send(writer, &error_frame(id, "bad_request", &msg));
            return;
        }
    };
    // The store exchange: the `files` join the store the jobs run on — the
    // process's own, or the connection's temp store, created on first use —
    // and the `result` carries the files the jobs stored.
    let mut exchange = None;
    if req.get("files").is_some() {
        let store = match (&daemon.store, temp.as_ref()) {
            (Some(store), _) => Arc::clone(store),
            (None, Some(made)) => Arc::clone(&made.0),
            (None, None) => match TempStore::create() {
                Ok(made) => Arc::clone(&temp.insert(made).0),
                Err(e) => {
                    send(writer, &error_frame(id, "internal", &format!("temp store: {e}")));
                    return;
                }
            },
        };
        for (name, text) in frame_files(req) {
            store.import_file(name, text);
        }
        exchange = Some((store.file_names(), store));
    }
    let recorder = Arc::new(FrameRecorder {
        writer: Arc::clone(writer),
        id,
        mode,
        streamed: AtomicU64::new(0),
    });
    let mut session = FleetSession::builder()
        .jobs(jobs)
        .config(daemon.config.clone())
        .recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    if let Some(store) = exchange.as_ref().map(|(_, store)| store).or(daemon.store.as_ref()) {
        session = session.cache(Arc::clone(store));
    }
    let report = session.run();
    let panicked =
        report.outcomes.iter().filter(|o| o.status == JobStatus::Panicked).count() as u64;
    let streamed = recorder.streamed.load(Ordering::Relaxed);
    daemon.count(|c| {
        c.events_streamed += streamed;
        c.completed += 1;
        c.panicked += panicked;
    });
    drop(guard);
    let mut result = vec![
        ("frame", Json::str("result")),
        ("id", Json::UInt(id)),
        ("outcomes", Json::Arr(report.outcomes.iter().map(outcome_to_json).collect())),
        ("events_streamed", Json::UInt(streamed)),
    ];
    if let Some((held, store)) = exchange {
        let mut stored = store.file_names();
        stored.retain(|name| held.binary_search(name).is_err());
        result.push(("files", files_to_json(pack_files(&store, stored))));
    }
    send(writer, &Json::obj(result));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{result_outcomes, spec_to_json};
    use std::os::unix::net::UnixStream;

    /// Serves one connection of a process started without `--cache` on one
    /// end of a socket pair; returns the other end and the handler.
    fn serve_pair() -> (UnixStream, std::thread::JoinHandle<()>) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let daemon = Arc::new(Daemon::new(&ServeOptions::default()).unwrap());
        let writer = Box::new(theirs.try_clone().unwrap());
        (ours, std::thread::spawn(move || handle_connection(daemon, theirs, writer)))
    }

    /// Sends one frame and reads the one frame that answers it.
    fn ask(peer: &UnixStream, fields: Vec<(&str, Json)>) -> Json {
        write_frame(&mut &*peer, &Json::obj(fields)).unwrap();
        read_frame(&mut BufReader::new(peer)).unwrap().expect("an answer")
    }

    /// A `run` of one small job carrying `files`: its one outcome, and the
    /// `files` of its `result`.
    fn run_with_files(peer: &UnixStream, files: Json) -> (crate::job::JobOutcome, Json) {
        let spec = spec_to_json(&JobSpec::new("ok", "int main() { int x = 1; return x; }\n"));
        let run = [("req", Json::str("run")), ("jobs", Json::Arr(vec![spec])), ("files", files)];
        let result = ask(peer, run.into_iter().chain([("events", Json::str("none"))]).collect());
        let outcome = result_outcomes(&result).unwrap().pop().unwrap();
        (outcome, result.get("files").cloned().unwrap())
    }

    fn temp_stores() -> usize {
        let prefix = sync_dir_prefix(std::process::id());
        let names = std::fs::read_dir(std::env::temp_dir()).unwrap().flatten();
        names.filter(|e| e.file_name().to_string_lossy().starts_with(&prefix)).count()
    }

    #[test]
    fn conversation_over_in_memory_pipes() {
        let (peer, handler) = serve_pair();
        let status = ask(&peer, vec![("proto", Json::str(PROTO)), ("req", Json::str("status"))]);
        assert_eq!(status.get("proto").and_then(Json::as_str), Some(PROTO), "{status}");
        // A cold job on the connection's fresh temp store: the `result`
        // carries back the one file it stored.
        let (outcome, files) = run_with_files(&peer, Json::Arr(Vec::new()));
        assert_eq!((outcome.status, outcome.alarms), (JobStatus::Done, Some(0)));
        assert!(matches!(&files, Json::Arr(stored) if stored.len() == 1), "{files}");
        assert_eq!(temp_stores(), 1);
        peer.shutdown(Shutdown::Write).unwrap(); // EOF ends the connection
        handler.join().unwrap();
        assert_eq!(temp_stores(), 0, "the temp store goes with its connection");

        // A new connection starts empty; the file it is sent is a full hit.
        let (peer, handler) = serve_pair();
        let (outcome, stored) = run_with_files(&peer, files);
        assert!(outcome.cache_full_hit, "the shipped file was imported");
        assert_eq!(stored, Json::Arr(Vec::new()), "a full hit stores nothing");
        drop(peer);
        handler.join().unwrap();
    }

    #[test]
    fn wrong_proto_is_rejected() {
        let (peer, handler) = serve_pair();
        let answer = ask(&peer, vec![("proto", Json::str("bogus/9"))]);
        assert_eq!(answer.get("code").and_then(Json::as_str), Some("bad_request"), "{answer}");
        drop(peer);
        handler.join().unwrap();
    }
}
