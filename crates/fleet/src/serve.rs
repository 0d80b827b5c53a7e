//! The resident analysis service (`astree serve`, `astree client`): one
//! process keeps a warm [`WorkerPool`] and a shared [`InvariantStore`], so
//! an edit-and-reanalyze loop pays the start-up costs once.
//!
//! The daemon speaks the fleet's vocabulary: a `run` request carries
//! `wire::spec_to_json` job specs and is answered with their
//! `wire::outcome_to_json` outcomes, computed by one [`FleetSession`] on the
//! resident pool and store — `astree batch`'s execution path, panic
//! containment and override decoding. Each connection gets a handler
//! thread; past `max_inflight` running requests the daemon answers
//! `overloaded` at once. Telemetry streams back as `astree-events/1`
//! records in `event` frames. The protocol, `astree-serve/2`, is specified
//! in `DESIGN.md`; [`client::Client`] is its blocking client.

pub mod client;

pub use crate::proto::Endpoint;
pub use client::{Client, ClientError, RequestOutcome};

use crate::job::{JobSpec, JobStatus};
use crate::proto::{read_frame, write_frame, Conn, Listener};
use crate::session::FleetSession;
use crate::wire::{outcome_to_json, spec_from_json};
use astree_core::{AnalysisConfig, InvariantStore};
use astree_obs::{Event, Json, Recorder, ServeCounters};
use astree_sched::WorkerPool;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The protocol identifier carried by every request and `status` frame.
pub const PROTO: &str = "astree-serve/2";

/// Daemon configuration, filled in by the `astree serve` CLI.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Workers in the shared analysis pool (1 = sequential, no threads).
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
    pool: Option<WorkerPool>,
    /// The base configuration of every job: defaults on `jobs` workers.
    config: AnalysisConfig,
    store: Option<Arc<InvariantStore>>,
    max_inflight: usize,
    inflight: AtomicUsize,
    stop: AtomicBool,
    counters: Mutex<ServeCounters>,
    started: Instant,
}

impl Daemon {
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

/// A bound, not-yet-serving daemon.
pub struct Server {
    daemon: Arc<Daemon>,
    listener: Listener,
}

impl Server {
    /// Opens the store, builds the pool and binds the endpoint
    /// (`proto::Listener::bind`: a live daemon's Unix socket is refused, a stale
    /// one replaced). For `Endpoint::Tcp` with port 0 the resolved address
    /// is available from [`Server::endpoint`].
    pub fn bind(endpoint: Endpoint, opts: ServeOptions) -> std::io::Result<Server> {
        let jobs = opts.jobs.max(1);
        let store = match &opts.cache_dir {
            Some(dir) => Some(Arc::new(InvariantStore::open(dir.clone())?)),
            None => None,
        };
        let listener = Listener::bind(&endpoint)?;
        listener.set_nonblocking(true)?;
        let daemon = Arc::new(Daemon {
            pool: (jobs > 1).then(|| WorkerPool::new(jobs)),
            config: AnalysisConfig { jobs, ..AnalysisConfig::default() },
            store,
            max_inflight: opts.max_inflight.max(1),
            inflight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            counters: Mutex::new(ServeCounters::default()),
            started: Instant::now(),
        });
        Ok(Server { daemon, listener })
    }

    /// The endpoint clients should connect to (TCP port resolved).
    pub fn endpoint(&self) -> &Endpoint {
        self.listener.endpoint()
    }

    /// Serves until a `shutdown` request arrives, then joins every
    /// connection handler and removes the Unix socket file.
    pub fn serve(self) -> std::io::Result<()> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.daemon.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(conn) => {
                    let daemon = Arc::clone(&self.daemon);
                    handlers.push(std::thread::spawn(move || handle_connection(daemon, conn)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Err(e) => return Err(e),
            }
            // Reap finished handlers so a long-lived daemon does not
            // accumulate join handles.
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
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
    thread: std::thread::JoinHandle<std::io::Result<()>>,
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
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().map_err(|_| std::io::Error::other("serve thread panicked"))?
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

fn handle_connection(daemon: Arc<Daemon>, conn: Conn) {
    let mut reader = BufReader::new(conn.reader);
    let writer: SharedWriter = Arc::new(Mutex::new(conn.writer));
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
            Some("run") => handle_run(&daemon, &writer, id, &req),
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

/// Decodes a `run` request's jobs and event mode. A job runs on the
/// daemon's pool, so its analysis workers are clamped to the pool's width.
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

/// Runs a `run` request as one [`FleetSession`] on the daemon's pool and
/// store, streaming events through the connection.
fn handle_run(daemon: &Arc<Daemon>, writer: &SharedWriter, id: u64, req: &Json) {
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
    if let Some(pool) = &daemon.pool {
        session = session.pool(pool);
    }
    if let Some(store) = &daemon.store {
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
    send(
        writer,
        &Json::obj([
            ("frame", Json::str("result")),
            ("id", Json::UInt(id)),
            ("outcomes", Json::Arr(report.outcomes.iter().map(outcome_to_json).collect())),
            ("events_streamed", Json::UInt(streamed)),
        ]),
    );
}
