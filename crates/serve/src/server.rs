//! The resident analysis daemon.
//!
//! One process owns the expensive long-lived machinery — a warm
//! [`WorkerPool`] and a shared [`InvariantStore`] — and serves analysis
//! requests over the `astree-serve/1` protocol. Each connection gets a
//! handler thread; concurrency comes from concurrent connections, all
//! multiplexed onto the same pool (its scatter entry point is designed for
//! exactly this). An admission gate bounds the number of simultaneously
//! running requests: past `max_inflight` the daemon answers `overloaded`
//! immediately instead of queueing unboundedly, so a control script can
//! apply back-pressure. A request that panics is isolated by
//! `catch_unwind` — it answers `panicked` and the daemon keeps serving.

use crate::proto::{read_frame, write_frame, Conn, Endpoint, PROTO};
use astree_core::{AnalysisConfig, AnalysisResult, AnalysisSession, InvariantStore};
use astree_fleet::{FleetSession, JobOutcome, JobSpec, JobStatus};
use astree_frontend::Frontend;
use astree_obs::{
    events, AlarmEvent, BatchJobEvent, CacheCounters, FleetCounters, Json, LoopDoneEvent,
    LoopIterEvent, PoolCounters, Recorder, ServeCounters, SliceEvent,
};
use astree_sched::{panic_message, WorkerPool};
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    jobs: usize,
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
        let mut cur = self.inflight.load(Ordering::SeqCst);
        loop {
            if cur >= self.max_inflight {
                return None;
            }
            match self.inflight.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let mut c = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        c.max_inflight_seen = c.max_inflight_seen.max(cur as u64 + 1);
        drop(c);
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

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

/// A bound, not-yet-serving daemon.
pub struct Server {
    daemon: Arc<Daemon>,
    listener: Listener,
    endpoint: Endpoint,
}

impl Server {
    /// Binds the endpoint and builds the shared machinery (pool, store).
    /// For `Endpoint::Tcp` with port 0 the resolved address is available
    /// from [`Server::endpoint`]. A stale Unix socket file is replaced.
    pub fn bind(endpoint: Endpoint, opts: ServeOptions) -> std::io::Result<Server> {
        let jobs = opts.jobs.max(1);
        let store = match &opts.cache_dir {
            Some(dir) => Some(Arc::new(InvariantStore::open(dir.clone())?)),
            None => None,
        };
        let daemon = Arc::new(Daemon {
            pool: (jobs > 1).then(|| WorkerPool::new(jobs)),
            jobs,
            store,
            max_inflight: opts.max_inflight.max(1),
            inflight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            counters: Mutex::new(ServeCounters::default()),
            started: Instant::now(),
        });
        let (listener, endpoint) = match endpoint {
            Endpoint::Unix(path) => {
                // A previous daemon that died without cleanup leaves the
                // socket file behind; connecting distinguishes live from
                // stale.
                if path.exists() {
                    if std::os::unix::net::UnixStream::connect(&path).is_ok() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::AddrInUse,
                            format!("a daemon is already serving on {}", path.display()),
                        ));
                    }
                    std::fs::remove_file(&path)?;
                }
                let l = UnixListener::bind(&path)?;
                l.set_nonblocking(true)?;
                (Listener::Unix(l, path.clone()), Endpoint::Unix(path))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                let actual = l.local_addr()?.to_string();
                (Listener::Tcp(l), Endpoint::Tcp(actual))
            }
        };
        Ok(Server { daemon, listener, endpoint })
    }

    /// The endpoint clients should connect to (TCP port resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Serves until a `shutdown` request arrives, then joins every
    /// connection handler and removes the Unix socket file.
    pub fn serve(self) -> std::io::Result<()> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.daemon.stop.load(Ordering::SeqCst) {
                break;
            }
            let conn = match &self.listener {
                Listener::Unix(l, _) => match l.accept() {
                    Ok((s, _)) => Some(Conn::from_unix(s)?),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
                Listener::Tcp(l) => match l.accept() {
                    Ok((s, _)) => Some(Conn::from_tcp(s)?),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
            };
            match conn {
                Some(conn) => {
                    let daemon = Arc::clone(&self.daemon);
                    handlers.push(std::thread::spawn(move || handle_connection(daemon, conn)));
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
            // Reap finished handlers so a long-lived daemon does not
            // accumulate join handles.
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Runs [`Server::serve`] on a background thread — the in-process form
    /// used by tests and benches.
    pub fn spawn(self) -> ServerHandle {
        let endpoint = self.endpoint.clone();
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
    /// first, e.g. via [`crate::Client::shutdown`]).
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
            Some("analyze") => handle_analyze(&daemon, &writer, id, &req),
            Some("batch") => handle_batch(&daemon, &writer, id, &req),
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
    let cache = match &daemon.store {
        Some(store) => cache_counters_json(&store.counters()),
        None => Json::Null,
    };
    Json::obj([
        ("frame", Json::str("status")),
        ("id", Json::UInt(id)),
        ("proto", Json::str(PROTO)),
        ("workers", Json::UInt(daemon.jobs as u64)),
        ("max_inflight", Json::UInt(daemon.max_inflight as u64)),
        ("inflight", Json::UInt(daemon.inflight.load(Ordering::SeqCst) as u64)),
        ("uptime_ms", Json::UInt(daemon.started.elapsed().as_millis() as u64)),
        ("serve", counters.to_json()),
        ("cache", cache),
    ])
}

fn cache_counters_json(c: &CacheCounters) -> Json {
    Json::obj([
        ("full_hits", Json::UInt(c.full_hits)),
        ("misses", Json::UInt(c.misses)),
        ("loops_solved", Json::UInt(c.loops_solved)),
        ("corrupt_files", Json::UInt(c.corrupt_files)),
    ])
}

/// Which telemetry events stream back to the client.
#[derive(Clone, Copy, PartialEq)]
enum EventMode {
    None,
    /// Per-loop and per-phase records, alarms, scheduler and cache reports
    /// — everything except the high-volume per-iteration stream.
    Coarse,
    /// Adds `loop_iter` and batched `domain_op` records.
    All,
}

/// Streams `astree-events/1` records back to the requesting client, each
/// wrapped in an `event` frame tagged with the request id. Reuses the same
/// record builders as the on-disk JSONL sink, so a captured stream is
/// schema-identical to `--metrics-stream` output.
struct FrameRecorder {
    writer: SharedWriter,
    id: u64,
    mode: EventMode,
    streamed: AtomicU64,
}

impl FrameRecorder {
    fn event(&self, record: Json) {
        let frame = Json::obj([
            ("frame", Json::str("event")),
            ("id", Json::UInt(self.id)),
            ("event", record),
        ]);
        self.streamed.fetch_add(1, Ordering::Relaxed);
        send(&self.writer, &frame);
    }
}

impl Recorder for FrameRecorder {
    fn enabled(&self) -> bool {
        self.mode != EventMode::None
    }

    fn loop_iter(&self, e: &LoopIterEvent) {
        if self.mode == EventMode::All {
            self.event(events::loop_iter(e));
        }
    }

    fn loop_done(&self, e: &LoopDoneEvent) {
        self.event(events::loop_done(e));
    }

    fn unroll(&self, func: &str, loop_id: u32, factor: u32) {
        self.event(events::unroll(func, loop_id, factor));
    }

    fn partitions(&self, func: &str, live: u64) {
        self.event(events::partitions(func, live));
    }

    fn domain_op_n(&self, domain: &'static str, op: &'static str, count: u64, nanos: u64) {
        if self.mode == EventMode::All && count > 0 {
            self.event(events::domain_op_n(domain, op, count, nanos));
        }
    }

    fn phase_time(&self, phase: &'static str, nanos: u64) {
        self.event(events::phase_time(phase, nanos));
    }

    fn alarm(&self, e: &AlarmEvent) {
        self.event(events::alarm(e));
    }

    fn plan(&self, nanos: u64) {
        self.event(events::plan(nanos));
    }

    fn slice(&self, e: &SliceEvent) {
        self.event(events::slice(e));
    }

    fn merge(&self, stage: u64, slices: usize, nanos: u64) {
        self.event(events::merge(stage, slices, nanos));
    }

    fn fallback(&self, reason: &'static str) {
        self.event(events::fallback(reason));
    }

    fn pool(&self, p: &PoolCounters) {
        self.event(events::pool(p));
    }

    fn batch_job(&self, e: &BatchJobEvent) {
        self.event(events::batch_job(e));
    }

    fn cache(&self, c: &CacheCounters) {
        self.event(events::cache(c));
    }

    fn fleet(&self, c: &FleetCounters) {
        self.event(events::fleet(c));
    }
}

/// Applies the request's optional `config` object on top of the defaults.
/// Unknown keys are rejected so a typo fails loudly instead of silently
/// analyzing with defaults.
fn parse_config(daemon: &Daemon, req: &Json) -> Result<AnalysisConfig, String> {
    let mut config = AnalysisConfig::default();
    config.jobs = daemon.jobs;
    let Some(obj) = req.get("config") else {
        return Ok(config);
    };
    let Json::Obj(pairs) = obj else {
        return Err("`config` must be an object".into());
    };
    for (key, value) in pairs {
        match key.as_str() {
            "max_clock" => match value {
                Json::UInt(v) => config.max_clock = *v as i64,
                Json::Int(v) => config.max_clock = *v,
                _ => return Err("config.max_clock must be an integer".into()),
            },
            "unroll" => {
                config.loop_unroll = value
                    .as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or("config.unroll must be a small integer")?;
            }
            "jobs" => {
                let j = value.as_u64().ok_or("config.jobs must be an integer")? as usize;
                config.jobs = j.clamp(1, daemon.jobs);
            }
            "octagons" => config.enable_octagons = value.as_bool().ok_or("octagons: bool")?,
            "dtrees" => config.enable_dtrees = value.as_bool().ok_or("dtrees: bool")?,
            "ellipsoids" => config.enable_ellipsoids = value.as_bool().ok_or("ellipsoids: bool")?,
            "clocked" => config.enable_clocked = value.as_bool().ok_or("clocked: bool")?,
            "linearize" => {
                config.enable_linearization = value.as_bool().ok_or("linearize: bool")?
            }
            "partition" => match value {
                Json::Arr(names) => {
                    for n in names {
                        let n = n.as_str().ok_or("config.partition entries must be strings")?;
                        config.partitioned_functions.insert(n.to_string());
                    }
                }
                _ => return Err("config.partition must be an array of function names".into()),
            },
            other => return Err(format!("unknown config key `{other}`")),
        }
    }
    Ok(config)
}

fn parse_event_mode(req: &Json) -> Result<EventMode, String> {
    match req.get("events").map(|v| v.as_str()) {
        None => Ok(EventMode::Coarse),
        Some(Some("none")) => Ok(EventMode::None),
        Some(Some("coarse")) => Ok(EventMode::Coarse),
        Some(Some("all")) => Ok(EventMode::All),
        _ => Err("`events` must be \"none\", \"coarse\" or \"all\"".into()),
    }
}

/// Compiles and analyzes one source on the daemon's shared machinery.
/// Returns the fields of the `result` frame (everything but `frame`/`id`).
fn run_analysis(
    daemon: &Daemon,
    source: &str,
    config: AnalysisConfig,
    recorder: &dyn Recorder,
) -> Result<AnalysisResult, String> {
    let program =
        Frontend::new().compile_units(&[source]).map_err(|e| format!("compile error: {e}"))?;
    let errs = program.validate();
    if !errs.is_empty() {
        return Err(format!("invalid program: {}", errs.join("; ")));
    }
    let mut builder = AnalysisSession::builder(&program).config(config).recorder(recorder);
    if let Some(pool) = &daemon.pool {
        builder = builder.pool(pool);
    }
    if let Some(store) = &daemon.store {
        builder = builder.cache(Arc::clone(store));
    }
    Ok(builder.build().run())
}

/// Renders an [`AnalysisResult`] into `result`-frame fields. The alarm and
/// invariant strings use the same `Display` impls as the one-shot CLI, so
/// a client can diff serve output against `astree analyze` byte-for-byte.
fn result_fields(result: &AnalysisResult) -> Vec<(&'static str, Json)> {
    let alarms = result.alarms.iter().map(|a| Json::str(a.to_string())).collect();
    let s = &result.stats;
    vec![
        ("alarms", Json::Arr(alarms)),
        (
            "main_invariant",
            match &result.main_invariant {
                Some(inv) => Json::str(inv.to_string()),
                None => Json::Null,
            },
        ),
        (
            "main_census",
            match &result.main_census {
                Some(c) => Json::str(c.to_string()),
                None => Json::Null,
            },
        ),
        (
            "stats",
            Json::obj([
                ("cells", Json::UInt(s.cells as u64)),
                ("octagon_packs", Json::UInt(s.octagon_packs as u64)),
                ("ellipse_packs", Json::UInt(s.ellipse_packs as u64)),
                ("dtree_packs", Json::UInt(s.dtree_packs as u64)),
                ("loop_iterations", Json::UInt(s.loop_iterations)),
                ("stmts_interpreted", Json::UInt(s.stmts_interpreted)),
                ("parallel_stages", Json::UInt(s.parallel_stages)),
                ("parallel_slices", Json::UInt(s.parallel_slices)),
                ("loops_solved", Json::UInt(s.loops_solved)),
                ("time_iterate_ns", Json::UInt(s.time_iterate.as_nanos() as u64)),
                ("time_check_ns", Json::UInt(s.time_check.as_nanos() as u64)),
                ("time_replay_ns", Json::UInt(s.time_replay.as_nanos() as u64)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("enabled", Json::Bool(result.cache.enabled)),
                ("full_hit", Json::Bool(result.cache.full_hit)),
            ]),
        ),
    ]
}

fn handle_analyze(daemon: &Arc<Daemon>, writer: &SharedWriter, id: u64, req: &Json) {
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
    let setup = || -> Result<(String, AnalysisConfig, EventMode), String> {
        let source = req
            .get("source")
            .and_then(Json::as_str)
            .ok_or("analyze needs a `source` string")?
            .to_string();
        Ok((source, parse_config(daemon, req)?, parse_event_mode(req)?))
    };
    let (source, config, mode) = match setup() {
        Ok(parts) => parts,
        Err(msg) => {
            daemon.count(|c| c.bad_requests += 1);
            send(writer, &error_frame(id, "bad_request", &msg));
            return;
        }
    };
    let recorder =
        FrameRecorder { writer: Arc::clone(writer), id, mode, streamed: AtomicU64::new(0) };
    let outcome =
        catch_unwind(AssertUnwindSafe(|| run_analysis(daemon, &source, config, &recorder)));
    let streamed = recorder.streamed.load(Ordering::Relaxed);
    daemon.count(|c| c.events_streamed += streamed);
    drop(guard);
    match outcome {
        Ok(Ok(result)) => {
            daemon.count(|c| c.completed += 1);
            let mut fields = vec![("frame", Json::str("result")), ("id", Json::UInt(id))];
            fields.extend(result_fields(&result));
            fields.push(("events_streamed", Json::UInt(streamed)));
            send(writer, &Json::obj(fields));
        }
        Ok(Err(msg)) => {
            daemon.count(|c| c.bad_requests += 1);
            send(writer, &error_frame(id, "bad_request", &msg));
        }
        Err(panic) => {
            daemon.count(|c| c.panicked += 1);
            send(writer, &error_frame(id, "panicked", &panic_message(panic.as_ref())));
        }
    }
}

fn handle_batch(daemon: &Arc<Daemon>, writer: &SharedWriter, id: u64, req: &Json) {
    let Some(guard) = daemon.admit() else {
        daemon.count(|c| c.rejected_overloaded += 1);
        let msg = format!("{} requests already in flight", daemon.max_inflight);
        send(writer, &error_frame(id, "overloaded", &msg));
        return;
    };
    let setup = || -> Result<(Vec<JobSpec>, AnalysisConfig, EventMode), String> {
        let Some(Json::Arr(items)) = req.get("jobs") else {
            return Err("batch needs a `jobs` array".into());
        };
        let mut jobs = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| format!("job-{i}"));
            let source = item
                .get("source")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("batch job {i} needs a `source` string"))?;
            jobs.push(JobSpec::new(name, source));
        }
        Ok((jobs, parse_config(daemon, req)?, parse_event_mode(req)?))
    };
    let (jobs, config, mode) = match setup() {
        Ok(parts) => parts,
        Err(msg) => {
            daemon.count(|c| c.bad_requests += 1);
            send(writer, &error_frame(id, "bad_request", &msg));
            return;
        }
    };
    // The daemon's batch is a FleetSession on its resident machinery: jobs
    // run in-process (sequentially, on the warm pool), share the daemon's
    // store, and stream through the connection's recorder — same outcomes
    // as `astree batch` at any distribution, per the fleet contract.
    let recorder = Arc::new(FrameRecorder {
        writer: Arc::clone(writer),
        id,
        mode,
        streamed: AtomicU64::new(0),
    });
    let mut builder = FleetSession::builder()
        .jobs(jobs)
        .config(config)
        .recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    if let Some(pool) = &daemon.pool {
        builder = builder.pool(pool);
    }
    if let Some(store) = &daemon.store {
        builder = builder.cache(Arc::clone(store));
    }
    let report = builder.run();
    let panicked =
        report.outcomes.iter().filter(|o| o.status == JobStatus::Panicked).count() as u64;
    let outcomes: Vec<Json> = report.outcomes.iter().map(batch_outcome_fields).collect();
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
            ("batch", Json::Arr(outcomes)),
            ("events_streamed", Json::UInt(streamed)),
        ]),
    );
}

/// Renders one fleet outcome as a `batch` array entry: `done` jobs carry
/// the analysis fields, everything else carries a `message`.
fn batch_outcome_fields(o: &JobOutcome) -> Json {
    let mut fields =
        vec![("name", Json::str(o.name.clone())), ("status", Json::str(o.status.slug()))];
    if o.status == JobStatus::Done {
        fields.push(("alarms", Json::Arr(o.alarm_lines.iter().map(Json::str).collect())));
        fields.push(("main_invariant", o.main_invariant.as_deref().map_or(Json::Null, Json::str)));
        fields.push(("main_census", o.main_census.as_deref().map_or(Json::Null, Json::str)));
        fields.push(("cache", Json::obj([("full_hit", Json::Bool(o.cache_full_hit))])));
    } else {
        fields.push(("message", Json::str(o.detail.clone().unwrap_or_default())));
    }
    Json::obj(fields)
}
