//! The fleet coordinator: scatters jobs over worker lanes, steals work
//! between them, and survives worker crashes.
//!
//! Each lane drives one [`Transport`] — a local child process or a remote
//! socket — through the `astree-fleet/1` conversation:
//!
//! ```text
//! coordinator → worker   init        {proto, config, cache_dir, store_sync, crash_on}
//! worker → coordinator   ready       {pid}
//! coordinator → worker   job         {seq, spec}          (repeated)
//! worker → coordinator   store_get   {seq, have}          (syncing workers, before the solve)
//! coordinator → worker   store_files {seq, files}
//! worker → coordinator   store_put   {seq, files}         (after the solve, when changed)
//! worker → coordinator   done        {seq, outcome}       (one per job)
//! coordinator → worker   bye
//! ```
//!
//! Scheduling is deterministic in *outcome*, not in placement: jobs are
//! scattered to the least-loaded lane (an EWMA of per-lane service time
//! weights queue depth; with no history it degenerates to round-robin), an
//! idle lane steals from the back of the richest queue, and results land
//! in a slot table indexed by submission order, so the report is
//! byte-identical at any worker count even though which lane ran which job
//! is timing-dependent.
//!
//! Isolation policy: a worker that misses its deadline is killed and its
//! job reported [`JobStatus::TimedOut`]; a worker that dies mid-job has the
//! job re-scattered to another live lane (front of queue, so it runs next)
//! while the lane respawns its worker, until the per-job retry budget is
//! exhausted and the job is reported [`JobStatus::Crashed`].

use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::proto::{read_frame, write_frame, Endpoint, FLEET_PROTO, SYNC_BYTES_CAP};
use crate::wire::{config_to_json, content_fingerprint, outcome_from_json, spec_to_json};
use astree_core::{AnalysisConfig, InvariantStore};
use astree_obs::{FleetCounters, FleetWorkerCounters, Json};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a freshly started worker gets to answer `init` with `ready`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// One worker connection the coordinator can start, feed frames, and kill.
///
/// `start` may be called again after a failure: process transports spawn a
/// fresh child, socket transports reconnect. Each call returns the read
/// half for a *new* reader thread, so frames from a dead incarnation can
/// never be attributed to its replacement.
pub trait Transport: Send {
    /// Starts (or restarts) the worker and returns its frame stream.
    fn start(&mut self) -> io::Result<Box<dyn Read + Send>>;
    /// Sends one frame to the worker.
    fn send(&mut self, frame: &Json) -> io::Result<()>;
    /// Forcibly terminates the connection (and the child, if local).
    fn kill(&mut self);
    /// Human-readable identity for error messages.
    fn describe(&self) -> String;
}

/// A local `astree worker --stdio` child process.
pub struct ProcessTransport {
    cmd: Vec<String>,
    child: Option<Child>,
}

impl ProcessTransport {
    /// `cmd` is the argv to spawn; the fleet protocol runs over its
    /// stdin/stdout, stderr is inherited for debuggability.
    pub fn new(cmd: Vec<String>) -> ProcessTransport {
        assert!(!cmd.is_empty(), "worker command must not be empty");
        ProcessTransport { cmd, child: None }
    }
}

impl Transport for ProcessTransport {
    fn start(&mut self) -> io::Result<Box<dyn Read + Send>> {
        self.kill();
        let mut child = Command::new(&self.cmd[0])
            .args(&self.cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        self.child = Some(child);
        Ok(Box::new(stdout))
    }

    fn send(&mut self, frame: &Json) -> io::Result<()> {
        let child = self
            .child
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "worker not started"))?;
        let stdin = child
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "worker stdin closed"))?;
        write_frame(stdin, frame)
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn describe(&self) -> String {
        format!("process `{}`", self.cmd.join(" "))
    }
}

impl Drop for ProcessTransport {
    fn drop(&mut self) {
        self.kill();
    }
}

enum RawStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// A remote worker reached over a Unix or TCP socket (an
/// `astree worker --socket PATH` / `--listen ADDR` listener).
pub struct SocketTransport {
    endpoint: Endpoint,
    stream: Option<(RawStream, Box<dyn Write + Send>)>,
}

impl SocketTransport {
    pub fn new(endpoint: Endpoint) -> SocketTransport {
        SocketTransport { endpoint, stream: None }
    }
}

impl Transport for SocketTransport {
    fn start(&mut self) -> io::Result<Box<dyn Read + Send>> {
        self.kill();
        match &self.endpoint {
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                let reader = s.try_clone()?;
                let writer = s.try_clone()?;
                self.stream = Some((RawStream::Unix(s), Box::new(writer)));
                Ok(Box::new(reader))
            }
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true).ok();
                let reader = s.try_clone()?;
                let writer = s.try_clone()?;
                self.stream = Some((RawStream::Tcp(s), Box::new(writer)));
                Ok(Box::new(reader))
            }
        }
    }

    fn send(&mut self, frame: &Json) -> io::Result<()> {
        let (_, writer) = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "not connected"))?;
        write_frame(writer.as_mut(), frame)
    }

    fn kill(&mut self) {
        if let Some((raw, _)) = self.stream.take() {
            match raw {
                RawStream::Unix(s) => drop(s.shutdown(Shutdown::Both)),
                RawStream::Tcp(s) => drop(s.shutdown(Shutdown::Both)),
            }
        }
    }

    fn describe(&self) -> String {
        format!("socket {}", self.endpoint)
    }
}

/// Coordinator-side knobs, separate from the per-job analysis config.
pub struct FleetConfig<'a> {
    /// Base analysis configuration shipped to every worker's `init` frame.
    pub config: &'a AnalysisConfig,
    /// Directory of the shared invariant store, if the fleet has one and
    /// workers can reach it through the filesystem.
    pub cache_dir: Option<PathBuf>,
    /// The coordinator's own open invariant store, when workers should
    /// sync against it over the wire instead of a shared filesystem
    /// (`store_get`/`store_put` frames). Mutually exclusive with
    /// `cache_dir` in practice: a worker that can see the directory skips
    /// the wire exchange.
    pub store: Option<Arc<InvariantStore>>,
    /// Per-job deadline; a worker that misses it is killed.
    pub timeout: Option<Duration>,
    /// How many times a crashed job is re-scattered before giving up.
    pub retry_budget: u32,
    /// Fault injection for tests: the first worker of lane 0 aborts when it
    /// receives the job with this name. Respawns never inherit it.
    #[doc(hidden)]
    pub crash_on: Option<String>,
}

struct Shared {
    queues: Vec<VecDeque<usize>>,
    live: Vec<bool>,
    outcomes: Vec<Option<JobOutcome>>,
    retries: Vec<u32>,
    completed: usize,
    total: usize,
    counters: FleetCounters,
    /// Exponentially-weighted moving average of each lane's job service
    /// time in nanoseconds (α = 0.3); zero until the lane completes its
    /// first job.
    ewma: Vec<u64>,
}

/// The lane a fresh job should land on: the least-loaded live lane, where
/// load is queued depth weighted by the lane's EWMA service time. Before
/// any job completes every EWMA is zero and this degenerates to shortest
/// queue (round-robin at fill time).
fn scatter_lane(s: &Shared, exclude: Option<usize>) -> Option<usize> {
    (0..s.queues.len())
        .filter(|&l| s.live[l] && Some(l) != exclude)
        .min_by_key(|&l| (s.queues[l].len() as u64 + 1) * s.ewma[l].max(1))
}

struct Board {
    state: Mutex<Shared>,
    cv: Condvar,
    /// Monotonic generation of the coordinator store's contents, bumped on
    /// every wire import that changed a file (starts at 1 so a worker's
    /// initial `gen: 0` never matches). A `store_get` carrying the current
    /// generation is answered empty without touching the disk.
    store_gen: AtomicU64,
    /// Cached content fingerprints of the coordinator store's files,
    /// refreshed per file on import, so repeated pulls only re-read files
    /// they actually ship.
    store_fps: Mutex<HashMap<String, u64>>,
}

/// Runs `jobs` across the given worker lanes and returns their outcomes in
/// submission order plus the fleet counters.
///
/// Every job gets an outcome — [`JobStatus::Crashed`] with a detail message
/// in the worst case — so the caller never has to handle holes.
pub fn run_fleet(
    jobs: &[JobSpec],
    transports: Vec<Box<dyn Transport>>,
    cfg: &FleetConfig<'_>,
) -> (Vec<JobOutcome>, FleetCounters) {
    let lanes = transports.len();
    assert!(lanes > 0, "run_fleet needs at least one transport");
    // Initial scatter: least-loaded lane. With no timing history yet this
    // is exactly round-robin; the EWMA weighting matters when a job is
    // re-scattered mid-run (see `scatter_lane`).
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); lanes];
    for i in 0..jobs.len() {
        let lane = (0..lanes).min_by_key(|&l| queues[l].len()).unwrap();
        queues[lane].push_back(i);
    }
    let counters = FleetCounters {
        workers: lanes as u64,
        processes: true,
        jobs: jobs.len() as u64,
        per_worker: vec![FleetWorkerCounters::default(); lanes],
        ..FleetCounters::default()
    };
    let board = Board {
        state: Mutex::new(Shared {
            queues,
            live: vec![true; lanes],
            outcomes: (0..jobs.len()).map(|_| None).collect(),
            retries: vec![0; jobs.len()],
            completed: 0,
            total: jobs.len(),
            counters,
            ewma: vec![0; lanes],
        }),
        cv: Condvar::new(),
        store_gen: AtomicU64::new(1),
        store_fps: Mutex::new(HashMap::new()),
    };

    std::thread::scope(|scope| {
        for (idx, transport) in transports.into_iter().enumerate() {
            let board = &board;
            scope.spawn(move || lane(idx, transport, jobs, board, cfg));
        }
    });

    let shared = board.state.into_inner().unwrap();
    let outcomes = shared
        .outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| {
            o.unwrap_or_else(|| {
                let mut out = JobOutcome::empty(jobs[i].name.clone(), JobStatus::Crashed);
                out.detail = Some("job lost: all lanes exited".into());
                out
            })
        })
        .collect();
    (outcomes, shared.counters)
}

fn init_frame(cfg: &FleetConfig<'_>, crash_on: Option<&str>) -> Json {
    Json::obj([
        ("proto", Json::str(FLEET_PROTO)),
        ("frame", Json::str("init")),
        ("config", config_to_json(cfg.config)),
        (
            "cache_dir",
            cfg.cache_dir.as_ref().map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
        ("store_sync", Json::Bool(cfg.store.is_some())),
        ("crash_on", crash_on.map_or(Json::Null, Json::str)),
    ])
}

/// Answers a worker's `store_get`: every coordinator store file whose
/// content fingerprint differs from what the worker reports holding,
/// bounded by [`SYNC_BYTES_CAP`] per reply (`complete: false` tells the
/// worker to pull again for the remainder). A worker already at the
/// current store generation gets an empty reply without any disk reads.
fn store_files_reply(frame: &Json, cfg: &FleetConfig<'_>, board: &Board) -> Json {
    let seq = frame.get("seq").and_then(Json::as_u64).unwrap_or(0);
    // Read the generation before walking the directory: a concurrent
    // import makes the worker record a stale generation and simply pull
    // again next job.
    let gen_now = board.store_gen.load(Ordering::SeqCst);
    let reply = |files: Vec<Json>, complete: bool| {
        Json::obj([
            ("frame", Json::str("store_files")),
            ("seq", Json::UInt(seq)),
            ("gen", Json::UInt(gen_now)),
            ("complete", Json::Bool(complete)),
            ("files", Json::Arr(files)),
        ])
    };
    if frame.get("gen").and_then(Json::as_u64) == Some(gen_now) {
        return reply(Vec::new(), true);
    }
    let mut have: HashMap<&str, u64> = HashMap::new();
    if let Some(Json::Arr(items)) = frame.get("have") {
        for item in items {
            if let Json::Arr(kv) = item {
                if let (Some(name), Some(fp)) =
                    (kv.first().and_then(Json::as_str), kv.get(1).and_then(Json::as_u64))
                {
                    have.insert(name, fp);
                }
            }
        }
    }
    let mut files = Vec::new();
    let mut bytes = 0usize;
    let mut complete = true;
    if let Some(store) = &cfg.store {
        let mut fps = board.store_fps.lock().unwrap();
        for name in store.file_names() {
            let mut text = None;
            let fp = match fps.get(&name).copied() {
                Some(fp) => fp,
                None => {
                    let Some(t) = store.export_file(&name) else { continue };
                    let fp = content_fingerprint(&t);
                    fps.insert(name.clone(), fp);
                    text = Some(t);
                    fp
                }
            };
            if have.get(name.as_str()) == Some(&fp) {
                continue;
            }
            let Some(text) = text.or_else(|| store.export_file(&name)) else { continue };
            if bytes + text.len() > SYNC_BYTES_CAP {
                complete = false;
                continue;
            }
            bytes += text.len();
            files.push(Json::Arr(vec![Json::str(&name), Json::str(text)]));
        }
    }
    if !files.is_empty() {
        board.state.lock().unwrap().counters.store_gets += files.len() as u64;
    }
    reply(files, complete)
}

/// Handles a worker's `store_put`: adds each shipped file to the
/// coordinator's store (the store's own import dedup makes replays free)
/// and, when anything changed, refreshes the fingerprint cache and bumps
/// the store generation so other workers' pulls see the new content.
fn store_import(frame: &Json, cfg: &FleetConfig<'_>, board: &Board) {
    let Some(store) = &cfg.store else { return };
    let mut imported = 0u64;
    if let Some(Json::Arr(items)) = frame.get("files") {
        for item in items {
            if let Json::Arr(kv) = item {
                if let (Some(name), Some(text)) =
                    (kv.first().and_then(Json::as_str), kv.get(1).and_then(Json::as_str))
                {
                    if store.import_file(name, text) {
                        imported += 1;
                        // An accepted import is on disk byte for byte.
                        let mut fps = board.store_fps.lock().unwrap();
                        fps.insert(name.to_string(), content_fingerprint(text));
                    }
                }
            }
        }
    }
    if imported > 0 {
        board.store_gen.fetch_add(1, Ordering::SeqCst);
        board.state.lock().unwrap().counters.store_puts += imported;
    }
}

/// Starts the transport, spawns a dedicated reader thread, performs the
/// init/ready handshake, and returns the frame receiver.
fn spawn_worker(
    transport: &mut dyn Transport,
    cfg: &FleetConfig<'_>,
    crash_on: Option<&str>,
) -> Result<Receiver<Json>, String> {
    let reader = transport.start().map_err(|e| format!("{}: {e}", transport.describe()))?;
    let (tx, rx): (Sender<Json>, Receiver<Json>) = mpsc::channel();
    std::thread::spawn(move || {
        let mut r = BufReader::new(reader);
        while let Ok(Some(frame)) = read_frame(&mut r) {
            if tx.send(frame).is_err() {
                break; // coordinator lost interest (lane respawned or done)
            }
        }
        // EOF or malformed frame: dropping `tx` disconnects the lane.
    });
    transport
        .send(&init_frame(cfg, crash_on))
        .map_err(|e| format!("{}: init: {e}", transport.describe()))?;
    let deadline = cfg.timeout.unwrap_or(HANDSHAKE_TIMEOUT).max(HANDSHAKE_TIMEOUT);
    match rx.recv_timeout(deadline) {
        Ok(frame) if frame.get("frame").and_then(Json::as_str) == Some("ready") => Ok(rx),
        Ok(frame) => {
            Err(format!("{}: expected ready, got {}", transport.describe(), frame.to_compact()))
        }
        Err(_) => Err(format!("{}: no ready within {deadline:?}", transport.describe())),
    }
}

/// Claims the next job for `idx`: own queue first, then the richest other
/// queue (a steal), otherwise blocks until work appears or the fleet is
/// done. `None` means done.
fn claim_job(idx: usize, board: &Board) -> Option<usize> {
    let mut s = board.state.lock().unwrap();
    loop {
        if s.completed == s.total {
            return None;
        }
        if let Some(i) = s.queues[idx].pop_front() {
            return Some(i);
        }
        let victim = (0..s.queues.len())
            .filter(|&l| l != idx && !s.queues[l].is_empty())
            .max_by_key(|&l| s.queues[l].len());
        if let Some(v) = victim {
            let i = s.queues[v].pop_back().unwrap();
            s.counters.steals += 1;
            s.counters.per_worker[idx].steals += 1;
            return Some(i);
        }
        s = board.cv.wait(s).unwrap();
    }
}

/// Records a terminal outcome for `job_idx` and wakes every lane.
fn complete(idx: usize, job_idx: usize, mut outcome: JobOutcome, busy: Duration, board: &Board) {
    let mut s = board.state.lock().unwrap();
    outcome.worker = idx;
    outcome.resent = s.retries[job_idx];
    s.counters.per_worker[idx].jobs += 1;
    s.counters.per_worker[idx].busy_nanos += busy.as_nanos() as u64;
    let busy_nanos = busy.as_nanos() as u64;
    s.ewma[idx] =
        if s.ewma[idx] == 0 { busy_nanos } else { (3 * busy_nanos + 7 * s.ewma[idx]) / 10 };
    s.counters.per_worker[idx].ewma_nanos = s.ewma[idx];
    s.outcomes[job_idx] = Some(outcome);
    s.completed += 1;
    board.cv.notify_all();
}

/// Takes this lane out of service, rehoming its queued jobs — to another
/// live lane if one exists, otherwise each is reported crashed.
fn lane_dead(idx: usize, jobs: &[JobSpec], board: &Board, reason: &str) {
    let mut s = board.state.lock().unwrap();
    s.live[idx] = false;
    let orphans: Vec<usize> = s.queues[idx].drain(..).collect();
    let target = scatter_lane(&s, None);
    for i in orphans {
        match target {
            Some(t) => s.queues[t].push_back(i),
            None => {
                let mut out = JobOutcome::empty(jobs[i].name.clone(), JobStatus::Crashed);
                out.detail = Some(format!("no live workers left ({reason})"));
                out.worker = idx;
                out.resent = s.retries[i];
                s.outcomes[i] = Some(out);
                s.completed += 1;
            }
        }
    }
    board.cv.notify_all();
}

fn lane(
    idx: usize,
    mut transport: Box<dyn Transport>,
    jobs: &[JobSpec],
    board: &Board,
    cfg: &FleetConfig<'_>,
) {
    // Only the very first incarnation of lane 0 carries the crash knob, so
    // the respawned worker can finish the re-scattered job.
    let crash_on = if idx == 0 { cfg.crash_on.as_deref() } else { None };
    let mut rx = match spawn_worker(transport.as_mut(), cfg, crash_on) {
        Ok(rx) => rx,
        Err(reason) => {
            lane_dead(idx, jobs, board, &reason);
            return;
        }
    };

    while let Some(job_idx) = claim_job(idx, board) {
        let t0 = Instant::now();
        let frame = Json::obj([
            ("frame", Json::str("job")),
            ("seq", Json::UInt(job_idx as u64)),
            ("spec", spec_to_json(&jobs[job_idx])),
        ]);
        // Wait for the job's `done`, servicing store-sync frames as they
        // arrive (a syncing worker sends `store_get` before solving and
        // `store_put` after, both inside the job's deadline).
        let reply = match transport.send(&frame) {
            Ok(()) => {
                let deadline = cfg.timeout.map(|t| Instant::now() + t);
                loop {
                    let next = match deadline {
                        Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
                        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    };
                    match next {
                        Ok(f) => match f.get("frame").and_then(Json::as_str) {
                            Some("store_get") => {
                                if transport.send(&store_files_reply(&f, cfg, board)).is_err() {
                                    break Err(RecvTimeoutError::Disconnected);
                                }
                            }
                            Some("store_put") => store_import(&f, cfg, board),
                            _ => break Ok(f),
                        },
                        Err(e) => break Err(e),
                    }
                }
            }
            Err(_) => Err(RecvTimeoutError::Disconnected),
        };
        match reply {
            Ok(frame) => {
                let ok = frame.get("frame").and_then(Json::as_str) == Some("done")
                    && frame.get("seq").and_then(Json::as_u64) == Some(job_idx as u64);
                let outcome = if ok {
                    frame
                        .get("outcome")
                        .ok_or_else(|| "done frame without outcome".to_string())
                        .and_then(outcome_from_json)
                } else {
                    Err(format!("unexpected frame {}", frame.to_compact()))
                };
                match outcome {
                    Ok(out) => complete(idx, job_idx, out, t0.elapsed(), board),
                    Err(reason) => {
                        // A worker speaking garbage is as good as dead.
                        if !crash_recover(
                            idx,
                            job_idx,
                            jobs,
                            transport.as_mut(),
                            board,
                            cfg,
                            &mut rx,
                            &reason,
                        ) {
                            return;
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                transport.kill();
                let mut out = JobOutcome::empty(jobs[job_idx].name.clone(), JobStatus::TimedOut);
                out.detail = Some(format!("no response within {:?}", cfg.timeout.unwrap()));
                {
                    let mut s = board.state.lock().unwrap();
                    s.counters.timeouts += 1;
                }
                complete(idx, job_idx, out, t0.elapsed(), board);
                match spawn_worker(transport.as_mut(), cfg, None) {
                    Ok(next) => {
                        rx = next;
                        board.state.lock().unwrap().counters.respawns += 1;
                    }
                    Err(reason) => {
                        lane_dead(idx, jobs, board, &reason);
                        return;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                let reason = format!("{} disconnected", transport.describe());
                if !crash_recover(
                    idx,
                    job_idx,
                    jobs,
                    transport.as_mut(),
                    board,
                    cfg,
                    &mut rx,
                    &reason,
                ) {
                    return;
                }
            }
        }
    }
    let _ = transport.send(&Json::obj([("frame", Json::str("bye"))]));
    transport.kill();
}

/// Crash path: charge the job's retry budget, re-scatter or fail it, and
/// respawn this lane's worker. Returns `false` if the lane could not be
/// revived (the caller must exit).
#[allow(clippy::too_many_arguments)]
fn crash_recover(
    idx: usize,
    job_idx: usize,
    jobs: &[JobSpec],
    transport: &mut dyn Transport,
    board: &Board,
    cfg: &FleetConfig<'_>,
    rx: &mut Receiver<Json>,
    reason: &str,
) -> bool {
    transport.kill();
    {
        let mut s = board.state.lock().unwrap();
        s.counters.crashes += 1;
        s.retries[job_idx] += 1;
        if s.retries[job_idx] > cfg.retry_budget {
            let mut out = JobOutcome::empty(jobs[job_idx].name.clone(), JobStatus::Crashed);
            out.detail = Some(format!("{reason}; retry budget of {} exhausted", cfg.retry_budget));
            out.worker = idx;
            out.resent = s.retries[job_idx] - 1;
            s.outcomes[job_idx] = Some(out);
            s.completed += 1;
        } else {
            // Front of the least-loaded other lane's queue so the orphan
            // runs next where it waits the shortest (EWMA-weighted); fall
            // back to our own queue (we are about to respawn).
            s.counters.resent += 1;
            let target = scatter_lane(&s, Some(idx)).unwrap_or(idx);
            s.queues[target].push_front(job_idx);
        }
        board.cv.notify_all();
    }
    match spawn_worker(transport, cfg, None) {
        Ok(next) => {
            *rx = next;
            board.state.lock().unwrap().counters.respawns += 1;
            true
        }
        Err(spawn_reason) => {
            lane_dead(idx, jobs, board, &spawn_reason);
            false
        }
    }
}
