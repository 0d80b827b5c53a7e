//! The fleet coordinator: hands jobs to worker lanes from one queue and
//! survives worker crashes.
//!
//! Each lane drives one [`Transport`] — a local child process or a remote
//! socket — through the `astree-fleet/2` conversation:
//!
//! ```text
//! coordinator → worker   init   {proto, config, cache_dir, store_sync}
//! worker → coordinator   ready  {pid}
//! coordinator → worker   job    {seq, spec, crash, files}   (repeated)
//! worker → coordinator   done   {seq, outcome, files}       (one per job)
//! coordinator → worker   bye
//! ```
//!
//! With `store_sync`, the store exchange rides those frames: a `job`
//! carries the coordinator's store files the lane's current worker does not
//! hold yet, a `done` the results the worker stored during the job. A
//! store file's name is its result, so the coordinator keeps, per lane,
//! only the set of names it has exchanged with the current worker.
//!
//! Scheduling is deterministic in *outcome*, not in placement: an idle
//! lane pulls the next job from one pending FIFO, and results land in a
//! slot table indexed by submission order, so the report is byte-identical
//! at any worker count even though which lane ran which job is
//! timing-dependent.
//!
//! Isolation policy: a worker that misses its deadline is killed and its
//! job reported [`JobStatus::TimedOut`]; a worker that dies mid-job has the
//! job put back at the front of the queue (so it runs next) while the lane
//! respawns its worker, until the per-job retry budget is exhausted and the
//! job is reported [`JobStatus::Crashed`]. When the last lane dies, every
//! pending job is reported crashed.

use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::proto::{read_frame, write_frame, Endpoint, FLEET_PROTO};
use crate::session::FleetOptions;
use crate::wire::{files_to_json, frame_files, outcome_from_json, pack_files, spec_to_json};
use crate::worker::remove_sync_dirs;
use astree_core::{AnalysisConfig, InvariantStore};
use astree_obs::{FleetCounters, FleetWorkerCounters, Json};
use std::collections::{HashSet, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a freshly started worker gets to answer `init` with `ready`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a worker told `bye` gets to exit on its own before it is
/// killed.
const EXIT_GRACE: Duration = Duration::from_secs(2);

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
    /// Ends the conversation after `bye`, letting the worker exit on its
    /// own (and remove what it keeps on disk) when it can.
    fn close(&mut self) {
        self.kill();
    }
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

    /// Closes the child's input, gives it `grace` to exit, then kills it. A
    /// worker that did not exit cleanly (crashed or killed) could not
    /// remove its wire-sync temp stores, so they are removed here; the
    /// child is the worker process itself, so its pid is the one the
    /// worker's `ready` frame and store names carry.
    fn stop(&mut self, grace: Duration) {
        let Some(mut child) = self.child.take() else { return };
        drop(child.stdin.take());
        let deadline = Instant::now() + grace;
        while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = child.kill();
        if !child.wait().is_ok_and(|status| status.success()) {
            remove_sync_dirs(child.id());
        }
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
        self.stop(Duration::ZERO);
    }

    /// Closes the child's input and waits up to [`EXIT_GRACE`] for it to
    /// exit; kills it only if it does not.
    fn close(&mut self) {
        self.stop(EXIT_GRACE);
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
    /// sync against it over the wire instead of a shared filesystem (the
    /// `files` of `job` and `done` frames). Mutually exclusive with
    /// `cache_dir` in practice: a worker that can see the directory skips
    /// the wire exchange.
    pub store: Option<Arc<InvariantStore>>,
    /// Deadline, retry budget (default 2) and fault injection.
    pub fleet: &'a FleetOptions,
}

struct Shared {
    /// Jobs waiting for a lane, in the order they will run.
    pending: VecDeque<usize>,
    /// Lanes still in service.
    live: usize,
    outcomes: Vec<Option<JobOutcome>>,
    retries: Vec<u32>,
    completed: usize,
    counters: FleetCounters,
}

struct Board {
    state: Mutex<Shared>,
    cv: Condvar,
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
    let counters = FleetCounters {
        workers: lanes as u64,
        processes: true,
        jobs: jobs.len() as u64,
        per_worker: vec![FleetWorkerCounters::default(); lanes],
        ..FleetCounters::default()
    };
    let board = Board {
        state: Mutex::new(Shared {
            pending: (0..jobs.len()).collect(),
            live: lanes,
            outcomes: (0..jobs.len()).map(|_| None).collect(),
            retries: vec![0; jobs.len()],
            completed: 0,
            counters,
        }),
        cv: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for (idx, transport) in transports.into_iter().enumerate() {
            let board = &board;
            scope.spawn(move || lane(idx, transport, jobs, board, cfg));
        }
    });

    // A lane settles or re-queues its job before it exits, and the last
    // lane to die settles the queue, so no slot is left empty.
    let shared = board.state.into_inner().unwrap();
    let outcomes = shared.outcomes.into_iter().map(|o| o.expect("every job settled")).collect();
    (outcomes, shared.counters)
}

fn init_frame(cfg: &FleetConfig<'_>) -> Json {
    Json::obj([
        ("proto", Json::str(FLEET_PROTO)),
        ("frame", Json::str("init")),
        ("config", cfg.config.to_json()),
        (
            "cache_dir",
            cfg.cache_dir.as_ref().map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
        ("store_sync", Json::Bool(cfg.store.is_some())),
    ])
}

/// The `files` of a `job` frame: the coordinator's store files whose names
/// `held` (what the lane's worker holds) lacks, bounded by the frame cap;
/// the shipped names join `held`.
fn files_for_job(cfg: &FleetConfig<'_>, held: &mut HashSet<String>, board: &Board) -> Json {
    let Some(store) = &cfg.store else { return Json::Arr(Vec::new()) };
    let missing = store.file_names().into_iter().filter(|n| !held.contains(n)).collect();
    let files = pack_files(store, missing);
    if !files.is_empty() {
        board.state.lock().unwrap().counters.store_gets += files.len() as u64;
    }
    held.extend(files.iter().map(|(name, _)| name.clone()));
    files_to_json(files)
}

/// Adds the results a worker stored during its job (the `files` of its
/// `done` frame) to the coordinator's store; the store refuses bytes it
/// already holds, so only changes count as `store_puts`.
fn import_done_files(
    frame: &Json,
    cfg: &FleetConfig<'_>,
    held: &mut HashSet<String>,
    board: &Board,
) {
    let Some(store) = &cfg.store else { return };
    let mut imported = 0;
    for (name, text) in frame_files(frame) {
        imported += store.import_file(name, text) as u64;
        held.insert(name.to_string());
    }
    if imported > 0 {
        board.state.lock().unwrap().counters.store_puts += imported;
    }
}

/// Starts the transport, spawns a dedicated reader thread, performs the
/// init/ready handshake, and returns the frame receiver.
fn spawn_worker(
    transport: &mut dyn Transport,
    cfg: &FleetConfig<'_>,
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
    transport.send(&init_frame(cfg)).map_err(|e| format!("{}: init: {e}", transport.describe()))?;
    let deadline = cfg.fleet.timeout.unwrap_or(HANDSHAKE_TIMEOUT).max(HANDSHAKE_TIMEOUT);
    match rx.recv_timeout(deadline) {
        Ok(frame) if frame.get("frame").and_then(Json::as_str) == Some("ready") => Ok(rx),
        Ok(frame) => {
            Err(format!("{}: expected ready, got {}", transport.describe(), frame.to_compact()))
        }
        Err(_) => Err(format!("{}: no ready within {deadline:?}", transport.describe())),
    }
}

/// Pops the next pending job, blocking until one appears or the fleet is
/// done (`None`). The flag says whether this is the job's first delivery.
fn claim_job(board: &Board) -> Option<(usize, bool)> {
    let mut s = board.state.lock().unwrap();
    loop {
        if s.completed == s.outcomes.len() {
            return None;
        }
        if let Some(i) = s.pending.pop_front() {
            return Some((i, s.retries[i] == 0));
        }
        s = board.cv.wait(s).unwrap();
    }
}

/// Records the terminal outcome of `job_idx`, last run on lane `idx`.
fn settle(s: &mut Shared, idx: usize, job_idx: usize, mut outcome: JobOutcome) {
    outcome.worker = idx;
    outcome.resent = s.retries[job_idx];
    s.outcomes[job_idx] = Some(outcome);
    s.completed += 1;
}

fn crashed(job: &JobSpec, detail: String) -> JobOutcome {
    let mut out = JobOutcome::empty(job.name.clone(), JobStatus::Crashed);
    out.detail = Some(detail);
    out
}

/// Records a job lane `idx` ran to an outcome and wakes every lane.
fn complete(idx: usize, job_idx: usize, outcome: JobOutcome, busy: Duration, board: &Board) {
    let mut s = board.state.lock().unwrap();
    s.counters.per_worker[idx].jobs += 1;
    s.counters.per_worker[idx].busy_nanos += busy.as_nanos() as u64;
    settle(&mut s, idx, job_idx, outcome);
    board.cv.notify_all();
}

/// The worker running `job_idx` died: put the job back at the front of the
/// queue, or report it crashed once its retry budget is spent.
fn requeue(idx: usize, job_idx: usize, jobs: &[JobSpec], board: &Board, budget: u32, why: &str) {
    let mut s = board.state.lock().unwrap();
    s.counters.crashes += 1;
    if s.retries[job_idx] < budget {
        s.retries[job_idx] += 1;
        s.counters.resent += 1;
        s.pending.push_front(job_idx);
    } else {
        let detail = format!("{why}; retry budget of {budget} exhausted");
        settle(&mut s, idx, job_idx, crashed(&jobs[job_idx], detail));
    }
    board.cv.notify_all();
}

/// Takes lane `idx` out of service. The last lane to go reports every
/// pending job crashed.
fn lane_dead(idx: usize, jobs: &[JobSpec], board: &Board, reason: &str) {
    let mut s = board.state.lock().unwrap();
    s.live -= 1;
    if s.live == 0 {
        while let Some(i) = s.pending.pop_front() {
            let detail = format!("no live workers left ({reason})");
            settle(&mut s, idx, i, crashed(&jobs[i], detail));
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
    let mut rx = match spawn_worker(transport.as_mut(), cfg) {
        Ok(rx) => rx,
        Err(reason) => return lane_dead(idx, jobs, board, &reason),
    };
    // Store files the current worker holds, by name.
    let mut held = HashSet::new();
    let budget = cfg.fleet.retry_budget.unwrap_or(2);

    while let Some((job_idx, first)) = claim_job(board) {
        let t0 = Instant::now();
        let crash = first && cfg.fleet.crash_on.as_deref() == Some(jobs[job_idx].name.as_str());
        let frame = Json::obj([
            ("frame", Json::str("job")),
            ("seq", Json::UInt(job_idx as u64)),
            ("spec", spec_to_json(&jobs[job_idx])),
            ("crash", Json::Bool(crash)),
            ("files", files_for_job(cfg, &mut held, board)),
        ]);
        let reply = match transport.send(&frame) {
            Ok(()) => match cfg.fleet.timeout {
                Some(t) => rx.recv_timeout(t),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            },
            Err(_) => Err(RecvTimeoutError::Disconnected),
        };
        match reply {
            Ok(frame) => match done_outcome(&frame, job_idx) {
                Ok(out) => {
                    import_done_files(&frame, cfg, &mut held, board);
                    complete(idx, job_idx, out, t0.elapsed(), board);
                    continue;
                }
                // A worker speaking garbage is as good as dead.
                Err(why) => requeue(idx, job_idx, jobs, board, budget, &why),
            },
            Err(RecvTimeoutError::Timeout) => {
                let mut out = JobOutcome::empty(jobs[job_idx].name.clone(), JobStatus::TimedOut);
                out.detail = Some(format!("no response within {:?}", cfg.fleet.timeout.unwrap()));
                board.state.lock().unwrap().counters.timeouts += 1;
                complete(idx, job_idx, out, t0.elapsed(), board);
            }
            Err(RecvTimeoutError::Disconnected) => {
                let why = format!("{} disconnected", transport.describe());
                requeue(idx, job_idx, jobs, board, budget, &why);
            }
        }
        // The worker is dead, wedged or babbling: replace it (`start` kills
        // the old one). The new one holds no store files.
        match spawn_worker(transport.as_mut(), cfg) {
            Ok(next) => {
                rx = next;
                held.clear();
                board.state.lock().unwrap().counters.respawns += 1;
            }
            Err(reason) => return lane_dead(idx, jobs, board, &reason),
        }
    }
    let _ = transport.send(&Json::obj([("frame", Json::str("bye"))]));
    transport.close();
}

/// The outcome a `done` frame for job `seq` reports.
fn done_outcome(frame: &Json, seq: usize) -> Result<JobOutcome, String> {
    if frame.get("frame").and_then(Json::as_str) != Some("done")
        || frame.get("seq").and_then(Json::as_u64) != Some(seq as u64)
    {
        return Err(format!("unexpected frame {}", frame.to_compact()));
    }
    frame
        .get("outcome")
        .ok_or_else(|| "done frame without outcome".to_string())
        .and_then(outcome_from_json)
}
