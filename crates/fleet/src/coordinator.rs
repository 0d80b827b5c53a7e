//! The fleet coordinator: hands jobs to worker lanes from one queue and
//! survives worker crashes.
//!
//! A worker is an `astree serve` process, and each lane drives one
//! [`Transport`] — a local `serve --stdio` child or a remote socket —
//! through the `astree-serve/2` conversation any client has: one `status`
//! round trip that checks `proto`, then a one-job `run` per job, answered
//! by its `result`; at the end the coordinator closes its side. A job's
//! spec carries its whole configuration, so what a worker was started with
//! never shows through. With `--cache-wire` a `run` carries the
//! coordinator's store files the lane's worker does not hold yet, and a
//! `result` the files the job stored; a store file's name is its result,
//! so a lane tracks names only. `DESIGN.md` ("Coordinators as peers")
//! lists the frames.
//!
//! Scheduling is deterministic in *outcome*, not in placement: an idle
//! lane pulls the next job from one pending FIFO, and results land in a
//! slot table indexed by submission order, so the report is byte-identical
//! at any worker count even though which lane ran which job is
//! timing-dependent.
//!
//! Isolation policy: a worker that misses its deadline is killed and its
//! job reported [`JobStatus::TimedOut`]; a worker that dies mid-job, or
//! answers anything but the job's `result`, has the job put back at the
//! front of the queue (so it runs next) while the lane respawns its worker,
//! until the per-job retry budget is exhausted and the job is reported
//! [`JobStatus::Crashed`]. When the last lane dies, every pending job is
//! reported crashed.

use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::proto::{read_frame, write_frame, Conn, Endpoint};
use crate::serve::{remove_sync_dirs, PROTO};
use crate::session::FleetOptions;
use crate::wire::{files_to_json, frame_files, pack_files, result_outcomes, spec_to_json};
use astree_core::InvariantStore;
use astree_obs::{FleetCounters, FleetWorkerCounters, Json};
use std::collections::{HashSet, VecDeque};
use std::io::{self, BufReader, Read};
use std::net::Shutdown;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a freshly started worker gets to answer the `status`
/// handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a local worker whose input was closed gets to exit on its own
/// before it is killed.
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
    /// Ends the conversation, letting the worker exit on its own (and
    /// remove what it keeps on disk) when it can.
    fn close(&mut self) {
        self.kill();
    }
    /// Human-readable identity for error messages.
    fn describe(&self) -> String;
}

/// A local `astree serve --stdio` child process.
pub struct ProcessTransport {
    cmd: Vec<String>,
    child: Option<Child>,
}

impl ProcessTransport {
    /// `cmd` is the argv to spawn; the protocol runs over its
    /// stdin/stdout, stderr is inherited for debuggability.
    pub fn new(cmd: Vec<String>) -> ProcessTransport {
        assert!(!cmd.is_empty(), "worker command must not be empty");
        ProcessTransport { cmd, child: None }
    }

    /// Closes the child's input, gives it `grace` to exit, then kills it. A
    /// worker that did not exit cleanly (crashed or killed) could not
    /// remove its temp stores, so they are removed here; the child is the
    /// serving process itself, so its pid is the one the store names carry.
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

/// A remote worker reached over a Unix or TCP socket: an
/// `astree serve --socket PATH` / `--listen ADDR` process.
pub struct SocketTransport {
    endpoint: Endpoint,
    conn: Option<Conn>,
}

impl SocketTransport {
    pub fn new(endpoint: Endpoint) -> SocketTransport {
        SocketTransport { endpoint, conn: None }
    }
}

impl Transport for SocketTransport {
    fn start(&mut self) -> io::Result<Box<dyn Read + Send>> {
        self.kill();
        let conn = Conn::connect(&self.endpoint)?;
        let reader = Box::new(conn.try_clone()?);
        self.conn = Some(conn);
        Ok(reader)
    }

    fn send(&mut self, frame: &Json) -> io::Result<()> {
        let conn = self
            .conn
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "not connected"))?;
        write_frame(conn, frame)
    }

    /// Shuts the connection down both ways: the serving process sees
    /// end-of-stream, and so does the lane's reader thread.
    fn kill(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.shutdown(Shutdown::Both);
        }
    }

    fn describe(&self) -> String {
        format!("socket {}", self.endpoint)
    }
}

/// Coordinator-side knobs, separate from the jobs' configurations.
pub struct FleetConfig<'a> {
    /// The coordinator's own open invariant store, when workers sync
    /// against it over the wire (`--cache-wire`: the `files` of `run` and
    /// `result` frames) instead of opening the store directory themselves.
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
/// submission order plus the fleet counters. A job runs under its
/// `overrides` patched on the worker's own base, so a job that must not
/// depend on the worker carries its whole configuration there.
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

/// The `files` of a `run` frame: the coordinator's store files whose names
/// `held` (what the lane's worker holds) lacks, bounded by the frame cap;
/// the shipped names join `held`.
fn files_for_run(store: &InvariantStore, held: &mut HashSet<String>, board: &Board) -> Json {
    let missing = store.file_names().into_iter().filter(|n| !held.contains(n)).collect();
    let files = pack_files(store, missing);
    if !files.is_empty() {
        board.state.lock().unwrap().counters.store_gets += files.len() as u64;
    }
    held.extend(files.iter().map(|(name, _)| name.clone()));
    files_to_json(files)
}

/// Adds the results a worker stored during its job (the `files` of its
/// `result` frame) to the coordinator's store; the store refuses bytes it
/// already holds, so only changes count as `store_puts`.
fn import_files(frame: &Json, store: &InvariantStore, held: &mut HashSet<String>, board: &Board) {
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
/// `status` handshake, and returns the frame receiver. A peer that does not
/// answer with an `astree-serve/2` status is refused.
fn spawn_worker(
    transport: &mut dyn Transport,
    cfg: &FleetConfig<'_>,
) -> Result<Receiver<Json>, String> {
    let who = transport.describe();
    let reader = transport.start().map_err(|e| format!("{who}: {e}"))?;
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
    let status = [("proto", Json::str(PROTO)), ("id", Json::UInt(0)), ("req", Json::str("status"))];
    transport.send(&Json::obj(status)).map_err(|e| format!("{who}: status: {e}"))?;
    let deadline = cfg.fleet.timeout.unwrap_or(HANDSHAKE_TIMEOUT).max(HANDSHAKE_TIMEOUT);
    match rx.recv_timeout(deadline) {
        Ok(frame) if frame.get("proto").and_then(Json::as_str) == Some(PROTO) => Ok(rx),
        Ok(frame) => Err(format!("{who}: expected a {PROTO} status, got {}", frame.to_compact())),
        Err(RecvTimeoutError::Disconnected) => Err(format!("{who}: hung up before its status")),
        Err(RecvTimeoutError::Timeout) => Err(format!("{who}: no status within {deadline:?}")),
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
        let mut run = vec![
            ("proto", Json::str(PROTO)),
            ("id", Json::UInt(job_idx as u64)),
            ("req", Json::str("run")),
            ("jobs", Json::Arr(vec![spec_to_json(&jobs[job_idx])])),
            ("events", Json::str("none")),
        ];
        if let Some(store) = &cfg.store {
            run.push(("files", files_for_run(store, &mut held, board)));
        }
        if first && cfg.fleet.crash_on.as_deref() == Some(jobs[job_idx].name.as_str()) {
            run.push(("crash", Json::Bool(true)));
        }
        let reply = match transport.send(&Json::obj(run)) {
            Ok(()) => match cfg.fleet.timeout {
                Some(t) => rx.recv_timeout(t),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            },
            Err(_) => Err(RecvTimeoutError::Disconnected),
        };
        match reply {
            Ok(frame) => match job_outcome(&frame, job_idx) {
                Ok(out) => {
                    if let Some(store) = &cfg.store {
                        import_files(&frame, store, &mut held, board);
                    }
                    complete(idx, job_idx, out, t0.elapsed(), board);
                    continue;
                }
                // A worker answering anything else is as good as dead.
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
    transport.close();
}

/// The one outcome of the `result` frame that answers job `id`'s `run`.
fn job_outcome(frame: &Json, id: usize) -> Result<JobOutcome, String> {
    let unexpected = || format!("unexpected frame {}", frame.to_compact());
    if frame.get("id").and_then(Json::as_u64) != Some(id as u64) {
        return Err(unexpected());
    }
    let [out] = <[JobOutcome; 1]>::try_from(result_outcomes(frame)?).map_err(|_| unexpected())?;
    Ok(out)
}
