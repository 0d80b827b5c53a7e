//! The unified Fleet API: one builder for every fan-out surface.
//!
//! `astree batch` and the serve daemon's `run` request both
//! construct a [`FleetSession`] and call [`FleetSessionBuilder::run`]. The
//! builder decides the execution strategy from its distribution knobs:
//!
//! - no workers, no endpoints → **in-process**: the jobs are scattered
//!   ([`astree_core::scatter`]) on `threads` threads, the caller one of
//!   them, each job under panic containment — also the daemon's path;
//! - `workers(n)` / `connect(..)` → **fleet**: the coordinator hands
//!   jobs from one queue to local `astree serve --stdio` child processes
//!   and/or `astree serve` processes on sockets, with crash isolation.
//!
//! Outcomes are identical either way — same [`JobOutcome`] per job, in
//! submission order, byte-identical at any worker count. Only the
//! scheduling telemetry ([`FleetCounters`]) differs.

use crate::coordinator::{run_fleet, FleetConfig, ProcessTransport, SocketTransport, Transport};
use crate::exec::{execute, execute_contained, ExecContext};
use crate::job::{FleetReport, JobOutcome, JobSpec, JobStatus};
use crate::proto::Endpoint;
use astree_core::{scatter, AnalysisConfig, InvariantStore};
use astree_obs::{BatchJobEvent, Event, FleetCounters, Recorder};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Entry point for fleet analysis; see the module docs.
pub struct FleetSession;

impl FleetSession {
    /// Starts building a fleet run.
    pub fn builder() -> FleetSessionBuilder {
        FleetSessionBuilder {
            jobs: Vec::new(),
            config: AnalysisConfig::default(),
            threads: 1,
            fleet: FleetOptions::default(),
            cache: None,
            recorder: None,
        }
    }
}

/// Where a fleet's jobs run: the distribution knobs of a
/// [`FleetSessionBuilder`], set one at a time by its methods (which say what
/// each does; a field without a method says it here) or all at once by
/// [`FleetSessionBuilder::fleet`], as `astree batch` does from its fleet
/// flags.
#[derive(Debug, Default, Clone)]
pub struct FleetOptions {
    pub workers: usize,
    pub worker_cmd: Option<Vec<String>>,
    pub connect: Vec<Endpoint>,
    pub timeout: Option<Duration>,
    /// How many times a crashed job is put back in the queue before it is
    /// reported [`JobStatus::Crashed`] (default 2).
    pub retry_budget: Option<u32>,
    pub cache_wire: bool,
    /// Fault injection for tests: the worker that receives the first
    /// delivery of the job with this name aborts.
    pub crash_on: Option<String>,
}

/// Builder for a fleet run; mirrors `AnalysisSession::builder`.
pub struct FleetSessionBuilder {
    jobs: Vec<JobSpec>,
    config: AnalysisConfig,
    threads: usize,
    fleet: FleetOptions,
    cache: Option<Arc<InvariantStore>>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl FleetSessionBuilder {
    /// Sets the job list (replacing any previous one).
    pub fn jobs(mut self, jobs: Vec<JobSpec>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Appends one job.
    pub fn job(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// Base analysis configuration; each job's overrides apply on top.
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// In-process concurrency when no worker processes are configured
    /// (default 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// All the distribution knobs below at once.
    pub fn fleet(mut self, fleet: FleetOptions) -> Self {
        self.fleet = fleet;
        self
    }

    /// Number of local worker *processes* to spawn (default 0: in-process).
    pub fn workers(mut self, workers: usize) -> Self {
        self.fleet.workers = workers;
        self
    }

    /// Argv for local workers (default: this executable,
    /// `serve --stdio`); `--jobs N` and `--cache DIR` follow it as needed.
    pub fn worker_cmd(mut self, cmd: Vec<String>) -> Self {
        self.fleet.worker_cmd = Some(cmd);
        self
    }

    /// Adds a remote worker endpoint (repeatable).
    pub fn connect(mut self, endpoint: Endpoint) -> Self {
        self.fleet.connect.push(endpoint);
        self
    }

    /// Per-job deadline. In the fleet, a worker missing it is killed.
    pub fn timeout(mut self, timeout: Option<Duration>) -> Self {
        self.fleet.timeout = timeout;
        self
    }

    /// Shared invariant store. In the fleet, local workers open the same
    /// directory, so one worker's converged invariants warm every other; a
    /// connected one uses its own `--cache`.
    pub fn cache(mut self, store: Arc<InvariantStore>) -> Self {
        self.cache = Some(store);
        self
    }

    /// Syncs the store to fleet workers over the wire instead of a shared
    /// filesystem: workers never see the cache directory; each `run`
    /// request carries the coordinator's store files the worker does not
    /// hold yet, and each `result` the results the job stored. No-op
    /// without a cache or for in-process runs (which share the store in
    /// memory anyway).
    pub fn cache_wire(mut self, on: bool) -> Self {
        self.fleet.cache_wire = on;
        self
    }

    /// Telemetry recorder: receives per-job `BatchJobEvent`s, fleet
    /// counters, and (in-process only) each analysis's own events.
    pub fn recorder(mut self, rec: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Runs the fleet and reports outcomes in submission order.
    pub fn run(self) -> FleetReport {
        let t0 = Instant::now();
        let recorder = self.recorder.clone();
        let (outcomes, mut counters) = if self.fleet.workers == 0 && self.fleet.connect.is_empty() {
            self.run_in_process()
        } else {
            self.run_distributed()
        };
        counters.store_full_hits = outcomes.iter().filter(|o| o.cache_full_hit).count() as u64;

        if let Some(rec) = &recorder {
            if rec.enabled() {
                for out in &outcomes {
                    rec.record(&Event::BatchJob(BatchJobEvent {
                        name: &out.name,
                        status: out.status.slug(),
                        reason: out.detail.as_deref(),
                        wall_nanos: out.wall.as_nanos() as u64,
                        worker: out.worker,
                        alarms: out.alarms.map(|n| n as u64),
                    }));
                }
                rec.record(&Event::Fleet(&counters));
            }
        }

        let total_job_time = outcomes.iter().map(|o| o.wall).sum();
        let workers = counters.workers as usize;
        FleetReport { outcomes, wall: t0.elapsed(), workers, total_job_time, counters }
    }

    fn run_distributed(self) -> (Vec<JobOutcome>, FleetCounters) {
        let fleet = &self.fleet;
        // A local worker runs on the base configuration's `jobs` and, unless
        // the store rides the wire, opens the shared store itself.
        let mut cmd = fleet.worker_cmd.clone().unwrap_or_else(default_worker_cmd);
        if self.config.jobs > 1 {
            cmd.extend(["--jobs".to_string(), self.config.jobs.to_string()]);
        }
        if let Some(store) = self.cache.as_ref().filter(|_| !fleet.cache_wire) {
            cmd.extend(["--cache".to_string(), store.dir().display().to_string()]);
        }
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        for _ in 0..fleet.workers {
            transports.push(Box::new(ProcessTransport::new(cmd.clone())));
        }
        for endpoint in &fleet.connect {
            transports.push(Box::new(SocketTransport::new(endpoint.clone())));
        }
        // Each job ships its whole configuration, so what a worker was
        // started with never shows through. A job whose overrides do not
        // patch ends here, `failed` exactly as in-process.
        let ctx = ExecContext { config: &self.config, cache: None, recorder: None };
        let (mut resolved, mut failed) = (Vec::new(), Vec::new());
        for (i, spec) in self.jobs.iter().enumerate() {
            match spec.config(&self.config) {
                Ok(config) => {
                    resolved.push(JobSpec { overrides: config.to_json(), ..spec.clone() })
                }
                Err(_) => failed.push((i, execute(spec, &ctx))),
            }
        }
        let store = if fleet.cache_wire { self.cache.clone() } else { None };
        let (mut outcomes, mut counters) =
            run_fleet(&resolved, transports, &FleetConfig { store, fleet });
        for (i, out) in failed {
            outcomes.insert(i, out);
        }
        counters.jobs = outcomes.len() as u64;
        (outcomes, counters)
    }

    fn run_in_process(self) -> (Vec<JobOutcome>, FleetCounters) {
        let n = self.jobs.len();
        let counters = FleetCounters {
            workers: self.threads.min(n.max(1)) as u64,
            processes: false,
            jobs: n as u64,
            ..FleetCounters::default()
        };
        let ctx = ExecContext {
            config: &self.config,
            cache: self.cache.clone(),
            recorder: self.recorder.as_deref(),
        };
        let outcomes = scatter(self.threads, &self.jobs, |w, _, spec| {
            let t0 = Instant::now();
            let mut out = match self.fleet.timeout {
                None => execute_contained(spec, &ctx),
                Some(limit) => self.run_deadlined(spec, limit),
            };
            out.wall = t0.elapsed();
            out.worker = w;
            out
        });
        (outcomes, counters)
    }

    /// Runs one job on a dedicated thread and waits at most `limit` for it.
    /// On expiry the job is [`JobStatus::TimedOut`] and the thread is
    /// detached: a stuck analysis cannot be killed, but it stops occupying a
    /// worker and its eventual send fails harmlessly into a dropped
    /// receiver. The thread may outlive this session, so it owns what it
    /// uses.
    fn run_deadlined(&self, spec: &JobSpec, limit: Duration) -> JobOutcome {
        let (tx, rx) = mpsc::channel();
        let (job, config) = (spec.clone(), self.config.clone());
        let (cache, recorder) = (self.cache.clone(), self.recorder.clone());
        thread::spawn(move || {
            let ctx = ExecContext { config: &config, cache, recorder: recorder.as_deref() };
            let _ = tx.send(execute_contained(&job, &ctx));
        });
        match rx.recv_timeout(limit) {
            Ok(out) => out,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                JobOutcome::empty(spec.name.clone(), JobStatus::TimedOut)
            }
            // The sender dropped without sending: the job thread died past
            // what `catch_unwind` contains (a panic while unwinding).
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let mut out = JobOutcome::empty(spec.name.clone(), JobStatus::Panicked);
                out.detail = Some("job thread died without an outcome".to_string());
                out
            }
        }
    }
}

/// The default local worker: this very executable, `serve --stdio`.
fn default_worker_cmd() -> Vec<String> {
    let exe = std::env::current_exe().expect("cannot locate current executable for worker spawn");
    vec![exe.display().to_string(), "serve".into(), "--stdio".into()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use astree_obs::Json;
    use std::sync::atomic::Ordering::SeqCst;

    fn tiny_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::new("clean", "int x; void main(void) { x = 1; }"),
            JobSpec::new("div", "int x; int d; void main(void) { d = 0; x = 1 / d; }"),
            JobSpec::new("broken", "not C at all"),
        ]
    }

    #[test]
    fn in_process_runs_agree_at_every_thread_count_and_deadline() {
        let inline = FleetSession::builder().jobs(tiny_jobs()).run();
        for threads in [1, 3] {
            for timeout in [None, Some(Duration::from_secs(60))] {
                let run =
                    FleetSession::builder().jobs(tiny_jobs()).threads(threads).timeout(timeout);
                assert_eq!(
                    run.run().stable_report(),
                    inline.stable_report(),
                    "threads={threads} timeout={timeout:?}"
                );
            }
        }
        assert_eq!(inline.outcomes.len(), 3);
        assert_eq!(inline.outcomes[0].alarms, Some(0));
        assert_eq!(inline.outcomes[1].alarms, Some(1));
        assert_eq!(inline.outcomes[2].status, JobStatus::Failed);
        assert_eq!(inline.completed(), 2);
        assert_eq!(inline.total_alarms(), 1);
        assert!(!inline.counters.processes);
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        /// Panics inside the first analysis that reports a phase time.
        struct Bomb(std::sync::atomic::AtomicBool);
        impl Recorder for Bomb {
            fn enabled(&self) -> bool {
                true
            }
            fn record(&self, event: &Event) {
                if matches!(event, Event::Phase { .. }) && !self.0.swap(true, SeqCst) {
                    panic!("bomb in the recorder");
                }
            }
        }
        for (threads, timeout) in [(1, None), (2, None), (2, Some(Duration::from_secs(60)))] {
            let jobs = vec![JobSpec::new("a", "int x; void main(void) { x = 1; }"); 3];
            let report = FleetSession::builder()
                .jobs(jobs)
                .threads(threads)
                .timeout(timeout)
                .recorder(Arc::new(Bomb(false.into())))
                .run();
            let hurt: Vec<_> =
                report.outcomes.iter().filter(|o| o.status == JobStatus::Panicked).collect();
            assert_eq!(hurt.len(), 1, "threads={threads} timeout={timeout:?}");
            assert_eq!(hurt[0].detail.as_deref(), Some("bomb in the recorder"));
            assert_eq!(report.completed(), 2);
        }
    }

    #[test]
    fn overrides_flow_through_the_session() {
        let mut job = JobSpec::new("div", "int x; int d; void main(void) { d = 0; x = 1 / d; }");
        job.overrides = Json::obj([("enable_octagons", Json::Bool(false))]);
        let report = FleetSession::builder().job(job).run();
        assert_eq!(report.outcomes[0].status, JobStatus::Done);
        assert_eq!(report.outcomes[0].alarms, Some(1));
    }
}
