//! Bounded-worker batch execution with panic and timeout isolation.
//!
//! Analyzing a fleet of programs (a generated family, a regression corpus)
//! is embarrassingly parallel at the job level: each job is independent, so
//! the only scheduling concerns are bounding concurrency, keeping one
//! misbehaving job from taking down the batch, and reporting results in a
//! deterministic (submission) order regardless of completion order.
//!
//! Workers pull job indices from a shared counter. Each job runs under
//! `catch_unwind`, so a panicking analysis fails that job only. With a
//! timeout configured, the job body runs on a dedicated thread and the
//! worker waits with `recv_timeout`; on expiry the job is marked
//! [`JobStatus::TimedOut`] and the runaway thread is detached (it cannot be
//! killed, but it no longer occupies a worker slot).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Batch executor configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum number of jobs in flight at once (minimum 1).
    pub workers: usize,
    /// Per-job wall-clock limit; `None` runs jobs on the worker thread
    /// itself with no limit.
    pub timeout: Option<Duration>,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { workers: 1, timeout: None }
    }
}

/// A unit of batch work: a name for reporting plus the closure to run.
pub struct Job<R> {
    /// Display name (e.g. the program's identifier).
    pub name: String,
    /// The work itself.
    pub run: Box<dyn FnOnce() -> R + Send + 'static>,
}

impl<R> Job<R> {
    /// A named job.
    pub fn new(name: impl Into<String>, run: impl FnOnce() -> R + Send + 'static) -> Job<R> {
        Job { name: name.into(), run: Box::new(run) }
    }
}

/// How a job ended.
#[derive(Debug)]
pub enum JobStatus<R> {
    /// The job returned a value.
    Done(R),
    /// The job panicked; the payload's message, when it was a string.
    Panicked(String),
    /// The job exceeded the configured timeout.
    TimedOut,
}

/// Outcome of one job.
#[derive(Debug)]
pub struct JobResult<R> {
    /// Job name as submitted.
    pub name: String,
    /// Completion status.
    pub status: JobStatus<R>,
    /// Wall-clock time the job occupied a worker.
    pub wall: Duration,
    /// Index of the worker that ran the job (informational; depends on
    /// scheduling, not deterministic).
    pub worker: usize,
}

impl<R> JobResult<R> {
    /// `true` when the job produced a value.
    pub fn is_done(&self) -> bool {
        matches!(self.status, JobStatus::Done(_))
    }
}

/// Aggregated outcome of a batch run.
#[derive(Debug)]
pub struct BatchReport<R> {
    /// Per-job results in **submission order**.
    pub results: Vec<JobResult<R>>,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Busy time per worker (time spent executing jobs, including waiting
    /// out timeouts).
    pub worker_busy: Vec<Duration>,
    /// Number of workers actually spawned.
    pub workers: usize,
}

impl<R> BatchReport<R> {
    /// Sum of per-job wall times — the sequential cost of the batch.
    pub fn total_job_time(&self) -> Duration {
        self.results.iter().map(|r| r.wall).sum()
    }

    /// Observed speedup: sequential cost over batch wall time.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.total_job_time().as_secs_f64() / wall
    }

    /// Number of jobs that produced a value.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_done()).count()
    }
}

/// The human-readable message of a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs a job inline on the worker, catching panics.
fn run_inline<R>(job: Box<dyn FnOnce() -> R + Send>) -> JobStatus<R> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(v) => JobStatus::Done(v),
        Err(e) => JobStatus::Panicked(panic_message(e.as_ref())),
    }
}

/// Runs a job on a dedicated thread with a wall-clock limit.
fn run_with_timeout<R: Send + 'static>(
    job: Box<dyn FnOnce() -> R + Send + 'static>,
    timeout: Duration,
) -> JobStatus<R> {
    let (tx, rx) = mpsc::channel();
    // The thread is detached on timeout: a stuck analysis cannot be killed,
    // but it stops occupying a worker slot and its eventual send fails
    // harmlessly into a dropped receiver.
    thread::spawn(move || {
        let status = run_inline(job);
        let _ = tx.send(status);
    });
    match rx.recv_timeout(timeout) {
        Ok(status) => status,
        Err(mpsc::RecvTimeoutError::Timeout) => JobStatus::TimedOut,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The sender dropped without sending: only possible if the
            // channel send itself failed, which it cannot.
            JobStatus::Panicked("worker channel disconnected".to_string())
        }
    }
}

/// Executes `jobs` with at most `config.workers` in flight; results are
/// reported in submission order.
pub fn run_batch<R: Send + 'static>(config: &BatchConfig, jobs: Vec<Job<R>>) -> BatchReport<R> {
    let n = jobs.len();
    let workers = config.workers.max(1).min(n.max(1));
    let started = Instant::now();

    // Slots for results, indexed by submission order; the queue is a shared
    // atomic cursor over the job list.
    let slots: Vec<Mutex<Option<JobResult<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let queue: Vec<Mutex<Option<Job<R>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let timeout = config.timeout;

    let mut worker_busy = vec![Duration::ZERO; workers];
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let slots = &slots;
                let queue = &queue;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut busy = Duration::ZERO;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return busy;
                        }
                        let job = queue[i].lock().unwrap().take().expect("job taken twice");
                        let t0 = Instant::now();
                        let status = match timeout {
                            Some(limit) => run_with_timeout(job.run, limit),
                            None => run_inline(job.run),
                        };
                        let wall = t0.elapsed();
                        busy += wall;
                        *slots[i].lock().unwrap() =
                            Some(JobResult { name: job.name, status, wall, worker: w });
                    }
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            worker_busy[w] = h.join().expect("batch worker itself panicked");
        }
    });

    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("job slot unfilled"))
        .collect();
    BatchReport { results, wall: started.elapsed(), worker_busy, workers }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("job{i}")).collect()
    }

    #[test]
    fn results_in_submission_order() {
        let jobs: Vec<Job<usize>> = (0..8)
            .map(|i| {
                Job::new(format!("job{i}"), move || {
                    thread::sleep(Duration::from_millis(8 - i as u64));
                    i
                })
            })
            .collect();
        let report = run_batch(&BatchConfig { workers: 4, timeout: None }, jobs);
        assert_eq!(report.results.len(), 8);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.name, format!("job{i}"));
            match &r.status {
                JobStatus::Done(v) => assert_eq!(*v, i),
                other => panic!("job{i} not done: {other:?}"),
            }
        }
        assert_eq!(report.completed(), 8);
        assert_eq!(report.worker_busy.len(), 4);
    }

    #[test]
    fn panic_fails_job_not_batch() {
        let jobs: Vec<Job<u32>> = names(5)
            .into_iter()
            .enumerate()
            .map(|(i, name)| {
                Job::new(name, move || {
                    if i == 2 {
                        panic!("injected failure in job 2");
                    }
                    i as u32 * 10
                })
            })
            .collect();
        let report = run_batch(&BatchConfig { workers: 2, timeout: None }, jobs);
        assert_eq!(report.completed(), 4);
        match &report.results[2].status {
            JobStatus::Panicked(msg) => assert!(msg.contains("injected failure")),
            other => panic!("expected panic status, got {other:?}"),
        }
        for i in [0usize, 1, 3, 4] {
            assert!(report.results[i].is_done(), "job {i} should have completed");
        }
    }

    #[test]
    fn timeout_fails_slow_job_only() {
        let jobs: Vec<Job<&'static str>> = vec![
            Job::new("fast", || "ok"),
            Job::new("stuck", || {
                thread::sleep(Duration::from_secs(30));
                "too late"
            }),
            Job::new("fast2", || "ok"),
        ];
        let config = BatchConfig { workers: 2, timeout: Some(Duration::from_millis(50)) };
        let t0 = Instant::now();
        let report = run_batch(&config, jobs);
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(report.results[0].is_done());
        assert!(matches!(report.results[1].status, JobStatus::TimedOut));
        assert!(report.results[2].is_done());
    }

    #[test]
    fn single_worker_is_sequential() {
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Job<()>> = (0..4)
            .map(|i| {
                let order = std::sync::Arc::clone(&order);
                Job::new(format!("j{i}"), move || order.lock().unwrap().push(i))
            })
            .collect();
        let report = run_batch(&BatchConfig { workers: 1, timeout: None }, jobs);
        assert_eq!(report.workers, 1);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn speedup_and_busy_accounting() {
        let jobs: Vec<Job<()>> = (0..4)
            .map(|i| {
                Job::new(format!("j{i}"), move || thread::sleep(Duration::from_millis(20 + i)))
            })
            .collect();
        let report = run_batch(&BatchConfig { workers: 2, timeout: None }, jobs);
        assert!(report.total_job_time() >= Duration::from_millis(80));
        assert!(report.speedup() > 0.5);
        let busy: Duration = report.worker_busy.iter().sum();
        // Busy time accounts for every job's wall time.
        assert!(busy >= report.total_job_time().mul_f64(0.9));
    }
}
