//! Persistent worker pool with one shared queue: the domain-agnostic half
//! of Monniaux's partition-and-join scheme, on `std::thread` only. Which
//! statements conflict, how a stage is cut into slices and how abstract
//! states merge stays in `core::parallel`.
//!
//! The pool is created once per session (sized by `--jobs`) and every
//! parallel stage is scattered onto it, so slice execution pays queue
//! pushes instead of thread spawns. A stage's slices are cut at plan time
//! and handed out in order from one FIFO: whichever worker is free takes
//! the next one, which is all the load balancing equal slices need.
//!
//! Results are written into **indexed slots**, so [`WorkerPool::scatter`]
//! returns them in input order no matter which worker ran what.
//! Determinism of the downstream merge therefore does not depend on worker
//! count or interleaving.
//!
//! The caller participates as logical worker 0 while a scatter is in
//! flight (it runs tasks instead of blocking), which keeps `--jobs N`
//! meaning "N CPUs busy", not "N extra threads". Several callers may
//! scatter on one pool at once (the `serve` daemon's resident pool): each
//! waits for its own tasks and runs whatever is queued meanwhile.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Erased unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Lock helper: a poisoned mutex only means some task panicked while
/// holding it; the protected data (queue, counters) stays coherent
/// because every critical section is a few plain writes.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    tasks: AtomicU64,
    max_queue_depth: AtomicU64,
    busy_nanos: Vec<AtomicU64>,
}

impl Shared {
    fn push(&self, task: Task) {
        let depth = {
            let mut q = lock(&self.queue);
            q.tasks.push_back(task);
            q.tasks.len() as u64
        };
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        self.tasks.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
    }

    /// Blocking fetch for pool threads; returns `None` on shutdown.
    fn fetch_blocking(&self) -> Option<Task> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(task) = q.tasks.pop_front() {
                return Some(task);
            }
            if q.shutdown {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking fetch for the scattering caller.
    fn try_fetch(&self) -> Option<Task> {
        lock(&self.queue).tasks.pop_front()
    }

    fn run(&self, wid: usize, task: Task) {
        let start = Instant::now();
        task();
        self.busy_nanos[wid].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Point-in-time scheduling counters, reported in the
/// `astree-metrics/1` scheduler section as `scheduler.pool`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Logical workers (pool threads + the participating caller).
    pub workers: usize,
    /// Tasks pushed over the pool's lifetime.
    pub tasks: u64,
    /// Deepest the queue ever got.
    pub max_queue_depth: u64,
    /// Per-worker nanoseconds spent executing tasks (index 0 = caller).
    pub busy_nanos: Vec<u64>,
}

impl PoolStats {
    /// Counters accumulated since an `earlier` snapshot of the same pool.
    ///
    /// A pool can outlive one analysis (the `serve` daemon keeps a warm pool
    /// across requests), so per-run reporting subtracts the snapshot taken
    /// at session start. `max_queue_depth` is a high-water mark, not a sum,
    /// and is carried over as-is.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            workers: self.workers,
            tasks: self.tasks.saturating_sub(earlier.tasks),
            max_queue_depth: self.max_queue_depth,
            busy_nanos: self
                .busy_nanos
                .iter()
                .enumerate()
                .map(|(i, &n)| n.saturating_sub(earlier.busy_nanos.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// A persistent pool of `workers - 1` OS threads plus the caller.
///
/// `new(1)` spawns nothing and [`WorkerPool::scatter`] runs inline, so a
/// `--jobs 1` session is the exact sequential code path.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { tasks: VecDeque::new(), shutdown: false }),
            ready: Condvar::new(),
            tasks: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            busy_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (1..workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("astree-pool-{wid}"))
                    .spawn(move || {
                        while let Some(task) = shared.fetch_blocking() {
                            shared.run(wid, task);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles, workers }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over `items` on the pool and returns the results in input
    /// order. Panics in a task are captured per-task and the first one (in
    /// input order) is re-raised after every task has finished.
    pub fn scatter<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 || self.workers <= 1 {
            return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let slots: Vec<Mutex<Option<thread::Result<R>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let remaining = Mutex::new(n);
        let done = Condvar::new();
        {
            let (f, slots, remaining, done) = (&f, &slots, &remaining, &done);
            for (i, item) in items.into_iter().enumerate() {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| f(i, item)));
                    *lock(&slots[i]) = Some(out);
                    let mut rem = lock(remaining);
                    *rem -= 1;
                    if *rem == 0 {
                        done.notify_all();
                    }
                });
                // SAFETY: the task borrows `f`, `slots`, `remaining` and
                // `done`, all of which live on this stack frame. The loop
                // below does not return until `remaining` reaches 0, and
                // every task decrements `remaining` exactly once after its
                // last use of the borrows (panics included, via
                // catch_unwind) — so no task outlives the frame.
                let task: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
                self.shared.push(task);
            }
            // Participate as worker 0 until every task (ours or a
            // concurrent scatter's) has drained; then wait for stragglers
            // still running on pool threads.
            loop {
                if *lock(remaining) == 0 {
                    break;
                }
                if let Some(task) = self.shared.try_fetch() {
                    self.shared.run(0, task);
                } else {
                    let rem = lock(remaining);
                    if *rem > 0 {
                        drop(done.wait(rem).unwrap_or_else(|e| e.into_inner()));
                    }
                }
            }
        }
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        let out: Vec<R> = slots
            .into_iter()
            .filter_map(|slot| match lock(&slot).take().expect("scatter task completed") {
                Ok(r) => Some(r),
                Err(e) => {
                    if panic.is_none() {
                        panic = Some(e);
                    }
                    None
                }
            })
            .collect();
        if let Some(e) = panic {
            resume_unwind(e);
        }
        out
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::Relaxed),
            busy_nanos: self.shared.busy_nanos.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_in_input_order() {
        let pool = WorkerPool::new(4);
        // Earlier items sleep longer, so later items finish first.
        let out = pool.scatter((0..16u64).collect(), |i, x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            i as u64 * 100 + x
        });
        assert_eq!(out, (0..16).map(|x| x * 101).collect::<Vec<_>>());
        assert_eq!(pool.stats().tasks, 16);
    }

    #[test]
    fn pool_is_reusable_across_scatters() {
        let pool = WorkerPool::new(3);
        for round in 0..8u64 {
            let out = pool.scatter((0..6u64).collect(), |_, x| x + round);
            assert_eq!(out, (0..6).map(|x| x + round).collect::<Vec<_>>());
        }
        assert_eq!(pool.stats().tasks, 48);
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1);
        let main_thread = std::thread::current().id();
        let out = pool.scatter(vec![1, 2, 3], |i, x| {
            assert_eq!(std::thread::current().id(), main_thread);
            i + x
        });
        assert_eq!(out, vec![1, 3, 5]);
        assert_eq!(pool.stats().tasks, 0, "inline path bypasses the queue");
    }

    #[test]
    fn concurrent_scatters_each_get_their_own_results_in_order() {
        // The daemon's usage: several sessions scatter on one resident pool
        // at once, and each caller may run the other's tasks while it waits.
        let pool = WorkerPool::new(3);
        thread::scope(|s| {
            let callers: Vec<_> = [1000u64, 2000]
                .into_iter()
                .map(|base| {
                    let pool = &pool;
                    s.spawn(move || {
                        for round in 0..20u64 {
                            let out = pool.scatter((0..9u64).collect(), |i, x| {
                                thread::sleep(std::time::Duration::from_micros(50 * (9 - x)));
                                base + round * 10 + i as u64
                            });
                            let want: Vec<u64> = (0..9).map(|i| base + round * 10 + i).collect();
                            assert_eq!(out, want);
                        }
                    })
                })
                .collect();
            for c in callers {
                c.join().expect("caller");
            }
        });
        assert_eq!(pool.stats().tasks, 2 * 20 * 9);
    }

    #[test]
    fn busy_nanos_cover_all_workers_vec() {
        let pool = WorkerPool::new(3);
        let _ = pool.scatter((0..12u64).collect(), |_, x| {
            std::thread::sleep(std::time::Duration::from_micros(500));
            x
        });
        let stats = pool.stats();
        assert_eq!(stats.busy_nanos.len(), 3);
        assert!(stats.busy_nanos.iter().sum::<u64>() > 0);
    }

    #[test]
    #[should_panic(expected = "pool boom")]
    fn task_panic_propagates_after_drain() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let pool = WorkerPool::new(4);
        let _ = pool.scatter((0..8).collect::<Vec<i32>>(), |_, x| {
            RAN.fetch_add(1, Ordering::SeqCst);
            if x == 3 {
                panic!("pool boom");
            }
            x
        });
    }

    #[test]
    fn panic_does_not_poison_the_pool() {
        let pool = WorkerPool::new(2);
        let hurt = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.scatter(vec![0, 1, 2], |_, x| {
                if x == 1 {
                    panic!("transient");
                }
                x
            });
        }));
        assert!(hurt.is_err());
        let out = pool.scatter(vec![10, 20], |_, x| x * 2);
        assert_eq!(out, vec![20, 40]);
    }
}
