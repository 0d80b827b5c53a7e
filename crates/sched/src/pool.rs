//! Persistent work-stealing worker pool.
//!
//! The pool is created once per session (sized by `--jobs`) and every
//! parallel stage is scattered onto it, so slice execution pays queue
//! pushes instead of thread spawns, and uneven slice costs are
//! load-balanced by stealing.
//!
//! Scheduling is the classic work-stealing shape:
//!
//! - one deque per worker; tasks are placed round-robin (or by a seeded
//!   LCG under `debug_force_steal`, to exercise adversarial placements);
//! - a worker pops its **own** deque from the back (LIFO — cache-warm,
//!   most recently pushed sub-slice first) and steals from **other**
//!   deques at the front (FIFO — the oldest, typically fattest task);
//! - results are written into **indexed slots**, so
//!   [`WorkerPool::scatter`] returns them in input order no matter which
//!   worker ran what. Determinism of the downstream merge therefore does
//!   not depend on worker count or steal interleaving.
//!
//! The caller participates as logical worker 0 while a scatter is in
//! flight (it runs tasks instead of blocking), which keeps `--jobs N`
//! meaning "N CPUs busy", not "N extra threads".

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Erased unit of work. The `usize` argument is the id of the worker that
/// executes the task (0 = the scattering caller).
type Task = Box<dyn FnOnce(usize) + Send + 'static>;

/// Lock helper: a poisoned mutex only means some task panicked while
/// holding it; the protected data (queues, counters) stays coherent
/// because every critical section is a few plain writes.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Gate {
    /// Tasks pushed but not yet claimed by any worker. Claims decrement
    /// this *before* scanning the deques, so `sum(queue lengths)` is
    /// always `>= queued + in-flight claims` and every claim holder
    /// eventually finds a task.
    queued: usize,
    shutdown: bool,
}

struct Shared {
    queues: Vec<Mutex<VecDeque<Task>>>,
    gate: Mutex<Gate>,
    ready: Condvar,
    steals: AtomicU64,
    tasks: AtomicU64,
    max_queue_depth: AtomicU64,
    busy_nanos: Vec<AtomicU64>,
}

impl Shared {
    fn push(&self, qi: usize, task: Task) {
        let depth = {
            let mut q = lock(&self.queues[qi]);
            q.push_back(task);
            q.len() as u64
        };
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        self.tasks.fetch_add(1, Ordering::Relaxed);
        let mut g = lock(&self.gate);
        g.queued += 1;
        drop(g);
        self.ready.notify_one();
    }

    /// Removes one task, preferring the back of `wid`'s own deque (LIFO)
    /// and falling back to the front of the others (FIFO steal). Only
    /// called with a claim from [`Gate::queued`] held, so a task is
    /// guaranteed to surface; the rescan loop covers the window where a
    /// concurrent claim holder momentarily emptied the deque we scanned.
    fn take(&self, wid: usize) -> Task {
        loop {
            if let Some(t) = lock(&self.queues[wid]).pop_back() {
                return t;
            }
            for off in 1..self.queues.len() {
                let qi = (wid + off) % self.queues.len();
                if let Some(t) = lock(&self.queues[qi]).pop_front() {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return t;
                }
            }
            thread::yield_now();
        }
    }

    /// Blocking claim for pool threads; returns `None` on shutdown.
    fn fetch_blocking(&self, wid: usize) -> Option<Task> {
        let mut g = lock(&self.gate);
        loop {
            if g.queued > 0 {
                g.queued -= 1;
                drop(g);
                return Some(self.take(wid));
            }
            if g.shutdown {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking claim for the scattering caller.
    fn try_fetch(&self, wid: usize) -> Option<Task> {
        let mut g = lock(&self.gate);
        if g.queued == 0 {
            return None;
        }
        g.queued -= 1;
        drop(g);
        Some(self.take(wid))
    }

    fn run(&self, wid: usize, task: Task) {
        let start = Instant::now();
        task(wid);
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
    /// Tasks taken from a deque other than the claiming worker's own.
    pub steals: u64,
    /// Deepest any single deque ever got.
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
            steals: self.steals.saturating_sub(earlier.steals),
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
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(Gate { queued: 0, shutdown: false }),
            ready: Condvar::new(),
            steals: AtomicU64::new(0),
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
                        while let Some(task) = shared.fetch_blocking(wid) {
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
        self.scatter_seeded(None, items, f)
    }

    /// [`WorkerPool::scatter`] with explicit task placement: `None` places
    /// task `i` on deque `i % workers` (round-robin); `Some(seed)` places
    /// by a seeded LCG, which concentrates tasks on arbitrary deques and
    /// forces adversarial steal orders (the `debug_force_steal` knob).
    /// Output is bit-identical either way — that is the point of the knob.
    pub fn scatter_seeded<T, R, F>(&self, seed: Option<u64>, items: Vec<T>, f: F) -> Vec<R>
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
            let mut lcg = seed.map(Lcg::new);
            for (i, item) in items.into_iter().enumerate() {
                let task: Box<dyn FnOnce(usize) + Send + '_> = Box::new(move |_wid| {
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
                let task: Task = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce(usize) + Send + '_>, Task>(task)
                };
                let qi = match &mut lcg {
                    Some(l) => l.next_index(self.workers),
                    None => i % self.workers,
                };
                self.shared.push(qi, task);
            }
            // Participate as worker 0 until every task (ours or a
            // concurrent scatter's) has drained; then wait for stragglers
            // still running on pool threads.
            loop {
                if *lock(remaining) == 0 {
                    break;
                }
                if let Some(task) = self.shared.try_fetch(0) {
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
            steals: self.shared.steals.load(Ordering::Relaxed),
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::Relaxed),
            busy_nanos: self.shared.busy_nanos.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.gate).shutdown = true;
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Minimal 64-bit LCG (Knuth's MMIX constants) for deterministic
/// adversarial task placement; the high bits are the usable ones.
struct Lcg {
    state: u64,
}

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    fn next_index(&mut self, bound: usize) -> usize {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.state >> 33) as usize) % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_in_input_order_with_stealing() {
        let pool = WorkerPool::new(4);
        // Earlier items sleep longer, so later items finish first and
        // idle workers must steal to stay busy.
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
        assert_eq!(pool.stats().tasks, 0, "inline path bypasses the deques");
    }

    #[test]
    fn seeded_placement_is_deterministic_and_bit_identical() {
        let pool = WorkerPool::new(4);
        let base = pool.scatter((0..32u64).collect(), |i, x| (i as u64) ^ (x << 3));
        for seed in [0u64, 1, 7, 0xdead_beef] {
            let forced =
                pool.scatter_seeded(Some(seed), (0..32u64).collect(), |i, x| (i as u64) ^ (x << 3));
            assert_eq!(forced, base, "seed {seed} changed results");
        }
    }

    #[test]
    fn steals_are_recorded_under_skewed_placement() {
        let pool = WorkerPool::new(4);
        // All tasks land on one deque; three workers plus the caller can
        // only make progress by stealing.
        let _ = pool.scatter_seeded(Some(42), (0..64u64).collect(), |_, x| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x
        });
        let stats = pool.stats();
        assert!(stats.steals > 0, "expected steals, got {stats:?}");
        assert!(stats.max_queue_depth > 1, "expected queueing, got {stats:?}");
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
