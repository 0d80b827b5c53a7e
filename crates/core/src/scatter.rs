//! The one way the analyzer runs work on threads: [`scatter`], a scoped
//! fork-join over a slice. The stage executor scatters a parallel stage's
//! slices (Monniaux's partition-and-join), the fleet's in-process batch its
//! jobs; neither keeps a thread alive between calls.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Runs `f(worker, index, item)` for every item and returns the results in
/// input order.
///
/// The work runs on `min(threads, items.len())` workers: the caller is
/// worker 0, the others are scoped threads that live for this call only.
/// Every worker takes the next index from one shared cursor, which is all
/// the load balancing near-equal items need. With one worker everything
/// runs inline on the caller and nothing is spawned.
///
/// A panic in `f` is re-raised once every other item has finished and every
/// thread has joined (the first in input order, when several panic).
pub fn scatter<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(0, i, x)).collect();
    }
    // The cursor publishes nothing but the index it hands out: results go
    // back through each thread's join, which orders them for the caller.
    let cursor = AtomicUsize::new(0);
    let work = |w: usize| {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(x) = items.get(i) else { return done };
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(w, i, x)))));
        }
    };
    let mut done = thread::scope(|s| {
        let work = &work;
        let others: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
        let mut done = work(0);
        for h in others {
            done.extend(h.join().expect("every item runs under catch_unwind"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r.unwrap_or_else(|payload| resume_unwind(payload))).collect()
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
    use std::sync::atomic::AtomicBool;

    /// Spins until `flag` is set: the tests force their interleavings.
    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::SeqCst) {
            thread::yield_now();
        }
    }

    #[test]
    fn results_come_back_in_input_order_when_early_items_run_longest() {
        // Item 0 finishes last: it waits until every other item is done.
        let finished = AtomicUsize::new(0);
        let rest_done = AtomicBool::new(false);
        let items: Vec<usize> = (0..16).collect();
        let out = scatter(4, &items, |_, i, &x| {
            if x == 0 {
                wait_for(&rest_done);
            } else if finished.fetch_add(1, Ordering::SeqCst) == 14 {
                rest_done.store(true, Ordering::SeqCst);
            }
            i * 100 + x
        });
        assert_eq!(out, (0..16).map(|x| x * 101).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_runs_every_item_on_the_caller() {
        let caller = thread::current().id();
        let out = scatter(1, &[1, 2, 3], |w, i, &x| {
            assert_eq!((w, thread::current().id()), (0, caller));
            i + x
        });
        assert_eq!(out, vec![1, 3, 5]);
    }

    #[test]
    fn a_panicking_item_propagates_after_every_other_item_finished() {
        // Every other item starts its end only once item 0 has panicked.
        let panicking = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let items: Vec<usize> = (0..8).collect();
        let hurt = catch_unwind(AssertUnwindSafe(|| {
            scatter(4, &items, |_, _, &x| {
                if x == 0 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("scatter boom");
                }
                wait_for(&panicking);
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = hurt.expect_err("the panic propagates");
        assert_eq!(panic_message(payload.as_ref()), "scatter boom");
        assert_eq!(finished.load(Ordering::SeqCst), 7, "every other item ran to its end");
    }
}
