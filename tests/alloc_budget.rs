//! The allocation budget of the hot path: heap allocations per interpreted
//! statement, counted by a global allocator on the analyzing thread only (so
//! tests running in parallel do not count into each other).
//!
//! The transfer functions resolve l-values without the heap, keep pack
//! indices in flat tables and build no set per guard; a change that brings
//! a per-statement allocation back into the loop shows here as a count,
//! independent of how fast or loaded the host is.

// The budget is that of the fast paths: a `reference` build, which copies
// where they write in place, has none.
#![cfg(not(feature = "reference"))]
// A counting `GlobalAlloc` can only be written with `unsafe`.
#![allow(unsafe_code)]

use astree::core::{AnalysisConfig, AnalysisSession};
use astree::frontend::Frontend;
use astree::gen::{generate, GenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is a
// thread-local `Cell` with a const initializer, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per interpreted statement on the 8-channel seed-42 member at
/// `--jobs 1`, counted inside `AnalysisSession::run`: 132,887 allocations
/// for 16,744 statements (7.94 per statement), in debug and release builds
/// alike; the budget is that plus 25 %. Before l-values were resolved
/// without the heap and pack lookups went through flat tables, the same run
/// made 366,135 (21.87 per statement).
const BUDGET_PER_STMT: f64 = 7.94 * 1.25;

#[test]
fn heap_allocations_per_statement_stay_under_budget() {
    let src = generate(&GenConfig { channels: 8, seed: 42, bug: None });
    let program = Frontend::new().compile_str(&src).expect("the member compiles");
    let mut config = AnalysisConfig::default();
    config.jobs = 1;
    let session = AnalysisSession::builder(&program).config(config).build();
    let before = allocs();
    let result = session.run();
    let made = allocs() - before;
    let stmts = result.stats.stmts_interpreted;
    assert!(stmts > 0, "the analysis interpreted nothing");
    let per_stmt = made as f64 / stmts as f64;
    assert!(
        per_stmt <= BUDGET_PER_STMT,
        "{made} allocations for {stmts} statements: {per_stmt:.2} per statement, \
         budget {BUDGET_PER_STMT:.2}"
    );
}
