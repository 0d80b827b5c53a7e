//! Scheduling substrate for parallel and batch analysis.
//!
//! Monniaux's parallel implementation of ASTRÉE splits the synchronous
//! control loop's top-level dispatch into slices analyzed on independent
//! processors and joins the resulting abstract states at the merge point in
//! a *fixed* order, so the parallel analyzer reports bit-identical alarms
//! and invariants to the sequential one. This crate provides the generic,
//! domain-agnostic machinery for that scheme using only `std::thread`:
//!
//! - [`pool`]: a persistent work-stealing worker pool with per-worker
//!   deques (LIFO-local, FIFO-steal) and indexed result slots, so results
//!   come back in input order regardless of steal interleaving;
//! - [`plan`]: partitions a statement sequence into contiguous *stages*
//!   whose members are pairwise independent, given a conflict oracle, and
//!   chunks stages into near-equal (or cost-balanced) ranges;
//! - [`batch`]: a bounded-worker job queue for analyzing fleets of programs
//!   with per-job panic isolation and timeouts.
//!
//! The semantic side (which statements conflict, how abstract states merge)
//! stays in `astree-core`; nothing here depends on the analysis domains.

pub mod batch;
pub mod plan;
pub mod pool;

pub use batch::{panic_message, run_batch, BatchConfig, BatchReport, Job, JobResult, JobStatus};
pub use plan::{chunk_ranges, cost_chunk_ranges, plan_stages, Stage};
pub use pool::{PoolStats, WorkerPool};
