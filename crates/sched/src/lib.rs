//! Scheduling substrate for parallel analysis.
//!
//! Monniaux's parallel implementation of ASTRÉE splits the synchronous
//! control loop's top-level dispatch into slices analyzed on independent
//! processors and joins the resulting abstract states at the merge point in
//! a *fixed* order, so the parallel analyzer reports bit-identical alarms
//! and invariants to the sequential one. This crate provides the
//! domain-agnostic half of that scheme using only `std::thread`: [`pool`],
//! a persistent worker pool with one shared queue and indexed result slots,
//! so results come back in input order regardless of which worker ran what.
//!
//! The semantic side (which statements conflict, how a stage is cut into
//! slices, how abstract states merge) stays in `astree-core`; nothing here
//! depends on the analysis domains.

pub mod pool;

pub use pool::{PoolStats, WorkerPool};

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
