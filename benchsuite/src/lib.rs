//! `astree-bench/1`: the repo's benchmark. One suite, paper scale, every
//! layer — four workloads, seven end-to-end metrics measured on the release
//! `astree` CLI with telemetry off, and a traced in-process run that yields
//! the per-layer numbers. See `README.md` next to this crate.

pub mod child;
pub mod doc;
pub mod e2e;
pub mod inputs;
pub mod layers;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod verdict;
