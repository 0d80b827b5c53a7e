//! Facade crate re-exporting the whole analyzer workspace.
//!
//! This reproduces the PLDI 2003 ASTRÉE analyzer: an abstract-interpretation
//! static analyzer proving the absence of run-time errors in periodic
//! synchronous C programs. See the individual crates for the pieces:
//!
//! - [`pmap`] — persistent maps with structural sharing (Sect. 6.1.2)
//! - [`float`] — sound directed-rounding float primitives (Sect. 6.2.1)
//! - [`ir`] — the typed intermediate representation and concrete interpreter
//! - [`frontend`] — C-subset lexer/preprocessor/parser/typechecker (Sect. 5.1)
//! - [`domains`] — intervals, clocked, octagons, ellipsoids, decision trees,
//!   linearization (Sect. 6.2–6.3)
//! - [`memory`] — the memory abstract domain (Sect. 6.1)
//! - [`core`] — the iterator, fixpoint engine, packing, alarms (Sect. 5, 7),
//!   and `scatter`, the scoped threads the slices of a parallel analysis
//!   run on (one cursor, results in input order, à la Monniaux's parallel
//!   ASTRÉE)
//! - [`slicer`] — backward slicing for alarm inspection (Sect. 3.3)
//! - [`gen`] — the synthetic periodic synchronous program family (Sect. 4)
//! - [`obs`] — structured analysis telemetry (recorder, metrics schema)
//! - [`oracle`] — the differential soundness oracle (corpus fuzzing of
//!   concrete executions against claimed invariants, `astree-campaign/1`)
//! - [`fleet`] — distributed fleet sharding: the process-level coordinator
//!   with one job queue and a shared warm store, behind the unified
//!   `FleetSession` API
//! - [`serve`] — the one resident process, a module of [`fleet`]: it runs
//!   fleet jobs on a warm shared invariant store for clients and
//!   coordinators alike (`astree-serve/2` wire protocol)
//! - [`options`] — the CLI's flag tables, parse loop and `--help`

pub mod options;

pub use astree_core as core;
pub use astree_domains as domains;
pub use astree_fleet as fleet;
pub use astree_fleet::serve;
pub use astree_float as float;
pub use astree_frontend as frontend;
pub use astree_gen as gen;
pub use astree_ir as ir;
pub use astree_memory as memory;
pub use astree_obs as obs;
pub use astree_oracle as oracle;
pub use astree_pmap as pmap;
pub use astree_slicer as slicer;
