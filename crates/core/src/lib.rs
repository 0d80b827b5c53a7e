//! The analyzer core (paper Sect. 3, 5 and 7): the iterator, the fixpoint
//! engine, parametrized packing for the relational domains, alarm reporting
//! and the end-user parametrization surface.
//!
//! The analysis proceeds exactly as the paper describes: abstract execution
//! by induction on the (structured) abstract syntax, driven by an iterator
//! that runs in *iteration mode* (computing loop invariants by widening with
//! thresholds, delayed widening and narrowing) and then in *checking mode*
//! (re-executing from the invariants and reporting one alarm per operator
//! application that may err). The memory domain is the reduced product of
//! the interval/clocked environment ([`astree_memory`]) with octagon packs,
//! ellipsoid filter pairs and boolean decision trees, discovered
//! syntactically before the analysis starts (Sect. 7.2).
//!
//! # Examples
//!
//! ```
//! use astree_core::AnalysisSession;
//! use astree_frontend::Frontend;
//!
//! let src = r#"
//!     volatile int in;
//!     int x;
//!     void main(void) {
//!         __astree_input_int(in, 0, 100);
//!         while (1) {
//!             x = in;
//!             if (x > 50) { x = 50; }
//!             __astree_wait();
//!         }
//!     }
//! "#;
//! let program = Frontend::new().compile_str(src).unwrap();
//! let result = AnalysisSession::builder(&program).build().run();
//! assert_eq!(result.alarms.len(), 0); // no possible run-time error
//! ```
//!
//! Telemetry, an invariant store (replay or solve) and intra-analysis parallelism
//! are orthogonal builder options:
//!
//! ```no_run
//! # use astree_core::{cache::InvariantStore, AnalysisSession};
//! # use std::sync::Arc;
//! # let program = astree_frontend::Frontend::new()
//! #     .compile_str("int x; void main(void) { x = 1; }").unwrap();
//! let store = Arc::new(InvariantStore::open("/tmp/astree-cache").unwrap());
//! let result = AnalysisSession::builder(&program)
//!     .cache(Arc::clone(&store))
//!     .jobs(4)
//!     .build()
//!     .run();
//! ```

pub mod alarms;
pub mod analysis;
pub mod cache;
pub mod census;
pub mod config;
pub(crate) mod frames;
pub mod iterator;
pub mod packs;
pub(crate) mod parallel;
pub mod pool;
pub mod solve;
pub(crate) mod stage;
pub mod state;
pub mod substitute;

pub use alarms::{Alarm, AlarmKind};
pub use analysis::{
    AnalysisResult, AnalysisSession, AnalysisSessionBuilder, AnalysisStats, CacheReport,
};
pub use cache::{packs_fingerprint, InvariantStore, StoreKey};
pub use census::{under_constrained_vars, Census, CensusEntry};
pub use config::{AnalysisConfig, Flag, Takes};
pub use packs::{DtreePack, EllipsePack, OctPack, Packs};
pub use state::AbsState;
