//! Distributed fleet sharding: a process-level coordinator with one job
//! queue and a shared warm store, behind one unified Fleet API — and the
//! one resident process, which serves the same jobs to clients and
//! coordinators alike.
//!
//! The analyzer's fan-out surfaces — `astree batch` and the serve daemon's
//! `run` request — describe their work as [`JobSpec`]s, each one analysis,
//! and run them through a [`FleetSession`]:
//!
//! ```
//! use astree_fleet::{FleetSession, JobSpec};
//!
//! let report = FleetSession::builder()
//!     .job(JobSpec::new("clean", "int x; void main(void) { x = 1; }"))
//!     .job(JobSpec::new("div", "int x; int d; void main(void) { d = 0; x = 1 / d; }"))
//!     .run();
//! assert_eq!(report.completed(), 2);
//! assert_eq!(report.total_alarms(), 1);
//! ```
//!
//! The same builder scales from that in-process run to a fleet of worker
//! processes (`.workers(4)`) and remote machines (`.connect(endpoint)`)
//! without changing what comes back: outcomes in submission order,
//! byte-identical at any worker count ([`FleetReport::stable_report`] is
//! the canonical digest). Workers share one content-addressed
//! [`InvariantStore`](astree_core::InvariantStore), so invariants converged
//! by one process warm every other.
//!
//! Module map — the layers of the fleet:
//!
//! - [`job`]: the vocabulary ([`JobSpec`], [`JobOutcome`], [`JobStatus`],
//!   [`FleetReport`]);
//! - [`exec`]: runs one job (shared by the in-process and serving paths);
//! - [`proto`]: length-delimited JSON framing, [`Endpoint`]s, the one
//!   connection type [`Conn`] and the one `Listener`;
//! - [`wire`]: codecs for specs and outcomes (a configuration encodes
//!   itself: `AnalysisConfig::to_json`/`patch`);
//! - [`coordinator`]: lanes pulling from one queue, crash re-queue and
//!   the store exchange ([`Transport`], [`ProcessTransport`],
//!   [`SocketTransport`]);
//! - [`session`]: the [`FleetSession`] builder tying it together;
//! - [`corpus`]: fleet construction for generated members;
//! - [`serve`]: the resident process (`astree-serve/2`): one connection
//!   loop for sockets and stdio, and its client.

pub mod coordinator;
pub mod corpus;
pub mod exec;
pub mod job;
pub mod proto;
pub mod serve;
pub mod session;
pub mod wire;

pub use coordinator::{run_fleet, FleetConfig, ProcessTransport, SocketTransport, Transport};
pub use corpus::generated_jobs;
pub use exec::{execute, ExecContext};
pub use job::{FleetReport, JobOutcome, JobSpec, JobStatus};
pub use proto::{read_frame, write_frame, Conn, Endpoint, MAX_FRAME};
pub use session::{FleetOptions, FleetSession, FleetSessionBuilder};
