//! The `astree-serve/1` wire protocol: framing and endpoints.
//!
//! The framing itself (length-delimited JSON frames, [`Endpoint`],
//! [`Conn`]) lives in [`astree_fleet::proto`] — it is shared with the
//! coordinator↔worker `astree-fleet/2` protocol — and is re-exported here
//! so serve's callers keep one import path. This module only adds the
//! serve protocol identifier.

pub use astree_fleet::proto::{read_frame, write_frame, Conn, Endpoint, MAX_FRAME};

/// The protocol identifier carried by every request.
pub const PROTO: &str = "astree-serve/1";
