//! The memory abstract domain (paper Sect. 6.1).
//!
//! Abstract environments map *abstract cells* to arithmetic abstract values.
//! C data structures are translated to cells (Sect. 6.1.1): atomic cells for
//! scalars, one cell per element for *expanded* arrays, a single cell for
//! *shrunk* arrays (large tables where only the stored range matters), and
//! one cell per field for records. Environments are persistent maps with
//! structural sharing (Sect. 6.1.2 — implemented by [`astree_pmap`]), so
//! abstract union after a test costs time proportional to the number of
//! cells the branches actually touched.
//!
//! The crate also implements the abstract transfer functions driven by the
//! iterator: expression evaluation with run-time-error flags, assignments
//! (strong or weak updates depending on index precision), condition guards,
//! volatile input refreshes, the clock tick, and the linearization hook of
//! Sect. 6.3 that refines interval evaluation through interval linear forms.

pub mod env;
pub mod eval;
pub mod layout;

pub use env::{AbsEnv, CellVal};
pub use eval::{AbsVal, Evaluator};
pub use layout::{CellId, CellInfo, CellLayout, Cells, LayoutConfig, Resolved};
