//! Typed intermediate representation for the analyzed C subset.
//!
//! The frontend (paper Sect. 5.1) compiles preprocessed, parsed and
//! type-checked C into "a simplified version of the abstract syntax tree with
//! all types explicit and variables given unique identifiers". This crate *is*
//! that representation: scalar and aggregate [`types`], typed
//! [expressions](expr) and l-values, structured [statements](stmt), whole
//! [programs](program) — plus a reference concrete [interpreter](interp) used
//! to test analyzer soundness, and a [pretty-printer](pretty).
//!
//! Design constraints mirror the paper's program family (Sect. 4): no dynamic
//! allocation, no recursion, pointers only as call-by-reference arguments
//! (which the IR models with explicit by-reference parameters), volatile
//! input variables with environment-supplied ranges, and a periodic
//! synchronous `wait` primitive.

pub mod expr;
pub mod fingerprint;
pub mod interp;
pub mod pretty;
pub mod program;
pub mod stmt;
pub mod types;

pub use expr::{Access, Binop, Expr, FloatBits, Lvalue, Unop};
pub use fingerprint::{
    canon_ident, channel_tag, func_fingerprints, parametric_fingerprints, program_fingerprint, Fnv,
};
pub use interp::{
    is_persistent, CellKey, ExecError, InputProvider, Interp, InterpConfig, RuntimeEvent,
    SeededInputs, Store, Value,
};
pub use program::{
    ConstValue, FuncId, Function, InputRange, Metrics, Param, ParamKind, Program, VarId, VarInfo,
    VarKind,
};
pub use stmt::{Block, CallArg, Loc, LoopId, Stmt, StmtId, StmtKind};
pub use types::{FloatKind, IntType, RecordDef, RecordId, ScalarType, Type};
