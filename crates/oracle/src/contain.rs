//! The containment walker: maps concrete interpreter cells onto abstract
//! cells and decides whether a concrete store lies inside a rendered
//! abstract state.
//!
//! # Containment contract
//!
//! A concrete store `σ` is *inside* an abstract state `ρ#` at a program
//! point iff for every persistent concrete cell `(v, path)` with value `x`:
//!
//! - the clock: the number of ticks the run has taken, `t`, lies in the
//!   abstract clock interval;
//! - integer cells: `x ∈ γ(ρ#(cell))` via [`Clocked::contains`], the whole
//!   clocked triple: `x` in the value interval, `x − t` in `x − clock`'s
//!   and `x + t` in `x + clock`'s (the value alone when the analysis ran
//!   without the clocked domain, which keeps no such parts);
//! - float cells: `x ∈ [lo, hi]` via [`FloatItv::contains`] under the
//!   numeric order (so `-0.0 ∈ [0.0, 0.0]`; the *bitwise* total-order
//!   comparison of rendered invariants is a reproducibility device for
//!   comparing two abstract states, not part of the concretization);
//! - untracked cells concretize to top and contain everything;
//! - a statement with no recorded abstract state is claimed unreachable, so
//!   any concrete arrival there is a divergence.
//!
//! Only cells of whole-program lifetime ([`astree_ir::is_persistent`])
//! participate: locals and by-value parameters are zero-reinitialized on
//! every concrete call while the analyzer may keep stale frames, so they
//! would false-diverge without weakening the soundness statement the paper
//! makes (Sect. 5.4 quantifies over the persistent state machine).
//!
//! [`Clocked::contains`]: astree_domains::Clocked::contains
//! [`FloatItv::contains`]: astree_domains::FloatItv::contains

use astree_domains::{Clocked, IntItv};
use astree_ir::{is_persistent, Program, Type, Value, VarId};
use astree_memory::{CellId, CellLayout, CellVal};
use std::collections::HashMap;

/// A per-variable mirror of the layout's private cell tree, rebuilt from the
/// program types and the shrink threshold by consuming the layout's cell ids
/// in build order (the public [`CellLayout::cells_of_var`] enumeration).
enum Node {
    Scalar(CellId),
    /// One cell for all elements of a shrunk array.
    Shrunk(CellId),
    Array(Vec<Node>),
    Record(Vec<Node>),
}

/// Maps concrete cells `(VarId, path)` to abstract [`CellId`]s for every
/// persistent variable of a program.
pub struct CellTable {
    roots: Vec<Option<Node>>,
}

impl CellTable {
    /// Builds the table. `shrink_threshold` must match the analysis
    /// configuration that produced `layout`.
    pub fn new(program: &Program, layout: &CellLayout, shrink_threshold: usize) -> CellTable {
        let mut roots = Vec::with_capacity(program.vars.len());
        for (i, v) in program.vars.iter().enumerate() {
            let var = VarId(i as u32);
            if !is_persistent(v.kind) {
                roots.push(None);
                continue;
            }
            let cells = layout.cells_of_var(var);
            let mut it = cells.iter().copied();
            let node = build_node(program, &v.ty, shrink_threshold, &mut it);
            debug_assert!(it.next().is_none(), "cell count mismatch for {}", v.name);
            roots.push(Some(node));
        }
        CellTable { roots }
    }

    /// The abstract cell a persistent concrete cell maps to; `None` for
    /// non-persistent variables.
    pub fn lookup(&self, var: VarId, path: &[u32]) -> Option<CellId> {
        let mut node = self.roots.get(var.0 as usize)?.as_ref()?;
        let mut rest = path;
        loop {
            match node {
                Node::Scalar(id) => return rest.is_empty().then_some(*id),
                // All elements (one trailing index) share the shrunk cell.
                Node::Shrunk(id) => return (rest.len() <= 1).then_some(*id),
                Node::Array(children) | Node::Record(children) => {
                    let (first, tail) = rest.split_first()?;
                    node = children.get(*first as usize)?;
                    rest = tail;
                }
            }
        }
    }
}

fn build_node(
    program: &Program,
    ty: &Type,
    threshold: usize,
    cells: &mut impl Iterator<Item = CellId>,
) -> Node {
    match ty {
        Type::Scalar(_) => Node::Scalar(cells.next().expect("layout cell for scalar")),
        Type::Array(elem, n) => match elem.as_scalar() {
            Some(_) if *n > threshold => {
                Node::Shrunk(cells.next().expect("layout cell for shrunk array"))
            }
            _ => {
                Node::Array((0..*n).map(|_| build_node(program, elem, threshold, cells)).collect())
            }
        },
        Type::Record(rid) => Node::Record(
            program.records[rid.0 as usize]
                .fields
                .iter()
                .map(|(_, fty)| build_node(program, fty, threshold, cells))
                .collect(),
        ),
    }
}

/// Whether a concrete value, observed after `ticks` clock ticks, lies
/// inside the concretization of an abstract cell value (see the module docs
/// for the per-domain meaning).
pub fn value_in(abs: &CellVal, v: &Value, ticks: u64) -> bool {
    match (abs, v) {
        (CellVal::Int(c), Value::Int(x)) => c.contains(*x, tick_count(ticks)),
        (CellVal::Float(f), Value::Float(x)) => f.contains(*x),
        // A type mismatch between concrete and abstract cell is itself a
        // divergence (the layout and interpreter disagree on the cell kind).
        _ => false,
    }
}

/// A tick count as the clock's integer type (saturating: no run comes near).
fn tick_count(ticks: u64) -> i64 {
    i64::try_from(ticks).unwrap_or(i64::MAX)
}

/// Whether `ticks` clock ticks lie in an abstract clock interval.
pub fn clock_in(clock: IntItv, ticks: u64) -> bool {
    clock.contains(tick_count(ticks))
}

/// One statement's abstract state, rendered for the checks.
pub struct StmtInvariant {
    /// The clock interval.
    pub clock: IntItv,
    /// The cell values, indexed by `CellId`.
    pub cells: Vec<CellVal>,
}

/// Per-statement abstract states rendered into dense per-cell vectors for
/// fast per-observation checks. Statements absent from the map are claimed
/// unreachable.
pub struct PreparedInvariants {
    by_stmt: HashMap<u32, StmtInvariant>,
}

impl PreparedInvariants {
    /// Renders each statement's abstract environment into a vector indexed
    /// by `CellId`. Without the clocked domain (`clocked` false) the
    /// analysis keeps no `x ± clock` parts up to date, so they render as ⊤.
    pub fn new(
        stmt_invariants: &HashMap<astree_ir::StmtId, astree_core::AbsState>,
        layout: &CellLayout,
        clocked: bool,
    ) -> PreparedInvariants {
        let n = layout.num_cells();
        let mut by_stmt = HashMap::with_capacity(stmt_invariants.len());
        let render = |v: CellVal| match v {
            CellVal::Int(c) if !clocked => CellVal::Int(Clocked { val: c.val, ..Clocked::TOP }),
            v => v,
        };
        for (id, st) in stmt_invariants {
            let cells: Vec<CellVal> =
                (0..n).map(|c| render(st.env.get(CellId(c as u32), layout))).collect();
            by_stmt.insert(id.0, StmtInvariant { clock: st.env.clock, cells });
        }
        PreparedInvariants { by_stmt }
    }

    /// The rendered state of a statement, `None` when the analyzer claims
    /// the statement unreachable.
    pub fn at(&self, stmt: astree_ir::StmtId) -> Option<&StmtInvariant> {
        self.by_stmt.get(&stmt.0)
    }

    /// Number of statements with a recorded state.
    pub fn len(&self) -> usize {
        self.by_stmt.len()
    }

    /// Whether no statement has a recorded state.
    pub fn is_empty(&self) -> bool {
        self.by_stmt.is_empty()
    }

    /// Fault injection for tests: replaces the named cell's rendered value
    /// with an empty interval at every statement, so any observation of the
    /// cell diverges. Returns how many statements were tightened.
    #[doc(hidden)]
    pub fn debug_empty_cell(&mut self, layout: &CellLayout, name: &str) -> usize {
        let Some(target) = layout.iter().find(|(_, info)| info.name == name).map(|(id, _)| id)
        else {
            return 0;
        };
        let mut touched = 0;
        for inv in self.by_stmt.values_mut() {
            inv.cells[target.0 as usize] = CellVal::Float(astree_domains::FloatItv::BOTTOM);
            touched += 1;
        }
        touched
    }
}

/// Renders an abstract cell value for diagnostics.
pub fn render_abs(abs: &CellVal) -> String {
    match abs {
        CellVal::Int(c) => format!(
            "[{}, {}] (x-clock [{}, {}], x+clock [{}, {}])",
            c.val.lo, c.val.hi, c.minus.lo, c.minus.hi, c.plus.lo, c.plus.hi
        ),
        CellVal::Float(f) => format!("[{}, {}]", f.lo, f.hi),
    }
}

/// Renders a concrete value for diagnostics.
pub fn render_value(v: &Value) -> String {
    match v {
        Value::Int(x) => x.to_string(),
        Value::Float(x) => format!("{x:?}"),
    }
}
