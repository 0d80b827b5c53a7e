//! Cell layout: mapping program variables to abstract cells.
//!
//! Array expansion is the paper's default (element-wise abstraction); arrays
//! larger than [`LayoutConfig::shrink_threshold`] become *shrunk* cells where
//! all elements are abstracted together (paper Sect. 6.1.1: "we use this
//! representation for large arrays where all that matters is the range of
//! the stored data").

use astree_domains::IntItv;
use astree_ir::{Access, Expr, Lvalue, Program, ScalarType, Type, VarId};

/// Index of an abstract cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Description of one abstract cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellInfo {
    /// The variable this cell belongs to.
    pub var: VarId,
    /// Human-readable path (e.g. `x`, `a[3]`, `s.f`, `a[*]` for shrunk).
    pub name: String,
    /// Scalar type of the cell.
    pub ty: ScalarType,
    /// `true` when the cell stands for *all* elements of a shrunk array
    /// (assignments are always weak, reads join all concrete elements).
    pub shrunk: bool,
}

/// Layout configuration.
#[derive(Debug, Clone)]
pub struct LayoutConfig {
    /// Arrays with strictly more elements than this are shrunk to one cell.
    pub shrink_threshold: usize,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig { shrink_threshold: 256 }
    }
}

/// The cells an l-value resolves to, ascending: one inline (no heap), or
/// any other number in a `Vec`. `One` is the only form of a single cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cells {
    /// Exactly one cell.
    One(CellId),
    /// Zero or at least two cells.
    Many(Vec<CellId>),
}

impl Cells {
    fn from_vec(mut cells: Vec<CellId>) -> Cells {
        cells.sort();
        cells.dedup();
        match cells[..] {
            [c] => Cells::One(c),
            _ => Cells::Many(cells),
        }
    }
}

impl std::ops::Deref for Cells {
    type Target = [CellId];

    fn deref(&self) -> &[CellId] {
        match self {
            Cells::One(c) => std::slice::from_ref(c),
            Cells::Many(v) => v,
        }
    }
}

/// The result of resolving an l-value to cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    /// Candidate cells (one when precise; several when the index is
    /// imprecise; all elements of a shrunk array map to its single cell).
    pub cells: Cells,
    /// `true` when a write to this l-value may be performed as a strong
    /// update (single expanded cell, definitely targeted).
    pub strong: bool,
    /// `true` when the subscript may fall outside the array bounds.
    pub may_oob: bool,
}

/// Node of the per-variable cell tree.
#[derive(Debug, Clone)]
enum CellNode {
    Scalar(CellId),
    /// Expanded array: per-element subtrees.
    Array(Vec<CellNode>),
    /// Shrunk array: one cell for every element, plus the element count for
    /// bounds checking.
    Shrunk(CellId, usize),
    Record(Vec<CellNode>),
}

/// The cell layout of a program.
#[derive(Debug, Clone)]
pub struct CellLayout {
    cells: Vec<CellInfo>,
    roots: Vec<CellNode>,
}

impl CellLayout {
    /// Builds the layout for every variable of `program`.
    pub fn new(program: &Program, config: &LayoutConfig) -> CellLayout {
        let mut layout = CellLayout { cells: Vec::new(), roots: Vec::new() };
        for (i, v) in program.vars.iter().enumerate() {
            let var = VarId(i as u32);
            let node = layout.build(program, config, var, &v.ty, v.name.clone());
            layout.roots.push(node);
        }
        layout
    }

    fn build(
        &mut self,
        program: &Program,
        config: &LayoutConfig,
        var: VarId,
        ty: &Type,
        name: String,
    ) -> CellNode {
        match ty {
            Type::Scalar(st) => {
                let id = CellId(self.cells.len() as u32);
                self.cells.push(CellInfo { var, name, ty: *st, shrunk: false });
                CellNode::Scalar(id)
            }
            Type::Array(elem, n) => match elem.as_scalar() {
                Some(elem_ty) if *n > config.shrink_threshold => {
                    let id = CellId(self.cells.len() as u32);
                    self.cells.push(CellInfo {
                        var,
                        name: format!("{name}[*]"),
                        ty: elem_ty,
                        shrunk: true,
                    });
                    CellNode::Shrunk(id, *n)
                }
                _ => {
                    let children = (0..*n)
                        .map(|i| self.build(program, config, var, elem, format!("{name}[{i}]")))
                        .collect();
                    CellNode::Array(children)
                }
            },
            Type::Record(rid) => {
                let fields = program.records[rid.0 as usize].fields.clone();
                let children = fields
                    .iter()
                    .map(|(fname, fty)| {
                        self.build(program, config, var, fty, format!("{name}.{fname}"))
                    })
                    .collect();
                CellNode::Record(children)
            }
        }
    }

    /// Total number of cells (the paper's "21,000 cells after array
    /// expansion" metric).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Cell metadata.
    pub fn info(&self, id: CellId) -> &CellInfo {
        &self.cells[id.0 as usize]
    }

    /// Iterates over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &CellInfo)> {
        self.cells.iter().enumerate().map(|(i, c)| (CellId(i as u32), c))
    }

    /// The single cell of a scalar variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not scalar.
    pub fn scalar_cell(&self, var: VarId) -> CellId {
        match &self.roots[var.0 as usize] {
            CellNode::Scalar(id) => *id,
            other => panic!("variable {var:?} is not scalar: {other:?}"),
        }
    }

    /// All scalar cells under a variable (for `&arr` by-ref passing and
    /// initialization).
    pub fn cells_of_var(&self, var: VarId) -> Vec<CellId> {
        let mut out = Vec::new();
        collect(&self.roots[var.0 as usize], &mut out);
        out
    }

    /// Resolves an l-value given an evaluator for index expressions.
    ///
    /// `idx_eval` returns the interval of an index expression in the current
    /// abstract environment.
    pub fn resolve(&self, lv: &Lvalue, mut idx_eval: impl FnMut(&Expr) -> IntItv) -> Resolved {
        let mut walk = Walk { strong: true, may_oob: false };
        // Fast path: while the path stays on one node (fields, singleton
        // in-range indices, shrunk arrays) no node list is built.
        let mut node = &self.roots[lv.base.0 as usize];
        for (k, acc) in lv.path.iter().enumerate() {
            let next = match acc {
                Access::Field(f) => field_step(node, *f),
                Access::Index(e) => walk.index_step(node, idx_eval(e)),
            };
            match next {
                [one] => node = one,
                next => return walk.general(next.iter().collect(), &lv.path[k + 1..], idx_eval),
            }
        }
        let cells = match node {
            CellNode::Scalar(id) | CellNode::Shrunk(id, _) => Cells::One(*id),
            aggregate => cells_under(vec![aggregate]),
        };
        walk.resolved(cells)
    }

    /// [`CellLayout::resolve`] by the general walk alone — the reference
    /// the fast path is tested against.
    #[cfg(test)]
    fn resolve_general(&self, lv: &Lvalue, idx_eval: impl FnMut(&Expr) -> IntItv) -> Resolved {
        let walk = Walk { strong: true, may_oob: false };
        walk.general(vec![&self.roots[lv.base.0 as usize]], &lv.path, idx_eval)
    }
}

/// The flags of an l-value walk, updated access by access.
struct Walk {
    strong: bool,
    may_oob: bool,
}

impl Walk {
    /// The nodes an index leads to from `n`.
    fn index_step<'a>(&mut self, n: &'a CellNode, idx: IntItv) -> &'a [CellNode] {
        match n {
            CellNode::Array(children) => {
                let len = children.len() as i64;
                if idx.lo < 0 || idx.hi >= len {
                    self.may_oob = true;
                }
                let lo = idx.lo.clamp(0, len - 1);
                let hi = idx.hi.clamp(0, len - 1);
                if idx.is_bottom() {
                    return &[];
                }
                if lo != hi {
                    self.strong = false;
                }
                &children[lo as usize..=hi as usize]
            }
            CellNode::Shrunk(_, len) => {
                if idx.lo < 0 || idx.hi >= *len as i64 {
                    self.may_oob = true;
                }
                // All elements share the cell: writes weak.
                self.strong = false;
                std::slice::from_ref(n)
            }
            other => std::slice::from_ref(other),
        }
    }

    /// Walks `path` from the node set `nodes`, evaluating each index once
    /// for the whole set.
    fn general(
        mut self,
        mut nodes: Vec<&CellNode>,
        path: &[Access],
        mut idx_eval: impl FnMut(&Expr) -> IntItv,
    ) -> Resolved {
        for acc in path {
            let mut next: Vec<&CellNode> = Vec::new();
            match acc {
                Access::Field(f) => {
                    for n in nodes {
                        next.extend(field_step(n, *f));
                    }
                }
                Access::Index(e) => {
                    let idx = idx_eval(e);
                    for n in nodes {
                        next.extend(self.index_step(n, idx));
                    }
                }
            }
            nodes = next;
        }
        self.resolved(cells_under(nodes))
    }

    fn resolved(self, cells: Cells) -> Resolved {
        let strong = self.strong && cells.len() == 1;
        Resolved { cells, strong, may_oob: self.may_oob }
    }
}

/// Every cell under `nodes` (aggregates expand).
fn cells_under(nodes: Vec<&CellNode>) -> Cells {
    let mut cells = Vec::new();
    for n in nodes {
        collect(n, &mut cells);
    }
    Cells::from_vec(cells)
}

fn field_step(n: &CellNode, f: u32) -> &[CellNode] {
    match n {
        CellNode::Record(children) => std::slice::from_ref(&children[f as usize]),
        _ => &[],
    }
}

fn collect(node: &CellNode, out: &mut Vec<CellId>) {
    match node {
        CellNode::Scalar(id) | CellNode::Shrunk(id, _) => out.push(*id),
        CellNode::Array(children) | CellNode::Record(children) => {
            for c in children {
                collect(c, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astree_ir::{FloatKind, Function, IntType, RecordDef, VarInfo, VarKind};

    fn program_with(tys: Vec<Type>) -> Program {
        let mut p = Program::new();
        p.records.push(RecordDef {
            name: "S".into(),
            fields: vec![
                ("a".into(), Type::int(IntType::INT)),
                ("b".into(), Type::float(FloatKind::F64)),
            ],
        });
        for (i, ty) in tys.into_iter().enumerate() {
            p.add_var(VarInfo {
                name: format!("v{i}"),
                ty,
                kind: VarKind::Global,
                volatile_input: None,
            });
        }
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![],
        });
        p
    }

    #[test]
    fn scalar_and_record_cells() {
        let p = program_with(vec![Type::int(IntType::INT), Type::Record(astree_ir::RecordId(0))]);
        let l = CellLayout::new(&p, &LayoutConfig::default());
        assert_eq!(l.num_cells(), 3);
        assert_eq!(l.info(CellId(1)).name, "v1.a");
        assert_eq!(l.info(CellId(2)).name, "v1.b");
    }

    #[test]
    fn small_arrays_expand() {
        let p = program_with(vec![Type::Array(Box::new(Type::int(IntType::INT)), 4)]);
        let l = CellLayout::new(&p, &LayoutConfig::default());
        assert_eq!(l.num_cells(), 4);
        assert!(!l.info(CellId(2)).shrunk);
        assert_eq!(l.info(CellId(2)).name, "v0[2]");
    }

    #[test]
    fn large_arrays_shrink() {
        let p = program_with(vec![Type::Array(Box::new(Type::int(IntType::INT)), 1000)]);
        let l = CellLayout::new(&p, &LayoutConfig { shrink_threshold: 256 });
        assert_eq!(l.num_cells(), 1);
        assert!(l.info(CellId(0)).shrunk);
        assert_eq!(l.info(CellId(0)).name, "v0[*]");
    }

    #[test]
    fn resolve_constant_index_is_strong() {
        let p = program_with(vec![Type::Array(Box::new(Type::int(IntType::INT)), 4)]);
        let l = CellLayout::new(&p, &LayoutConfig::default());
        let lv = Lvalue::index(VarId(0), Expr::int(2));
        let r = l.resolve(&lv, |_| IntItv::singleton(2));
        assert_eq!(r.cells.len(), 1);
        assert!(r.strong);
        assert!(!r.may_oob);
    }

    #[test]
    fn resolve_imprecise_index_is_weak() {
        let p = program_with(vec![Type::Array(Box::new(Type::int(IntType::INT)), 4)]);
        let l = CellLayout::new(&p, &LayoutConfig::default());
        let lv = Lvalue::index(VarId(0), Expr::var(VarId(0)));
        let r = l.resolve(&lv, |_| IntItv::new(1, 2));
        assert_eq!(r.cells.len(), 2);
        assert!(!r.strong);
        assert!(!r.may_oob);
    }

    #[test]
    fn resolve_flags_oob() {
        let p = program_with(vec![Type::Array(Box::new(Type::int(IntType::INT)), 4)]);
        let l = CellLayout::new(&p, &LayoutConfig::default());
        let lv = Lvalue::index(VarId(0), Expr::var(VarId(0)));
        let r = l.resolve(&lv, |_| IntItv::new(2, 7));
        assert!(r.may_oob);
        assert_eq!(r.cells.len(), 2); // clamped to elements 2..=3
        let r = l.resolve(&lv, |_| IntItv::new(-3, -1));
        assert!(r.may_oob);
    }

    #[test]
    fn resolve_shrunk_is_always_weak() {
        let p = program_with(vec![Type::Array(Box::new(Type::int(IntType::INT)), 1000)]);
        let l = CellLayout::new(&p, &LayoutConfig { shrink_threshold: 10 });
        let lv = Lvalue::index(VarId(0), Expr::int(5));
        let r = l.resolve(&lv, |_| IntItv::singleton(5));
        assert_eq!(r.cells.len(), 1);
        assert!(!r.strong);
    }

    #[test]
    fn nested_struct_array_paths() {
        let p = program_with(vec![Type::Array(Box::new(Type::Record(astree_ir::RecordId(0))), 2)]);
        let l = CellLayout::new(&p, &LayoutConfig::default());
        assert_eq!(l.num_cells(), 4);
        let lv = Lvalue {
            base: VarId(0),
            path: vec![Access::Index(Box::new(Expr::int(1))), Access::Field(1)],
        };
        let r = l.resolve(&lv, |_| IntItv::singleton(1));
        assert_eq!(r.cells.len(), 1);
        assert_eq!(l.info(r.cells[0]).name, "v0[1].b");
        assert!(r.strong);
    }

    #[test]
    fn fast_resolve_matches_the_general_walk() {
        let int = || Type::int(IntType::INT);
        let rec = || Type::Record(astree_ir::RecordId(0));
        let p = program_with(vec![
            int(),                                                        // v0
            rec(),                                                        // v1
            Type::Array(Box::new(int()), 4),                              // v2
            Type::Array(Box::new(rec()), 2),                              // v3
            Type::Array(Box::new(int()), 1000),                           // v4: shrunk
            Type::Array(Box::new(Type::Array(Box::new(int()), 4)), 3),    // v5
            Type::Array(Box::new(Type::Array(Box::new(int()), 1000)), 2), // v6
        ]);
        let l = CellLayout::new(&p, &LayoutConfig { shrink_threshold: 10 });
        let idx = || Access::Index(Box::new(Expr::int(0)));
        let lv = |v: u32, path: Vec<Access>| Lvalue { base: VarId(v), path };
        let one = IntItv::singleton;
        let cases: Vec<(&str, Lvalue, Vec<IntItv>)> = vec![
            ("scalar", lv(0, vec![]), vec![]),
            ("record field", lv(1, vec![Access::Field(1)]), vec![]),
            ("aggregate record", lv(1, vec![]), vec![]),
            ("aggregate array", lv(2, vec![]), vec![]),
            ("in-range index", lv(2, vec![idx()]), vec![one(2)]),
            ("out-of-range singleton", lv(2, vec![idx()]), vec![one(9)]),
            ("out-of-range range", lv(2, vec![idx()]), vec![IntItv::new(2, 7)]),
            ("negative index", lv(2, vec![idx()]), vec![IntItv::new(-3, -1)]),
            ("bottom index", lv(2, vec![idx()]), vec![IntItv::BOTTOM]),
            ("imprecise index", lv(2, vec![idx()]), vec![IntItv::new(1, 2)]),
            ("shrunk array", lv(4, vec![idx()]), vec![one(5)]),
            ("shrunk out of range", lv(4, vec![idx()]), vec![IntItv::new(0, 1000)]),
            ("element field", lv(3, vec![idx(), Access::Field(1)]), vec![one(1)]),
            ("element aggregate", lv(3, vec![idx()]), vec![one(0)]),
            ("imprecise then field", lv(3, vec![idx(), Access::Field(0)]), vec![IntItv::new(0, 1)]),
            ("bottom then field", lv(3, vec![idx(), Access::Field(0)]), vec![IntItv::BOTTOM]),
            ("2-d precise", lv(5, vec![idx(), idx()]), vec![one(2), one(3)]),
            ("2-d imprecise rows", lv(5, vec![idx(), idx()]), vec![IntItv::new(0, 2), one(1)]),
            ("2-d bottom row", lv(5, vec![idx(), idx()]), vec![IntItv::BOTTOM, one(1)]),
            ("2-d shrunk rows", lv(6, vec![idx(), idx()]), vec![IntItv::new(0, 1), one(7)]),
        ];
        for (name, lv, itvs) in cases {
            // Both walks must consume the same index evaluations, in order.
            let mut fast_q = itvs.iter();
            let fast = l.resolve(&lv, |_| *fast_q.next().expect("an index per access"));
            let mut general_q = itvs.iter();
            let general = l.resolve_general(&lv, |_| *general_q.next().expect("one per access"));
            assert_eq!(fast, general, "{name}");
            assert!(fast_q.next().is_none() && general_q.next().is_none(), "{name}");
        }
    }

    #[test]
    fn cells_of_var_collects_all() {
        let p = program_with(vec![Type::Array(Box::new(Type::int(IntType::INT)), 3)]);
        let l = CellLayout::new(&p, &LayoutConfig::default());
        assert_eq!(l.cells_of_var(VarId(0)).len(), 3);
    }
}
