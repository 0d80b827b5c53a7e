//! Syntactic pack discovery (paper Sect. 7.2).
//!
//! Relational domains are applied to small *packs* of variables chosen
//! before the analysis starts:
//!
//! - **Octagon packs** (Sect. 7.2.1): one pack per syntactic block, holding
//!   the variables of the linear assignments and tests at that block level.
//! - **Ellipsoid packs** (Sect. 6.2.3): pairs `(X, Y)` found by matching the
//!   second-order filter shape `X1 := a·X − b·Y + t; Y := X; X := X1`.
//! - **Decision-tree packs** (Sect. 7.2.3): booleans related to numeric
//!   variables through assignments, *confirmed* by a later use of the
//!   numeric variable under a branch testing the boolean.

use crate::config::AnalysisConfig;
use astree_ir::{
    Binop, Expr, IntType, Lvalue, ParamKind, Program, ScalarType, Stmt, StmtId, StmtKind, Type,
    Unop, VarId,
};
use astree_memory::{CellId, CellLayout};
use std::collections::{BTreeSet, HashMap};

/// A pack of variables analyzed together in one octagon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OctPack {
    /// The member cells (plain scalar variables only), in index order; the
    /// octagon's variable `i` is `cells[i]`.
    pub cells: Vec<CellId>,
}

/// A second-order filter instance for the ellipsoid domain.
#[derive(Debug, Clone, PartialEq)]
pub struct EllipsePack {
    /// Coefficient of `X`.
    pub a: f64,
    /// Coefficient of `Y` (the constraint is `X² − aXY + bY² ≤ k`).
    pub b: f64,
    /// The `X` state cell.
    pub x: CellId,
    /// The `Y` state cell.
    pub y: CellId,
    /// The temporary holding `a·X − b·Y + t` between the three statements.
    pub tmp: CellId,
    /// The input term `t` (None means 0).
    pub t: Option<Expr>,
    /// Statement id of the `X1 := a·X − b·Y + t` assignment, where the
    /// pending `δ(k)` is computed from the pre-state.
    pub start_stmt: StmtId,
    /// Statement id of the final `X := X1` assignment, at which the
    /// constraint update lands.
    pub commit_stmt: StmtId,
}

/// A decision-tree pack: booleans and the numeric variables they guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtreePack {
    /// Boolean member cells (at most [`AnalysisConfig::dtree_pack_bool_cap`]).
    pub bools: Vec<CellId>,
    /// Numeric member cells.
    pub nums: Vec<CellId>,
}

/// Cell → pack indices, one flat table indexed by cell: the packs of cell
/// `c` are `ids[start[c]..start[c + 1]]`, in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct CellIndex {
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl CellIndex {
    /// The table of `(cell, pack)` pairs over `num_cells` cells.
    fn new(num_cells: usize, pairs: impl Iterator<Item = (CellId, usize)> + Clone) -> CellIndex {
        let mut start = vec![0u32; num_cells + 1];
        for (c, _) in pairs.clone() {
            start[c.0 as usize + 1] += 1;
        }
        for i in 0..num_cells {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut ids = vec![0u32; start[num_cells] as usize];
        for (c, pi) in pairs {
            let at = &mut next[c.0 as usize];
            ids[*at as usize] = pi as u32;
            *at += 1;
        }
        CellIndex { start, ids }
    }

    /// The packs holding `c`, in pack order.
    pub fn get(&self, c: CellId) -> impl Iterator<Item = usize> + Clone + '_ {
        let c = c.0 as usize;
        let range = match self.start.get(c..c + 2) {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            _ => 0..0,
        };
        self.ids[range].iter().map(|&pi| pi as usize)
    }

    /// `true` when some pack holds `c`.
    pub fn holds(&self, c: CellId) -> bool {
        self.get(c).next().is_some()
    }
}

/// Statement → ellipse-pack index, one table indexed by statement id.
#[derive(Debug, Clone, Default)]
pub struct StmtIndex(Vec<Option<u32>>);

impl StmtIndex {
    fn insert(&mut self, s: StmtId, pi: usize) {
        let s = s.0 as usize;
        if self.0.len() <= s {
            self.0.resize(s + 1, None);
        }
        self.0[s] = Some(pi as u32);
    }

    /// The pack of statement `s`, if any.
    pub fn get(&self, s: StmtId) -> Option<usize> {
        self.0.get(s.0 as usize).copied().flatten().map(|pi| pi as usize)
    }
}

/// All packs discovered for a program, with reverse indexes.
#[derive(Debug, Clone, Default)]
pub struct Packs {
    /// Octagon packs.
    pub octagons: Vec<OctPack>,
    /// Ellipsoid filter instances.
    pub ellipses: Vec<EllipsePack>,
    /// Decision-tree packs.
    pub dtrees: Vec<DtreePack>,
    /// Cell → octagon-pack indices.
    pub oct_index: CellIndex,
    /// Cell → decision-tree-pack indices.
    pub dtree_index: CellIndex,
    /// Commit statement → ellipse-pack index.
    pub ellipse_commits: StmtIndex,
    /// Start statement → ellipse-pack index.
    pub ellipse_starts: StmtIndex,
    /// Cell → ellipse-pack indices (cells appearing as `x` or `y`).
    pub ellipse_index: CellIndex,
}

impl Packs {
    /// Discovers all packs for `program` under `config`.
    pub fn discover(program: &Program, layout: &CellLayout, config: &AnalysisConfig) -> Packs {
        let mut packs = Packs::default();
        if config.enable_octagons {
            packs.octagons = discover_octagons(program, layout, config);
            // User-supplied packs (Sect. 3.2) come first so their indices
            // are stable across runs.
            let mut user: Vec<OctPack> = Vec::new();
            for names in &config.octagon_packs_extra {
                let mut cells: Vec<CellId> = names
                    .iter()
                    .filter_map(|n| {
                        let v = program.var_by_name(n)?;
                        matches!(program.var(v).ty, Type::Scalar(_)).then(|| layout.scalar_cell(v))
                    })
                    .collect();
                cells.sort();
                cells.dedup();
                if cells.len() >= 2 {
                    user.push(OctPack { cells });
                }
            }
            if !user.is_empty() {
                user.append(&mut packs.octagons);
                packs.octagons = user;
            }
            if let Some(filter) = &config.octagon_pack_filter {
                let mut kept = Vec::new();
                for &i in filter {
                    if i < packs.octagons.len() {
                        kept.push(packs.octagons[i].clone());
                    }
                }
                packs.octagons = kept;
            }
        }
        if config.enable_ellipsoids {
            packs.ellipses = discover_filters(program, layout);
        }
        if config.enable_dtrees {
            packs.dtrees = discover_dtrees(program, layout, config);
        }
        let n = layout.num_cells();
        let octs = packs.octagons.iter().enumerate();
        packs.oct_index =
            CellIndex::new(n, octs.flat_map(|(i, p)| p.cells.iter().map(move |c| (*c, i))));
        let dtrees = packs.dtrees.iter().enumerate();
        packs.dtree_index = CellIndex::new(
            n,
            dtrees.flat_map(|(i, p)| p.bools.iter().chain(&p.nums).map(move |c| (*c, i))),
        );
        let ells = packs.ellipses.iter().enumerate();
        packs.ellipse_index = CellIndex::new(n, ells.flat_map(|(i, e)| [(e.x, i), (e.y, i)]));
        for (i, e) in packs.ellipses.iter().enumerate() {
            packs.ellipse_commits.insert(e.commit_stmt, i);
            packs.ellipse_starts.insert(e.start_stmt, i);
        }
        packs
    }

    /// Position of a cell within an octagon pack.
    pub fn oct_slot(&self, pack: usize, cell: CellId) -> Option<usize> {
        self.octagons[pack].cells.iter().position(|c| *c == cell)
    }
}

/// The scalar cell of a plain (path-free) scalar variable l-value.
fn plain_cell(program: &Program, layout: &CellLayout, lv: &Lvalue) -> Option<CellId> {
    if !lv.path.is_empty() {
        return None;
    }
    match program.var(lv.base).ty {
        Type::Scalar(_) => Some(layout.scalar_cell(lv.base)),
        _ => None,
    }
}

/// `true` when the expression is linear in variables: sums/differences of
/// loads and constants, products by constants.
fn is_linear(e: &Expr) -> bool {
    match e {
        Expr::Int(..) | Expr::Float(..) | Expr::Load(..) => true,
        Expr::Unop(Unop::Neg, _, a) => is_linear(a),
        Expr::Binop(Binop::Add | Binop::Sub, _, a, b) => is_linear(a) && is_linear(b),
        Expr::Binop(Binop::Mul, _, a, b) => {
            (matches!(**a, Expr::Int(..) | Expr::Float(..)) && is_linear(b))
                || (matches!(**b, Expr::Int(..) | Expr::Float(..)) && is_linear(a))
        }
        Expr::Cast(_, a) => is_linear(a),
        _ => false,
    }
}

/// Variables of a linear expression, as plain scalar cells.
fn linear_cells(program: &Program, layout: &CellLayout, e: &Expr, out: &mut BTreeSet<CellId>) {
    e.for_each_lvalue(&mut |lv| {
        if let Some(c) = plain_cell(program, layout, lv) {
            out.insert(c);
        }
    });
}

fn discover_octagons(
    program: &Program,
    layout: &CellLayout,
    config: &AnalysisConfig,
) -> Vec<OctPack> {
    // By-ref parameters are substituted away at every call site — the body
    // executes against the caller's l-value and the parameter's own cell
    // never exists at run time — so packing them only couples unrelated
    // callers of the same helper.
    let byref: BTreeSet<CellId> = program
        .funcs
        .iter()
        .flat_map(|f| &f.params)
        .filter(|p| p.kind == ParamKind::ByRef)
        .filter(|p| matches!(program.var(p.var).ty, Type::Scalar(_)))
        .map(|p| layout.scalar_cell(p.var))
        .collect();
    let mut packs: Vec<BTreeSet<CellId>> = Vec::new();
    for f in &program.funcs {
        walk_blocks(&f.body, &mut |block| {
            // One variable group per linear assignment or test at this block
            // level ("variables that interact", Sect. 7.2.1), then cluster
            // overlapping groups up to the pack cap — so a block with many
            // independent computations yields several small packs instead of
            // one truncated one.
            let mut groups: Vec<BTreeSet<CellId>> = Vec::new();
            for s in block {
                let mut g = BTreeSet::new();
                match &s.kind {
                    StmtKind::Assign(lv, e) if is_linear(e) => {
                        if let Some(c) = plain_cell(program, layout, lv) {
                            g.insert(c);
                        }
                        linear_cells(program, layout, e, &mut g);
                    }
                    StmtKind::If(c, _, _) | StmtKind::While(_, c, _) => {
                        collect_test_cells(program, layout, c, &mut g);
                    }
                    _ => {}
                }
                g.retain(|c| !byref.contains(c));
                if !g.is_empty() {
                    groups.push(g);
                }
            }
            let mut clusters: Vec<BTreeSet<CellId>> = Vec::new();
            for g in groups {
                let mut placed = false;
                for c in &mut clusters {
                    if !c.is_disjoint(&g) && c.union(&g).count() <= config.octagon_pack_cap {
                        c.extend(g.iter().copied());
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    let mut g = g;
                    while g.len() > config.octagon_pack_cap {
                        let last = *g.iter().next_back().expect("non-empty");
                        g.remove(&last);
                    }
                    clusters.push(g);
                }
            }
            packs.extend(clusters.into_iter().filter(|c| c.len() >= 2));
        });
    }
    // Deduplicate.
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for p in packs {
        let cells: Vec<CellId> = p.into_iter().collect();
        if seen.insert(cells.clone()) {
            out.push(OctPack { cells });
        }
    }
    out
}

/// Cells of comparison sub-conditions (the "tests" of Sect. 7.2.1).
fn collect_test_cells(
    program: &Program,
    layout: &CellLayout,
    c: &Expr,
    pack: &mut BTreeSet<CellId>,
) {
    match c {
        Expr::Binop(op, _, a, b) if op.is_comparison() && is_linear(a) && is_linear(b) => {
            linear_cells(program, layout, a, pack);
            linear_cells(program, layout, b, pack);
        }
        Expr::Binop(op, _, a, b) if op.is_logical() => {
            collect_test_cells(program, layout, a, pack);
            collect_test_cells(program, layout, b, pack);
        }
        Expr::Unop(Unop::LNot, _, a) => collect_test_cells(program, layout, a, pack),
        _ => {}
    }
}

/// Visits every syntactic block (statement list) of a function body.
fn walk_blocks(block: &[Stmt], f: &mut impl FnMut(&[Stmt])) {
    f(block);
    for s in block {
        match &s.kind {
            StmtKind::If(_, a, b) => {
                walk_blocks(a, f);
                walk_blocks(b, f);
            }
            StmtKind::While(_, _, body) => walk_blocks(body, f),
            _ => {}
        }
    }
}

// ----- ellipsoid (filter) detection ---------------------------------------

/// One signed term of a flattened `+`/`−` tree.
enum Term<'a> {
    /// `coef · var`, with the original sub-expression.
    Var(f64, VarId, &'a Expr),
    /// anything else
    Other(f64, &'a Expr),
}

fn flatten_terms<'a>(e: &'a Expr, sign: f64, out: &mut Vec<Term<'a>>) {
    match e {
        Expr::Binop(Binop::Add, _, a, b) => {
            flatten_terms(a, sign, out);
            flatten_terms(b, sign, out);
        }
        Expr::Binop(Binop::Sub, _, a, b) => {
            flatten_terms(a, sign, out);
            flatten_terms(b, -sign, out);
        }
        Expr::Unop(Unop::Neg, _, a) => flatten_terms(a, -sign, out),
        Expr::Binop(Binop::Mul, _, a, b) => match (&**a, &**b) {
            (Expr::Float(c, _), Expr::Load(lv, _)) if lv.path.is_empty() => {
                out.push(Term::Var(sign * c.get(), lv.base, e))
            }
            (Expr::Load(lv, _), Expr::Float(c, _)) if lv.path.is_empty() => {
                out.push(Term::Var(sign * c.get(), lv.base, e))
            }
            _ => out.push(Term::Other(sign, e)),
        },
        Expr::Load(lv, _) if lv.path.is_empty() => out.push(Term::Var(sign, lv.base, e)),
        other => out.push(Term::Other(sign, other)),
    }
}

/// Matches `a·X − b·Y + t` against `e` for the *given* state variables
/// `(x, y)` (known from the surrounding `Y := X; X := X1` statements).
/// Returns `(a, b, t)` when the coefficients are stable.
fn match_filter_rhs(e: &Expr, x: VarId, y: VarId) -> Option<(f64, f64, Option<Expr>)> {
    let mut terms = Vec::new();
    flatten_terms(e, 1.0, &mut terms);
    let mut a = None;
    let mut nb = None;
    let mut rest: Vec<(f64, &Expr)> = Vec::new();
    for t in &terms {
        match t {
            Term::Var(c, v, _) if *v == x && a.is_none() => a = Some(*c),
            Term::Var(c, v, _) if *v == y && nb.is_none() => nb = Some(*c),
            Term::Var(s, _, e) => rest.push((*s, e)),
            Term::Other(s, e) => rest.push((*s, e)),
        }
    }
    let (a, nb) = (a?, nb?);
    let b = -nb;
    if !astree_domains::Ellipsoid::stable(a, b) {
        return None;
    }
    // Rebuild the input term t from the remaining summands.
    let mut t: Option<Expr> = None;
    for (s, e) in rest {
        let signed =
            if s >= 0.0 { e.clone() } else { Expr::Unop(Unop::Neg, e.ty(), Box::new(e.clone())) };
        t = Some(match t {
            None => signed,
            Some(acc) => {
                let ty = acc.ty();
                Expr::Binop(Binop::Add, ty, Box::new(acc), Box::new(signed))
            }
        });
    }
    Some((a, b, t))
}

fn discover_filters(program: &Program, layout: &CellLayout) -> Vec<EllipsePack> {
    let mut out = Vec::new();
    for f in &program.funcs {
        walk_blocks(&f.body, &mut |block| {
            for w in block.windows(3) {
                let (s1, s2, s3) = (&w[0], &w[1], &w[2]);
                let (lv1, rhs1) = match &s1.kind {
                    StmtKind::Assign(lv, e) => (lv, e),
                    _ => continue,
                };
                // s2: Y := X;  s3: X := tmp — these identify X and Y.
                let (y, x) = match &s2.kind {
                    StmtKind::Assign(lv, Expr::Load(src, _))
                        if lv.path.is_empty() && src.path.is_empty() =>
                    {
                        (lv.base, src.base)
                    }
                    _ => continue,
                };
                let ok3 = matches!(&s3.kind, StmtKind::Assign(lv, Expr::Load(src, _))
                    if lv.path.is_empty() && lv.base == x && src.path.is_empty()
                        && src.base == lv1.base);
                if !ok3 || !lv1.path.is_empty() {
                    continue;
                }
                let Some((a, b, t)) = match_filter_rhs(rhs1, x, y) else { continue };
                let scalar = |v: VarId| -> Option<CellId> {
                    matches!(program.var(v).ty, Type::Scalar(ScalarType::Float(_)))
                        .then(|| layout.scalar_cell(v))
                };
                let (Some(xc), Some(yc), Some(tc)) = (scalar(x), scalar(y), scalar(lv1.base))
                else {
                    continue;
                };
                out.push(EllipsePack {
                    a,
                    b,
                    x: xc,
                    y: yc,
                    tmp: tc,
                    t,
                    start_stmt: s1.id,
                    commit_stmt: s3.id,
                });
            }
        });
    }
    out
}

// ----- decision-tree pack discovery ----------------------------------------

fn is_bool_var(program: &Program, v: VarId) -> bool {
    matches!(program.var(v).ty, Type::Scalar(ScalarType::Int(it)) if it == IntType::BOOL)
}

fn discover_dtrees(
    program: &Program,
    layout: &CellLayout,
    config: &AnalysisConfig,
) -> Vec<DtreePack> {
    // Tentative packs: (bool cell, numeric cells) pairs.
    let mut tentative: Vec<(CellId, BTreeSet<CellId>)> = Vec::new();
    let mut bool_of_cell: HashMap<CellId, usize> = HashMap::new();
    let add_pair = |bc: CellId,
                    nums: BTreeSet<CellId>,
                    tentative: &mut Vec<(CellId, BTreeSet<CellId>)>,
                    bool_of_cell: &mut HashMap<CellId, usize>| {
        match bool_of_cell.get(&bc) {
            Some(&i) => tentative[i].1.extend(nums),
            None => {
                bool_of_cell.insert(bc, tentative.len());
                tentative.push((bc, nums));
            }
        }
    };
    for f in &program.funcs {
        astree_ir::stmt::for_each_stmt(&f.body, &mut |s| {
            if let StmtKind::Assign(lv, e) = &s.kind {
                let Some(lc) = plain_cell(program, layout, lv) else { return };
                let lhs_bool = is_bool_var(program, lv.base);
                let mut rhs_bools = BTreeSet::new();
                let mut rhs_nums = BTreeSet::new();
                e.for_each_lvalue(&mut |rlv| {
                    if let Some(c) = plain_cell(program, layout, rlv) {
                        if is_bool_var(program, rlv.base) {
                            rhs_bools.insert(c);
                        } else {
                            rhs_nums.insert(c);
                        }
                    }
                });
                if lhs_bool && !rhs_nums.is_empty() {
                    // b := f(numerics): relate b to those numerics.
                    add_pair(lc, rhs_nums.clone(), &mut tentative, &mut bool_of_cell);
                }
                if !lhs_bool && !rhs_bools.is_empty() {
                    // numeric := f(bool): relate each bool to the numeric.
                    let mut nums: BTreeSet<CellId> = rhs_nums.clone();
                    nums.insert(lc);
                    for bc in &rhs_bools {
                        add_pair(*bc, nums.clone(), &mut tentative, &mut bool_of_cell);
                    }
                }
                if lhs_bool && !rhs_bools.is_empty() {
                    // b := expr over booleans: merge b into their packs
                    // (Sect. 7.2.3's complex boolean dependences).
                    for bc in rhs_bools.clone() {
                        if let Some(&i) = bool_of_cell.get(&bc) {
                            let nums = tentative[i].1.clone();
                            add_pair(lc, nums, &mut tentative, &mut bool_of_cell);
                        }
                    }
                }
            }
        });
    }
    // Confirmation: a numeric member is assigned under a branch testing the
    // boolean.
    let mut confirmed: Vec<bool> = vec![false; tentative.len()];
    for f in &program.funcs {
        astree_ir::stmt::for_each_stmt(&f.body, &mut |s| {
            if let StmtKind::If(c, a, b) = &s.kind {
                let mut cond_bools = BTreeSet::new();
                c.for_each_lvalue(&mut |lv| {
                    if let Some(cell) = plain_cell(program, layout, lv) {
                        if is_bool_var(program, lv.base) {
                            cond_bools.insert(cell);
                        }
                    }
                });
                if cond_bools.is_empty() {
                    return;
                }
                let mut touched = BTreeSet::new();
                for branch in [a, b] {
                    for bs in branch.iter() {
                        bs.for_each(&mut |inner| {
                            if let StmtKind::Assign(lv, e) = &inner.kind {
                                if let Some(cell) = plain_cell(program, layout, lv) {
                                    touched.insert(cell);
                                }
                                e.for_each_lvalue(&mut |rlv| {
                                    if let Some(cell) = plain_cell(program, layout, rlv) {
                                        touched.insert(cell);
                                    }
                                });
                            }
                        });
                    }
                }
                for bc in &cond_bools {
                    if let Some(&i) = bool_of_cell.get(bc) {
                        if tentative[i].1.iter().any(|n| touched.contains(n)) {
                            confirmed[i] = true;
                        }
                    }
                }
            }
        });
    }
    // Group confirmed pairs that share numeric variables into packs, capping
    // the boolean count (Sect. 7.2.3).
    let mut packs: Vec<DtreePack> = Vec::new();
    for (i, (bc, nums)) in tentative.iter().enumerate() {
        if !confirmed[i] || nums.is_empty() {
            continue;
        }
        // Try to join an existing pack sharing a numeric cell.
        let mut placed = false;
        for p in &mut packs {
            if p.nums.iter().any(|n| nums.contains(n)) {
                if !p.bools.contains(bc) && p.bools.len() < config.dtree_pack_bool_cap {
                    p.bools.push(*bc);
                    for n in nums {
                        if !p.nums.contains(n) {
                            p.nums.push(*n);
                        }
                    }
                    placed = true;
                }
                break;
            }
        }
        if !placed {
            packs.push(DtreePack { bools: vec![*bc], nums: nums.iter().copied().collect() });
        }
    }
    for p in &mut packs {
        p.bools.sort();
        p.nums.sort();
        p.nums.truncate(4);
    }
    packs
}

#[cfg(test)]
mod tests {
    use super::*;
    use astree_frontend::Frontend;
    use astree_memory::LayoutConfig;

    fn setup(src: &str) -> (Program, CellLayout) {
        let p = Frontend::new().compile_str(src).expect("compiles");
        let l = CellLayout::new(&p, &LayoutConfig::default());
        (p, l)
    }

    #[test]
    fn octagon_packs_from_linear_blocks() {
        let (p, l) = setup(
            r#"
            int x; int y; int z; int unrelated;
            void main(void) {
                x = y + 1;
                if (x < z) { unrelated = 0; }
            }
        "#,
        );
        let packs = Packs::discover(&p, &l, &AnalysisConfig::default());
        assert_eq!(packs.octagons.len(), 1, "{:?}", packs.octagons);
        // x, y from the assignment; x, z from the test. `unrelated`'s
        // assignment is in a sub-block and not linear in others.
        assert_eq!(packs.octagons[0].cells.len(), 3);
    }

    #[test]
    fn filter_pattern_is_detected() {
        let (p, l) = setup(
            r#"
            double x; double y; volatile double in;
            void main(void) {
                double x1;
                __astree_input_float(in, -1.0, 1.0);
                while (1) {
                    x1 = 1.5 * x - 0.7 * y + in;
                    y = x;
                    x = x1;
                    __astree_wait();
                }
            }
        "#,
        );
        let packs = Packs::discover(&p, &l, &AnalysisConfig::default());
        assert_eq!(packs.ellipses.len(), 1, "{:?}", packs.ellipses);
        let e = &packs.ellipses[0];
        assert_eq!(e.a, 1.5);
        assert_eq!(e.b, 0.7);
        assert!(e.t.is_some());
    }

    #[test]
    fn unstable_filters_are_ignored() {
        let (p, l) = setup(
            r#"
            double x; double y;
            void main(void) {
                double x1;
                x1 = 3.0 * x - 0.5 * y;  /* a^2 - 4b > 0: unstable */
                y = x;
                x = x1;
            }
        "#,
        );
        let packs = Packs::discover(&p, &l, &AnalysisConfig::default());
        assert!(packs.ellipses.is_empty());
    }

    #[test]
    fn dtree_pack_confirmed_by_branch() {
        let (p, l) = setup(
            r#"
            _Bool b; int x; int y;
            void main(void) {
                b = (_Bool)(x == 0);
                if (!b) { y = 100 / x; }
            }
        "#,
        );
        let packs = Packs::discover(&p, &l, &AnalysisConfig::default());
        assert_eq!(packs.dtrees.len(), 1, "{:?}", packs.dtrees);
        assert_eq!(packs.dtrees[0].bools.len(), 1);
        assert!(!packs.dtrees[0].nums.is_empty());
    }

    #[test]
    fn unconfirmed_pairs_are_dropped() {
        let (p, l) = setup(
            r#"
            _Bool b; int x; int y;
            void main(void) {
                b = (_Bool)(x == 0);
                y = x; /* b is never used to guard x */
            }
        "#,
        );
        let packs = Packs::discover(&p, &l, &AnalysisConfig::default());
        assert!(packs.dtrees.is_empty(), "{:?}", packs.dtrees);
    }

    #[test]
    fn pack_filter_replays_previous_run() {
        let (p, l) = setup(
            r#"
            int a; int b; int c; int d;
            void main(void) {
                a = b + 1;
                if (a < b) { c = d + 2; if (c < d) { a = 0; } }
            }
        "#,
        );
        let full = Packs::discover(&p, &l, &AnalysisConfig::default());
        assert!(full.octagons.len() >= 2);
        let mut cfg = AnalysisConfig::default();
        cfg.octagon_pack_filter = Some(vec![0]);
        let filtered = Packs::discover(&p, &l, &cfg);
        assert_eq!(filtered.octagons.len(), 1);
        assert_eq!(filtered.octagons[0], full.octagons[0]);
    }

    #[test]
    fn user_supplied_packs_are_added_first() {
        let (p, l) = setup(
            "int a; int b; int unrelated1; int unrelated2;
             void main(void) { a = b + 1; unrelated1 = unrelated2 * unrelated2; }",
        );
        let mut cfg = AnalysisConfig::default();
        cfg.octagon_packs_extra =
            vec![vec!["unrelated1".into(), "unrelated2".into()], vec!["nosuch".into()]];
        let packs = Packs::discover(&p, &l, &cfg);
        // The user pack is first; the invalid one (single resolvable name)
        // is dropped.
        let u1 = l.scalar_cell(p.var_by_name("unrelated1").unwrap());
        assert!(packs.octagons[0].cells.contains(&u1), "{:?}", packs.octagons);
        assert!(packs.octagons.len() >= 2);
    }

    #[test]
    fn disabled_domains_yield_no_packs() {
        let (p, l) = setup("int x; int y; void main(void) { x = y + 1; }");
        let packs = Packs::discover(&p, &l, &AnalysisConfig::baseline());
        assert!(packs.octagons.is_empty());
        assert!(packs.ellipses.is_empty());
        assert!(packs.dtrees.is_empty());
    }
}
