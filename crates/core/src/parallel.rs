//! Footprints and stage plans for the intra-analysis parallel executor
//! (Monniaux, *The parallel implementation of the Astrée static analyzer*):
//! the top-level dispatch of the synchronous loop is partitioned into
//! independent slices, each analyzed from the shared pre-state, and the
//! slice deltas are merged in a **fixed order** so the result is
//! bit-identical to the sequential analysis for every worker count.
//!
//! This module computes, per top-level statement, a conservative *footprint*
//! — which cells the statement may read from the pre-state, which it may or
//! must write, which relational packs it consults or replaces — and groups
//! consecutive statements into parallel stages via [`astree_sched`]. A pair
//! of statements may share a stage only when running them from the same
//! pre-state and overlaying their effects in statement order is
//! observationally identical to running them in sequence.

use crate::packs::Packs;
use crate::substitute::substitute_block;
use astree_ir::{
    Access, Block, CallArg, Expr, FuncId, Lvalue, Program, Stmt, StmtId, StmtKind, Type, VarId,
};
use astree_memory::{CellId, CellLayout};
use astree_sched::Stage;
use std::collections::{BTreeSet, HashMap};

/// Call depth beyond which the walker gives up and declares the statement a
/// barrier (runs alone, in order — always sound).
const WALK_DEPTH_CAP: u32 = 16;

/// One relational pack, across the three pack kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PackKey {
    /// Octagon pack index.
    Oct(usize),
    /// Decision-tree pack index.
    Dtree(usize),
    /// Ellipsoid pack index (covers both the bound `k` and the pending `δ`).
    Ell(usize),
}

/// The conservative memory footprint of one statement.
#[derive(Debug, Default, Clone)]
pub(crate) struct Footprint {
    /// Cells whose *pre-state* value may influence the statement's effect
    /// (reads, weak writes, branch-join mixes).
    pub pre_reads: BTreeSet<CellId>,
    /// Cells the statement may write.
    pub writes: BTreeSet<CellId>,
    /// Cells the statement strongly writes on every path. The overlay copies
    /// these unconditionally: a slice may rewrite a cell to a value equal to
    /// its pre value, and that write must still shadow an earlier slice's,
    /// exactly as the later statement wins sequentially.
    pub must_writes: BTreeSet<CellId>,
    /// Packs whose post value (or whose influence on env/alarms) may depend
    /// on the pack's pre value.
    pub packs_dep: BTreeSet<PackKey>,
    /// Packs the statement may write.
    pub packs_write: BTreeSet<PackKey>,
    /// The statement must run alone in program order (clock tick, top-level
    /// return, call-depth overflow).
    pub barrier: bool,
}

impl Footprint {
    /// `true` when `later` (a statement after `self` in program order) must
    /// observe `self`'s effects, i.e. the pair cannot share a stage.
    ///
    /// Anti-dependences need no edge: every slice runs from the shared
    /// pre-state, and the ordered overlay lets the later statement's writes
    /// win, as in the sequential run. A write/write pair is likewise ordered
    /// by the overlay; it only conflicts when the later write is weak or
    /// conditional — and then the written cell is also in `later.pre_reads`.
    pub fn conflicts_with_later(&self, later: &Footprint) -> bool {
        self.barrier
            || later.barrier
            || !self.writes.is_disjoint(&later.pre_reads)
            || !self.packs_write.is_disjoint(&later.packs_dep)
    }
}

/// The union of a slice's (contiguous chunk of statements) write effects,
/// consumed by [`crate::state::AbsState::overlay_from`].
#[derive(Debug, Default, Clone)]
pub(crate) struct SliceEffects {
    /// Cells strongly written on every path of some statement in the slice.
    pub must_writes: BTreeSet<CellId>,
    /// Packs the slice may write (copied wholesale during the overlay; the
    /// planner guarantees no earlier slice's pack write is observed).
    pub packs_write: BTreeSet<PackKey>,
}

/// Unions the footprints of a slice's statements.
pub(crate) fn slice_effects(fps: &[Footprint]) -> SliceEffects {
    let mut out = SliceEffects::default();
    for fp in fps {
        out.must_writes.extend(fp.must_writes.iter().copied());
        out.packs_write.extend(fp.packs_write.iter().copied());
    }
    out
}

/// The cached execution plan of one block: per-statement footprints and the
/// contiguous stages they group into.
#[derive(Debug)]
pub(crate) struct BlockPlan {
    /// Stages in program order.
    pub stages: Vec<Stage>,
    /// One footprint per statement of the block.
    pub footprints: Vec<Footprint>,
    /// `true` when at least one stage can run sliced.
    pub parallel: bool,
}

/// Computes the plan for a block (pure function of the syntax and packs, so
/// identical across runs and worker counts).
pub(crate) fn plan_block(
    program: &Program,
    layout: &CellLayout,
    packs: &Packs,
    block: &Block,
) -> BlockPlan {
    let footprints: Vec<Footprint> =
        block.iter().map(|s| stmt_footprint(program, layout, packs, s)).collect();
    let stages = astree_sched::plan_stages(
        block.len(),
        |i| footprints[i].barrier,
        |i, j| footprints[i].conflicts_with_later(&footprints[j]),
    );
    let parallel = stages.iter().any(|st| st.parallel);
    BlockPlan { stages, footprints, parallel }
}

/// Why a syntactic walk of touched cells has no finite answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unbounded {
    /// A clock tick: its effect is global (every clocked value shifts).
    Wait,
    /// The walk hit [`WALK_DEPTH_CAP`] nested calls.
    DepthCap,
}

/// All cells a loop may read or write (guard, body, callees — with by-ref
/// substitution, exactly like the interpreter's abstract inlining), the
/// scope of the localized loop-done reduction. `None` when the walk hits
/// the call-depth cap or a clock tick (whose effect is global): the caller
/// must fall back to the full-state reduction.
pub(crate) fn loop_touched_cells(
    program: &Program,
    layout: &CellLayout,
    cond: &Expr,
    body: &Block,
) -> Option<BTreeSet<CellId>> {
    let mut out = BTreeSet::new();
    touch_expr(program, layout, cond, &mut out);
    touch_block(program, layout, body, 0, &mut out).ok()?;
    Some(out)
}

/// All cells one call statement may read or write: its return target, its
/// arguments, the callee's parameters and everything the callee's body (and
/// its callees) touches. The same walk as [`loop_touched_cells`], which is
/// what makes a frame built from it a superset of every loop footprint
/// inside the callee.
pub(crate) fn call_touched_cells(
    program: &Program,
    layout: &CellLayout,
    ret: Option<&Lvalue>,
    callee: FuncId,
    args: &[CallArg],
) -> Result<BTreeSet<CellId>, Unbounded> {
    let mut out = BTreeSet::new();
    touch_call(program, layout, ret, callee, args, 0, &mut out)?;
    Ok(out)
}

fn touch_lvalue(program: &Program, layout: &CellLayout, lv: &Lvalue, out: &mut BTreeSet<CellId>) {
    if lv.path.is_empty() && matches!(program.var(lv.base).ty, Type::Scalar(_)) {
        out.insert(layout.scalar_cell(lv.base));
    } else {
        out.extend(layout.cells_of_var(lv.base));
    }
    for a in &lv.path {
        if let Access::Index(e) = a {
            touch_expr(program, layout, e, out);
        }
    }
}

/// The cells an expression may read (a static superset of what
/// `Evaluator::resolve` can return for its l-values).
pub(crate) fn touch_expr(
    program: &Program,
    layout: &CellLayout,
    e: &Expr,
    out: &mut BTreeSet<CellId>,
) {
    let mut lvs: Vec<Lvalue> = Vec::new();
    e.for_each_lvalue(&mut |lv| lvs.push(lv.clone()));
    for lv in lvs {
        touch_lvalue(program, layout, &lv, out);
    }
}

fn touch_call(
    program: &Program,
    layout: &CellLayout,
    ret: Option<&Lvalue>,
    callee: FuncId,
    args: &[CallArg],
    depth: u32,
    out: &mut BTreeSet<CellId>,
) -> Result<(), Unbounded> {
    if depth >= WALK_DEPTH_CAP {
        return Err(Unbounded::DepthCap);
    }
    if let Some(lv) = ret {
        touch_lvalue(program, layout, lv, out);
    }
    let f = program.func(callee);
    let mut ref_map: HashMap<VarId, Lvalue> = HashMap::new();
    for (param, arg) in f.params.iter().zip(args) {
        match arg {
            CallArg::Value(e) => {
                out.insert(layout.scalar_cell(param.var));
                touch_expr(program, layout, e, out);
            }
            CallArg::Ref(lv) => {
                touch_lvalue(program, layout, lv, out);
                ref_map.insert(param.var, lv.clone());
            }
        }
    }
    if ref_map.is_empty() {
        touch_block(program, layout, &f.body, depth + 1, out)
    } else {
        touch_block(program, layout, &substitute_block(&f.body, &ref_map), depth + 1, out)
    }
}

fn touch_block(
    program: &Program,
    layout: &CellLayout,
    block: &Block,
    depth: u32,
    out: &mut BTreeSet<CellId>,
) -> Result<(), Unbounded> {
    for s in block {
        match &s.kind {
            StmtKind::Assign(lv, e) => {
                touch_lvalue(program, layout, lv, out);
                touch_expr(program, layout, e, out);
            }
            StmtKind::If(c, a, b) => {
                touch_expr(program, layout, c, out);
                touch_block(program, layout, a, depth, out)?;
                touch_block(program, layout, b, depth, out)?;
            }
            StmtKind::While(_, c, body) => {
                touch_expr(program, layout, c, out);
                touch_block(program, layout, body, depth, out)?;
            }
            StmtKind::Call(ret, callee, args) => {
                touch_call(program, layout, ret.as_ref(), *callee, args, depth, out)?;
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    touch_expr(program, layout, e, out);
                }
            }
            StmtKind::Wait => return Err(Unbounded::Wait),
            StmtKind::Assume(c) => touch_expr(program, layout, c, out),
            StmtKind::ReadVolatile(v) => {
                out.insert(layout.scalar_cell(*v));
            }
        }
    }
    Ok(())
}

/// The footprint of a single statement.
pub(crate) fn stmt_footprint(
    program: &Program,
    layout: &CellLayout,
    packs: &Packs,
    s: &Stmt,
) -> Footprint {
    let mut w = Walker {
        program,
        layout,
        packs,
        fp: Footprint::default(),
        written: BTreeSet::new(),
        oct_rewritten: HashMap::new(),
    };
    let mut frame = Frame { depth: 0, ret_target: None, may_returned: false };
    w.walk_stmt(s, &mut frame);
    w.finalize()
}

/// Per-call-frame walking context, mirroring the iterator's abstract
/// inlining.
struct Frame {
    depth: u32,
    ret_target: Option<Lvalue>,
    /// `true` once a `return` may have been taken in this frame: later
    /// writes are no longer on every path (the function-exit join mixes
    /// them with the state at the return point).
    may_returned: bool,
}

struct Walker<'a> {
    program: &'a Program,
    layout: &'a CellLayout,
    packs: &'a Packs,
    fp: Footprint,
    /// Cells strongly written on every path so far.
    written: BTreeSet<CellId>,
    /// Per octagon pack: members whose row has been rewritten from inputs
    /// that do not depend on the pack's pre value, on every path so far.
    /// When *all* members of a written pack end up rewritten, the pack's
    /// post value is independent of its pre value (row operations forget the
    /// full row and column, and closure only propagates along finite edges —
    /// which, by the rules below, connect rewritten rows only).
    oct_rewritten: HashMap<usize, BTreeSet<CellId>>,
}

impl<'a> Walker<'a> {
    // ----- cell-level effects ----------------------------------------------

    fn read_cell(&mut self, c: CellId) {
        if !self.written.contains(&c) {
            self.fp.pre_reads.insert(c);
        }
    }

    fn write_cell(&mut self, c: CellId, must: bool) {
        self.fp.writes.insert(c);
        if must {
            self.written.insert(c);
        } else if !self.written.contains(&c) {
            // A weak or conditional update keeps (part of) the old value.
            self.fp.pre_reads.insert(c);
        }
    }

    /// The cells an l-value may denote, with `true` when it is certainly one
    /// strongly-updatable scalar cell. A static superset of the run-time
    /// `Evaluator::resolve`.
    fn lvalue_cells(&self, lv: &Lvalue) -> (Vec<CellId>, bool) {
        if lv.path.is_empty() && matches!(self.program.var(lv.base).ty, Type::Scalar(_)) {
            (vec![self.layout.scalar_cell(lv.base)], true)
        } else {
            (self.layout.cells_of_var(lv.base), false)
        }
    }

    fn read_lvalue(&mut self, lv: &Lvalue) {
        let (cells, _) = self.lvalue_cells(lv);
        for c in cells {
            self.read_cell(c);
        }
    }

    fn read_expr(&mut self, e: &Expr) {
        let mut lvs: Vec<Lvalue> = Vec::new();
        e.for_each_lvalue(&mut |lv| lvs.push(lv.clone()));
        for lv in lvs {
            self.read_lvalue(&lv);
        }
    }

    /// Index sub-expressions of a *written* l-value are read.
    fn read_lvalue_path(&mut self, lv: &Lvalue) {
        for a in &lv.path {
            if let Access::Index(e) = a {
                self.read_expr(e);
            }
        }
    }

    /// May-cells of an expression (for the octagon freshness rule).
    fn expr_cells(&self, e: &Expr) -> BTreeSet<CellId> {
        let mut out = BTreeSet::new();
        e.for_each_lvalue(&mut |lv| {
            let (cells, _) = self.lvalue_cells(lv);
            out.extend(cells);
        });
        out
    }

    // ----- pack-level effects ----------------------------------------------

    fn pack_dep_write(&mut self, key: PackKey) {
        self.fp.packs_dep.insert(key);
        self.fp.packs_write.insert(key);
    }

    /// Consulting a pack reads only rows this slice itself wrote when every
    /// member has been strongly rewritten since slice entry (the same
    /// freshness rule [`Walker::finalize`] applies to writes): such a consult
    /// tightens the pack but adds no pre-state dependency.
    fn pack_consult(&mut self, key: PackKey) {
        let fresh = match key {
            PackKey::Oct(pi) => {
                let members = &self.packs.octagons[pi].cells;
                self.oct_rewritten.get(&pi).is_some_and(|rw| members.iter().all(|c| rw.contains(c)))
            }
            _ => false,
        };
        if fresh {
            self.fp.packs_write.insert(key);
        } else {
            self.pack_dep_write(key);
        }
        for m in self.pack_members(key) {
            self.read_cell(m);
            self.write_cell(m, false);
        }
    }

    fn pack_members(&self, key: PackKey) -> Vec<CellId> {
        match key {
            PackKey::Oct(pi) => self.packs.octagons[pi].cells.clone(),
            PackKey::Dtree(pi) => {
                let p = &self.packs.dtrees[pi];
                p.bools.iter().chain(&p.nums).copied().collect()
            }
            PackKey::Ell(pi) => {
                let p = &self.packs.ellipses[pi];
                vec![p.x, p.y]
            }
        }
    }

    /// Packs containing any of `cells`, across all three kinds.
    fn packs_of(&self, cells: &BTreeSet<CellId>) -> BTreeSet<PackKey> {
        let mut out = BTreeSet::new();
        for c in cells {
            if let Some(pids) = self.packs.oct_index.get(c) {
                out.extend(pids.iter().map(|&pi| PackKey::Oct(pi)));
            }
            if let Some(pids) = self.packs.dtree_index.get(c) {
                out.extend(pids.iter().map(|&pi| PackKey::Dtree(pi)));
            }
            if let Some(pids) = self.packs.ellipse_index.get(c) {
                out.extend(pids.iter().map(|&pi| PackKey::Ell(pi)));
            }
        }
        out
    }

    /// The footprint of `state_guard` on a condition: the condition's cells
    /// are read and refined, every pack containing one of them is consulted
    /// and tightened, and the localized reduction may refine every member
    /// cell of those packs.
    fn guard_effect(&mut self, cond: &Expr) {
        let cells = self.expr_cells(cond);
        let mut index_reads: Vec<Lvalue> = Vec::new();
        cond.for_each_lvalue(&mut |lv| index_reads.push(lv.clone()));
        for lv in index_reads {
            self.read_lvalue_path(&lv);
        }
        for &c in &cells {
            self.read_cell(c);
            self.write_cell(c, false);
        }
        for key in self.packs_of(&cells) {
            self.pack_consult(key);
        }
    }

    /// The localized loop-done reduction (`reduce_local` over the loop's
    /// touched cells): only the packs containing one of `cells` are
    /// consulted and tightened, and only their member cells may be refined.
    fn local_reduce_effect(&mut self, cells: &BTreeSet<CellId>) {
        for key in self.packs_of(cells) {
            self.pack_consult(key);
        }
    }

    /// The global loop-head reduction (`reduce_counting`): every pack is
    /// consulted and tightened, and every member cell may be refined.
    fn global_reduce_effect(&mut self) {
        let keys: Vec<PackKey> = (0..self.packs.octagons.len())
            .map(PackKey::Oct)
            .chain((0..self.packs.dtrees.len()).map(PackKey::Dtree))
            .chain((0..self.packs.ellipses.len()).map(PackKey::Ell))
            .collect();
        for key in keys {
            self.pack_dep_write(key);
            for m in self.pack_members(key) {
                self.read_cell(m);
                self.write_cell(m, false);
            }
        }
    }

    // ----- statements ------------------------------------------------------

    fn walk_block(&mut self, block: &Block, frame: &mut Frame) {
        for s in block {
            if self.fp.barrier {
                // Barrier statements run alone; the rest of the footprint is
                // never consulted.
                return;
            }
            self.walk_stmt(s, frame);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt, frame: &mut Frame) {
        match &s.kind {
            StmtKind::Assign(lv, e) => self.assign_effect(lv, e, s.id, frame),
            StmtKind::If(c, a, b) => {
                self.guard_effect(c);
                let w0 = self.written.clone();
                let r0 = self.oct_rewritten.clone();
                let ret0 = frame.may_returned;
                let writes_before = self.fp.writes.clone();

                self.walk_stmt_list(a, frame);
                let wa = std::mem::replace(&mut self.written, w0.clone());
                let ra = std::mem::replace(&mut self.oct_rewritten, r0);
                let reta = std::mem::replace(&mut frame.may_returned, ret0);

                self.walk_stmt_list(b, frame);
                let retb = frame.may_returned;

                // Only effects common to both branches are "must".
                self.written = wa.intersection(&self.written).copied().collect();
                let rb = std::mem::take(&mut self.oct_rewritten);
                for (pi, sa) in ra {
                    if let Some(sb) = rb.get(&pi) {
                        self.oct_rewritten.insert(pi, sa.intersection(sb).copied().collect());
                    }
                }
                frame.may_returned = ret0 || reta || retb;

                // The branch join mixes a branch-written cell with the other
                // branch's value; unless both branches wrote it, that other
                // value is the pre value.
                let mixed: Vec<CellId> =
                    self.fp.writes.difference(&writes_before).copied().collect();
                for c in mixed {
                    if !self.written.contains(&c) {
                        self.fp.pre_reads.insert(c);
                    }
                }
            }
            StmtKind::While(_, c, body) => {
                self.guard_effect(c);
                let w0 = self.written.clone();
                let r0 = self.oct_rewritten.clone();
                let writes_before = self.fp.writes.clone();
                self.walk_stmt_list(body, frame);
                // Zero or more iterations: nothing inside is a must-write,
                // and every cell written inside mixes with the entry value.
                self.written = w0;
                self.oct_rewritten = r0;
                let mixed: Vec<CellId> =
                    self.fp.writes.difference(&writes_before).copied().collect();
                for c in mixed {
                    self.fp.pre_reads.insert(c);
                }
                // Solving the loop reduces the state at its head — the full
                // state for depth-0 loops, only the packs overlapping the
                // loop's own cells for loops inside callees (the localized
                // loop-done reduction). Mirrors `Iter::reduce_loop_done`.
                if frame.depth == 0 {
                    self.global_reduce_effect();
                } else {
                    match loop_touched_cells(self.program, self.layout, c, body) {
                        Some(cells) => self.local_reduce_effect(&cells),
                        None => self.global_reduce_effect(),
                    }
                }
            }
            StmtKind::Call(ret, callee, args) => {
                if frame.depth >= WALK_DEPTH_CAP {
                    self.fp.barrier = true;
                    return;
                }
                let f = self.program.func(*callee);
                let mut ref_map: HashMap<VarId, Lvalue> = HashMap::new();
                for (param, arg) in f.params.iter().zip(args) {
                    match arg {
                        CallArg::Value(e) => {
                            let target = Lvalue::var(param.var);
                            self.assign_effect(&target, e, s.id, frame);
                        }
                        CallArg::Ref(lv) => {
                            self.read_lvalue_path(lv);
                            ref_map.insert(param.var, lv.clone());
                        }
                    }
                }
                let body = if ref_map.is_empty() {
                    f.body.clone()
                } else {
                    substitute_block(&f.body, &ref_map)
                };
                let mut inner =
                    Frame { depth: frame.depth + 1, ret_target: ret.clone(), may_returned: false };
                self.walk_stmt_list(&body, &mut inner);
            }
            StmtKind::Return(e) => {
                if frame.depth == 0 {
                    // A top-level return ends the entry analysis; simplest to
                    // run it (and anything after) in order.
                    self.fp.barrier = true;
                    return;
                }
                if let Some(e) = e {
                    self.read_expr(e);
                    if let Some(t) = frame.ret_target.clone() {
                        // The value lands in the caller's target on this path
                        // only: a weak assignment.
                        self.weak_write_lvalue(&t);
                    }
                }
                frame.may_returned = true;
            }
            StmtKind::Wait => {
                // The clock tick is a global effect on every clocked value.
                self.fp.barrier = true;
            }
            StmtKind::Assume(c) => self.guard_effect(c),
            StmtKind::ReadVolatile(v) => {
                let c = self.layout.scalar_cell(*v);
                let must = !frame.may_returned;
                self.write_cell(c, must);
                // The interpreter forgets the cell's relations, then re-seeds
                // the octagon rows with the fresh input range (which does not
                // depend on any pre value).
                if let Some(pids) = self.packs.oct_index.get(&c).cloned() {
                    for pi in pids {
                        self.fp.packs_write.insert(PackKey::Oct(pi));
                        let rewritten = self.oct_rewritten.entry(pi).or_default();
                        if must {
                            rewritten.insert(c);
                        } else {
                            rewritten.remove(&c);
                            self.fp.packs_dep.insert(PackKey::Oct(pi));
                        }
                    }
                }
                let mut other: BTreeSet<PackKey> = BTreeSet::new();
                if let Some(pids) = self.packs.dtree_index.get(&c) {
                    other.extend(pids.iter().map(|&pi| PackKey::Dtree(pi)));
                }
                if let Some(pids) = self.packs.ellipse_index.get(&c) {
                    other.extend(pids.iter().map(|&pi| PackKey::Ell(pi)));
                }
                for key in other {
                    self.pack_dep_write(key);
                }
            }
        }
    }

    /// Walks a statement list that is *not* a new block boundary for the
    /// planner (branch/loop/callee bodies share the enclosing footprint).
    fn walk_stmt_list(&mut self, block: &Block, frame: &mut Frame) {
        self.walk_block(block, frame);
    }

    fn assign_effect(&mut self, lv: &Lvalue, e: &Expr, id: StmtId, frame: &Frame) {
        self.read_expr(e);
        self.read_lvalue_path(lv);

        // Ellipsoid pending computation at the filter group's first stmt:
        // reads the pack's bound, X, Y and the input term.
        if let Some(&pi) = self.packs.ellipse_starts.get(&id) {
            let (x, y, t) = {
                let p = &self.packs.ellipses[pi];
                (p.x, p.y, p.t.clone())
            };
            self.read_cell(x);
            self.read_cell(y);
            if let Some(t) = &t {
                self.read_expr(t);
            }
            self.pack_dep_write(PackKey::Ell(pi));
        }

        let (cells, strong) = self.lvalue_cells(lv);
        if strong {
            let c = cells[0];
            let e_cells = self.expr_cells(e);
            // Octagon row rewrite. The new row is independent of the pack's
            // pre value iff every pack member feeding it (the affine source,
            // or the target itself for `x := x + k`) was itself rewritten in
            // this walk; otherwise closure can propagate pre rows into it.
            if let Some(pids) = self.packs.oct_index.get(&c).cloned() {
                for pi in pids {
                    self.fp.packs_write.insert(PackKey::Oct(pi));
                    let members = &self.packs.octagons[pi].cells;
                    let fresh = !frame.may_returned
                        && e_cells.iter().all(|ec| {
                            !members.contains(ec) || {
                                self.oct_rewritten.get(&pi).is_some_and(|rw| rw.contains(ec))
                            }
                        });
                    let rewritten = self.oct_rewritten.entry(pi).or_default();
                    if fresh {
                        rewritten.insert(c);
                    } else {
                        rewritten.remove(&c);
                        self.fp.packs_dep.insert(PackKey::Oct(pi));
                    }
                }
            }
            // Decision trees map over the pre tree and consult the member
            // cells' environment values.
            if let Some(pids) = self.packs.dtree_index.get(&c).cloned() {
                for pi in pids {
                    self.pack_dep_write(PackKey::Dtree(pi));
                    for m in self.pack_members(PackKey::Dtree(pi)) {
                        self.read_cell(m);
                    }
                }
            }
            // A strong overwrite of a filter's X or Y clears its bound but
            // keeps the pending δ: still pre-dependent.
            if let Some(pids) = self.packs.ellipse_index.get(&c).cloned() {
                for pi in pids {
                    self.pack_dep_write(PackKey::Ell(pi));
                }
            }
            // Ellipsoid commit: reads the pending δ, writes the bound and
            // tightens X/Y in the environment.
            if let Some(&pi) = self.packs.ellipse_commits.get(&id) {
                let (x, y) = {
                    let p = &self.packs.ellipses[pi];
                    (p.x, p.y)
                };
                self.pack_dep_write(PackKey::Ell(pi));
                self.write_cell(x, false);
                self.write_cell(y, false);
            }
            self.write_cell(c, !frame.may_returned);
        } else {
            for c in cells {
                self.write_cell(c, false);
                self.weak_forget_packs(c);
            }
        }
    }

    /// A weak assignment through an l-value (used for `return` values).
    fn weak_write_lvalue(&mut self, lv: &Lvalue) {
        self.read_lvalue_path(lv);
        let (cells, _) = self.lvalue_cells(lv);
        for c in cells {
            self.write_cell(c, false);
            self.weak_forget_packs(c);
        }
    }

    /// Pack effects of a weak update of `c` (the interpreter's
    /// `forget_cell`, or a join-mixed strong assignment).
    fn weak_forget_packs(&mut self, c: CellId) {
        if let Some(pids) = self.packs.oct_index.get(&c).cloned() {
            for pi in pids {
                self.pack_dep_write(PackKey::Oct(pi));
                self.oct_rewritten.entry(pi).or_default().remove(&c);
            }
        }
        if let Some(pids) = self.packs.dtree_index.get(&c).cloned() {
            for pi in pids {
                self.pack_dep_write(PackKey::Dtree(pi));
            }
        }
        if let Some(pids) = self.packs.ellipse_index.get(&c).cloned() {
            for pi in pids {
                self.pack_dep_write(PackKey::Ell(pi));
            }
        }
    }

    fn finalize(mut self) -> Footprint {
        // A written octagon pack whose members were not all freshly
        // rewritten still carries rows derived from its pre value.
        let oct_writes: Vec<usize> = self
            .fp
            .packs_write
            .iter()
            .filter_map(|k| match k {
                PackKey::Oct(pi) => Some(*pi),
                _ => None,
            })
            .collect();
        for pi in oct_writes {
            let members = &self.packs.octagons[pi].cells;
            let fresh = self
                .oct_rewritten
                .get(&pi)
                .is_some_and(|rw| members.iter().all(|c| rw.contains(c)));
            if !fresh {
                self.fp.packs_dep.insert(PackKey::Oct(pi));
            }
        }
        let mut fp = self.fp;
        fp.must_writes = self.written;
        fp
    }
}

/// Compile-time Send/Sync audit: the worker threads share these across the
/// scoped spawn, and every slice state must be movable back to the merger.
#[allow(dead_code)]
fn _assert_thread_safe() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<crate::state::AbsState>();
    assert_send_sync::<crate::packs::Packs>();
    assert_send_sync::<crate::alarms::AlarmSink>();
    assert_send_sync::<astree_memory::AbsEnv>();
    assert_send_sync::<astree_memory::CellLayout>();
    assert_send_sync::<astree_ir::Program>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use astree_frontend::Frontend;
    use astree_memory::LayoutConfig;

    fn setup(src: &str) -> (Program, CellLayout, Packs) {
        let p = Frontend::new().compile_str(src).expect("compiles");
        let l = CellLayout::new(&p, &LayoutConfig::default());
        let packs = Packs::discover(&p, &l, &AnalysisConfig::default());
        (p, l, packs)
    }

    fn entry_plan(p: &Program, l: &CellLayout, packs: &Packs) -> BlockPlan {
        let body = &p.func(p.entry).body;
        plan_block(p, l, packs, body)
    }

    #[test]
    fn independent_assignments_share_a_stage() {
        let (p, l, packs) = setup(
            "int a; int b; int c; int d;
             void main(void) { a = b + 1; c = d + 2; }",
        );
        let plan = entry_plan(&p, &l, &packs);
        assert!(plan.parallel, "{:?}", plan.stages);
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.stages[0].len, 2);
    }

    #[test]
    fn flow_dependence_serializes() {
        let (p, l, packs) = setup(
            "int a; int b; int c;
             void main(void) { a = b + 1; c = a + 2; }",
        );
        let plan = entry_plan(&p, &l, &packs);
        // c = a + 2 reads a, written by the first statement.
        assert!(!plan.stages.iter().any(|s| s.parallel), "{:?}", plan.stages);
    }

    #[test]
    fn anti_dependence_does_not_serialize() {
        // `a * b` is non-linear, so no octagon pack ties the variables.
        let (p, l, packs) = setup(
            "int a; int b; int c;
             void main(void) { c = a * b; a = 7; }",
        );
        let plan = entry_plan(&p, &l, &packs);
        // a = 7 writes a cell the earlier statement only reads: the overlay
        // ordering already makes the later write win.
        assert!(plan.stages.iter().any(|s| s.parallel), "{:?}", plan.stages);
    }

    #[test]
    fn wait_is_a_barrier() {
        let (p, l, packs) = setup(
            "int a; int b;
             void main(void) { a = 1; __astree_wait(); b = 2; }",
        );
        let plan = entry_plan(&p, &l, &packs);
        assert_eq!(plan.stages.len(), 3, "{:?}", plan.stages);
        assert!(plan.footprints[1].barrier);
    }

    #[test]
    fn weak_write_reads_the_old_value() {
        let (p, l, packs) = setup(
            "int t[4]; int i; int a;
             void main(void) { a = 3; t[i] = a; }",
        );
        let fp = &entry_plan(&p, &l, &packs).footprints[1];
        // The weak array write may keep old elements.
        assert!(fp.writes.iter().any(|c| fp.pre_reads.contains(c)));
        assert!(fp.must_writes.is_empty());
    }

    #[test]
    fn branches_make_writes_conditional() {
        let (p, l, packs) = setup(
            "int a; int b;
             void main(void) { if (b) { a = 1; } else { b = 2; } }",
        );
        let fp = &entry_plan(&p, &l, &packs).footprints[0];
        // Neither a nor b is written on both paths.
        assert!(fp.must_writes.is_empty(), "{:?}", fp.must_writes);
        assert!(!fp.writes.is_empty());
        // Both mix with the incoming value at the join.
        for c in &fp.writes {
            assert!(fp.pre_reads.contains(c));
        }
    }

    #[test]
    fn calls_are_walked_through() {
        let (p, l, packs) = setup(
            "int a; int b; int c;
             int f(int x) { return x + 1; }
             void main(void) { a = f(b); c = a; }",
        );
        let plan = entry_plan(&p, &l, &packs);
        let fp = &plan.footprints[0];
        assert!(!fp.writes.is_empty());
        // c = a depends on the call's return write.
        assert!(!plan.stages.iter().any(|s| s.parallel), "{:?}", plan.stages);
    }

    #[test]
    fn shared_octagon_pack_serializes_partial_rewrites() {
        // x and y share a pack; each statement rewrites only one member, so
        // the second statement's pack value would keep the first's pre rows.
        let (p, l, packs) = setup(
            "int x; int y; int k;
             void main(void) { x = y + 1; y = k; }",
        );
        assert!(!packs.octagons.is_empty());
        let plan = entry_plan(&p, &l, &packs);
        assert!(!plan.stages.iter().any(|s| s.parallel), "{:?}", plan.stages);
    }
}
