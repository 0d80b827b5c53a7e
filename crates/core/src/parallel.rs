//! Footprints and stage plans for the intra-analysis parallel executor
//! (Monniaux, *The parallel implementation of the Astrée static analyzer*):
//! the top-level dispatch of the synchronous loop is partitioned into
//! independent slices, each analyzed from the shared pre-state, and the
//! slice deltas are merged in a **fixed order** so the result is
//! bit-identical to the sequential analysis for every worker count.
//!
//! This module computes, per top-level statement, a conservative *footprint*
//! — which cells the statement may read from the pre-state, which it may or
//! must write, which relational packs it consults or replaces — groups
//! consecutive statements into parallel stages, and cuts each parallel stage
//! into equal slices. A pair of statements may share a stage only when
//! running them from the same pre-state and overlaying their effects in
//! statement order is observationally identical to running them in sequence.

use crate::packs::Packs;
use crate::substitute::substitute_block;
use astree_ir::{
    Access, Block, CallArg, Expr, FuncId, Lvalue, Program, Stmt, StmtId, StmtKind, Type, VarId,
};
use astree_memory::{CellId, CellLayout};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

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

/// A contiguous run of statements executed together.
///
/// Contiguity matters for determinism: slices are contiguous chunks of the
/// original order, so "later slice wins" during the overlay coincides with
/// "later statement wins" in the sequential run, for any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stage {
    /// Index of the first statement of the stage.
    pub start: usize,
    /// Number of statements in the stage.
    pub len: usize,
    /// Whether the stage runs sliced: two or more pairwise independent
    /// statements.
    pub parallel: bool,
}

impl Stage {
    /// The statement index range covered by this stage.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// Groups statements into maximal contiguous stages: a barrier runs alone,
/// and a stage grows while the next statement need not observe any member
/// so far — tested against the members' accumulated writes, which is the
/// pairwise [`Footprint::conflicts_with_later`] test at linear cost.
pub(crate) fn plan_stages(footprints: &[Footprint]) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut start = 0;
    while start < footprints.len() {
        let mut members = Footprint::default();
        let mut end = start;
        while end < footprints.len()
            && (end == start || !members.conflicts_with_later(&footprints[end]))
        {
            let fp = &footprints[end];
            members.barrier |= fp.barrier;
            members.writes.extend(fp.writes.iter().copied());
            members.packs_write.extend(fp.packs_write.iter().copied());
            end += 1;
        }
        stages.push(Stage { start, len: end - start, parallel: end - start > 1 });
        start = end;
    }
    stages
}

/// Splits `0..n` into at most `parts` contiguous, near-equal, non-empty
/// chunks, earlier chunks taking the remainder.
pub(crate) fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let k = parts.max(1).min(n);
    let (base, rem) = (n / k, n % k);
    let mut out = Vec::with_capacity(k);
    let mut at = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        out.push(at..at + len);
        at += len;
    }
    out
}

/// Slices handed out per worker for one parallel stage. More slices than
/// workers lets a worker that finishes early take another from the queue;
/// at 4 per worker, equal slices measured the same as slices balanced by
/// measured statement cost (DESIGN.md, ablation ledger).
const SLICES_PER_JOB: usize = 4;

/// One slice of a parallel stage.
#[derive(Debug)]
pub(crate) struct Slice {
    /// The statements of the slice, as indices into the block.
    pub range: Range<usize>,
    /// What the ordered overlay copies back from the slice's post-state.
    pub effects: SliceEffects,
}

/// The cached execution plan of one block: its stages and, for the parallel
/// ones, their slices.
#[derive(Debug)]
pub(crate) struct BlockPlan {
    /// Stages in program order.
    pub stages: Vec<Stage>,
    /// Per stage, the slices it is cut into (none for a stage run in order).
    pub slices: Vec<Vec<Slice>>,
}

/// Computes the plan for a block: a pure function of the syntax, the packs
/// and `jobs`, so identical across runs.
pub(crate) fn plan_block(
    program: &Program,
    layout: &CellLayout,
    packs: &Packs,
    block: &Block,
    jobs: usize,
) -> BlockPlan {
    let footprints: Vec<Footprint> =
        block.iter().map(|s| stmt_footprint(program, layout, packs, s)).collect();
    let stages = plan_stages(&footprints);
    let slices = stages
        .iter()
        .map(|st| {
            if !st.parallel {
                return Vec::new();
            }
            chunk_ranges(st.len, SLICES_PER_JOB * jobs)
                .into_iter()
                .map(|r| {
                    let range = st.start + r.start..st.start + r.end;
                    Slice { effects: slice_effects(&footprints[range.clone()]), range }
                })
                .collect()
        })
        .collect();
    BlockPlan { stages, slices }
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
        writes: Logged::default(),
        written: Logged::default(),
        oct_rewritten: Logged::default(),
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

/// A set that logs every change of membership, so that what a branch or a
/// loop body did to it can be taken back at a cost proportional to what the
/// branch touched. One walker accumulates over everything a statement
/// inlines: copying its sets at every `if` would cost a statement wrapping
/// N calls N² set copies.
struct Logged<T> {
    set: BTreeSet<T>,
    /// One entry per effective insert or remove, oldest first.
    log: Vec<T>,
}

impl<T> Default for Logged<T> {
    fn default() -> Self {
        Logged { set: BTreeSet::new(), log: Vec::new() }
    }
}

impl<T: Ord + Copy> Logged<T> {
    fn contains(&self, t: &T) -> bool {
        self.set.contains(t)
    }

    fn insert(&mut self, t: T) {
        if self.set.insert(t) {
            self.log.push(t);
        }
    }

    fn remove(&mut self, t: &T) {
        if self.set.remove(t) {
            self.log.push(*t);
        }
    }

    /// The current point of the log.
    fn mark(&self) -> usize {
        self.log.len()
    }

    /// Elements whose membership changed since `mark` (repeats included).
    fn since(&self, mark: usize) -> &[T] {
        &self.log[mark..]
    }

    /// Restores the set as it was at `mark` and returns the elements whose
    /// membership the undone stretch had changed.
    fn rollback(&mut self, mark: usize) -> BTreeSet<T> {
        let mut changed = BTreeSet::new();
        // Every entry is one flip of membership, and flips commute.
        for t in self.log.drain(mark..) {
            if !self.set.remove(&t) {
                self.set.insert(t);
            }
            if !changed.remove(&t) {
                changed.insert(t);
            }
        }
        changed
    }

    /// With the set rolled back to where both branches of an `if` started
    /// and `a`, `b` what each [`Logged::rollback`] returned: keeps what holds
    /// on both paths, i.e. drops what either branch removed and adds what
    /// both added.
    fn meet(&mut self, a: &BTreeSet<T>, b: &BTreeSet<T>) {
        for t in a.union(b) {
            if self.set.contains(t) {
                self.remove(t);
            } else if a.contains(t) && b.contains(t) {
                self.insert(*t);
            }
        }
    }
}

struct Walker<'a> {
    program: &'a Program,
    layout: &'a CellLayout,
    packs: &'a Packs,
    fp: Footprint,
    /// Cells the statement may write (`Footprint::writes`, with its log).
    writes: Logged<CellId>,
    /// Cells strongly written on every path so far.
    written: Logged<CellId>,
    /// `(octagon pack, member)` pairs whose row has been rewritten from
    /// inputs that do not depend on the pack's pre value, on every path so
    /// far. When *all* members of a written pack end up rewritten, the pack's
    /// post value is independent of its pre value (row operations forget the
    /// full row and column, and closure only propagates along finite edges —
    /// which, by the rules below, connect rewritten rows only).
    oct_rewritten: Logged<(usize, CellId)>,
}

impl<'a> Walker<'a> {
    // ----- cell-level effects ----------------------------------------------

    fn read_cell(&mut self, c: CellId) {
        if !self.written.contains(&c) {
            self.fp.pre_reads.insert(c);
        }
    }

    fn write_cell(&mut self, c: CellId, must: bool) {
        self.writes.insert(c);
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
            PackKey::Oct(pi) => self.oct_fresh(pi),
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

    /// Every member of octagon pack `pi` has been rewritten.
    fn oct_fresh(&self, pi: usize) -> bool {
        self.packs.octagons[pi].cells.iter().all(|c| self.oct_rewritten.contains(&(pi, *c)))
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
            out.extend(self.packs.oct_index.get(*c).map(PackKey::Oct));
            out.extend(self.packs.dtree_index.get(*c).map(PackKey::Dtree));
            out.extend(self.packs.ellipse_index.get(*c).map(PackKey::Ell));
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
                let ret0 = frame.may_returned;
                let (w0, r0) = (self.written.mark(), self.oct_rewritten.mark());
                let writes0 = self.writes.mark();

                self.walk_block(a, frame);
                let (wa, ra) = (self.written.rollback(w0), self.oct_rewritten.rollback(r0));
                let reta = std::mem::replace(&mut frame.may_returned, ret0);

                self.walk_block(b, frame);
                let (wb, rb) = (self.written.rollback(w0), self.oct_rewritten.rollback(r0));
                let retb = frame.may_returned;

                // Only effects common to both branches are "must".
                self.written.meet(&wa, &wb);
                self.oct_rewritten.meet(&ra, &rb);
                frame.may_returned = ret0 || reta || retb;

                // The branch join mixes a branch-written cell with the other
                // branch's value; unless both branches wrote it, that other
                // value is the pre value.
                for c in self.writes.since(writes0) {
                    if !self.written.contains(c) {
                        self.fp.pre_reads.insert(*c);
                    }
                }
            }
            StmtKind::While(_, c, body) => {
                self.guard_effect(c);
                let (w0, r0) = (self.written.mark(), self.oct_rewritten.mark());
                let writes0 = self.writes.mark();
                self.walk_block(body, frame);
                // Zero or more iterations: nothing inside is a must-write,
                // and every cell written inside mixes with the entry value.
                self.written.rollback(w0);
                self.oct_rewritten.rollback(r0);
                self.fp.pre_reads.extend(self.writes.since(writes0));
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
                let program: &'a Program = self.program;
                let f = program.func(*callee);
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
                let substituted;
                let body = if ref_map.is_empty() {
                    &f.body
                } else {
                    substituted = substitute_block(&f.body, &ref_map);
                    &substituted
                };
                let mut inner =
                    Frame { depth: frame.depth + 1, ret_target: ret.clone(), may_returned: false };
                self.walk_block(body, &mut inner);
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
                let packs = self.packs;
                for pi in packs.oct_index.get(c) {
                    self.fp.packs_write.insert(PackKey::Oct(pi));
                    if must {
                        self.oct_rewritten.insert((pi, c));
                    } else {
                        self.oct_rewritten.remove(&(pi, c));
                        self.fp.packs_dep.insert(PackKey::Oct(pi));
                    }
                }
                let mut other: BTreeSet<PackKey> = BTreeSet::new();
                other.extend(packs.dtree_index.get(c).map(PackKey::Dtree));
                other.extend(packs.ellipse_index.get(c).map(PackKey::Ell));
                for key in other {
                    self.pack_dep_write(key);
                }
            }
        }
    }

    fn assign_effect(&mut self, lv: &Lvalue, e: &Expr, id: StmtId, frame: &Frame) {
        self.read_expr(e);
        self.read_lvalue_path(lv);

        // Ellipsoid pending computation at the filter group's first stmt:
        // reads the pack's bound, X, Y and the input term.
        if let Some(pi) = self.packs.ellipse_starts.get(id) {
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
            let packs = self.packs;
            for pi in packs.oct_index.get(c) {
                self.fp.packs_write.insert(PackKey::Oct(pi));
                let members = &packs.octagons[pi].cells;
                let fresh = !frame.may_returned
                    && e_cells
                        .iter()
                        .all(|ec| !members.contains(ec) || self.oct_rewritten.contains(&(pi, *ec)));
                if fresh {
                    self.oct_rewritten.insert((pi, c));
                } else {
                    self.oct_rewritten.remove(&(pi, c));
                    self.fp.packs_dep.insert(PackKey::Oct(pi));
                }
            }
            // Decision trees map over the pre tree and consult the member
            // cells' environment values.
            for pi in packs.dtree_index.get(c) {
                self.pack_dep_write(PackKey::Dtree(pi));
                for m in self.pack_members(PackKey::Dtree(pi)) {
                    self.read_cell(m);
                }
            }
            // A strong overwrite of a filter's X or Y clears its bound but
            // keeps the pending δ: still pre-dependent.
            for pi in packs.ellipse_index.get(c) {
                self.pack_dep_write(PackKey::Ell(pi));
            }
            // Ellipsoid commit: reads the pending δ, writes the bound and
            // tightens X/Y in the environment.
            if let Some(pi) = packs.ellipse_commits.get(id) {
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
        let packs = self.packs;
        for pi in packs.oct_index.get(c) {
            self.pack_dep_write(PackKey::Oct(pi));
            self.oct_rewritten.remove(&(pi, c));
        }
        for pi in packs.dtree_index.get(c) {
            self.pack_dep_write(PackKey::Dtree(pi));
        }
        for pi in packs.ellipse_index.get(c) {
            self.pack_dep_write(PackKey::Ell(pi));
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
            if !self.oct_fresh(pi) {
                self.fp.packs_dep.insert(PackKey::Oct(pi));
            }
        }
        let mut fp = self.fp;
        fp.writes = self.writes.set;
        fp.must_writes = self.written.set;
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

    /// The entry block's footprints and the stages they group into.
    struct EntryPlan {
        footprints: Vec<Footprint>,
        stages: Vec<Stage>,
        parallel: bool,
    }

    fn entry_plan(p: &Program, l: &CellLayout, packs: &Packs) -> EntryPlan {
        let body = &p.func(p.entry).body;
        let footprints: Vec<Footprint> =
            body.iter().map(|s| stmt_footprint(p, l, packs, s)).collect();
        let plan = plan_block(p, l, packs, body, 2);
        assert_eq!(plan.stages, plan_stages(&footprints));
        let parallel = plan.stages.iter().any(|st| st.parallel);
        EntryPlan { footprints, stages: plan.stages, parallel }
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

    /// A footprint with the given reads and writes and nothing else.
    fn fp(pre_reads: &[u32], writes: &[u32], barrier: bool) -> Footprint {
        Footprint {
            pre_reads: pre_reads.iter().map(|&c| CellId(c)).collect(),
            writes: writes.iter().map(|&c| CellId(c)).collect(),
            barrier,
            ..Footprint::default()
        }
    }

    #[test]
    fn stages_close_at_barriers_and_conflicts() {
        let stage = |start, len| Stage { start, len, parallel: len > 1 };
        // Five independent statements, the third a barrier (e.g. `wait`).
        let fps = [
            fp(&[], &[0], false),
            fp(&[], &[1], false),
            fp(&[], &[], true),
            fp(&[], &[3], false),
            fp(&[], &[4], false),
        ];
        assert_eq!(plan_stages(&fps), vec![stage(0, 2), stage(2, 1), stage(3, 2)]);
        // 1 reads what 0 writes; 3 reads what 1 (not its neighbour 2) writes.
        let fps = [
            fp(&[], &[0], false),
            fp(&[0], &[1], false),
            fp(&[], &[2], false),
            fp(&[1], &[3], false),
        ];
        assert_eq!(plan_stages(&fps), vec![stage(0, 1), stage(1, 2), stage(3, 1)]);
        // A chain degenerates to one statement per stage.
        let fps = [fp(&[], &[0], false), fp(&[0], &[1], false), fp(&[1], &[2], false)];
        assert!(plan_stages(&fps).iter().all(|s| s.len == 1 && !s.parallel));
    }

    #[test]
    fn chunks_cover_exactly() {
        for n in 0..20 {
            for parts in 1..6 {
                let chunks = chunk_ranges(n, parts);
                assert!(chunks.len() <= parts);
                assert!(chunks.iter().all(|r| !r.is_empty()));
                // Contiguous, ordered, covering `0..n`.
                let mut at = 0;
                for r in &chunks {
                    assert_eq!(r.start, at);
                    at = r.end;
                }
                assert_eq!(at, n);
                // Near-equal: sizes differ by at most one.
                let sizes = chunks.iter().map(|r| r.len());
                assert!(sizes.clone().max().unwrap_or(0) - sizes.min().unwrap_or(0) <= 1);
            }
        }
    }

    #[test]
    fn slices_are_fixed_by_the_plan() {
        // Nine independent assignments at jobs = 2: one stage, cut into
        // 4 × jobs = 8 equal slices whose effects are their statements'.
        let decls: String = (0..9).map(|i| format!("int a{i}; ")).collect();
        let body: String = (0..9).map(|i| format!("a{i} = {i}; ")).collect();
        let (p, l, packs) = setup(&format!("{decls} void main(void) {{ {body} }}"));
        let plan = plan_block(&p, &l, &packs, &p.func(p.entry).body, 2);
        assert_eq!(plan.stages, vec![Stage { start: 0, len: 9, parallel: true }]);
        let ranges: Vec<_> = plan.slices[0].iter().map(|s| s.range.clone()).collect();
        assert_eq!(ranges, vec![0..2, 2..3, 3..4, 4..5, 5..6, 6..7, 7..8, 8..9]);
        assert_eq!(plan.slices[0][0].effects.must_writes.len(), 2);
        assert!(plan.slices[0][1..].iter().all(|s| s.effects.must_writes.len() == 1));
    }

    #[test]
    fn logged_set_rolls_back_and_meets() {
        let mut s: Logged<u32> = Logged::default();
        s.insert(1);
        s.insert(2);
        let m = s.mark();
        // Branch a: drops 1, adds 3 and 4 (4 twice over).
        s.remove(&1);
        s.insert(3);
        s.insert(4);
        s.remove(&4);
        s.insert(4);
        let a = s.rollback(m);
        assert_eq!(s.set, BTreeSet::from([1, 2]));
        assert_eq!(a, BTreeSet::from([1, 3, 4]));
        // Branch b: drops 2, adds 4 and 5.
        s.remove(&2);
        s.insert(4);
        s.insert(5);
        let b = s.rollback(m);
        s.meet(&a, &b);
        assert_eq!(s.set, BTreeSet::from([4]));
        // The enclosing scope sees the net change and can undo it.
        assert_eq!(s.rollback(0), BTreeSet::from([4]));
        assert!(s.set.is_empty());
    }

    #[test]
    fn wrapped_dispatch_plans_in_near_linear_time() {
        // One depth-0 `if` around the whole channel dispatch: a single walker
        // inlines every `stepK`. Copying its sets at every branch made this
        // quadratic in channels (16× the time for 4× the channels).
        let plan_time = |channels: usize| {
            let src = astree_gen::generate(&astree_gen::GenConfig { channels, seed: 7, bug: None })
                .replacen("    while (1) {\n", "    while (1) {\n        if (initialized) {\n", 1)
                .replacen("        __astree_wait();", "        }\n        __astree_wait();", 1);
            let (p, l, packs) = setup(&src);
            let main_loop = p.func(p.entry).body.iter().find_map(|s| match &s.kind {
                StmtKind::While(_, _, body) if body.len() == 2 => Some(body),
                _ => None,
            });
            let body = main_loop.expect("the main loop holds the `if` and the wait");
            (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    let plan = plan_block(&p, &l, &packs, body, 2);
                    assert_eq!(plan.stages.len(), 2);
                    t0.elapsed()
                })
                .min()
                .unwrap()
        };
        let (small, large) = (plan_time(24), plan_time(96));
        assert!(large < small * 8, "24 channels: {small:?}, 96 channels: {large:?}");
    }
}
