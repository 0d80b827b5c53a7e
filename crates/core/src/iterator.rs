//! The iterator: abstract execution by induction on the abstract syntax
//! (paper Sect. 5.3–5.5 and 7.1).
//!
//! Two passes share the same transfer functions and the same loop routine
//! (`Iter::exec_loop`: unrolled first iterations, Sect. 7.1.1, then the
//! residual loop solved by [`crate::solve`]):
//!
//! - **the iteration pass** ([`Iter::iterate`]) computes loop invariants;
//!   no warnings are emitted, and the main loop's invariant is the one
//!   result it keeps;
//! - **the checking pass** ([`Iter::check`]) replays the program from that
//!   one invariant, solves every other loop where it meets it, and issues
//!   one alarm per operator application that may err. It admits no
//!   invariant without testing that it is inductive in the context it
//!   arrives in ([`crate::solve::premise`]).
//!
//! Calls are analyzed by abstract inlining (context-sensitive polyvariant
//! analysis, Sect. 5.4); by-reference parameters are substituted by the
//! actual l-values. Trace partitioning (Sect. 7.1.5) delays branch merging
//! inside user-selected functions until the function's return point.

use crate::alarms::AlarmSink;
use crate::config::AnalysisConfig;
use crate::frames::{FrameChoice, Frames};
use crate::packs::Packs;
use crate::parallel::Unbounded;
use crate::solve::{premise, reduce_above, solve, LoopRec, Pass, Solved};
use crate::state::{float_view, meet_cell_with_float, AbsState, DTree, PackEnv};
use crate::substitute::substitute_block;
use astree_domains::dtree::Lattice;
use astree_domains::{Ellipsoid, ErrFlags, FloatItv};
use astree_ir::{
    Binop, Block, CallArg, Expr, FuncId, Function, LoopId, Lvalue, Program, ScalarType, Stmt,
    StmtId, StmtKind, Unop, VarId,
};
use astree_memory::{AbsEnv, CellId, CellLayout, CellVal, Evaluator};
use astree_obs::{
    AlarmEvent, Event, FrameCounters, PmapCounters, PoolCounters, PremiseCounters, Recorder,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Analysis mode (paper Sect. 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Generate invariants; no warnings.
    Iterate,
    /// Replay from invariants; collect alarms.
    Check,
}

/// Running counters exposed in the final statistics.
#[derive(Debug, Default, Clone)]
pub struct IterStats {
    /// Total widening/union iterations across all loops.
    pub loop_iterations: u64,
    /// Total statements interpreted (both modes).
    pub stmts_interpreted: u64,
    /// Peak number of simultaneously live trace partitions.
    pub peak_partitions: usize,
    /// Number of statement stages executed by parallel slicing.
    pub par_stages: u64,
    /// Total slices run across all parallel stages.
    pub par_slices: u64,
    /// Loops solved by full widening/narrowing iteration (iteration mode).
    pub loops_solved: u64,
    /// Threshold-free widenings past `max_iterations` ([`astree_obs::Phase::WidenTop`]):
    /// the iteration budget ran out and the solve forced a fixpoint.
    pub widen_top: u64,
    /// The loops those widenings were applied to, as (function, loop id).
    pub budget_loops: BTreeSet<(String, u32)>,
    /// Narrowings the cuts skipped that the differential's reference solve
    /// ran (none of them moved an invariant).
    #[cfg(test)]
    pub(crate) narrowings_cut: u64,
    /// Loops the checking pass solved in context: every visit to a loop
    /// other than the main one (see [`Iter::exec_loop`]).
    pub loops_rechecked: u64,
    /// The invariants the checking pass tested against
    /// [`crate::solve::premise`] (one per visit that reaches a residual
    /// loop), and those that failed.
    pub premise: PremiseCounters,
    /// The loops whose invariant failed, as (function, loop id).
    pub premise_loops: BTreeSet<(String, u32)>,
    /// How the depth-0 call statements ran (see [`crate::frames`]); the
    /// per-frame sizes are filled in by the session when it reports.
    pub frames: FrameCounters,
}

/// The iterator.
pub struct Iter<'a> {
    pub(crate) program: &'a Program,
    pub(crate) layout: &'a CellLayout,
    pub(crate) packs: &'a Packs,
    pub(crate) config: &'a AnalysisConfig,
    eval: Evaluator<'a>,
    pub(crate) mode: Mode,
    /// The main loop (see [`main_loop`]): the one loop the checking pass
    /// takes an invariant for. `None` in the iterators the main one hands
    /// work to — no slice or in-context solve contains the main loop.
    main: Option<LoopId>,
    /// The loop whose invariant the checking pass keeps (see [`report_loop`]).
    report: Option<LoopId>,
    /// The main loop's invariant handed to the checking pass.
    main_inv: Option<AbsState>,
    /// The invariant a pass keeps: the main loop's in the iteration pass,
    /// the report loop's (its last visit's) in the checking pass.
    kept: Option<AbsState>,
    /// What every depth-0 call statement runs on; shared with slice workers
    /// and the checking pass's scratch iterators.
    pub(crate) frames: Arc<Frames>,
    /// Joined abstract state observed at each statement during the Check
    /// pass, filled only when `config.collect_stmt_invariants` is set. For a
    /// `while` statement this additionally accumulates every loop-head
    /// arrival (unrolled passes and the residual invariant), matching the
    /// concrete interpreter's per-arrival observer.
    pub stmt_invariants: HashMap<StmtId, AbsState>,
    /// The alarm sink (checking mode).
    pub sink: AlarmSink,
    /// Per-octagon-pack usefulness counters (Sect. 7.2.2).
    pub oct_useful: Vec<usize>,
    /// Counters.
    pub stats: IterStats,
    /// Persistent-map counters drained from worker slices (the main thread's
    /// own counters stay in its thread-local and are drained by the session).
    pub(crate) pmap_worker_stats: PmapCounters,
    /// Whether the synchronous loop's dispatch may be sliced across workers
    /// (Monniaux's partition-and-join scheme); disabled inside workers.
    par_enabled: bool,
    /// What the parallel stages scattered, reported as `scheduler.pool`:
    /// sized by `jobs` when the iterator may slice.
    pub(crate) pool_counters: PoolCounters,
    /// Cached stage plans, keyed by the first statement of the block.
    pub(crate) plans: HashMap<StmtId, Arc<crate::parallel::BlockPlan>>,
    /// Telemetry sink (the no-op recorder by default).
    pub(crate) rec: &'a dyn Recorder,
    /// Cached `rec.enabled()`: hot paths pay one branch, not a virtual call.
    pub(crate) rec_on: bool,
    /// Function-name stack for event attribution.
    func_stack: Vec<&'a str>,
    /// `(loop id, checking iteration)` context stack (maintained when
    /// `rec_on`), for alarm provenance.
    loop_stack: Vec<(u32, u64)>,
    /// Differential mode of the tests: every framed call of an iteration
    /// pass (the checking pass's in-context solves included) is also run on
    /// the caller's state and compared, and every loop it solves is solved
    /// again by [`crate::solve::reference`] on a scratch iterator, which
    /// must find the same invariant.
    #[cfg(test)]
    pub(crate) differential: bool,
}

/// The set of partitions flowing through a block, plus the accumulated
/// return state of the enclosing function.
pub(crate) struct Flow {
    pub(crate) parts: Vec<AbsState>,
    pub(crate) returned: AbsState,
}

impl Flow {
    pub(crate) fn new(state: AbsState) -> Flow {
        Flow { parts: vec![state], returned: AbsState::bottom() }
    }

    /// Joins a state that left the function through a `return`.
    fn returns(&mut self, r: AbsState, layout: &CellLayout, packs: &Packs) {
        self.returned = self.returned.join(&r, layout, packs);
    }
}

impl<'a> Iter<'a> {
    /// Creates an iterator over the given program and configuration, with
    /// the no-op telemetry recorder.
    pub fn new(
        program: &'a Program,
        layout: &'a CellLayout,
        packs: &'a Packs,
        config: &'a AnalysisConfig,
    ) -> Self {
        Iter::with_recorder(program, layout, packs, config, &astree_obs::NULL)
    }

    /// Creates an iterator that reports telemetry events to `rec`.
    pub fn with_recorder(
        program: &'a Program,
        layout: &'a CellLayout,
        packs: &'a Packs,
        config: &'a AnalysisConfig,
        rec: &'a dyn Recorder,
    ) -> Self {
        let frames = Arc::new(Frames::discover(program, layout, packs));
        let mut it = Iter::with_frames(program, layout, packs, config, frames);
        it.main = main_loop(program);
        it.report = report_loop(program);
        // Parallel slices run on worker `Iter`s whose per-statement
        // captures would be dropped at merge; collection forces the
        // sequential interpreter (alarms are identical either way).
        it.par_enabled = config.jobs > 1 && !config.collect_stmt_invariants;
        it.pool_counters.workers = config.jobs as u64;
        it.pool_counters.busy_nanos = vec![0; config.jobs];
        it.rec = rec;
        it.rec_on = rec.enabled();
        it
    }

    /// An iterator for work this one hands out — a slice of a parallel
    /// stage, an in-context solve of the checking pass: iteration mode, the
    /// same frames, no slicing, no telemetry, counters of its own.
    pub(crate) fn scratch(&self) -> Iter<'a> {
        let frames = Arc::clone(&self.frames);
        Iter::with_frames(self.program, self.layout, self.packs, self.config, frames)
    }

    fn with_frames(
        program: &'a Program,
        layout: &'a CellLayout,
        packs: &'a Packs,
        config: &'a AnalysisConfig,
        frames: Arc<Frames>,
    ) -> Self {
        let mut eval = Evaluator::new(program, layout, config.max_clock);
        eval.linearize = config.enable_linearization;
        eval.clocked = config.enable_clocked;
        Iter {
            program,
            layout,
            packs,
            config,
            eval,
            mode: Mode::Iterate,
            main: None,
            report: None,
            main_inv: None,
            kept: None,
            frames,
            stmt_invariants: HashMap::new(),
            sink: AlarmSink::new(),
            oct_useful: vec![0; packs.octagons.len()],
            stats: IterStats::default(),
            pmap_worker_stats: PmapCounters::default(),
            par_enabled: false,
            pool_counters: PoolCounters::default(),
            plans: HashMap::new(),
            rec: &astree_obs::NULL,
            rec_on: false,
            func_stack: Vec::new(),
            loop_stack: Vec::new(),
            #[cfg(test)]
            differential: false,
        }
    }

    /// The function currently being analyzed, for event attribution.
    fn cur_func(&self) -> &'a str {
        match self.func_stack.last() {
            Some(name) => name,
            None => self.program.func(self.program.entry).name.as_str(),
        }
    }

    /// Records one application of `domain.op` that took `extra_ns` plus the
    /// time since `t0`; nothing when `t0` is `None` (telemetry off).
    fn op_timed(&self, t0: Option<Instant>, domain: &'static str, op: &'static str, extra_ns: u64) {
        if let Some(t0) = t0 {
            let nanos = extra_ns + t0.elapsed().as_nanos() as u64;
            self.rec.record(&Event::DomainOp { domain, op, nanos });
        }
    }

    /// The iteration pass: runs the program from the entry point, solving
    /// every loop. Returns the final state and the main loop's invariant
    /// (`None` when there is no main loop; ⊥ when its residual is not
    /// reached).
    pub fn iterate(&mut self) -> (AbsState, Option<AbsState>) {
        self.run(Mode::Iterate)
    }

    /// The checking pass: runs the program from the entry point, collecting
    /// alarms. It takes `main` as the main loop's invariant, solves every
    /// other loop where it meets it, and tests each invariant it uses
    /// against its premise. Returns the final state and the invariant it
    /// used at the report loop (see [`report_loop`]).
    pub fn check(&mut self, main: Option<&AbsState>) -> (AbsState, Option<AbsState>) {
        self.main_inv = main.cloned();
        let out = self.run(Mode::Check);
        self.main_inv = None;
        out
    }

    fn run(&mut self, mode: Mode) -> (AbsState, Option<AbsState>) {
        self.mode = mode;
        self.kept = None;
        let state = AbsState::initial(self.layout, self.packs);
        let program: &'a Program = self.program;
        let entry = program.func(program.entry);
        let exit = self.exec_function(state, entry, &entry.body, None, 0);
        (exit, self.kept.take())
    }

    // ----- functions -------------------------------------------------------

    /// Runs `body`, the body of `f` (by-reference parameters substituted),
    /// on `state`: the join of the states that return and that fall off the
    /// end. Trace partitions (Sect. 7.1.5) live until here.
    fn exec_function(
        &mut self,
        state: AbsState,
        f: &'a Function,
        body: &Block,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> AbsState {
        let partitioning = self.config.partitioned_functions.contains(&f.name);
        self.func_stack.push(f.name.as_str());
        let mut flow = Flow::new(state);
        self.exec_block(&mut flow, body, ret_target, partitioning, depth);
        self.func_stack.pop();
        let (layout, packs) = (self.layout, self.packs);
        flow.parts.iter().fold(flow.returned, |out, p| out.join(p, layout, packs))
    }

    pub(crate) fn exec_block(
        &mut self,
        flow: &mut Flow,
        block: &[Stmt],
        ret_target: Option<&Lvalue>,
        partitioning: bool,
        depth: u32,
    ) {
        for s in block {
            self.exec_stmt(flow, s, ret_target, partitioning, depth);
            flow.parts.retain(|p| !p.is_bottom());
            if flow.parts.is_empty() {
                return;
            }
        }
    }

    fn exec_stmt(
        &mut self,
        flow: &mut Flow,
        s: &Stmt,
        ret_target: Option<&Lvalue>,
        partitioning: bool,
        depth: u32,
    ) {
        self.stats.stmts_interpreted += flow.parts.len() as u64;
        self.stats.peak_partitions = self.stats.peak_partitions.max(flow.parts.len());
        if self.rec_on && flow.parts.len() > 1 {
            let live = flow.parts.len() as u64;
            self.rec.record(&Event::Partitions { func: self.cur_func(), live });
        }
        if self.config.collect_stmt_invariants && self.mode == Mode::Check {
            for p in &flow.parts {
                self.note_stmt_state(s.id, p);
            }
        }
        match &s.kind {
            StmtKind::Assign(lv, e) => {
                for p in std::mem::take(&mut flow.parts) {
                    let out = self.transfer_assign(p, lv, e, s);
                    flow.parts.push(out);
                }
            }
            StmtKind::If(c, then_b, else_b) => {
                if self.mode == Mode::Check {
                    // Check the condition against every live partition (the
                    // alarm sink deduplicates per statement and kind).
                    let parts = std::mem::take(&mut flow.parts);
                    for p in &parts {
                        self.check_expr(p, c, s);
                    }
                    flow.parts = parts;
                }
                let parts = std::mem::take(&mut flow.parts);
                let mut merged: Vec<AbsState> = Vec::new();
                for p in parts {
                    let t_in = self.state_guard(p.clone(), c, true);
                    let f_in = self.state_guard(p, c, false);
                    let mut tf = Flow::new(t_in);
                    self.exec_block(&mut tf, then_b, ret_target, partitioning, depth);
                    let mut ff = Flow::new(f_in);
                    self.exec_block(&mut ff, else_b, ret_target, partitioning, depth);
                    flow.returns(tf.returned, self.layout, self.packs);
                    flow.returns(ff.returned, self.layout, self.packs);
                    if partitioning {
                        merged.extend(tf.parts);
                        merged.extend(ff.parts);
                    } else {
                        tf.parts.extend(ff.parts);
                        merged.push(AbsState::join_all(tf.parts, self.layout, self.packs));
                    }
                }
                // Cap the number of live partitions.
                if merged.len() > self.config.max_partitions {
                    merged = vec![AbsState::join_all(merged, self.layout, self.packs)];
                }
                flow.parts = merged;
            }
            StmtKind::While(id, c, body) => {
                self.exec_loop(flow, *id, c, body, s, ret_target, depth);
            }
            StmtKind::Call(ret, callee, args) => {
                let parts = std::mem::take(&mut flow.parts);
                for p in parts {
                    let out = self.transfer_call(p, *callee, args, ret.as_ref(), s, depth);
                    flow.parts.push(out);
                }
            }
            StmtKind::Return(e) => {
                let parts = std::mem::take(&mut flow.parts);
                for p in parts {
                    let p = match (e, ret_target) {
                        (Some(e), Some(target)) => self.transfer_assign(p, target, e, s),
                        (Some(e), None) => {
                            if self.mode == Mode::Check {
                                self.check_expr(&p, e, s);
                            }
                            p
                        }
                        _ => p,
                    };
                    flow.returned = flow.returned.join(&p, self.layout, self.packs);
                }
            }
            StmtKind::Wait => {
                for mut p in std::mem::take(&mut flow.parts) {
                    p.env = self.eval.tick(p.env);
                    if self.config.enable_clocked {
                        p.tick_relational();
                    }
                    flow.parts.push(p);
                }
            }
            StmtKind::Assume(c) => {
                for p in std::mem::take(&mut flow.parts) {
                    let out = self.state_guard(p, c, true);
                    flow.parts.push(out);
                }
            }
            StmtKind::ReadVolatile(v) => {
                for p in std::mem::take(&mut flow.parts) {
                    let out = self.transfer_read_volatile(p, *v);
                    flow.parts.push(out);
                }
            }
        }
    }

    // ----- loops (Sect. 5.5, 7.1) ------------------------------------------

    /// The one loop routine, shared by both passes (Sect. 5.3–5.4). The
    /// arriving partitions merge; the unrolled prefix (Sect. 7.1.1), the
    /// exit accumulation and the `exits ⊔ guard(inv, ¬c)` epilogue are the
    /// same in both modes. Where `inv` comes from is not:
    ///
    /// - **Iterate** solves the residual loop ([`Iter::solve_loop`]) and, at
    ///   the main loop, keeps `inv`.
    /// - **Check** takes the handed-in invariant at the main loop, else
    ///   solves the loop in context on a scratch iterator, keeping only the
    ///   invariant; one alarm-collecting body pass from `inv` follows
    ///   (Sect. 5.4), and its back edge decides whether `inv` is admitted:
    ///   the premise test ([`crate::solve::premise`]) counts every failure
    ///   and names its loop. At the report loop it keeps `inv`.
    ///
    /// A `return` in the body leaves the function, not the loop: what the
    /// unrolled passes, the solve's stabilizing pass (Iterate) or the alarm
    /// pass (Check) returned joins the flow's returns, not the next iterate.
    #[allow(clippy::too_many_arguments)]
    fn exec_loop(
        &mut self,
        flow: &mut Flow,
        id: LoopId,
        cond: &Expr,
        body: &Block,
        s: &Stmt,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) {
        let (layout, packs) = (self.layout, self.packs);
        let mut cur = AbsState::join_all(std::mem::take(&mut flow.parts), layout, packs);
        let check = self.mode == Mode::Check;
        // Alarm provenance: the loop iteration the checking pass is in.
        let track = check && self.rec_on;
        let mut exits = AbsState::bottom();
        // Semantic loop unrolling (Sect. 7.1.1).
        let unroll = self.config.unroll_for(id);
        if self.rec_on && !check && unroll > 0 {
            self.rec.record(&Event::Unroll {
                func: self.cur_func(),
                loop_id: id.0,
                factor: unroll,
            });
        }
        for k in 0..unroll {
            if track {
                self.loop_stack.push((id.0, k as u64 + 1));
            }
            if check {
                self.check_expr(&cur, cond, s);
            }
            let exit = self.state_guard(cur.clone(), cond, false);
            exits = exits.join(&exit, layout, packs);
            let body_in = self.state_guard(cur, cond, true);
            if body_in.is_bottom() {
                if track {
                    self.loop_stack.pop();
                }
                // Residual unreachable in this context.
                self.keep(id, &AbsState::bottom());
                flow.parts = vec![exits];
                return;
            }
            let pass = self.exec_loop_body(body_in, body, ret_target, depth);
            flow.returns(pass.returned, layout, packs);
            cur = pass.next;
            // Each back edge of an unrolled pass arrives at the loop head
            // with `cur`; record it so the soundness oracle can check the
            // concrete per-arrival observations of early iterations.
            self.note_stmt_state(s.id, &cur);
            if track {
                self.loop_stack.pop();
            }
        }
        let scope = crate::parallel::loop_done_scope(self.program, layout, depth, cond, body);
        let inv = if !check {
            let solved = self.solve_loop(&cur, id, cond, body, ret_target, depth, scope.as_ref());
            flow.returns(solved.returned, layout, packs);
            solved.inv
        } else {
            let given = self.main_inv.as_ref().filter(|_| Some(id) == self.main);
            let inv = match given {
                Some(inv) => inv.clone(),
                None => {
                    let mut w = self.scratch();
                    // Pack usefulness is the one thing the scratch solve
                    // contributes besides its invariant.
                    w.oct_useful = std::mem::take(&mut self.oct_useful);
                    #[cfg(test)]
                    {
                        w.differential = self.differential;
                    }
                    let scope = scope.as_ref();
                    let inv = w.solve_loop(&cur, id, cond, body, ret_target, depth, scope).inv;
                    self.oct_useful = w.oct_useful;
                    #[cfg(test)]
                    {
                        self.stats.narrowings_cut += w.stats.narrowings_cut;
                    }
                    self.stats.loops_rechecked += 1;
                    inv
                }
            };
            // All residual loop-head arrivals (beyond the unrolled
            // prefix) are covered by the loop invariant.
            self.note_stmt_state(s.id, &inv);
            if track {
                self.loop_stack.push((id.0, unroll as u64 + 1));
            }
            self.check_expr(&inv, cond, s);
            let pass = self.body_pass(&inv, cond, body, ret_target, depth);
            flow.returns(pass.returned, layout, packs);
            if track {
                self.loop_stack.pop();
            }
            let t0 = self.rec_on.then(Instant::now);
            let holds = premise(&cur, &pass.next, &inv, scope.as_ref(), layout, packs);
            self.op_timed(t0, "state", "premise", 0);
            self.stats.premise.checked += 1;
            if !holds {
                self.stats.premise.failed += 1;
                self.stats.premise_loops.insert((self.cur_func().to_string(), id.0));
            }
            inv
        };
        self.keep(id, &inv);
        flow.parts = vec![exits.join(&self.state_guard(inv, cond, false), layout, packs)];
    }

    /// Keeps `inv` when loop `id` is the one this pass keeps an invariant
    /// of: the main loop in the iteration pass, the report loop in the
    /// checking pass.
    fn keep(&mut self, id: LoopId, inv: &AbsState) {
        let kept = if self.mode == Mode::Check { self.report } else { self.main };
        if Some(id) == kept {
            self.kept = Some(inv.clone());
        }
    }

    /// Solves the residual loop above `base` with `F` this iterator's body
    /// pass ([`crate::solve`]), counts the solve, and applies the loop-done
    /// reduction over `scope` to the invariant ([`reduce_above`]).
    #[allow(clippy::too_many_arguments)]
    fn solve_loop(
        &mut self,
        base: &AbsState,
        id: LoopId,
        cond: &Expr,
        body: &Block,
        ret_target: Option<&Lvalue>,
        depth: u32,
        scope: Option<&BTreeSet<CellId>>,
    ) -> Solved {
        let (layout, packs, config) = (self.layout, self.packs, self.config);
        let func = self.cur_func();
        let rec = self.rec_on.then_some(LoopRec { rec: self.rec, func, loop_id: id.0 });
        let mut solved = solve(base, layout, packs, config, rec, |inv| {
            self.body_pass(inv, cond, body, ret_target, depth)
        });
        #[cfg(test)]
        if self.differential {
            let mut w = self.scratch();
            let reference = crate::solve::reference(base, layout, packs, config, |inv| {
                w.body_pass(inv, cond, body, ret_target, depth)
            });
            assert!(reference.inv.same(&solved.inv), "a narrowing cut moved {func} loop {}", id.0);
            self.stats.narrowings_cut += reference.stats.narrowings - solved.stats.narrowings;
        }
        self.stats.loops_solved += 1;
        self.stats.loop_iterations += solved.stats.stabilized_at;
        if solved.stats.widen_top > 0 {
            self.stats.widen_top += solved.stats.widen_top;
            self.stats.budget_loops.insert((func.to_string(), id.0));
        }
        #[cfg(test)]
        if UNSOUND_NARROWING.get() == Some(id.0) {
            drop_a_bound(&mut solved.inv);
        }
        let t0 = self.rec_on.then(Instant::now);
        let useful = Some(&mut self.oct_useful[..]);
        reduce_above(&mut solved.inv, base, scope, layout, packs, useful);
        self.op_timed(t0, "octagon", "closure", 0);
        solved
    }

    /// Joins `st` into the per-statement invariant record for `id` (Check
    /// mode with `collect_stmt_invariants` only; bottom states — claimed
    /// unreachable — are skipped so absence in the map means "the analyzer
    /// claims no execution reaches this point"). A helper's statement is
    /// reached from several frames: the record keeps the keys they share.
    fn note_stmt_state(&mut self, id: StmtId, st: &AbsState) {
        if !self.config.collect_stmt_invariants || self.mode != Mode::Check || st.is_bottom() {
            return;
        }
        let (layout, packs) = (self.layout, self.packs);
        match self.stmt_invariants.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let joined = e.get().join_arrivals(st, layout, packs);
                e.insert(joined);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(st.clone());
            }
        }
    }

    /// The body pass `F(inv)`: `guard(inv, c); body`. The checking pass
    /// does not enter a body its guard closes; an iteration pass runs it on
    /// ⊥ (and counts the statement, as `--metrics` always has).
    fn body_pass(
        &mut self,
        inv: &AbsState,
        cond: &Expr,
        body: &Block,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> Pass {
        let body_in = self.state_guard(inv.clone(), cond, true);
        if self.mode == Mode::Check && body_in.is_bottom() {
            return Pass { next: body_in, returned: AbsState::bottom() };
        }
        self.exec_loop_body(body_in, body, ret_target, depth)
    }

    /// One body pass from `state` (already guarded by the loop condition).
    fn exec_loop_body(
        &mut self,
        state: AbsState,
        body: &Block,
        ret_target: Option<&Lvalue>,
        depth: u32,
    ) -> Pass {
        // The one place a block is sliced: the body of a depth-0 loop, i.e.
        // the synchronous loop's dispatch (worker iterators never slice).
        let staged = self.par_enabled && depth == 0 && body.len() >= 2 && !state.is_bottom();
        let mut flow = Flow::new(state);
        if staged {
            self.exec_block_staged(&mut flow, body, ret_target, depth);
        } else {
            self.exec_block(&mut flow, body, ret_target, false, depth);
        }
        let next = AbsState::join_all(flow.parts, self.layout, self.packs);
        Pass { next, returned: flow.returned }
    }

    // ----- transfers ---------------------------------------------------------

    fn transfer_assign(
        &mut self,
        mut state: AbsState,
        lv: &Lvalue,
        e: &Expr,
        s: &Stmt,
    ) -> AbsState {
        if state.is_bottom() {
            return state;
        }
        // Ellipsoid pending computation at the filter group's first stmt.
        if let Some(pi) = self.packs.ellipse_starts.get(s.id) {
            let t0 = self.rec_on.then(Instant::now);
            let d = self.ellipse_delta(&state, pi);
            state.set_pending(pi, d);
            self.op_timed(t0, "ellipsoid", "delta", 0);
        }
        // The state is written in place from here on, so everything the
        // relational transfers need of the pre-state is read first: the
        // target cells, the octagon shape of `e`, the decision-tree leaves.
        let target = self.eval.resolve(&state.env, lv);
        let cell = (target.strong && target.cells.len() == 1).then(|| target.cells[0]);
        let t0 = self.rec_on.then(Instant::now);
        let shape = cell
            .filter(|c| self.packs.oct_index.holds(*c))
            .and_then(|_| self.affine_shape(&state.env, e));
        let shape_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let t0 = self.rec_on.then(Instant::now);
        let dtrees = cell.map_or_else(Vec::new, |c| self.dtree_assign(&state, c, e));
        let dtree_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let (env, flags) = self.eval.assign(state.env, &target, e);
        state.env = env;
        if self.mode == Mode::Check && !flags.is_empty() {
            self.report(s, flags, lv, Some(e));
        }
        if state.is_bottom() {
            return state;
        }
        // Relational updates.
        let Some(cell) = cell else {
            for c in target.cells.iter() {
                state.forget_cell(*c, self.layout, self.packs);
            }
            return state;
        };
        let t0 = self.rec_on.then(Instant::now);
        self.oct_assign(&mut state, cell, shape);
        self.op_timed(t0, "octagon", "assign", shape_ns);
        let t0 = self.rec_on.then(Instant::now);
        for (pi, tree) in dtrees {
            state.set_dtree(pi, tree);
        }
        self.op_timed(t0, "dtree", "assign", dtree_ns);
        let t0 = self.rec_on.then(Instant::now);
        self.ellipse_assign(&mut state, cell, s);
        self.op_timed(t0, "ellipsoid", "commit", 0);
        state
    }

    /// The `δ` update for filter pack `pi`, evaluated in the pre-state.
    fn ellipse_delta(&self, state: &AbsState, pi: usize) -> f64 {
        let pack = &self.packs.ellipses[pi];
        let x = float_view(state.env.read(pack.x, self.layout));
        let y = float_view(state.env.read(pack.y, self.layout));
        let ell = Ellipsoid { a: pack.a, b: pack.b, k: state.ell(pi) }.reduce_from_box(x, y);
        let t_max = match &pack.t {
            None => 0.0,
            Some(t) => {
                let (v, f) = self.eval.eval(&state.env, t);
                if !f.is_empty() {
                    return f64::INFINITY;
                }
                let fv = v.as_float();
                if fv.is_bottom() || !fv.lo.is_finite() || !fv.hi.is_finite() {
                    return f64::INFINITY;
                }
                fv.lo.abs().max(fv.hi.abs())
            }
        };
        ell.delta(t_max)
    }

    /// Octagon transfer for a strong scalar assignment whose right-hand
    /// side had the affine `shape` in the pre-state (see
    /// [`Iter::affine_shape`]).
    fn oct_assign(
        &mut self,
        out: &mut AbsState,
        cell: CellId,
        shape: Option<(CellId, bool, f64, f64)>,
    ) {
        for pi in self.packs.oct_index.get(cell) {
            let slot = self.packs.oct_slot(pi, cell).expect("cell in pack");
            let mut oct = out.oct(pi, self.packs).into_owned();
            // The exact affine shapes x := ±y + [lo, hi] when y is in the
            // pack too; else the interval assignment.
            let affine = shape
                .and_then(|(src, neg, lo, hi)| Some((self.packs.oct_slot(pi, src)?, neg, lo, hi)));
            match affine {
                Some((src, true, lo, hi)) => oct.assign_neg_var_plus_const(slot, src, lo, hi),
                Some((src, false, lo, hi)) => oct.assign_var_plus_const(slot, src, lo, hi),
                None => oct.assign_interval(slot, float_view(out.env.read(cell, self.layout))),
            }
            out.set_oct(pi, oct);
        }
    }

    /// Matches `±y + [lo, hi]` against `e` (evaluating the non-variable part
    /// in the pre-state); the paper's "smart" octagon assignment. For float
    /// expressions the constant range is widened by the operation's rounding
    /// error, making the real-field octagon constraint sound for the
    /// floating-point semantics (the per-operator error absorption of
    /// Sect. 6.3).
    fn affine_shape(&self, pre: &AbsEnv, e: &Expr) -> Option<(CellId, bool, f64, f64)> {
        let plain = |lv: &Lvalue| -> Option<CellId> {
            let r = self.eval.resolve(pre, lv);
            (r.strong && r.cells.len() == 1).then(|| r.cells[0])
        };
        let eval_itv = |e: &Expr| -> Option<(f64, f64)> {
            let (v, f) = self.eval.eval(pre, e);
            if !f.is_empty() {
                return None;
            }
            let itv = match v {
                astree_memory::AbsVal::Float(fv) => fv,
                astree_memory::AbsVal::Int(iv) => {
                    if iv.is_bottom() || iv.lo == i64::MIN || iv.hi == i64::MAX {
                        return None;
                    }
                    FloatItv::new(iv.lo as f64, iv.hi as f64)
                }
            };
            (itv.lo.is_finite() && itv.hi.is_finite()).then_some((itv.lo, itv.hi))
        };
        // Absolute rounding-error bound of one float operation whose result
        // is `e`'s value (zero for exact integer arithmetic).
        let round_err = |e: &Expr| -> Option<f64> {
            match e.ty() {
                ScalarType::Int(_) => Some(0.0),
                ScalarType::Float(_) => {
                    let (lo, hi) = eval_itv(e)?;
                    let m = lo.abs().max(hi.abs());
                    Some(m * (4.0 * astree_float::UNIT_ROUNDOFF) + astree_float::MIN_SUBNORMAL)
                }
            }
        };
        match e {
            Expr::Load(lv, _) => plain(lv).map(|c| (c, false, 0.0, 0.0)),
            Expr::Unop(Unop::Neg, _, a) => match &**a {
                Expr::Load(lv, _) => plain(lv).map(|c| (c, true, 0.0, 0.0)),
                _ => None,
            },
            Expr::Binop(Binop::Add, _, a, b) => {
                let err = round_err(e)?;
                match (&**a, &**b) {
                    (Expr::Load(lv, _), rest) | (rest, Expr::Load(lv, _)) => {
                        let c = plain(lv)?;
                        let (lo, hi) = eval_itv(rest)?;
                        Some((c, false, lo - err, hi + err))
                    }
                    _ => None,
                }
            }
            Expr::Binop(Binop::Sub, _, a, b) => {
                let err = round_err(e)?;
                match (&**a, &**b) {
                    (Expr::Load(lv, _), rest) => {
                        let c = plain(lv)?;
                        let (lo, hi) = eval_itv(rest)?;
                        Some((c, false, -hi - err, -lo + err))
                    }
                    (rest, Expr::Load(lv, _)) => {
                        let c = plain(lv)?;
                        let (lo, hi) = eval_itv(rest)?;
                        Some((c, true, lo - err, hi + err))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Decision-tree transfer for a strong scalar assignment: the new tree
    /// of every pack holding `cell`, computed from the pre-state `pre` alone
    /// (the caller writes them once the environment is updated).
    fn dtree_assign(&self, pre: &AbsState, cell: CellId, e: &Expr) -> Vec<(usize, DTree)> {
        let eval = &self.eval;
        let layout = self.layout;
        let env = &pre.env;
        // The environment refined with a leaf's context (`None` when the
        // context is unreachable in it).
        let context = |leaf: &PackEnv| -> Option<AbsEnv> {
            let mut ctx = env.clone();
            for (c, v) in &leaf.cells {
                let m = ctx.read(*c, layout).meet(v);
                if m.is_bottom() {
                    return None;
                }
                ctx.set(*c, m);
            }
            Some(ctx)
        };
        let dead = |leaf: &PackEnv| PackEnv { cells: leaf.cells.clone(), unreachable: true };
        self.packs
            .dtree_index
            .get(cell)
            .map(|pi| {
                let tree = pre.dtree(pi, layout, self.packs);
                let new = if self.packs.dtrees[pi].bools.contains(&cell) {
                    // b := e — split each context on the truth of e.
                    let restrict = |value: bool| {
                        move |leaf: &PackEnv| -> PackEnv {
                            if leaf.is_bottom() {
                                return dead(leaf);
                            }
                            // Refine env with the leaf context, then guard on e.
                            let Some(ctx) = context(leaf) else { return dead(leaf) };
                            let guarded = eval.guard(ctx, e, value);
                            if guarded.is_bottom() {
                                dead(leaf)
                            } else {
                                PackEnv::from_env(&guarded, layout, &cells_of(leaf))
                            }
                        }
                    };
                    tree.assign_bool(cell, &restrict(false), &restrict(true))
                } else {
                    // numeric := e — update the member in every context.
                    tree.map(&|leaf: &PackEnv| {
                        if leaf.is_bottom() {
                            return leaf.clone();
                        }
                        let Some(ctx) = context(leaf) else { return dead(leaf) };
                        let (val, flags) = eval.eval(&ctx, e);
                        let new_val = if flags.is_empty() {
                            match val {
                                astree_memory::AbsVal::Int(i) => {
                                    CellVal::Int(astree_domains::Clocked::of_val(i, ctx.clock))
                                }
                                astree_memory::AbsVal::Float(f) => CellVal::Float(f),
                            }
                        } else {
                            // Errors possible: fall back to the env's value.
                            env.read(cell, layout)
                        };
                        leaf.set(cell, new_val)
                    })
                };
                (pi, new)
            })
            .collect()
    }

    /// Ellipsoid commit at the filter group's final statement.
    fn ellipse_assign(&mut self, out: &mut AbsState, cell: CellId, s: &Stmt) {
        // Default forgetting already happened via oct/dtree paths; ellipses
        // forget through `forget_cell` only on weak updates, so clear any
        // pack whose x/y was strongly overwritten, then commit pendings.
        for pi in self.packs.ellipse_index.get(cell) {
            out.set_ell(pi, f64::INFINITY);
        }
        if let Some(pi) = self.packs.ellipse_commits.get(s.id) {
            let committed = out.pending(pi);
            out.set_ell(pi, committed);
            out.set_pending(pi, f64::INFINITY);
            // Reduce X's interval from the committed constraint
            // (the paper's post-assignment interval tightening).
            let pack = &self.packs.ellipses[pi];
            let e = Ellipsoid { a: pack.a, b: pack.b, k: committed };
            let xb = e.x_bound();
            if xb.is_finite() {
                meet_cell_with_float(&mut out.env, self.layout, pack.x, FloatItv::new(-xb, xb));
            }
            let yb = e.y_bound();
            if yb.is_finite() {
                meet_cell_with_float(&mut out.env, self.layout, pack.y, FloatItv::new(-yb, yb));
            }
        }
    }

    /// A call statement. At depth 0 it runs on its frame when it has one
    /// (see [`crate::frames`]): the arriving state is projected, the callee
    /// runs on the projection exactly as it would on the whole state —
    /// nested calls, branches, inner loops, alarms — and what changed is
    /// written back. The invariants of loops inside, solved in either pass,
    /// are therefore frame-sized.
    fn transfer_call(
        &mut self,
        mut state: AbsState,
        callee: FuncId,
        args: &[CallArg],
        ret: Option<&Lvalue>,
        s: &Stmt,
        depth: u32,
    ) -> AbsState {
        if state.is_bottom() {
            return state;
        }
        let frames = Arc::clone(&self.frames);
        // The one selection point of frames: a `reference` build runs every
        // call on the whole state.
        let frame = match frames.get(s.id).filter(|_| depth == 0) {
            Some(FrameChoice::Framed(frame)) if !cfg!(feature = "reference") => frame,
            Some(FrameChoice::Whole(why)) => {
                let n = match why {
                    Unbounded::Wait => &mut self.stats.frames.calls_whole_wait,
                    Unbounded::DepthCap => &mut self.stats.frames.calls_whole_depth_cap,
                };
                *n += 1;
                return self.inline_call(state, callee, args, ret, s, depth);
            }
            _ => return self.inline_call(state, callee, args, ret, s, depth),
        };
        self.stats.frames.calls_framed += 1;
        #[cfg(test)]
        let whole = (self.differential && self.mode == Mode::Iterate).then(|| {
            let mut w = self.scratch();
            w.frames = Arc::default();
            w.inline_call(state.clone(), callee, args, ret, s, depth)
        });
        let t0 = self.rec_on.then(Instant::now);
        let pre = state.project(frame);
        self.op_timed(t0, "state", "project", 0);
        let outer_kept = self.kept.take();
        let post = self.inline_call(pre.clone(), callee, args, ret, s, depth);
        // A key the callee added is a write the frame did not foresee:
        // `absorb` carries it over (sound), debug builds stop.
        debug_assert!(post.is_bottom() || post.same_shape(&pre), "callee left its frame");
        // An invariant kept inside the call holds the frame's cells only:
        // it is kept on the caller's whole state, as an unframed call keeps it.
        self.kept = match self.kept.take() {
            Some(inner) => {
                let mut whole = state.clone();
                whole.absorb(&pre, &inner, self.layout, self.packs);
                Some(whole)
            }
            None => outer_kept,
        };
        let t0 = self.rec_on.then(Instant::now);
        state.absorb(&pre, &post, self.layout, self.packs);
        self.op_timed(t0, "state", "absorb", 0);
        #[cfg(test)]
        if let Some(whole) = whole {
            let name = &self.program.func(callee).name;
            assert_eq!(format!("{state}"), format!("{whole}"), "framed call of {name}");
            assert!(state.leq(&whole) && whole.leq(&state), "framed call of {name}: packs");
        }
        state
    }

    /// Abstract inlining (Sect. 5.4): binds the parameters and executes the
    /// callee's body on `state`.
    fn inline_call(
        &mut self,
        state: AbsState,
        callee: FuncId,
        args: &[CallArg],
        ret: Option<&Lvalue>,
        s: &Stmt,
        depth: u32,
    ) -> AbsState {
        let program: &'a Program = self.program;
        let f = program.func(callee);
        let mut cur = state;
        let mut ref_map: HashMap<VarId, Lvalue> = HashMap::new();
        for (param, arg) in f.params.iter().zip(args) {
            match arg {
                CallArg::Value(e) => {
                    let target = Lvalue::var(param.var);
                    cur = self.transfer_assign(cur, &target, e, s);
                }
                CallArg::Ref(lv) => {
                    ref_map.insert(param.var, lv.clone());
                }
            }
        }
        if cur.is_bottom() {
            return cur;
        }
        // By-ref parameters are substituted by the actual l-values.
        let substituted;
        let body = if ref_map.is_empty() {
            &f.body
        } else {
            substituted = substitute_block(&f.body, &ref_map);
            &substituted
        };
        self.exec_function(cur, f, body, ret, depth + 1)
    }

    fn transfer_read_volatile(&mut self, mut out: AbsState, var: VarId) -> AbsState {
        if out.is_bottom() {
            return out;
        }
        out.env = self.eval.read_volatile(out.env, var);
        let cell = self.layout.scalar_cell(var);
        out.forget_cell_trees_and_filters(cell, self.layout, self.packs);
        // The octagon forgets the cell and keeps the fresh interval
        // (`assign_interval` forgets on its own).
        for pi in self.packs.oct_index.get(cell) {
            if let Some(slot) = self.packs.oct_slot(pi, cell) {
                let v = float_view(out.env.read(cell, self.layout));
                let mut oct = out.oct(pi, self.packs).into_owned();
                oct.assign_interval(slot, v);
                out.set_oct(pi, oct);
            }
        }
        out
    }

    // ----- guards ------------------------------------------------------------

    /// Full-state guard: environment refinement plus relational constraints,
    /// applied to `state` in place (a caller that keeps its state guards a
    /// clone of it).
    pub fn state_guard(&mut self, mut state: AbsState, cond: &Expr, positive: bool) -> AbsState {
        if state.is_bottom() {
            return state;
        }
        if !positive {
            return self.state_guard(state, &cond.negate_condition(), true);
        }
        match cond {
            Expr::Binop(Binop::LAnd, _, a, b) => {
                let s1 = self.state_guard(state, a, true);
                self.state_guard(s1, b, true)
            }
            Expr::Binop(Binop::LOr, _, a, b) => {
                let s1 = self.state_guard(state.clone(), a, true);
                let s2 = self.state_guard(state, b, true);
                s1.join(&s2, self.layout, self.packs)
            }
            Expr::Unop(Unop::LNot, _, a)
                if matches!(&**a, Expr::Unop(Unop::LNot, _, _) | Expr::Int(..))
                    || matches!(&**a, Expr::Binop(op, _, _, _)
                        if op.is_comparison() || op.is_logical()) =>
            {
                self.state_guard(state, &a.negate_condition(), true)
            }
            _ => {
                // The cells the condition reads, resolved in the pre-state:
                // the localized reduction below covers only their packs.
                let mut cells = Vec::new();
                cond.for_each_lvalue(&mut |lv| {
                    let r = self.eval.resolve(&state.env, lv);
                    cells.extend_from_slice(&r.cells);
                });
                state.env = self.eval.guard(state.env, cond, true);
                if state.is_bottom() {
                    // Let go of the packs: the other branch of the fork
                    // this guard belongs to can then write its own in place.
                    return AbsState::bottom();
                }
                let t_guard = self.rec_on.then(Instant::now);
                self.oct_guard(&mut state, cond);
                self.dtree_guard(&mut state, cond, true);
                self.op_timed(t_guard, "octagon", "guard", 0);
                let t_red = self.rec_on.then(Instant::now);
                state.reduce_local(self.layout, self.packs, &cells, Some(&mut self.oct_useful));
                self.op_timed(t_red, "octagon", "closure", 0);
                state
            }
        }
    }

    /// Adds octagon constraints for atomic comparisons between pack members.
    fn oct_guard(&mut self, state: &mut AbsState, cond: &Expr) {
        let Expr::Binop(op, t, a, b) = cond else { return };
        if !op.is_comparison() {
            return;
        }
        let cell_of = |e: &Expr, st: &AbsState| -> Option<CellId> {
            match e {
                Expr::Load(lv, _) => {
                    let r = self.eval.resolve(&st.env, lv);
                    (r.strong && r.cells.len() == 1).then(|| r.cells[0])
                }
                _ => None,
            }
        };
        let (ca, cb) = (cell_of(a, state), cell_of(b, state));
        let is_int = matches!(t, ScalarType::Int(_));
        // Strictness margin: integers gain 1, floats use the closed bound.
        let margin = if is_int { 1.0 } else { 0.0 };
        match (ca, cb) {
            (Some(x), Some(y)) => {
                for (pi, (sx, sy)) in self.pack_pairs(x, y) {
                    let mut oct = state.oct(pi, self.packs).into_owned();
                    match op {
                        Binop::Lt => oct.add_diff_le(sx, sy, -margin),
                        Binop::Le => oct.add_diff_le(sx, sy, 0.0),
                        Binop::Gt => oct.add_diff_le(sy, sx, -margin),
                        Binop::Ge => oct.add_diff_le(sy, sx, 0.0),
                        Binop::Eq => {
                            oct.add_diff_le(sx, sy, 0.0);
                            oct.add_diff_le(sy, sx, 0.0);
                        }
                        _ => {}
                    }
                    state.set_oct(pi, oct);
                }
            }
            (Some(x), None) => {
                // x op const-expr.
                if let Some((lo, hi)) = self.const_bounds(state, b) {
                    self.oct_unary_guard(state, x, *op, lo, hi, margin);
                }
            }
            (None, Some(y)) => {
                if let Some((lo, hi)) = self.const_bounds(state, a) {
                    self.oct_unary_guard(state, y, op.swap(), lo, hi, margin);
                }
            }
            _ => {}
        }
    }

    /// Pack and slot pairs shared by two cells.
    fn pack_pairs(&self, x: CellId, y: CellId) -> Vec<(usize, (usize, usize))> {
        let pys = self.packs.oct_index.get(y);
        self.packs
            .oct_index
            .get(x)
            .filter(|pi| pys.clone().any(|p| p == *pi))
            .map(|pi| {
                let sx = self.packs.oct_slot(pi, x).expect("in pack");
                let sy = self.packs.oct_slot(pi, y).expect("in pack");
                (pi, (sx, sy))
            })
            .collect()
    }

    fn const_bounds(&self, state: &AbsState, e: &Expr) -> Option<(f64, f64)> {
        let (v, f) = self.eval.eval(&state.env, e);
        if !f.is_empty() {
            return None;
        }
        match v {
            astree_memory::AbsVal::Int(i) => {
                (!i.is_bottom() && i.lo != i64::MIN && i.hi != i64::MAX)
                    .then_some((i.lo as f64, i.hi as f64))
            }
            astree_memory::AbsVal::Float(fv) => {
                (!fv.is_bottom() && fv.lo.is_finite() && fv.hi.is_finite())
                    .then_some((fv.lo, fv.hi))
            }
        }
    }

    fn oct_unary_guard(
        &mut self,
        state: &mut AbsState,
        x: CellId,
        op: Binop,
        lo: f64,
        hi: f64,
        margin: f64,
    ) {
        for pi in self.packs.oct_index.get(x) {
            let slot = self.packs.oct_slot(pi, x).expect("in pack");
            let mut oct = state.oct(pi, self.packs).into_owned();
            match op {
                Binop::Lt => oct.add_upper(slot, hi - margin),
                Binop::Le => oct.add_upper(slot, hi),
                Binop::Gt => oct.add_lower(slot, lo + margin),
                Binop::Ge => oct.add_lower(slot, lo),
                Binop::Eq => {
                    oct.add_upper(slot, hi);
                    oct.add_lower(slot, lo);
                }
                _ => {}
            }
            state.set_oct(pi, oct);
        }
    }

    /// Prunes decision-tree contexts on boolean guards (`b`, `!b`,
    /// `b == 0/1`).
    fn dtree_guard(&mut self, state: &mut AbsState, cond: &Expr, positive: bool) {
        let (cell, value) = match cond {
            Expr::Load(lv, ScalarType::Int(_)) => {
                let r = self.eval.resolve(&state.env, lv);
                if !(r.strong && r.cells.len() == 1) {
                    return;
                }
                (r.cells[0], positive)
            }
            Expr::Unop(Unop::LNot, _, inner) => {
                return self.dtree_guard(state, inner, !positive);
            }
            Expr::Binop(Binop::Eq, _, a, b) => match (&**a, &**b) {
                (Expr::Load(lv, _), Expr::Int(v, _)) | (Expr::Int(v, _), Expr::Load(lv, _)) => {
                    let r = self.eval.resolve(&state.env, lv);
                    if !(r.strong && r.cells.len() == 1) {
                        return;
                    }
                    (r.cells[0], if *v == 0 { !positive } else { positive })
                }
                _ => return,
            },
            Expr::Binop(Binop::Ne, _, a, b) => match (&**a, &**b) {
                (Expr::Load(lv, _), Expr::Int(v, _)) | (Expr::Int(v, _), Expr::Load(lv, _)) => {
                    let r = self.eval.resolve(&state.env, lv);
                    if !(r.strong && r.cells.len() == 1) {
                        return;
                    }
                    (r.cells[0], if *v == 0 { positive } else { !positive })
                }
                _ => return,
            },
            _ => return,
        };
        for pi in self.packs.dtree_index.get(cell) {
            if self.packs.dtrees[pi].bools.contains(&cell) {
                let g = state.dtree(pi, self.layout, self.packs).guard(cell, value);
                state.set_dtree(pi, g);
            }
        }
    }

    // ----- checking ----------------------------------------------------------

    /// Evaluates an expression purely for its error flags (checking mode).
    fn check_expr(&mut self, state: &AbsState, e: &Expr, s: &Stmt) {
        if state.is_bottom() {
            return;
        }
        let (_, flags) = self.eval.eval(&state.env, e);
        if !flags.is_empty() {
            let ctx = astree_ir::pretty::expr_to_string(self.program, e);
            let fresh = self.sink.report(s.id, s.loc, flags, &ctx);
            self.emit_alarms(s, &ctx, fresh);
        }
    }

    fn report(&mut self, s: &Stmt, flags: ErrFlags, lv: &Lvalue, e: Option<&Expr>) {
        let mut ctx = astree_ir::pretty::lvalue_to_string(self.program, lv);
        if let Some(e) = e {
            ctx.push_str(" = ");
            ctx.push_str(&astree_ir::pretty::expr_to_string(self.program, e));
        }
        let fresh = self.sink.report(s.id, s.loc, flags, &ctx);
        self.emit_alarms(s, &ctx, fresh);
    }

    /// Emits one provenance event per freshly reported alarm kind, tagged
    /// with the surrounding loop context (if any).
    fn emit_alarms(&self, s: &Stmt, ctx: &str, fresh: Vec<crate::alarms::AlarmKind>) {
        if !self.rec_on || fresh.is_empty() {
            return;
        }
        let (loop_id, iteration) = match self.loop_stack.last() {
            Some(&(l, i)) => (Some(l), Some(i)),
            None => (None, None),
        };
        for kind in fresh {
            self.rec.record(&Event::Alarm(AlarmEvent {
                func: self.cur_func(),
                stmt: s.id.0,
                line: s.loc.line,
                kind: kind.slug(),
                domain: kind.domain(),
                context: ctx,
                loop_id,
                iteration,
            }));
        }
    }
}

/// The main loop: the entry function's first top-level constant-true
/// (reactive) loop, else its first top-level loop — the one loop each pass
/// visits exactly once.
fn main_loop(program: &Program) -> Option<LoopId> {
    let top = || {
        program.func(program.entry).body.iter().filter_map(|s| match &s.kind {
            StmtKind::While(id, c, _) => Some((*id, c)),
            _ => None,
        })
    };
    let reactive = top().find(|(_, c)| matches!(c, Expr::Int(v, _) if *v != 0));
    reactive.or_else(|| top().next()).map(|(id, _)| id)
}

/// The loop the census reports on: the main loop, else the first loop
/// anywhere. Such a loop may sit in a callee reached more than once; the
/// invariant reported is then its last visit's in the checking pass.
fn report_loop(program: &Program) -> Option<LoopId> {
    main_loop(program).or_else(|| {
        let mut found = None;
        for f in &program.funcs {
            astree_ir::stmt::for_each_stmt(&f.body, &mut |s| {
                if let (None, StmtKind::While(id, _, _)) = (found, &s.kind) {
                    found = Some(*id);
                }
            });
        }
        found
    })
}

#[cfg(test)]
thread_local! {
    /// A planted fault: the solve of this loop, on this thread, drops a
    /// bound of its invariant as an unsound narrowing would.
    pub(crate) static UNSOUND_NARROWING: std::cell::Cell<Option<u32>> =
        const { std::cell::Cell::new(None) };
}

/// The planted fault of [`UNSOUND_NARROWING`]: lowers the first finite upper
/// bound of an integer cell wider than a point.
#[cfg(test)]
fn drop_a_bound(inv: &mut AbsState) {
    let found = inv.env.iter().find_map(|(c, v)| match v {
        CellVal::Int(x) if x.val.lo < x.val.hi && x.val.hi != i64::MAX => Some((*c, *x)),
        _ => None,
    });
    if let Some((c, mut x)) = found {
        x.val.hi -= 1;
        inv.env.set(c, CellVal::Int(x));
    }
}

/// Cells listed in a leaf (helper for rebuilding a `PackEnv`).
fn cells_of(leaf: &PackEnv) -> Vec<CellId> {
    leaf.cells.iter().map(|(c, _)| *c).collect()
}
