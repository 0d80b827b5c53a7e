//! The loop solver (paper Sect. 5.5 and 7.1.2–7.1.4), a function of the
//! body transfer `F` = `guard(inv, c); body`, one body pass.
//!
//! [`solve`] finds an invariant of the residual loop (past the unrolled
//! prefix) above the post-unroll iterate `base`. Until `base ⊔ F(inv) ⊑ inv`
//! it takes unions while `widening_delay` lasts and while the unstable cells
//! keep shrinking (`stabilization_grace` such unions past the delay,
//! Sect. 7.1.3), else widenings with thresholds up to `max_iterations`
//! (Sect. 7.1.2), in which a bound the clock bounds jumps to it
//! ([`astree_domains::widening`]) and a widening that jumped is followed by
//! a union, then threshold-free ones ([`Phase::WidenTop`]); float
//! bounds are perturbed by `float_perturbation` (Sect. 7.1.4). Then come at
//! most `narrowing_iterations` narrowings (Sect. 5.5), each only while a
//! bound could narrow and the one before refined something, the first on
//! the stabilizing `F(inv)`: cuts that skip only passes that would reproduce
//! the invariant bit for bit ([`reference()`] runs them all).
//!
//! Both passes of the iterator call it, the checking pass on a scratch
//! iterator; the caller applies the loop-done reduction ([`reduce_above`])
//! and joins [`Solved::returned`] into the function's returns. The checking
//! pass admits an invariant only if it passes [`premise`].

use crate::config::AnalysisConfig;
use crate::packs::Packs;
use crate::state::AbsState;
use astree_domains::{FloatItv, Thresholds, Widening};
use astree_memory::{AbsEnv, CellId, CellLayout, CellVal};
use astree_obs::{Event, Grown, LoopDoneEvent, LoopIterEvent, Phase, Recorder};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::time::Instant;

/// One body pass `F(inv)`.
pub struct Pass {
    /// The state arriving at the loop head again (the back edge).
    pub next: AbsState,
    /// The state leaving the function through a `return` in the body.
    pub returned: AbsState,
}

/// What one solve counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolveStats {
    /// The iteration that found the post-fixpoint: the number of unions,
    /// widenings and threshold-free widenings, plus one.
    pub stabilized_at: u64,
    /// Narrowings applied after it.
    pub narrowings: u64,
    /// Threshold-free widenings: the iterations past `max_iterations` that
    /// were not unions.
    pub widen_top: u64,
}

/// A solved loop.
pub struct Solved {
    /// The invariant, before any loop-done reduction.
    pub inv: AbsState,
    /// What `F` returned through `return` from the invariant the solve
    /// stabilized on, above every concrete iterate: every return it takes.
    pub returned: AbsState,
    /// The counts.
    pub stats: SolveStats,
}

/// Where a solve's `LoopIter` and `LoopDone` events go.
#[derive(Clone, Copy)]
pub struct LoopRec<'a> {
    /// The recorder (an enabled one: a solve without telemetry gets `None`).
    pub rec: &'a dyn Recorder,
    /// The function holding the loop.
    pub func: &'a str,
    /// The loop.
    pub loop_id: u32,
}

/// Solves the residual loop above `base`, `F` being `f` (see the module
/// documentation). The one selection point of the narrowing cuts: a
/// `reference` build solves as [`reference()`] does, recording as this does.
pub fn solve(
    base: &AbsState,
    layout: &CellLayout,
    packs: &Packs,
    config: &AnalysisConfig,
    rec: Option<LoopRec>,
    f: impl FnMut(&AbsState) -> Pass,
) -> Solved {
    solve_with(!cfg!(feature = "reference"), base, layout, packs, config, rec, f)
}

/// The specification of [`solve`]'s narrowing cuts: the same solve with
/// every cut off, running all `narrowing_iterations` narrowings, each on a
/// fresh `F(inv)`, and recording nothing. For a deterministic `F` the two
/// find the same invariant; the tests hold them to it.
pub fn reference(
    base: &AbsState,
    layout: &CellLayout,
    packs: &Packs,
    config: &AnalysisConfig,
    f: impl FnMut(&AbsState) -> Pass,
) -> Solved {
    solve_with(false, base, layout, packs, config, None, f)
}

fn solve_with(
    cuts: bool,
    base: &AbsState,
    layout: &CellLayout,
    packs: &Packs,
    config: &AnalysisConfig,
    rec: Option<LoopRec>,
    mut f: impl FnMut(&AbsState) -> Pass,
) -> Solved {
    let mut stats = SolveStats::default();
    let mut inv = base.clone();
    let mut grace = config.stabilization_grace;
    let mut prev_unstable = usize::MAX;
    // `--no-clock` keeps no `x ± clock` parts to jump from, and so widens
    // on the plain ramp.
    let jumped = Cell::new(false);
    let widening = match config.enable_clocked {
        true => Widening::clocked(&config.thresholds, config.max_clock).noting_jumps(&jumped),
        false => Widening::from(&config.thresholds),
    };
    let no_thresholds = Thresholds::none();
    let returned;
    // `F(inv)` of the stabilizing iteration, computed from the very
    // invariant narrowing starts from (unless perturbation moved it).
    let mut stable_fval;
    loop {
        stats.stabilized_at += 1;
        let iter = stats.stabilized_at;
        let mut pass = f(&inv);
        perturb(&mut pass.next, config.float_perturbation);
        let fval = base.join(&pass.next, layout, packs);
        if fval.leq(&inv) {
            returned = pass.returned;
            stable_fval = (config.float_perturbation <= 0.0).then_some(fval);
            break;
        }
        let unstable = inv.env.count_diff(&fval.env);
        let stabilizing = unstable < prev_unstable && grace > 0;
        prev_unstable = unstable;
        // Snapshot the invariant's env (cheap: persistent map) so the
        // event can classify which bounds moved and how, and count what
        // held the iteration open.
        let before = rec.map(|_| (inv.env.clone(), fval.grown(&inv), Instant::now()));
        let phase;
        // After a widening that jumped, a union (within the budget): what
        // is computed from a jumped bound (`dout` from `count`) moves one
        // visit later, and settles where it lands instead of climbing the
        // ramp.
        let after_jump = jumped.replace(false) && iter <= u64::from(config.max_iterations);
        if iter <= u64::from(config.widening_delay) || stabilizing || after_jump {
            if stabilizing && iter > u64::from(config.widening_delay) {
                grace -= 1;
            }
            phase = Phase::Union;
            inv = inv.join(&fval, layout, packs);
        } else if iter <= u64::from(config.max_iterations) {
            phase = Phase::Widen;
            inv = inv.widen(&fval, layout, packs, &widening);
        } else {
            // Hard cap: finish with threshold-free widening.
            phase = Phase::WidenTop;
            stats.widen_top += 1;
            inv = inv.widen(&fval, layout, packs, &Widening::from(&no_thresholds));
        }
        if let (Some(r), Some((before, grown, t0))) = (rec, before) {
            let op = if phase == Phase::Union { "join" } else { "widen" };
            let (threshold_hits, infinity_escapes) = widen_deltas(layout, &before, &inv.env);
            let counts = LoopIterEvent {
                unstable_cells: unstable as u64,
                threshold_hits,
                infinity_escapes,
                grown,
                ..r.event(iter, phase)
            };
            r.iteration(t0, op, counts);
        }
    }
    // Narrowing iterations (Sect. 5.5). `narrow` rewrites nothing but
    // infinite bounds and `F` is deterministic, so a pass from an invariant
    // with no such bound, or after a pass that refined nothing, would
    // reproduce `inv` bit for bit. Both tests are on values, never on
    // `ptr_eq`: the work done must not depend on sharing.
    while stats.narrowings < u64::from(config.narrowing_iterations) && (!cuts || inv.narrowable()) {
        stats.narrowings += 1;
        let fval = match stable_fval.take().filter(|_| cuts) {
            Some(fval) => fval,
            None => base.join(&f(&inv).next, layout, packs),
        };
        let t0 = rec.map(|_| Instant::now());
        let next = inv.narrow(&fval);
        let settled = next.same(&inv);
        inv = next;
        if let (Some(r), Some(t0)) = (rec, t0) {
            let iter = stats.stabilized_at + stats.narrowings;
            r.iteration(t0, "narrow", r.event(iter, Phase::Narrow));
        }
        if settled && cuts {
            break;
        }
    }
    if let Some(r) = rec {
        r.rec.record(&Event::LoopDone(LoopDoneEvent {
            func: r.func,
            loop_id: r.loop_id,
            iterations: stats.stabilized_at + stats.narrowings,
            stabilized_at: stats.stabilized_at,
        }));
    }
    Solved { inv, returned, stats }
}

/// The loop-done reduction of `st`, a state solved above `base`: over
/// `scope` plus the cells `st` moved from `base` (enumerated by `diff2` in
/// proportion to the diff, alike with sharing on and off), or over the whole
/// state when `scope` is `None` (see `parallel::loop_done_scope`). `useful`
/// is credited per octagon pack that tightened a cell.
pub fn reduce_above(
    st: &mut AbsState,
    base: &AbsState,
    scope: Option<&BTreeSet<CellId>>,
    layout: &CellLayout,
    packs: &Packs,
    useful: Option<&mut [usize]>,
) {
    match scope {
        Some(cells) => {
            let mut cells: Vec<CellId> = cells.iter().copied().collect();
            base.env.changed_cells(&st.env, &mut cells);
            cells.sort_unstable();
            cells.dedup();
            st.reduce_local(layout, packs, &cells, useful)
        }
        None => st.reduce_counting(layout, packs, useful),
    };
}

/// The premise of the checking pass (Sect. 5.3–5.4): `inv` is inductive in
/// the context `cur` it arrives in, `reduce(cur ⊔ F(inv)) ⊑ inv`, `next`
/// being the back edge of `F(inv)`. The reduction is the loop-done one over
/// `scope` ([`reduce_above`]) and credits no pack: [`AbsState::leq`]
/// compares component by component, which is not the reduced product's
/// order, and the loop-done reduction rewrote `inv` in that product.
pub fn premise(
    cur: &AbsState,
    next: &AbsState,
    inv: &AbsState,
    scope: Option<&BTreeSet<CellId>>,
    layout: &CellLayout,
    packs: &Packs,
) -> bool {
    let mut post = cur.join(next, layout, packs);
    reduce_above(&mut post, cur, scope, layout, packs, None);
    post.leq(inv)
}

impl<'a> LoopRec<'a> {
    /// The `LoopIter` event of iteration `n` of this loop, its counts zero.
    fn event(&self, n: u64, phase: Phase) -> LoopIterEvent<'a> {
        LoopIterEvent {
            func: self.func,
            loop_id: self.loop_id,
            iteration: n,
            phase,
            unstable_cells: 0,
            threshold_hits: 0,
            infinity_escapes: 0,
            grown: Grown::default(),
        }
    }

    /// Records one iteration: the state operation `op` it applied (timed
    /// from `t0`), then its `LoopIter` event.
    fn iteration(&self, t0: Instant, op: &'static str, event: LoopIterEvent) {
        let nanos = t0.elapsed().as_nanos() as u64;
        self.rec.record(&Event::DomainOp { domain: "state", op, nanos });
        self.rec.record(&Event::LoopIter(event));
    }
}

/// Floating iteration perturbation (Sect. 7.1.4): inflates float bounds by
/// a relative `eps` so near-stable iterates are recognized as stable.
fn perturb(state: &mut AbsState, eps: f64) {
    if eps <= 0.0 || state.is_bottom() {
        return;
    }
    state.env.set_each(|v| match v {
        CellVal::Float(f) if !f.is_bottom() => {
            let lo = f.lo - eps * f.lo.abs();
            let hi = f.hi + eps * f.hi.abs();
            Some(CellVal::Float(FloatItv::new(lo, hi)))
        }
        _ => None,
    });
}

/// Diffs the invariant environment across one join/widen step: a bound that
/// grew to a finite value is a threshold hit, one that escaped to the
/// type's extreme is an infinity escape; an integer cell's `x ± clock`
/// parts count as bounds too. Driven by the changed-cell set (`diff2` skips
/// shared subtrees wholesale), not a full env walk.
fn widen_deltas(layout: &CellLayout, before: &AbsEnv, after: &AbsEnv) -> (u64, u64) {
    let (mut hits, mut escapes) = (0u64, 0u64);
    let mut count = |grew: bool, infinite: bool| {
        if grew {
            *(if infinite { &mut escapes } else { &mut hits }) += 1;
        }
    };
    let mut changed = Vec::new();
    before.changed_cells(after, &mut changed);
    for id in changed {
        match (before.read(id, layout), after.read(id, layout)) {
            (CellVal::Int(o), CellVal::Int(n)) => {
                for (o, n) in [(o.val, n.val), (o.minus, n.minus), (o.plus, n.plus)] {
                    count(n.lo < o.lo, n.lo == i64::MIN);
                    count(n.hi > o.hi, n.hi == i64::MAX);
                }
            }
            (CellVal::Float(o), CellVal::Float(n)) => {
                count(n.lo < o.lo, n.lo == f64::NEG_INFINITY);
                count(n.hi > o.hi, n.hi == f64::INFINITY);
            }
            _ => {}
        }
    }
    (hits, escapes)
}
