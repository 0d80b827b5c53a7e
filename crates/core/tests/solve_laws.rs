//! Laws of the loop solver (`astree_core::solve`) on synthetic body
//! transfers: no program runs, only a state of five cells (three integers,
//! two floats) laid out from a source that names them, and an `F` built
//! from a generated list of cell operations.
//!
//! - for a monotone `F`, the invariant lies above the base and is a
//!   post-fixpoint, `base ⊔ F(inv) ⊑ inv`, after narrowing: the checking
//!   pass's premise test (`astree_core::solve::premise`) admits it, over the
//!   whole state and over any reduction scope;
//! - for any `F`, the solve terminates within a stated number of
//!   iterations, and `widen_top` counts exactly its iterations past
//!   `max_iterations` that were not unions (the unions of `widening_delay`
//!   and of `stabilization_grace` come first, at any iteration);
//! - for any deterministic `F`, the solve and its reference with every
//!   narrowing cut off find the same invariant, and the cuts do skip passes.
//!
//! A non-monotone `F` can lose the post-fixpoint property to narrowing: the
//! generator finds such cases, and one is pinned below as a non-law.

use astree_core::solve::{premise, reference, solve, LoopRec, Pass, Solved};
use astree_core::{AbsState, AnalysisConfig, Packs};
use astree_domains::{Clocked, FloatItv, IntItv, Thresholds};
use astree_frontend::Frontend;
use astree_memory::{CellId, CellLayout, CellVal, LayoutConfig};
use astree_obs::{Event, Phase, Recorder};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Mutex;

const INTS: usize = 3;
const FLOATS: usize = 2;

/// The cells: `INTS` integers, then `FLOATS` doubles.
struct Space {
    layout: CellLayout,
    packs: Packs,
    cells: Vec<CellId>,
}

fn space() -> Space {
    // The frontend keeps only the globals a statement uses.
    let src = "int i0; int i1; int i2; double f0; double f1;
               void main(void) { i0 = i1 + i2; f0 = f1; }";
    let program = Frontend::new().compile_str(src).expect("compiles");
    let layout = CellLayout::new(&program, &LayoutConfig::default());
    let cells = ["i0", "i1", "i2", "f0", "f1"]
        .iter()
        .map(|n| layout.scalar_cell(program.var_by_name(n).expect("declared")))
        .collect();
    Space { layout, packs: Packs::default(), cells }
}

/// One step of a synthetic body, on integer cell `i` or float cell `f`.
#[derive(Debug, Clone)]
enum Op {
    /// `i = i < cap ? i + 1 : 0`: `i ± clock` shift with `i`, and the
    /// result is reduced against the clock, so a widening can send them to
    /// infinity and narrowing bring them back while `i` stays finite.
    Count(usize, i64),
    /// `i = j`.
    Copy(usize, usize),
    /// `i = i ⊔ j`: a path that may or may not have taken the copy.
    Either(usize, usize),
    /// `f = a·f + b`.
    Affine(usize, f64, f64),
    /// Not monotone: `i = 0` once `i` is wider than `w`, else `i + 1`.
    Fold(usize, i64),
}

impl Op {
    fn monotone(&self) -> bool {
        !matches!(self, Op::Fold(..))
    }
}

fn clocked(s: &AbsState, sp: &Space, i: usize) -> Clocked {
    match s.env.read(sp.cells[i], &sp.layout) {
        CellVal::Int(c) => c,
        v => panic!("not an integer: {v:?}"),
    }
}

fn int(s: &AbsState, sp: &Space, i: usize) -> IntItv {
    clocked(s, sp, i).val
}

fn set_int(s: &mut AbsState, sp: &Space, i: usize, val: IntItv) {
    let clock = s.env.clock;
    s.env.set(sp.cells[i], CellVal::Int(Clocked::of_val(val, clock)));
}

fn float(s: &AbsState, sp: &Space, f: usize) -> FloatItv {
    match s.env.read(sp.cells[INTS + f], &sp.layout) {
        CellVal::Float(v) => v,
        v => panic!("not a float: {v:?}"),
    }
}

/// `F`: the ops in order, on a reachable state.
fn apply(ops: &[Op], sp: &Space, inv: &AbsState) -> Pass {
    let mut s = inv.clone();
    for op in ops {
        if s.is_bottom() {
            break;
        }
        match *op {
            Op::Count(i, cap) => {
                let (c, clock) = (clocked(&s, sp, i), s.env.clock);
                let below = Clocked { val: c.val.meet(IntItv::new(i64::MIN, cap - 1)), ..c };
                let mut next = Clocked::BOTTOM;
                if !below.is_bottom() {
                    next = below.add_const(1);
                }
                if !c.val.meet(IntItv::new(cap, i64::MAX)).is_bottom() {
                    next = next.join(Clocked::of_val(IntItv::singleton(0), clock));
                }
                s.env.set(sp.cells[i], CellVal::Int(next.reduce(clock)));
            }
            Op::Copy(i, j) => {
                let v = s.env.read(sp.cells[j], &sp.layout);
                s.env.set(sp.cells[i], v);
            }
            Op::Either(i, j) => {
                let v = int(&s, sp, i).join(int(&s, sp, j));
                set_int(&mut s, sp, i, v);
            }
            Op::Affine(f, a, b) => {
                let v = float(&s, sp, f);
                let (x, y) = (a * v.lo + b, a * v.hi + b);
                s.env.set(sp.cells[INTS + f], CellVal::Float(FloatItv::new(x.min(y), x.max(y))));
            }
            Op::Fold(i, w) => {
                let v = int(&s, sp, i);
                let wide = v.hi == i64::MAX || v.lo == i64::MIN || v.hi - v.lo > w;
                let next = if wide { IntItv::singleton(0) } else { v.add(IntItv::singleton(1)) };
                set_int(&mut s, sp, i, next);
            }
        }
    }
    Pass { next: s, returned: AbsState::bottom() }
}

fn op(monotone: bool) -> BoxedStrategy<Op> {
    let mut arms = vec![
        (0..INTS, -5i64..120).prop_map(|(i, cap)| Op::Count(i, cap)).boxed(),
        (0..INTS, 0..INTS).prop_map(|(i, j)| Op::Copy(i, j)).boxed(),
        (0..INTS, 0..INTS).prop_map(|(i, j)| Op::Either(i, j)).boxed(),
        (0..FLOATS, -9i64..10, -50i64..50)
            .prop_filter("a ≠ 0", |(_, a, _)| *a != 0)
            .prop_map(|(f, a, b)| Op::Affine(f, a as f64 / 10.0, b as f64))
            .boxed(),
    ];
    if !monotone {
        arms.push((0..INTS, 0i64..40).prop_map(|(i, w)| Op::Fold(i, w)).boxed());
    }
    Union::new(arms).boxed()
}

fn ops(monotone: bool) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op(monotone), 1..7)
}

/// A base state: every cell in a small range, the clock in `[0, t]`.
fn base() -> impl Strategy<Value = (Vec<(i64, i64)>, Vec<(i64, i64)>, i64)> {
    (
        prop::collection::vec((-20i64..20, 0i64..10), INTS),
        prop::collection::vec((-20i64..20, 0i64..10), FLOATS),
        0i64..40,
    )
}

fn base_state(sp: &Space, ints: &[(i64, i64)], floats: &[(i64, i64)], t: i64) -> AbsState {
    let mut s = AbsState::initial(&sp.layout, &sp.packs);
    s.env.clock = IntItv::new(0, t);
    for (i, (lo, w)) in ints.iter().enumerate() {
        set_int(&mut s, sp, i, IntItv::new(*lo, lo + w));
    }
    for (f, (lo, w)) in floats.iter().enumerate() {
        let v = FloatItv::new(*lo as f64, (lo + w) as f64);
        s.env.set(sp.cells[INTS + f], CellVal::Float(v));
    }
    s
}

/// The solver's knobs; thresholds `{1, 10, 100}` (both signs) or none.
fn config() -> impl Strategy<Value = AnalysisConfig> {
    (0u32..4, 0u32..4, 1u32..12, 0u32..4, any::<bool>(), any::<bool>()).prop_map(
        |(delay, grace, max, narrow, thresholds, perturb)| {
            let mut c = AnalysisConfig::default();
            c.widening_delay = delay;
            c.stabilization_grace = grace;
            c.max_iterations = max;
            c.narrowing_iterations = narrow;
            c.thresholds =
                if thresholds { Thresholds::geometric(1.0, 10.0, 2) } else { Thresholds::none() };
            c.float_perturbation = if perturb { 1e-3 } else { 0.0 };
            c
        },
    )
}

/// Records the phase of every iteration.
#[derive(Default)]
struct Phases(Mutex<Vec<(u64, Phase)>>);

impl Recorder for Phases {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&self, event: &Event) {
        if let Event::LoopIter(e) = event {
            self.0.lock().unwrap().push((e.iteration, e.phase));
        }
    }
}

/// Runs the solve and its reference on `F` = `ops`, counting body passes.
fn both(
    sp: &Space,
    base: &AbsState,
    config: &AnalysisConfig,
    ops: &[Op],
) -> (Solved, u64, Solved, u64, Vec<(u64, Phase)>) {
    let phases = Phases::default();
    let rec = LoopRec { rec: &phases, func: "synthetic", loop_id: 0 };
    let calls = Cell::new(0u64);
    let f = |inv: &AbsState| {
        calls.set(calls.get() + 1);
        apply(ops, sp, inv)
    };
    let solved = solve(base, &sp.layout, &sp.packs, config, Some(rec), f);
    let cut_calls = calls.replace(0);
    let f = |inv: &AbsState| {
        calls.set(calls.get() + 1);
        apply(ops, sp, inv)
    };
    let full = reference(base, &sp.layout, &sp.packs, config, f);
    (solved, cut_calls, full, calls.get(), phases.0.into_inner().unwrap())
}

/// `base ⊔ F(inv) ⊑ inv`, as the checking pass tests it at depth 0.
fn post_fixpoint(sp: &Space, base: &AbsState, inv: &AbsState, ops: &[Op]) -> bool {
    premise(base, &apply(ops, sp, inv).next, inv, None, &sp.layout, &sp.packs)
}

/// Bounds one iteration past the budget can send to infinity for good: a
/// threshold-free widening moves at least one, and none comes back.
const BOUNDS: u64 = 6 * INTS as u64 + 2 * FLOATS as u64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn a_monotone_body_gets_a_post_fixpoint_above_the_base(
        ops in ops(true),
        (ints, floats, t) in base(),
        config in config(),
    ) {
        let sp = space();
        let base = base_state(&sp, &ints, &floats, t);
        let (solved, ..) = both(&sp, &base, &config, &ops);
        prop_assert!(base.leq(&solved.inv), "inv ⋣ base: {}", solved.inv);
        let inv = &solved.inv;
        prop_assert!(post_fixpoint(&sp, &base, inv, &ops), "not a post-fixpoint: {inv}");
    }

    #[test]
    fn the_premise_test_admits_every_solve_of_a_monotone_body_in_any_scope(
        ops in ops(true),
        (ints, floats, t) in base(),
        config in config(),
        scoped in proptest::collection::btree_set(0..INTS + FLOATS, 0..=INTS + FLOATS),
    ) {
        let sp = space();
        let base = base_state(&sp, &ints, &floats, t);
        let inv = solve(&base, &sp.layout, &sp.packs, &config, None, |s| apply(&ops, &sp, s)).inv;
        let next = apply(&ops, &sp, &inv).next;
        let scope: BTreeSet<_> = scoped.iter().map(|&i| sp.cells[i]).collect();
        for scope in [None, Some(&scope)] {
            prop_assert!(premise(&base, &next, &inv, scope, &sp.layout, &sp.packs), "{inv}");
        }
    }

    #[test]
    fn any_body_terminates_and_widen_top_counts_the_budget_overrun(
        ops in ops(false),
        (ints, floats, t) in base(),
        config in config(),
    ) {
        let sp = space();
        let base = base_state(&sp, &ints, &floats, t);
        let (solved, cut_calls, _, _, phases) = both(&sp, &base, &config, &ops);
        let s = solved.stats;
        let max = u64::from(config.max_iterations);
        let unions_first = u64::from(config.widening_delay.max(config.max_iterations));
        let grace = u64::from(config.stabilization_grace);
        prop_assert!(s.stabilized_at <= unions_first + grace + BOUNDS + 1, "{s:?}");
        // One event per iteration but the stabilizing one, in order.
        let numbers: Vec<u64> = phases.iter().map(|p| p.0).collect();
        let narrowed = s.stabilized_at + 1..=s.stabilized_at + s.narrowings;
        prop_assert_eq!(numbers, (1..s.stabilized_at).chain(narrowed).collect::<Vec<_>>());
        let past = |p: &&(u64, Phase)| p.0 > max && p.0 < s.stabilized_at;
        let overrun = phases.iter().filter(past).filter(|p| p.1 != Phase::Union).count() as u64;
        prop_assert_eq!(s.widen_top, overrun);
        prop_assert!(phases.iter().filter(past).all(|p| p.1 != Phase::Widen));
        prop_assert!(phases.iter().filter(|p| p.0 <= max).all(|p| p.1 != Phase::WidenTop));
        let late = |p: &&(u64, Phase)| p.0 > unions_first && p.1 == Phase::Union;
        prop_assert!(phases.iter().filter(late).count() as u64 <= grace);
        // One pass per iteration and narrowing; the first narrowing reuses
        // the stabilizing pass unless perturbation moved it.
        let reused = u64::from(s.narrowings > 0 && config.float_perturbation <= 0.0);
        prop_assert_eq!(cut_calls, s.stabilized_at + s.narrowings - reused);
    }

    #[test]
    fn the_narrowing_cuts_never_change_the_invariant(
        ops in ops(false),
        (ints, floats, t) in base(),
        config in config(),
    ) {
        let sp = space();
        let base = base_state(&sp, &ints, &floats, t);
        let (solved, _, full, _, _) = both(&sp, &base, &config, &ops);
        prop_assert!(solved.inv.same(&full.inv), "cut: {}\nreference: {}", solved.inv, full.inv);
        prop_assert_eq!(solved.stats.stabilized_at, full.stats.stabilized_at);
        prop_assert_eq!(full.stats.narrowings, u64::from(config.narrowing_iterations));
    }
}

/// The cuts are not vacuous: over the generated bodies they skip passes,
/// and some solves narrow a bound (so a cut that stopped narrowing early
/// would be caught above).
#[test]
fn the_cuts_skip_passes_and_some_narrowings_refine() {
    let sp = space();
    let mut rng = proptest::test_runner::TestRng::deterministic("solve_laws::cuts");
    let (mut skipped, mut refined) = (0, 0);
    for _ in 0..400 {
        let ops = ops(true).generate(&mut rng);
        let (ints, floats, t) = base().generate(&mut rng);
        let config = config().generate(&mut rng);
        let base = base_state(&sp, &ints, &floats, t);
        let (solved, cut_calls, _, full_calls, _) = both(&sp, &base, &config, &ops);
        skipped += usize::from(cut_calls < full_calls);
        let mut unnarrowed = config.clone();
        unnarrowed.narrowing_iterations = 0;
        let f = |inv: &AbsState| apply(&ops, &sp, inv);
        let stable = solve(&base, &sp.layout, &sp.packs, &unnarrowed, None, f).inv;
        refined += usize::from(!stable.same(&solved.inv));
    }
    assert!(skipped > 100, "the cuts skipped passes in {skipped} of 400 solves");
    assert!(refined > 20, "narrowing refined the invariant in {refined} of 400 solves");
}

/// Not a law: a non-monotone `F` can lose the post-fixpoint property to
/// narrowing. With `i0 = 0` once `i0` is wider than 3, else `i0 + 1`, from
/// `i0 = 0` and no thresholds, the first iterate widens to `[0, +∞]`,
/// where `F` folds to `[0, 0]`: stable. Narrowing then refines the
/// invariant to `base ⊔ F(inv) = [0, 0]`, whose successor `[1, 1]` it does
/// not contain. Should the iterator's own transfers ever do this, the
/// checking pass's premise test names the loop.
#[test]
fn narrowing_a_non_monotone_body_can_leave_the_post_fixpoint() {
    let sp = space();
    let base = base_state(&sp, &[(0, 0), (0, 0), (0, 0)], &[(0, 0), (0, 0)], 0);
    let mut config = AnalysisConfig::default();
    config.widening_delay = 0;
    config.stabilization_grace = 0;
    config.thresholds = Thresholds::none();
    let ops = [Op::Fold(0, 3)];
    let solved = solve(&base, &sp.layout, &sp.packs, &config, None, |inv| apply(&ops, &sp, inv));
    assert_eq!(int(&solved.inv, &sp, 0), IntItv::new(0, 0));
    assert!(!post_fixpoint(&sp, &base, &solved.inv, &ops));
    // Without narrowing the invariant is a post-fixpoint.
    config.narrowing_iterations = 0;
    let wide = solve(&base, &sp.layout, &sp.packs, &config, None, |inv| apply(&ops, &sp, inv));
    assert_eq!(int(&wide.inv, &sp, 0), IntItv::new(0, i64::MAX));
    assert!(post_fixpoint(&sp, &base, &wide.inv, &ops));
}

/// The generator finds such bodies, and only among the non-monotone ones.
#[test]
fn only_non_monotone_bodies_lose_the_post_fixpoint() {
    let sp = space();
    let mut rng = proptest::test_runner::TestRng::deterministic("solve_laws::non_law");
    let mut lost = 0;
    for _ in 0..400 {
        let ops = ops(false).generate(&mut rng);
        let (ints, floats, t) = base().generate(&mut rng);
        let config = config().generate(&mut rng);
        let base = base_state(&sp, &ints, &floats, t);
        let f = |inv: &AbsState| apply(&ops, &sp, inv);
        let inv = solve(&base, &sp.layout, &sp.packs, &config, None, f).inv;
        if !post_fixpoint(&sp, &base, &inv, &ops) {
            assert!(ops.iter().any(|op| !op.monotone()), "{ops:?}");
            lost += 1;
        }
    }
    assert!(lost > 0, "no generated body lost the post-fixpoint");
}
