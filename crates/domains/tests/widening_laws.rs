//! Laws of the clock-aware widening (`astree_domains::widening`): it is an
//! upper bound of both operands, its chains stabilize within a stated number
//! of steps with and without a threshold ramp, and the tick's reduction
//! drops no concrete state.

use astree_domains::{Clocked, IntItv, Octagon, Thresholds, Widening};
use proptest::prelude::*;

const MAX_CLOCK: i64 = 3_600_000;

fn range(lo: i64, hi: i64) -> impl Strategy<Value = IntItv> {
    (lo..hi, lo..hi).prop_map(|(a, b)| IntItv::new(a.min(b), a.max(b)))
}

/// A triple as the analyzer builds one: a value known at a clock, then
/// shifted by some ticks and joined with another such value.
fn clocked() -> impl Strategy<Value = Clocked> {
    (range(-1000, 1000), range(0, 50), range(-1000, 1000), 0i64..5).prop_map(
        |(val, clock, other, ticks)| {
            let mut c = Clocked::of_val(val, clock);
            for _ in 0..ticks {
                c = c.tick(clock.add(IntItv::singleton(1)));
            }
            c.join(Clocked::of_val(other, clock))
        },
    )
}

proptest! {
    /// `a, b ⊑ a ∇ b`, for every widening the solver uses.
    #[test]
    fn clocked_widening_covers_both_operands(
        a in clocked(),
        b in clocked(),
        clock in range(0, MAX_CLOCK),
    ) {
        let ramp = Thresholds::geometric_default();
        let none = Thresholds::none();
        for w in [
            Widening::clocked(&ramp, MAX_CLOCK).at_clock(clock),
            Widening::clocked(&none, MAX_CLOCK).at_clock(clock),
            Widening::from(&ramp),
            Widening::from(&none),
        ] {
            let r = a.widen(b, &w);
            prop_assert!(a.leq(r) && b.leq(r), "{a} ∇ {b} = {r}");
        }
    }

    /// The clock's own widening covers both clocks.
    #[test]
    fn clock_widening_covers_both_operands(a in range(0, 100), b in range(0, 10_000)) {
        let ramp = Thresholds::geometric_default();
        let w = Widening::clocked(&ramp, MAX_CLOCK);
        let r = w.clock(a, b);
        prop_assert!(a.leq(r) && b.leq(r));
    }

    /// `a, b ⊑ a ∇ b` for octagons whose entries jump to the bounds of
    /// their variables' intervals (one integer variable, one float).
    #[test]
    fn octagon_widening_covers_both_operands(
        xa in range(-100, 100), xb in range(-100, 100), ya in -50.0f64..50.0, yb in -50.0f64..50.0,
        int in range(-1000, 1000),
    ) {
        let point = |x: IntItv, y: f64| {
            let mut o = Octagon::top(2);
            o.assign_interval(0, astree_domains::FloatItv::new(x.lo as f64, x.hi as f64));
            o.assign_interval(1, astree_domains::FloatItv::new(y, y));
            o
        };
        let (mut a, mut b) = (point(xa, ya), point(xb, yb));
        a.close();
        let ramp = Thresholds::geometric_default();
        let vars = [xa.join(xb).join(int), IntItv::TOP];
        let w = Widening::clocked(&ramp, MAX_CLOCK).at_clock(IntItv::new(0, 9)).over(&vars);
        let r = a.widen(&mut b, &w);
        prop_assert!(a.clone().leq(&r) && b.clone().leq(&r));
    }

    /// The tick keeps every concrete state: `x` at `t` ticks in `c` means
    /// `x` at `t + 1` ticks in `c.tick(clock + 1)`.
    #[test]
    fn the_tick_and_its_reduction_keep_every_sample(
        c in clocked(),
        clock in range(0, 60),
        samples in prop::collection::vec((-2000i64..2000, 0i64..60), 40),
    ) {
        let next = clock.add(IntItv::singleton(1)).meet(IntItv::new(0, MAX_CLOCK));
        let ticked = c.tick(next);
        for (x, t) in samples {
            if clock.contains(t) && c.contains(x, t) {
                prop_assert!(ticked.contains(x, t + 1), "{c} at {t}: {x} left {ticked}");
            }
        }
    }
}

/// One loop of the abstract solver on a single clocked cell: `x := x + k`
/// (the branch joined with `x` itself unless `always`), then `wait`, from
/// `x = 0` at clock 0, widened with `w` (unions for the first two
/// iterations). Returns the widenings it took and the invariant.
fn solve(k: i64, always: bool, thresholds: &Thresholds) -> (u32, IntItv, Clocked) {
    let w = Widening::clocked(thresholds, MAX_CLOCK);
    let base_clock = IntItv::singleton(0);
    let base = Clocked::of_val(IntItv::singleton(0), base_clock);
    let (mut clock, mut x) = (base_clock, base);
    let mut widenings = 0;
    for iter in 1..=100 {
        let bumped = x.add_const(k);
        let body = if always { bumped } else { x.join(bumped) };
        let next_clock = clock.add(IntItv::singleton(1)).meet(IntItv::new(0, MAX_CLOCK));
        let (fclock, fx) =
            (base_clock.join(next_clock), base.join(body.tick(next_clock).reduce(next_clock)));
        if fclock.leq(clock) && fx.leq(x) {
            return (widenings, clock, x);
        }
        if iter <= 2 {
            (clock, x) = (clock.join(fclock), x.join(fx));
        } else {
            widenings += 1;
            let c = w.clock(clock, fclock);
            x = x.widen(fx, &w.at_clock(c));
            clock = c;
        }
    }
    panic!("no post-fixpoint in 100 iterations");
}

#[test]
fn chains_stabilize_within_a_stated_number_of_widenings() {
    for thresholds in [Thresholds::geometric_default(), Thresholds::none()] {
        // An event counter: at most `max_clock` once the clock is bounded.
        let (n, clock, x) = solve(1, false, &thresholds);
        assert!(n <= 2, "+1 counter: {n} widenings");
        assert_eq!(clock.hi, MAX_CLOCK);
        assert_eq!(x.reduce(clock).val, IntItv::new(0, MAX_CLOCK));
        // A constant: stable from the start, its `x − clock` kept reduced.
        let (n, _, x) = solve(0, false, &thresholds);
        assert!(n <= 1, "constant: {n} widenings");
        assert_eq!(x.val, IntItv::singleton(0));
        assert_eq!(x.minus, IntItv::new(-MAX_CLOCK, 0));
        // A down-counter: bounded by `−max_clock`.
        let (n, _, x) = solve(-1, false, &thresholds);
        assert!(n <= 2, "−1 counter: {n} widenings");
        assert_eq!(x.val, IntItv::new(-MAX_CLOCK, 0));
        // An accumulator of 10⁶ per tick: the clock bounds no part of it,
        // so it climbs the ramp from 10⁶ to 10¹² (or jumps to ∞), and stops.
        let (n, _, x) = solve(1_000_000, true, &thresholds);
        assert!(n <= 7, "+10⁶ accumulator: {n} widenings");
        assert_eq!(x.val.hi, i64::MAX);
    }
}
