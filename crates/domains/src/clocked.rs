//! The clocked abstract domain (paper Sect. 6.2.1).
//!
//! A triple `(v, v⁻, v⁺)` abstracts the values `x` with `x ∈ γ(v)`,
//! `x − clock ∈ γ(v⁻)` and `x + clock ∈ γ(v⁺)`, where `clock` is the hidden
//! variable counting `wait` ticks. Event counters incremented at most once
//! per cycle have a stable `v⁻` (e.g. `x − clock ≤ 0`), so even when plain
//! interval widening loses the counter's upper bound, reduction against the
//! bounded clock (`clock ∈ [0, T]`, `T` the maximal continuous operating
//! time) recovers `x ≤ T`.

use crate::int_interval::IntItv;
use crate::widening::Widening;
use std::fmt;

/// A clocked integer value: interval plus clock-relative bounds.
///
/// # Examples
///
/// ```
/// use astree_domains::{Clocked, IntItv};
/// // A counter starting at 0 with clock 0.
/// let clock0 = IntItv::singleton(0);
/// let c = Clocked::of_val(IntItv::singleton(0), clock0);
/// // One increment per tick keeps x - clock <= 0 stable.
/// let bumped = c.add_const(1).tick(IntItv::singleton(1));
/// assert!(bumped.minus.hi <= 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clocked {
    /// Bounds on `x`.
    pub val: IntItv,
    /// Bounds on `x − clock`.
    pub minus: IntItv,
    /// Bounds on `x + clock`.
    pub plus: IntItv,
}

impl Clocked {
    /// Bottom (unreachable).
    pub const BOTTOM: Clocked =
        Clocked { val: IntItv::BOTTOM, minus: IntItv::BOTTOM, plus: IntItv::BOTTOM };

    /// Top (no information).
    pub const TOP: Clocked = Clocked { val: IntItv::TOP, minus: IntItv::TOP, plus: IntItv::TOP };

    /// Builds the triple for a value known only as `val`, given the current
    /// clock bounds.
    pub fn of_val(val: IntItv, clock: IntItv) -> Clocked {
        Clocked { val, minus: val.sub(clock), plus: val.add(clock) }
    }

    /// `true` when any component is empty.
    pub fn is_bottom(self) -> bool {
        self.val.is_bottom()
    }

    /// Pointwise inclusion.
    pub fn leq(self, other: Clocked) -> bool {
        self.val.leq(other.val) && self.minus.leq(other.minus) && self.plus.leq(other.plus)
    }

    /// Pointwise join.
    #[must_use]
    pub fn join(self, other: Clocked) -> Clocked {
        Clocked {
            val: self.val.join(other.val),
            minus: self.minus.join(other.minus),
            plus: self.plus.join(other.plus),
        }
    }

    /// Pointwise meet.
    #[must_use]
    pub fn meet(self, other: Clocked) -> Clocked {
        Clocked {
            val: self.val.meet(other.val),
            minus: self.minus.meet(other.minus),
            plus: self.plus.meet(other.plus),
        }
    }

    /// Pointwise widening with thresholds, where a bound that the clock
    /// bounds jumps straight to that bound (see [`crate::widening`]). The
    /// bound is computed from a component that did not move in this step,
    /// `clock.hi` being the widened clock's upper bound:
    ///
    /// - `x ≤ (x − clock).hi + clock.hi` and `x ≥ (x + clock).lo − clock.hi`;
    /// - `x − clock ≥ x.lo − clock.hi` and `x + clock ≤ x.hi + clock.hi`.
    ///
    /// A grown bound jumps only when its target covers the new value; else,
    /// and for `(x − clock).hi` and `(x + clock).lo`, it climbs the ramp.
    #[must_use]
    pub fn widen(self, other: Clocked, w: &Widening) -> Clocked {
        let t = w.thresholds();
        let mut out = Clocked {
            val: self.val.widen(other.val, t),
            minus: self.minus.widen(other.minus, t),
            plus: self.plus.widen(other.plus, t),
        };
        let Some(clock) = w.clock_hi() else { return out };
        if self.is_bottom() || other.is_bottom() {
            return out;
        }
        // `from` did not move (so `out` holds its old bound), `to` grew: the
        // jump target `from ± clock`, when finite and covering the new value.
        let up = |from_still: bool, from: i64, old: i64, new: i64| -> Option<i64> {
            let to = from.checked_add(clock).filter(|to| *to < i64::MAX)?;
            (from_still && new > old && to >= new).then_some(to)
        };
        let down = |from_still: bool, from: i64, old: i64, new: i64| -> Option<i64> {
            let to = from.checked_sub(clock).filter(|to| *to > i64::MIN)?;
            (from_still && new < old && to <= new).then_some(to)
        };
        let (a, b) = (self, other);
        if let Some(hi) = up(b.minus.hi <= a.minus.hi, a.minus.hi, a.val.hi, b.val.hi) {
            out.val.hi = hi;
            w.note_jump();
        }
        if let Some(lo) = down(b.plus.lo >= a.plus.lo, a.plus.lo, a.val.lo, b.val.lo) {
            out.val.lo = lo;
            w.note_jump();
        }
        if let Some(lo) = down(b.val.lo >= a.val.lo, a.val.lo, a.minus.lo, b.minus.lo) {
            out.minus.lo = lo;
            w.note_jump();
        }
        if let Some(hi) = up(b.val.hi <= a.val.hi, a.val.hi, a.plus.hi, b.plus.hi) {
            out.plus.hi = hi;
            w.note_jump();
        }
        out
    }

    /// Pointwise narrowing.
    #[must_use]
    pub fn narrow(self, other: Clocked) -> Clocked {
        Clocked {
            val: self.val.narrow(other.val),
            minus: self.minus.narrow(other.minus),
            plus: self.plus.narrow(other.plus),
        }
    }

    /// Transfer for `x := x + c`: all three components shift.
    #[must_use]
    pub fn add_const(self, c: i64) -> Clocked {
        let k = IntItv::singleton(c);
        Clocked { val: self.val.add(k), minus: self.minus.add(k), plus: self.plus.add(k) }
    }

    /// Transfer for the clock tick (`wait`) to the new clock `clock`:
    /// `x − clock` shrinks by one and `x + clock` grows by one, then the
    /// triple is reduced at `clock`, so that `x ± clock` never drifts one
    /// unit per tick past what `x` and the clock imply (a constant `x = 2`
    /// keeps `x − clock` in `[2 − clock.hi, 2 − clock.lo]`).
    #[must_use]
    pub fn tick(self, clock: IntItv) -> Clocked {
        let one = IntItv::singleton(1);
        let shifted =
            Clocked { val: self.val, minus: self.minus.sub(one), plus: self.plus.add(one) };
        #[cfg(test)]
        if tests::UNSHIFTED_TICK.get() {
            return Clocked { minus: self.minus, ..shifted };
        }
        shifted.reduce(clock)
    }

    /// `true` when the concrete value `x`, observed after `ticks` clock
    /// ticks, lies in the concretization: `x ∈ γ(v)`, `x − ticks ∈ γ(v⁻)`
    /// and `x + ticks ∈ γ(v⁺)`.
    pub fn contains(self, x: i64, ticks: i64) -> bool {
        self.val.contains(x)
            && self.minus.contains(x.saturating_sub(ticks))
            && self.plus.contains(x.saturating_add(ticks))
    }

    /// Reduction: refine `val` using the clock bounds
    /// (`x = (x − clock) + clock = (x + clock) − clock`).
    #[must_use]
    pub fn reduce(self, clock: IntItv) -> Clocked {
        if self.is_bottom() {
            return Clocked::BOTTOM;
        }
        let from_minus = self.minus.add(clock);
        let from_plus = self.plus.sub(clock);
        let val = self.val.meet(from_minus).meet(from_plus);
        // And the reverse reductions keep the triple coherent.
        let minus = self.minus.meet(val.sub(clock));
        let plus = self.plus.meet(val.add(clock));
        Clocked { val, minus, plus }
    }
}

impl fmt::Display for Clocked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(v={}, v-clk={}, v+clk={})", self.val, self.minus, self.plus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::Thresholds;

    thread_local! {
        /// A planted fault: [`Clocked::tick`] leaves `x − clock` unshifted.
        pub(super) static UNSHIFTED_TICK: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    /// Runs `x := 0; loop { if (even tick) x := x + 1; wait }` concretely
    /// and abstractly (joining both branches, unreduced) and answers, for
    /// every state, whether `x` stayed in the value interval and whether it
    /// stayed in [`Clocked::contains`].
    fn counter_stays_contained() -> (bool, bool) {
        let mut abs = Clocked::of_val(IntItv::singleton(0), IntItv::singleton(0));
        let (mut x, mut in_val, mut in_all) = (0, true, true);
        for tick in 0..=6 {
            in_val &= abs.val.contains(x);
            in_all &= abs.contains(x, tick);
            if tick % 2 == 0 {
                x += 1;
            }
            abs = abs.join(abs.add_const(1)).tick(IntItv::singleton(tick + 1));
        }
        (in_val, in_all)
    }

    #[test]
    fn contains_catches_a_tick_that_leaves_x_minus_clock_unshifted() {
        assert_eq!(counter_stays_contained(), (true, true));
        UNSHIFTED_TICK.set(true);
        let faulty = counter_stays_contained();
        UNSHIFTED_TICK.set(false);
        // The value interval is untouched by the fault; only `x − clock` is
        // wrong, and only the clock-relative check sees it.
        assert_eq!(faulty, (true, false), "the planted fault went unseen");
    }

    #[test]
    fn counter_stays_bounded_by_clock() {
        // Simulate: x := 0; loop { if (event) x := x + 1; wait }
        // with widening on val but a stable minus component.
        let clock_max = 1000;
        let mut x = Clocked::of_val(IntItv::singleton(0), IntItv::singleton(0));
        let t = Thresholds::none();
        let w = Widening::from(&t);
        // Abstract loop: join of (x) and (x+1), then tick, widened.
        for n in 0..5 {
            let body = x.join(x.add_const(1)).tick(IntItv::new(1, n + 1));
            x = x.widen(body, &w);
        }
        // val has been widened away…
        assert_eq!(x.val.hi, i64::MAX);
        // …but reduction against clock ∈ [0, 1000] recovers the bound.
        let reduced = x.reduce(IntItv::new(0, clock_max));
        assert!(reduced.val.hi <= clock_max + 1, "{}", reduced.val);
        assert!(reduced.val.lo >= 0);
    }

    #[test]
    fn of_val_is_coherent() {
        let c = Clocked::of_val(IntItv::new(3, 5), IntItv::new(0, 10));
        assert_eq!(c.minus, IntItv::new(-7, 5));
        assert_eq!(c.plus, IntItv::new(3, 15));
        // Reduction of a coherent triple is the identity on val.
        assert_eq!(c.reduce(IntItv::new(0, 10)).val, c.val);
    }

    #[test]
    fn lattice_ops_pointwise() {
        let a = Clocked::of_val(IntItv::new(0, 1), IntItv::singleton(0));
        let b = Clocked::of_val(IntItv::new(2, 3), IntItv::singleton(0));
        let j = a.join(b);
        assert_eq!(j.val, IntItv::new(0, 3));
        assert!(a.leq(j) && b.leq(j));
        assert!(a.meet(b).is_bottom());
    }

    #[test]
    fn narrow_recovers_from_top() {
        let w = Clocked::TOP;
        let f = Clocked::of_val(IntItv::new(0, 7), IntItv::new(0, 3));
        let n = w.narrow(f);
        assert_eq!(n.val, f.val);
    }
}
