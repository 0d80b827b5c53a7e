//! What one widening step may jump to (paper Sect. 6.2.1 and 7.1.2).
//!
//! A bound that grew climbs the threshold ramp one rung per widening. A
//! bound that the clock bounds needs no ramp: the clock never exceeds
//! `max_clock`, so an event counter `x` with a stable `x − clock ≤ c` is
//! bounded by `c + max_clock` the first time it grows. [`Widening`] carries
//! the ramp and, while widening with thresholds, the clock's bound, so that
//! every such bound jumps straight to it:
//!
//! - the clock's upper bound jumps to `max_clock` ([`Widening::clock`]);
//! - a clocked cell's bound jumps to the one the clock implies from a
//!   component that did not move in this step ([`crate::Clocked::widen`]);
//! - an octagon entry over integer variables jumps to the bound their
//!   widened intervals imply ([`crate::Octagon::widen`]).
//!
//! The loop solver follows a widening that jumped with a union: a value
//! computed from a jumped bound (`dout := drift * k` from a counter) moves
//! one visit later, and a union lets it settle where it lands instead of
//! rounding it up the ramp ([`Widening::noting_jumps`]); it takes those
//! unions only within its iteration budget, past which it widens without
//! thresholds and without jumps.
//!
//! A jump is taken only when its bound covers the new value, so the result
//! is an upper bound of both operands. Termination holds because each jump
//! target is computed from widened values, which change finitely often:
//! jumping from a component that is still moving would chase it forever.
//! A singleton clock implies nothing a join would not (its jump target is
//! the new value), so it makes no jump, and neither does an octagon in a
//! loop whose clock stays a singleton: its intervals climbed the ramp, and
//! their box bound would drop relations the ramp keeps.

use crate::int_interval::IntItv;
use crate::thresholds::Thresholds;
use std::cell::Cell;

/// The ramp of one widening step, plus the clock's bound when the bounds it
/// bounds may jump (see the module documentation).
#[derive(Debug, Clone, Copy)]
pub struct Widening<'a> {
    thresholds: &'a Thresholds,
    /// `Some(max_clock)` while clock-bounded bounds jump.
    max_clock: Option<i64>,
    /// The widened clock that the clocked cells' jumps read.
    clock: IntItv,
    /// The widened interval of each octagon variable, ⊤ for a float one.
    vars: &'a [IntItv],
    /// Set when a bound jumped.
    jumped: Option<&'a Cell<bool>>,
}

impl<'a> From<&'a Thresholds> for Widening<'a> {
    /// The plain ramp: no bound jumps.
    fn from(thresholds: &'a Thresholds) -> Widening<'a> {
        Widening { thresholds, max_clock: None, clock: IntItv::TOP, vars: &[], jumped: None }
    }
}

impl<'a> Widening<'a> {
    /// The ramp plus the clock's bound `max_clock`: the widening of
    /// `Phase::Widen`.
    pub fn clocked(thresholds: &'a Thresholds, max_clock: i64) -> Widening<'a> {
        Widening { max_clock: Some(max_clock), ..Widening::from(thresholds) }
    }

    /// This widening, setting `jumped` whenever a bound jumps.
    #[must_use]
    pub fn noting_jumps(self, jumped: &'a Cell<bool>) -> Widening<'a> {
        Widening { jumped: Some(jumped), ..self }
    }

    /// The threshold ramp.
    pub fn thresholds(&self) -> &'a Thresholds {
        self.thresholds
    }

    /// Records that a bound jumped.
    pub(crate) fn note_jump(&self) {
        if let Some(jumped) = self.jumped {
            jumped.set(true);
        }
    }

    /// Widens the clock: a grown upper bound jumps to `max_clock` when that
    /// covers it, else climbs the ramp.
    #[must_use]
    pub fn clock(&self, old: IntItv, new: IntItv) -> IntItv {
        let mut out = old.widen(new, self.thresholds);
        if let Some(max) = self.max_clock {
            if !old.is_bottom() && !new.is_bottom() && new.hi > old.hi && new.hi <= max {
                out.hi = max;
                self.note_jump();
            }
        }
        out
    }

    /// This widening for the cells of a state whose clock widened to
    /// `clock`.
    #[must_use]
    pub fn at_clock(self, clock: IntItv) -> Widening<'a> {
        Widening { clock, ..self }
    }

    /// This widening for an octagon whose variables' widened intervals are
    /// `vars` (⊤ for a float variable).
    #[must_use]
    pub fn over(self, vars: &'a [IntItv]) -> Widening<'a> {
        Widening { vars, ..self }
    }

    /// The clock's upper bound, when a clocked cell may jump: jumps are on
    /// and the clock is finite and not a singleton.
    pub(crate) fn clock_hi(&self) -> Option<i64> {
        let c = self.clock;
        (self.max_clock.is_some() && !c.is_bottom() && c.lo < c.hi && c.hi < i64::MAX)
            .then_some(c.hi)
    }

    /// The octagon variables' widened intervals, when an entry may jump:
    /// as for [`Widening::clock_hi`], only in a loop whose clock moves.
    pub(crate) fn vars(&self) -> Option<&'a [IntItv]> {
        (self.clock_hi().is_some() && !self.vars.is_empty()).then_some(self.vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_jumps_to_max_clock_only_with_jumps_on() {
        let t = Thresholds::geometric_default();
        let (old, new) = (IntItv::new(1, 2), IntItv::new(1, 3));
        assert_eq!(Widening::clocked(&t, 1000).clock(old, new), IntItv::new(1, 1000));
        assert_eq!(Widening::from(&t).clock(old, new), IntItv::new(1, 10));
        // A bound past `max_clock` climbs the ramp, and a stable one stays.
        assert_eq!(Widening::clocked(&t, 2).clock(old, new), IntItv::new(1, 10));
        assert_eq!(Widening::clocked(&t, 1000).clock(old, old), old);
    }

    #[test]
    fn a_singleton_or_unbounded_clock_allows_no_jump() {
        let t = Thresholds::geometric_default();
        let w = Widening::clocked(&t, 1000);
        assert_eq!(w.at_clock(IntItv::new(0, 7)).clock_hi(), Some(7));
        assert_eq!(w.at_clock(IntItv::singleton(7)).clock_hi(), None);
        assert_eq!(w.at_clock(IntItv::new(0, i64::MAX)).clock_hi(), None);
        assert_eq!(Widening::from(&t).at_clock(IntItv::new(0, 7)).clock_hi(), None);
    }
}
