//! The ellipsoid abstract domain `ε(a,b)` (paper Sect. 6.2.3).
//!
//! Captures invariants `X² − aXY + bY² ≤ k` preserved by the second-order
//! digital filter update `X' := aX − bY + t`, `Y' := X` — the recurrent
//! pattern of the program family that intervals and octagons lose entirely.
//! Proposition 1: when `0 < b < 1` and `a² − 4b < 0`, the constraint is
//! preserved as soon as `k ≥ (t_M / (1 − √b))²` where `|t| ≤ t_M`. The
//! update function `δ` additionally accounts for floating-point rounding via
//! the unit roundoff `f`.

use crate::float_interval::FloatItv;
use crate::thresholds::Thresholds;
use astree_float::{round, UNIT_ROUNDOFF};
use std::fmt;

/// One ellipsoidal constraint `X² − aXY + bY² ≤ k` for a filter with fixed
/// coefficients `(a, b)`.
///
/// `k = +∞` is ⊤ (no constraint); `k < 0` is ⊥ (the form is positive
/// definite under the stability conditions).
///
/// # Examples
///
/// ```
/// use astree_domains::Ellipsoid;
/// assert!(Ellipsoid::stable(1.5, 0.7));
/// let e = Ellipsoid::new(1.5, 0.7, 100.0);
/// // One filter step with |t| ≤ 1 keeps k bounded.
/// assert!(e.delta(1.0).is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ellipsoid {
    /// Filter coefficient of `X` (the `a` of `X' := aX − bY + t`).
    pub a: f64,
    /// Filter coefficient of `Y`.
    pub b: f64,
    /// The constraint bound.
    pub k: f64,
}

impl Ellipsoid {
    /// Checks Proposition 1's stability conditions: `0 < b < 1` and
    /// `a² − 4b < 0`.
    pub fn stable(a: f64, b: f64) -> bool {
        0.0 < b && b < 1.0 && a * a - 4.0 * b < 0.0
    }

    /// A constraint with the given bound.
    ///
    /// # Panics
    ///
    /// Panics if the coefficients are not stable per Proposition 1.
    pub fn new(a: f64, b: f64, k: f64) -> Ellipsoid {
        assert!(Ellipsoid::stable(a, b), "unstable filter coefficients ({a}, {b})");
        Ellipsoid { a, b, k }
    }

    /// ⊤ for the given coefficients.
    pub fn top(a: f64, b: f64) -> Ellipsoid {
        Ellipsoid::new(a, b, f64::INFINITY)
    }

    /// `true` when the constraint is unsatisfiable.
    pub fn is_bottom(self) -> bool {
        self.k < 0.0
    }

    /// The smallest `k` that Proposition 1 guarantees invariant for inputs
    /// `|t| ≤ t_max` (rounded up, with margin for the float-aware `δ`).
    pub fn min_invariant_k(self, t_max: f64) -> f64 {
        let denom = round::sub_down(1.0, round::sqrt_up(self.b));
        let base = round::div_up(t_max, denom);
        round::mul_up(round::mul_up(base, base), 1.0 + 1e-9)
    }

    /// The paper's `δ` function: the new bound after one filter step
    /// `X' := aX − bY + t` with `|t| ≤ t_max`, accounting for rounding
    /// (`f` is the unit roundoff).
    ///
    /// `δ(k) = ((√b + 4f(|a|√b + b)/√(4b − a²))·√k + (1 + f)·t_max)²`,
    /// computed with upward rounding throughout.
    pub fn delta(self, t_max: f64) -> f64 {
        if self.k == f64::INFINITY {
            return f64::INFINITY;
        }
        if self.k < 0.0 {
            return self.k; // bottom propagates
        }
        let f = UNIT_ROUNDOFF;
        let sqrt_b = round::sqrt_up(self.b);
        let disc = round::sub_down(4.0 * self.b, round::mul_up(self.a, self.a));
        let sqrt_disc = round::sqrt_down(disc.max(f64::MIN_POSITIVE));
        let num =
            round::mul_up(4.0 * f, round::add_up(round::mul_up(self.a.abs(), sqrt_b), self.b));
        let coeff = round::add_up(sqrt_b, round::div_up(num, sqrt_disc));
        let term = round::mul_up(coeff, round::sqrt_up(self.k));
        let t_term = round::mul_up(round::add_up(1.0, f), t_max);
        let s = round::add_up(term, t_term);
        round::mul_up(s, s)
    }

    /// Reduction from the interval component: the supremum of the quadratic
    /// form over the box `x × y` refines `k` (the form is convex, so the
    /// supremum is attained at a corner).
    #[must_use]
    pub fn reduce_from_box(self, x: FloatItv, y: FloatItv) -> Ellipsoid {
        if x.is_bottom() || y.is_bottom() {
            return Ellipsoid { k: -1.0, ..self };
        }
        if !x.lo.is_finite() || !x.hi.is_finite() || !y.lo.is_finite() || !y.hi.is_finite() {
            return self;
        }
        let mut sup = f64::NEG_INFINITY;
        for &xv in &[x.lo, x.hi] {
            for &yv in &[y.lo, y.hi] {
                let q = self.eval_form_up(xv, yv);
                sup = sup.max(q);
            }
        }
        Ellipsoid { k: self.k.min(sup.max(0.0)), ..self }
    }

    /// Upward-rounded evaluation of `x² − a·x·y + b·y²`.
    fn eval_form_up(self, x: f64, y: f64) -> f64 {
        let x2 = round::mul_up(x, x);
        let axy = round::mul_down(round::mul_down(self.a, x), y);
        let by2 = round::mul_up(round::mul_up(self.b, y), y);
        round::add_up(round::sub_up(x2, axy), by2)
    }

    /// The bound `|X| ≤ 2·√(b·k / (4b − a²))` the constraint implies
    /// (used to tighten `X`'s interval; paper end of Sect. 6.2.3).
    pub fn x_bound(self) -> f64 {
        if self.k == f64::INFINITY {
            return f64::INFINITY;
        }
        if self.k < 0.0 {
            return 0.0;
        }
        let disc = round::sub_down(4.0 * self.b, round::mul_up(self.a, self.a));
        let inner = round::div_up(round::mul_up(self.b, self.k), disc.max(f64::MIN_POSITIVE));
        round::mul_up(2.0, round::sqrt_up(inner))
    }

    /// The bound `|Y| ≤ 2·√(k / (4b − a²))`.
    pub fn y_bound(self) -> f64 {
        if self.k == f64::INFINITY {
            return f64::INFINITY;
        }
        if self.k < 0.0 {
            return 0.0;
        }
        let disc = round::sub_down(4.0 * self.b, round::mul_up(self.a, self.a));
        let inner = round::div_up(self.k, disc.max(f64::MIN_POSITIVE));
        round::mul_up(2.0, round::sqrt_up(inner))
    }

    /// Inclusion `self ⊑ other` (same coefficients assumed).
    pub fn leq(self, other: Ellipsoid) -> bool {
        self.is_bottom() || self.k <= other.k
    }

    /// Join: the weaker constraint.
    #[must_use]
    pub fn join(self, other: Ellipsoid) -> Ellipsoid {
        if self.is_bottom() {
            return other;
        }
        if other.is_bottom() {
            return self;
        }
        Ellipsoid { k: self.k.max(other.k), ..self }
    }

    /// Meet: the stronger constraint.
    #[must_use]
    pub fn meet(self, other: Ellipsoid) -> Ellipsoid {
        Ellipsoid { k: self.k.min(other.k), ..self }
    }

    /// Widening with thresholds on `k` (paper: "the widening uses thresholds
    /// as described in Sect. 7.1.2").
    #[must_use]
    pub fn widen(self, other: Ellipsoid, t: &Thresholds) -> Ellipsoid {
        if other.k > self.k {
            Ellipsoid { k: t.above(other.k), ..self }
        } else {
            self
        }
    }

    /// Narrowing: refine an infinite bound.
    #[must_use]
    pub fn narrow(self, other: Ellipsoid) -> Ellipsoid {
        if self.k == f64::INFINITY {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Ellipsoid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X² − {}·XY + {}·Y² ≤ {}", self.a, self.b, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: f64 = 1.5;
    const B: f64 = 0.7;

    #[test]
    fn stability_conditions() {
        assert!(Ellipsoid::stable(1.5, 0.7)); // 2.25 - 2.8 < 0
        assert!(!Ellipsoid::stable(2.0, 0.9)); // 4 - 3.6 > 0
        assert!(!Ellipsoid::stable(0.5, 1.1)); // b >= 1
        assert!(!Ellipsoid::stable(0.5, 0.0)); // b <= 0
    }

    #[test]
    fn proposition_1_invariance() {
        // For k ≥ (tM/(1−√b))², δ(k) ≤ k: the constraint is preserved.
        let t_max = 1.0;
        let e = Ellipsoid::top(A, B);
        let k_min = e.min_invariant_k(t_max);
        for mult in [1.0, 2.0, 10.0] {
            let k = k_min * mult;
            let next = Ellipsoid::new(A, B, k).delta(t_max);
            assert!(next <= k, "δ({k}) = {next} not ≤ k (mult {mult})");
        }
    }

    #[test]
    fn delta_grows_below_fixpoint() {
        // Far below the fixpoint, δ(k) > k (the ramp must climb).
        let e = Ellipsoid::new(A, B, 0.01);
        assert!(e.delta(1.0) > 0.01);
    }

    #[test]
    fn concrete_filter_stays_inside() {
        // Run the filter concretely; the abstract invariant must contain
        // every reachable state.
        let t_max = 1.0;
        let k = Ellipsoid::top(A, B).min_invariant_k(t_max);
        let inv = Ellipsoid::new(A, B, k);
        let mut x = 0.0f64;
        let mut y = 0.0f64;
        let mut rng = 123u64;
        for _ in 0..10_000 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = ((rng >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0; // [-1, 1]
            let nx = A * x - B * y + t;
            y = x;
            x = nx;
            let form = x * x - A * x * y + B * y * y;
            assert!(form <= inv.k * (1.0 + 1e-9), "escaped: {form} > {}", inv.k);
            assert!(x.abs() <= inv.x_bound() + 1e-9);
            assert!(y.abs() <= inv.y_bound() + 1e-9);
        }
    }

    #[test]
    fn box_reduction() {
        let e = Ellipsoid::top(A, B);
        let r = e.reduce_from_box(FloatItv::new(-1.0, 1.0), FloatItv::new(-1.0, 1.0));
        assert!(r.k.is_finite());
        // sup over the box of x²−1.5xy+0.7y² is at a corner: 1+1.5+0.7 = 3.2.
        assert!(r.k <= 3.2 + 1e-9 && r.k >= 3.2 - 1e-9, "{}", r.k);
    }

    #[test]
    fn lattice_ops() {
        let e1 = Ellipsoid::new(A, B, 1.0);
        let e2 = Ellipsoid::new(A, B, 2.0);
        assert!(e1.leq(e2));
        assert!(!e2.leq(e1));
        assert_eq!(e1.join(e2).k, 2.0);
        assert_eq!(e1.meet(e2).k, 1.0);
        let t = Thresholds::geometric(1.0, 10.0, 3);
        assert_eq!(e1.widen(e2, &t).k, 10.0);
        assert_eq!(e2.widen(e1, &t).k, 2.0);
        assert_eq!(Ellipsoid::top(A, B).narrow(e1).k, 1.0);
    }

    #[test]
    fn x_bound_shrinks_with_k() {
        let big = Ellipsoid::new(A, B, 100.0).x_bound();
        let small = Ellipsoid::new(A, B, 1.0).x_bound();
        assert!(small < big);
        assert!(Ellipsoid::top(A, B).x_bound().is_infinite());
    }
}
