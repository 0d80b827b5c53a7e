//! Exactly-rounded directed arithmetic on `f64`.
//!
//! Each `*_down` function returns the largest double less than or equal to
//! the exact real result (round toward −∞); each `*_up` function returns the
//! smallest double greater than or equal to it (round toward +∞). NaN inputs
//! and invalid operations propagate NaN; the caller (the interval domain)
//! treats NaN as a reported error, exactly like the paper's analyzer.
//!
//! Overflow follows the IEEE-754 directed-rounding convention: a finite exact
//! result larger than `f64::MAX` rounds down to `f64::MAX` and up to `+∞`.

/// Returns the next representable double above `x`.
///
/// `next_up(f64::MAX)` is `+∞`; `next_up(+∞)` is `+∞`; NaN propagates.
pub fn next_up(x: f64) -> f64 {
    // Stable in std since 1.86; delegate to keep bit-level subtleties
    // (signed zeros, subnormals) in one vetted place.
    x.next_up()
}

/// Returns the next representable double below `x`.
///
/// `next_down(f64::MIN)` is `−∞`; `next_down(−∞)` is `−∞`; NaN propagates.
pub fn next_down(x: f64) -> f64 {
    x.next_down()
}

/// Splits the rounding of `a + b`: returns the round-to-nearest sum and the
/// exact error term (Knuth's TwoSum). Valid — with no intermediate overflow —
/// whenever the nearest sum `s` itself is finite, which the callers check.
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let err = (a - (s - bb)) + (b - bb);
    (s, err)
}

/// Magnitude below which FMA residuals of `*`/`/` may be swallowed by
/// underflow; below it we conservatively step one ulp outward, making the
/// result possibly one ulp looser than true directed rounding (still sound).
const UNDERFLOW_GUARD: f64 = 1e-290;

fn clamp_down(s: f64) -> f64 {
    // Round-toward-−∞ of an exact value that round-to-nearest sent to ±∞.
    if s == f64::INFINITY {
        f64::MAX
    } else {
        s // −∞ stays −∞: the exact value is below −MAX.
    }
}

fn clamp_up(s: f64) -> f64 {
    if s == f64::NEG_INFINITY {
        f64::MIN
    } else {
        s
    }
}

/// Returns the largest double `≤ a + b` exactly.
pub fn add_down(a: f64, b: f64) -> f64 {
    let s = a + b;
    if s.is_nan() {
        return s;
    }
    if !s.is_finite() {
        return if a.is_finite() && b.is_finite() { clamp_down(s) } else { s };
    }
    let (s, err) = two_sum(a, b);
    if err < 0.0 {
        next_down(s)
    } else {
        s
    }
}

/// Returns the smallest double `≥ a + b` exactly.
pub fn add_up(a: f64, b: f64) -> f64 {
    let s = a + b;
    if s.is_nan() {
        return s;
    }
    if !s.is_finite() {
        return if a.is_finite() && b.is_finite() { clamp_up(s) } else { s };
    }
    let (s, err) = two_sum(a, b);
    if err > 0.0 {
        next_up(s)
    } else {
        s
    }
}

/// Returns the largest double `≤ a − b` exactly.
pub fn sub_down(a: f64, b: f64) -> f64 {
    add_down(a, -b)
}

/// Returns the smallest double `≥ a − b` exactly.
pub fn sub_up(a: f64, b: f64) -> f64 {
    add_up(a, -b)
}

/// Returns the largest double `≤ a × b` exactly.
pub fn mul_down(a: f64, b: f64) -> f64 {
    let p = a * b;
    if p.is_nan() {
        return p;
    }
    if !p.is_finite() {
        return if a.is_finite() && b.is_finite() { clamp_down(p) } else { p };
    }
    if p != 0.0 && p.abs() < UNDERFLOW_GUARD {
        return next_down(p);
    }
    let err = a.mul_add(b, -p);
    if err < 0.0 {
        next_down(p)
    } else {
        p
    }
}

/// Returns the smallest double `≥ a × b` exactly.
pub fn mul_up(a: f64, b: f64) -> f64 {
    let p = a * b;
    if p.is_nan() {
        return p;
    }
    if !p.is_finite() {
        return if a.is_finite() && b.is_finite() { clamp_up(p) } else { p };
    }
    if p != 0.0 && p.abs() < UNDERFLOW_GUARD {
        return next_up(p);
    }
    let err = a.mul_add(b, -p);
    if err > 0.0 {
        next_up(p)
    } else {
        p
    }
}

/// Returns the largest double `≤ a ÷ b` exactly.
///
/// Division by (signed) zero follows IEEE and yields ±∞ or NaN; detecting
/// and alarming on it is the analyzer's job, not this primitive's.
pub fn div_down(a: f64, b: f64) -> f64 {
    let q = a / b;
    if q.is_nan() || b == 0.0 {
        return q;
    }
    if !q.is_finite() {
        return if a.is_finite() && b.is_finite() { clamp_down(q) } else { q };
    }
    if (q != 0.0 && q.abs() < UNDERFLOW_GUARD) || !b.is_finite() {
        return next_down(q);
    }
    // r = q·b − a exactly; exact quotient − q = −r/b.
    let r = q.mul_add(b, -a);
    if r == 0.0 {
        q
    } else if (r > 0.0) == (b > 0.0) {
        // −r/b < 0: exact quotient below q.
        next_down(q)
    } else {
        q
    }
}

/// Returns the smallest double `≥ a ÷ b` exactly.
pub fn div_up(a: f64, b: f64) -> f64 {
    let q = a / b;
    if q.is_nan() || b == 0.0 {
        return q;
    }
    if !q.is_finite() {
        return if a.is_finite() && b.is_finite() { clamp_up(q) } else { q };
    }
    if (q != 0.0 && q.abs() < UNDERFLOW_GUARD) || !b.is_finite() {
        return next_up(q);
    }
    let r = q.mul_add(b, -a);
    if r == 0.0 {
        q
    } else if (r > 0.0) != (b > 0.0) {
        // −r/b > 0: exact quotient above q.
        next_up(q)
    } else {
        q
    }
}

/// Returns the largest double `≤ √x` exactly (NaN for negative `x`).
pub fn sqrt_down(x: f64) -> f64 {
    let s = x.sqrt();
    if !s.is_finite() || s == 0.0 {
        return s;
    }
    if s.abs() < UNDERFLOW_GUARD {
        return next_down(s);
    }
    let r = s.mul_add(s, -x); // s² − x, exact
    if r > 0.0 {
        next_down(s)
    } else {
        s
    }
}

/// Returns the smallest double `≥ √x` exactly (NaN for negative `x`).
pub fn sqrt_up(x: f64) -> f64 {
    let s = x.sqrt();
    if !s.is_finite() || s == 0.0 {
        return s;
    }
    if s.abs() < UNDERFLOW_GUARD {
        return next_up(s);
    }
    let r = s.mul_add(s, -x);
    if r < 0.0 {
        next_up(s)
    } else {
        s
    }
}

/// Returns the largest double on the `f32` grid `≤ x`, as an `f64`.
///
/// Used to re-round abstract bounds after single-precision operations: a
/// bound that is not representable in `f32` must be widened outward to the
/// value single-precision hardware could produce.
pub fn f32_down(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > f32::MAX as f64 {
        return f32::MAX as f64;
    }
    if x < f32::MIN as f64 {
        return f64::NEG_INFINITY;
    }
    let y = x as f32; // round to nearest f32
    if (y as f64) <= x {
        y as f64
    } else {
        prev_f32(y) as f64
    }
}

/// Returns the smallest double on the `f32` grid `≥ x`, as an `f64`.
pub fn f32_up(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x < f32::MIN as f64 {
        return f32::MIN as f64;
    }
    if x > f32::MAX as f64 {
        return f64::INFINITY;
    }
    let y = x as f32;
    if (y as f64) >= x {
        y as f64
    } else {
        next_f32(y) as f64
    }
}

fn next_f32(x: f32) -> f32 {
    x.next_up()
}

fn prev_f32(x: f32) -> f32 {
    x.next_down()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_ops_stay_exact() {
        assert_eq!(add_down(1.0, 2.0), 3.0);
        assert_eq!(add_up(1.0, 2.0), 3.0);
        assert_eq!(mul_down(1.5, 2.0), 3.0);
        assert_eq!(mul_up(1.5, 2.0), 3.0);
        assert_eq!(div_down(3.0, 2.0), 1.5);
        assert_eq!(div_up(3.0, 2.0), 1.5);
        assert_eq!(sqrt_down(4.0), 2.0);
        assert_eq!(sqrt_up(4.0), 2.0);
    }

    #[test]
    fn inexact_ops_bracket() {
        let cases = [(0.1, 0.2), (1.0, 1e-20), (1e10, -3.3), (0.3, 0.7)];
        for (a, b) in cases {
            let lo = add_down(a, b);
            let hi = add_up(a, b);
            assert!(lo <= a + b && a + b <= hi);
            assert!(hi <= next_up(lo), "bracket wider than one ulp for {a}+{b}");
        }
    }

    #[test]
    fn directed_add_matches_twosum_sign() {
        // 1 + 2^-60 rounds to 1 with positive error: RU must step up.
        let tiny = 2f64.powi(-60);
        assert_eq!(add_down(1.0, tiny), 1.0);
        assert_eq!(add_up(1.0, tiny), next_up(1.0));
        assert_eq!(add_down(1.0, -tiny), next_down(1.0));
        assert_eq!(add_up(1.0, -tiny), 1.0);
    }

    #[test]
    fn directed_mul_brackets() {
        for (a, b) in [(0.1, 0.1), (1.0 / 3.0, 3.0), (1e-200, 1e-200), (1e200, 1e200)] {
            let lo = mul_down(a, b);
            let hi = mul_up(a, b);
            assert!(lo <= hi);
            let nearest = a * b;
            if nearest.is_finite() {
                assert!(lo <= nearest && nearest <= hi);
            }
        }
    }

    #[test]
    fn directed_div_brackets() {
        for (a, b) in [(1.0, 3.0), (-1.0, 3.0), (1e300, 1e-300), (5.0, 7.0)] {
            let lo = div_down(a, b);
            let hi = div_up(a, b);
            assert!(lo <= hi, "{a}/{b}: {lo} > {hi}");
            let nearest = a / b;
            if nearest.is_finite() {
                assert!(lo <= nearest && nearest <= hi);
            }
        }
        // 1/3 is inexact: the bracket must be strict.
        assert!(div_down(1.0, 3.0) < div_up(1.0, 3.0));
    }

    #[test]
    fn division_residual_sign_is_correct() {
        // 1/3 < nearest(1/3)? nearest(1/3) = 0.333...33 with known direction:
        // check against the mathematical ordering via multiplication.
        let q_down = div_down(1.0, 3.0);
        let q_up = div_up(1.0, 3.0);
        assert!(q_down * 3.0 <= 1.0 || mul_down(q_down, 3.0) <= 1.0);
        assert!(mul_up(q_up, 3.0) >= 1.0);
        assert_eq!(q_up, next_up(q_down));
    }

    #[test]
    fn overflow_clamps_by_direction() {
        assert_eq!(add_down(f64::MAX, f64::MAX), f64::MAX);
        assert_eq!(add_up(f64::MAX, f64::MAX), f64::INFINITY);
        assert_eq!(add_up(f64::MIN, f64::MIN), f64::MIN);
        assert_eq!(add_down(f64::MIN, f64::MIN), f64::NEG_INFINITY);
        assert_eq!(mul_down(1e200, 1e200), f64::MAX);
        assert_eq!(mul_up(1e200, 1e200), f64::INFINITY);
        assert_eq!(mul_up(-1e200, 1e200), f64::MIN);
        assert_eq!(mul_down(-1e200, 1e200), f64::NEG_INFINITY);
    }

    #[test]
    fn infinities_pass_through() {
        assert_eq!(add_down(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(add_up(f64::NEG_INFINITY, 1.0), f64::NEG_INFINITY);
        assert!(add_down(f64::INFINITY, f64::NEG_INFINITY).is_nan());
        assert!(mul_down(0.0, f64::INFINITY).is_nan());
        assert_eq!(div_down(1.0, 0.0), f64::INFINITY);
        assert_eq!(div_down(-1.0, 0.0), f64::NEG_INFINITY);
        assert!(div_down(0.0, 0.0).is_nan());
    }

    #[test]
    fn nan_propagates() {
        assert!(add_down(f64::NAN, 1.0).is_nan());
        assert!(mul_up(f64::NAN, 1.0).is_nan());
        assert!(div_up(f64::NAN, 1.0).is_nan());
        assert!(sqrt_down(-1.0).is_nan());
    }

    #[test]
    fn sqrt_brackets() {
        for x in [2.0, 3.0, 0.5, 1e-10, 1e10] {
            let lo = sqrt_down(x);
            let hi = sqrt_up(x);
            assert!(lo <= x.sqrt() && x.sqrt() <= hi);
            assert!(mul_down(lo, lo) <= x);
            assert!(mul_up(hi, hi) >= x);
        }
        assert_eq!(sqrt_down(0.0), 0.0);
    }

    #[test]
    fn f32_grid_rounding() {
        let x = 0.1_f64; // not representable in f32
        let lo = f32_down(x);
        let hi = f32_up(x);
        assert!(lo < x && x < hi);
        assert_eq!(lo as f32 as f64, lo);
        assert_eq!(hi as f32 as f64, hi);
        // Values on the grid stay put.
        assert_eq!(f32_down(0.5), 0.5);
        assert_eq!(f32_up(0.5), 0.5);
        // Overflow beyond the f32 range.
        assert_eq!(f32_up(1e100), f64::INFINITY);
        assert_eq!(f32_down(1e100), f32::MAX as f64);
        assert_eq!(f32_down(-1e100), f64::NEG_INFINITY);
        assert_eq!(f32_up(-1e100), f32::MIN as f64);
    }

    #[test]
    fn subnormal_region_is_sound() {
        // 2^-1060 sits inside the subnormal range (the smallest subnormal
        // is 2^-1074, bit 0): representable, positive, below MIN_POSITIVE.
        // Built from its bit pattern — `2f64.powi(-1060)` is 0 or 2^-1060
        // depending on whether the platform's `powi` goes through
        // `1 / 2^1060`.
        let tiny = f64::from_bits(1 << 14);
        assert!(tiny > 0.0 && tiny < f64::MIN_POSITIVE);
        let a = 1e-300;
        let b = 1e-10;
        let lo = mul_down(a, b);
        let hi = mul_up(a, b);
        assert!(lo <= hi);
        assert!(hi > 0.0);
    }
}
