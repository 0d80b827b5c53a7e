//! Property tests: directed arithmetic brackets the exact real result.
//!
//! We cannot compute exact reals, but error-free transformations let us test
//! the *sign* of the rounding error independently of the implementation, and
//! bracketing the round-to-nearest result plus strict one-ulp tightness pins
//! the directed results exactly.

use astree_float::round::*;
use proptest::prelude::*;

fn finite() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>().prop_filter("finite", |x| x.is_finite()),
        -1e3..1e3f64,
        -1.0..1.0f64,
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
    ]
}

/// Every non-NaN double, weighted toward the edges: both zeros, both
/// infinities, subnormals, and `±f64::MAX` with their neighbours.
fn any_non_nan() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>().prop_filter("not NaN", |x| !x.is_nan()),
        -1e3..1e3f64,
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (1u64..1 << 52).prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(|m| -f64::from_bits(m)),
        (0u64..4).prop_map(|k| f64::from_bits(f64::MAX.to_bits() - k)),
        (0u64..4).prop_map(|k| -f64::from_bits(f64::MAX.to_bits() - k)),
    ]
}

/// Checks `lo <= nearest <= hi` and that the bracket is at most one ulp on
/// each side, which (with soundness) pins the directed values exactly.
fn check_bracket(lo: f64, nearest: f64, hi: f64) {
    if nearest.is_nan() {
        assert!(lo.is_nan() && hi.is_nan());
        return;
    }
    if nearest.is_finite() {
        assert!(lo <= nearest, "lo {lo} > nearest {nearest}");
        assert!(hi >= nearest, "hi {hi} < nearest {nearest}");
    }
    assert!(lo <= hi);
    // One-ulp tightness holds everywhere except deep in the subnormal range,
    // where the implementation deliberately steps one extra ulp outward.
    if lo.is_finite() && hi.is_finite() && nearest.abs() > 1e-280 {
        assert!(hi <= next_up(lo), "bracket wider than one ulp: [{lo}, {hi}]");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn add_brackets(a in finite(), b in finite()) {
        check_bracket(add_down(a, b), a + b, add_up(a, b));
    }

    /// The law the closure kernels' round-to-nearest filter rests on: the
    /// upward sum is never below the nearest sum, nor the downward one above
    /// it, and where the nearest sum is NaN so are both directed sums.
    #[test]
    fn directed_sums_bracket_the_nearest_sum(a in any_non_nan(), b in any_non_nan()) {
        let nearest = a + b;
        if nearest.is_nan() {
            prop_assert!(add_up(a, b).is_nan() && add_down(a, b).is_nan());
        } else {
            prop_assert!(add_up(a, b) >= nearest, "add_up({a}, {b}) < {nearest}");
            prop_assert!(add_down(a, b) <= nearest, "add_down({a}, {b}) > {nearest}");
        }
    }

    #[test]
    fn sub_brackets(a in finite(), b in finite()) {
        check_bracket(sub_down(a, b), a - b, sub_up(a, b));
    }

    #[test]
    fn mul_brackets(a in finite(), b in finite()) {
        check_bracket(mul_down(a, b), a * b, mul_up(a, b));
    }

    #[test]
    fn div_brackets(a in finite(), b in finite()) {
        prop_assume!(b != 0.0);
        check_bracket(div_down(a, b), a / b, div_up(a, b));
    }

    #[test]
    fn add_error_sign_agrees(a in -1e15..1e15f64, b in -1e15..1e15f64) {
        // In this safe range TwoSum is exact: verify directed results against
        // the independently computed error term.
        let s = a + b;
        let bb = s - a;
        let err = (a - (s - bb)) + (b - bb);
        if err > 0.0 {
            prop_assert_eq!(add_up(a, b), next_up(s));
            prop_assert_eq!(add_down(a, b), s);
        } else if err < 0.0 {
            prop_assert_eq!(add_down(a, b), next_down(s));
            prop_assert_eq!(add_up(a, b), s);
        } else {
            prop_assert_eq!(add_down(a, b), s);
            prop_assert_eq!(add_up(a, b), s);
        }
    }

    #[test]
    fn mul_error_sign_agrees(a in -1e100..1e100f64, b in -1e100..1e100f64) {
        let p = a * b;
        prop_assume!(p.is_finite() && p.abs() > 1e-280);
        let err = a.mul_add(b, -p);
        if err > 0.0 {
            prop_assert_eq!(mul_up(a, b), next_up(p));
        } else if err < 0.0 {
            prop_assert_eq!(mul_down(a, b), next_down(p));
        } else {
            prop_assert_eq!(mul_down(a, b), p);
            prop_assert_eq!(mul_up(a, b), p);
        }
    }

    #[test]
    fn directed_monotone_in_args(a in -1e6..1e6f64, b in -1e6..1e6f64, d in 0.0..1e3f64) {
        // Rounding directions must respect argument monotonicity.
        prop_assert!(add_down(a, b) <= add_down(a + d, b));
        prop_assert!(add_up(a, b) <= add_up(a + d, b));
        prop_assert!(sub_down(a, b) >= sub_down(a, b + d));
    }

    #[test]
    fn sqrt_brackets_prop(x in 0.0..1e300f64) {
        let lo = sqrt_down(x);
        let hi = sqrt_up(x);
        check_bracket(lo, x.sqrt(), hi);
        prop_assert!(mul_down(lo, lo) <= x);
        prop_assert!(mul_up(hi, hi) >= x);
    }

    #[test]
    fn f32_grid_brackets(x in finite()) {
        let lo = f32_down(x);
        let hi = f32_up(x);
        prop_assert!(lo <= x || lo == f32::MAX as f64);
        prop_assert!(hi >= x || hi == f32::MIN as f64);
        if lo.is_finite() {
            prop_assert_eq!(lo as f32 as f64, lo, "f32_down not on the f32 grid");
        }
        if hi.is_finite() {
            prop_assert_eq!(hi as f32 as f64, hi, "f32_up not on the f32 grid");
        }
        // A value already on the grid is a fixpoint.
        let g = (x as f32) as f64;
        if g.is_finite() {
            prop_assert_eq!(f32_down(g), g);
            prop_assert_eq!(f32_up(g), g);
        }
    }
}
