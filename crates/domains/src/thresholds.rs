//! Widening thresholds (paper Sect. 7.1.2).
//!
//! Instead of jumping straight to ±∞, the widening of an unstable bound goes
//! through a finite ramp of thresholds. The paper chooses the geometric ramp
//! `±α·λᵏ` for `0 ≤ k ≤ N`; as long as the ramp contains *some* value above
//! the (unknown) stabilization bound `M`, the interval analysis proves the
//! variable bounded.

/// A finite, sorted set of widening thresholds, always containing ±∞.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// Strictly increasing positive thresholds; the negative ramp is the
    /// mirror image. ±∞ are implicit.
    ramp: Vec<f64>,
}

impl Thresholds {
    /// The default ramp used by the analyzer: `α·λᵏ` with `α = 1`,
    /// `λ = 10`, `N = 12` (up to `10¹²`).
    pub fn geometric_default() -> Thresholds {
        Thresholds::geometric(1.0, 10.0, 12)
    }

    /// Builds the ramp `α·λᵏ` for `0 ≤ k ≤ n`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0` or `lambda <= 1`.
    pub fn geometric(alpha: f64, lambda: f64, n: u32) -> Thresholds {
        assert!(alpha > 0.0, "alpha must be positive");
        assert!(lambda > 1.0, "lambda must exceed 1");
        let mut ramp = Vec::with_capacity(n as usize + 1);
        let mut v = alpha;
        for _ in 0..=n {
            ramp.push(v);
            v *= lambda;
        }
        Thresholds { ramp }
    }

    /// An empty ramp: widening jumps straight to ±∞ (the classic interval
    /// widening, used as the ablation baseline).
    pub fn none() -> Thresholds {
        Thresholds { ramp: Vec::new() }
    }

    /// Builds a ramp from explicit positive values (sorted, deduplicated).
    pub fn from_values(mut values: Vec<f64>) -> Thresholds {
        values.retain(|v| *v > 0.0 && v.is_finite());
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        values.dedup();
        Thresholds { ramp: values }
    }

    /// The positive ramp values.
    pub fn ramp(&self) -> &[f64] {
        &self.ramp
    }

    /// Smallest threshold `≥ x` for an escaping upper bound, or `+∞`.
    pub fn above(&self, x: f64) -> f64 {
        for &t in &self.ramp {
            if t >= x {
                return t;
            }
        }
        f64::INFINITY
    }

    /// Largest threshold `≤ x` for an escaping lower bound, or `−∞`.
    /// The negative ramp mirrors the positive one, with 0 included between.
    pub fn below(&self, x: f64) -> f64 {
        if x >= 0.0 {
            // Climb down through 0 first: the mirrored ramp is
            // …, -α, 0 is NOT a threshold in the paper's ±αλᵏ set, but a
            // non-negative escaping lower bound is rare; fall to 0 if any
            // positive threshold fits, else -∞.
            let mut best = f64::NEG_INFINITY;
            for &t in &self.ramp {
                if t <= x && t > best {
                    best = t;
                }
            }
            if best.is_finite() {
                return best;
            }
            if x >= 0.0 && !self.ramp.is_empty() {
                return 0.0;
            }
            return f64::NEG_INFINITY;
        }
        for &t in &self.ramp {
            if -t <= x {
                return -t;
            }
        }
        f64::NEG_INFINITY
    }

    /// Integer variant of [`Thresholds::above`], saturating to `i64::MAX`.
    ///
    /// The query is rounded toward `+∞` before the ramp lookup and the
    /// selected threshold is rounded toward `+∞` on the way back, so the
    /// result is always `≥ x` even within one ulp of `i64::MAX`, where
    /// `x as f64` rounds down by up to 1023.
    pub fn above_int(&self, x: i64) -> i64 {
        let t = self.above(f64_at_least(x));
        // `i64::MAX as f64` is 2⁶³ exactly, one past `i64::MAX`; any finite
        // threshold below it has an integral ceil representable in `i64`.
        if t >= i64::MAX as f64 {
            i64::MAX
        } else {
            (t.ceil() as i64).max(x)
        }
    }

    /// Integer variant of [`Thresholds::below`], saturating to `i64::MIN`.
    ///
    /// Mirror of [`Thresholds::above_int`]: the query rounds toward `−∞`
    /// so the returned threshold is always `≤ x`.
    ///
    /// Soundness at the negative extreme differs from the positive one in a
    /// way that happens to be benign. `i64::MAX as f64` rounds *up* to 2⁶³
    /// (one past the type), so `above_int` needs the explicit `>=`
    /// saturation test; `i64::MIN as f64` is `−2⁶³` *exactly*, so here
    /// every step is exact at the boundary: `f64_at_most(i64::MIN)` returns
    /// `−2⁶³` unchanged, any ramp mirror `−t ≥ −2⁶³` keeps
    /// `t.floor() as i64` in range (the cast saturates rather than wraps
    /// for the `−2⁶³` threshold itself, which the `<=` test already maps to
    /// `i64::MIN`), and queries within one ulp of `i64::MIN` (spacing 1024
    /// there) round toward `−∞` to `−2⁶³`, which only *loosens* the bound.
    /// The boundary tests below pin each of these cases.
    pub fn below_int(&self, x: i64) -> i64 {
        let t = self.below(f64_at_most(x));
        if t <= i64::MIN as f64 {
            i64::MIN
        } else {
            (t.floor() as i64).min(x)
        }
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds::geometric_default()
    }
}

/// Smallest `f64` that is `≥ x` exactly. `x as f64` rounds to nearest, so
/// above 2⁵³ it can land *below* `x` (by up to 1023 near `i64::MAX`); the
/// `i128` comparison is exact for every `f64` in range.
pub(crate) fn f64_at_least(x: i64) -> f64 {
    let f = x as f64;
    if (f as i128) < x as i128 {
        astree_float::round::next_up(f)
    } else {
        f
    }
}

/// Largest `f64` that is `≤ x` exactly; mirror of [`f64_at_least`].
pub(crate) fn f64_at_most(x: i64) -> f64 {
    let f = x as f64;
    if (f as i128) > x as i128 {
        astree_float::round::next_down(f)
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_ramp() {
        let t = Thresholds::geometric(1.0, 10.0, 3);
        assert_eq!(t.ramp(), &[1.0, 10.0, 100.0, 1000.0]);
    }

    #[test]
    fn above_climbs_the_ramp() {
        let t = Thresholds::geometric(1.0, 10.0, 3);
        assert_eq!(t.above(0.5), 1.0);
        assert_eq!(t.above(1.0), 1.0);
        assert_eq!(t.above(42.0), 100.0);
        assert_eq!(t.above(5000.0), f64::INFINITY);
    }

    #[test]
    fn below_mirrors() {
        let t = Thresholds::geometric(1.0, 10.0, 3);
        assert_eq!(t.below(-0.5), -1.0);
        assert_eq!(t.below(-42.0), -100.0);
        assert_eq!(t.below(-5000.0), f64::NEG_INFINITY);
        // Non-negative escaping lower bounds settle at 0.
        assert_eq!(t.below(0.5), 0.0);
        assert_eq!(t.below(7.0), 1.0);
    }

    #[test]
    fn none_jumps_to_infinity() {
        let t = Thresholds::none();
        assert_eq!(t.above(1.0), f64::INFINITY);
        assert_eq!(t.below(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn int_variants_saturate() {
        let t = Thresholds::geometric(1.0, 10.0, 2);
        assert_eq!(t.above_int(7), 10);
        assert_eq!(t.above_int(1000), i64::MAX);
        assert_eq!(t.below_int(-7), -10);
        assert_eq!(t.below_int(-1000), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_bad_lambda() {
        let _ = Thresholds::geometric(1.0, 1.0, 3);
    }

    /// `x as f64` rounds `2⁶² + 1` down to `2⁶²`; the naive lookup then
    /// returns the `2⁶²` threshold, which is *below* `x` — an unsound
    /// widening bound. The query must round toward `+∞` instead.
    #[test]
    fn above_int_never_returns_below_query() {
        let big = 1i64 << 62;
        let t = Thresholds::from_values(vec![big as f64]);
        let x = big + 1;
        let r = t.above_int(x);
        assert!(r >= x, "above_int({x}) = {r} is below the query");
        assert_eq!(r, i64::MAX, "no ramp value fits, must saturate");
        // The threshold itself is still found when it genuinely fits.
        assert_eq!(t.above_int(big), big);
        assert_eq!(t.above_int(big - 1), big);
    }

    /// Within 1024 of `i64::MAX` the rounding error of `x as f64` exceeds
    /// the gap to the nearest threshold: `i64::MAX − 512` used to come back
    /// as the *smaller* threshold `i64::MAX − 1023`.
    #[test]
    fn above_int_sound_near_i64_max() {
        let ramp = i64::MAX - 1023; // == 2⁶³ − 1024, exactly representable
        let t = Thresholds::from_values(vec![ramp as f64]);
        let x = i64::MAX - 512;
        let r = t.above_int(x);
        assert!(r >= x, "above_int({x}) = {r} is below the query");
        assert_eq!(t.above_int(ramp), ramp);
    }

    /// Mirror of the `above_int` extremes for the negative ramp.
    #[test]
    fn below_int_never_returns_above_query() {
        let big = 1i64 << 62;
        let t = Thresholds::from_values(vec![big as f64]);
        let x = -big - 1;
        let r = t.below_int(x);
        assert!(r <= x, "below_int({x}) = {r} is above the query");
        assert_eq!(r, i64::MIN, "no ramp value fits, must saturate");
        assert_eq!(t.below_int(-big), -big);
        let near_min = -(i64::MAX - 512);
        let t2 = Thresholds::from_values(vec![(i64::MAX - 1023) as f64]);
        let r2 = t2.below_int(near_min);
        assert!(r2 <= near_min, "below_int({near_min}) = {r2} is above the query");
    }

    /// Boundary audit at `i64::MIN` itself (see the `below_int` docs):
    /// unlike `i64::MAX`, the minimum converts to `f64` exactly, so every
    /// path through the lookup is exact — but only these tests keep that
    /// guarantee from silently eroding if the conversion helpers change.
    #[test]
    fn below_int_sound_at_i64_min() {
        // Exact conversion: no rounding adjustment at the boundary.
        assert_eq!(f64_at_most(i64::MIN), i64::MIN as f64);
        assert_eq!(f64_at_least(i64::MIN), i64::MIN as f64);

        // A ramp value of exactly 2⁶³ mirrors to −2⁶³ = i64::MIN; the
        // saturation test must map it to i64::MIN, not wrap in the cast.
        let t = Thresholds::from_values(vec![(1u64 << 63) as f64]);
        assert_eq!(t.below_int(i64::MIN), i64::MIN);
        assert_eq!(t.below_int(-1), i64::MIN);

        // No ramp value fits below the query: saturate.
        let t = Thresholds::geometric_default();
        assert_eq!(t.below_int(i64::MIN), i64::MIN);
        assert_eq!(t.below_int(i64::MIN + 1), i64::MIN);

        // Within one ulp of i64::MIN (f64 spacing is 1024 there) the query
        // rounds toward −∞; the result must stay ≤ x for every offset.
        let ramp = -(i64::MIN + 1024) as u64; // 2⁶³ − 1024, representable
        let t = Thresholds::from_values(vec![ramp as f64]);
        for off in [0i64, 1, 511, 512, 1023, 1024, 1025] {
            let x = i64::MIN + off;
            let r = t.below_int(x);
            assert!(r <= x, "below_int({x}) = {r} is above the query");
        }
        // The mirrored threshold is found exactly when it fits.
        assert_eq!(t.below_int(i64::MIN + 1024), i64::MIN + 1024);
    }
}
