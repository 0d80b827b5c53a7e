//! Interval linear forms and the algebra of linearization (paper Sect. 6.3).
//!
//! A linear form `ℓ = Σᵢ [aᵢ, bᵢ]·vᵢ + [a, b]` abstracts an expression over
//! program variables with interval coefficients in the *real field*. The
//! linearization of `X − 0.2·X` is `0.8·X`, which evaluates to `[0, 0.8]`
//! in the environment `X ∈ [0, 1]` where naive bottom-up interval evaluation
//! would produce `[−0.2, 1]`. Floating-point rounding is absorbed into the
//! constant term as an absolute error interval.
//!
//! All coefficient arithmetic rounds outward, so a linear form's
//! concretization always contains the concrete real-field values.

use crate::float_interval::FloatItv;
use astree_float::{round, MIN_SUBNORMAL, UNIT_ROUNDOFF};
use astree_ir::FloatKind;
use std::collections::BTreeMap;
use std::fmt;

/// Outward-rounded interval addition in the reals (no overflow clipping).
fn iadd(a: FloatItv, b: FloatItv) -> FloatItv {
    FloatItv { lo: round::add_down(a.lo, b.lo), hi: round::add_up(a.hi, b.hi) }
}

/// Outward-rounded interval multiplication in the reals.
fn imul(a: FloatItv, b: FloatItv) -> FloatItv {
    let lo = [
        round::mul_down(a.lo, b.lo),
        round::mul_down(a.lo, b.hi),
        round::mul_down(a.hi, b.lo),
        round::mul_down(a.hi, b.hi),
    ]
    .into_iter()
    .filter(|v| !v.is_nan())
    .fold(f64::INFINITY, f64::min);
    let hi = [
        round::mul_up(a.lo, b.lo),
        round::mul_up(a.lo, b.hi),
        round::mul_up(a.hi, b.lo),
        round::mul_up(a.hi, b.hi),
    ]
    .into_iter()
    .filter(|v| !v.is_nan())
    .fold(f64::NEG_INFINITY, f64::max);
    FloatItv { lo, hi }
}

/// An interval linear form over variables identified by `K`.
///
/// # Examples
///
/// ```
/// use astree_domains::{FloatItv, LinForm};
/// // ℓ = X − 0.2·X = 0.8·X
/// let x: LinForm<&str> = LinForm::var("X");
/// let l = x.sub(&x.scale(FloatItv::singleton(0.2)));
/// let v = l.eval(|_| FloatItv::new(0.0, 1.0));
/// assert!(v.lo >= -1e-12 && v.hi <= 0.8 + 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinForm<K: Ord + Clone> {
    terms: BTreeMap<K, FloatItv>,
    cst: FloatItv,
}

impl<K: Ord + Clone> LinForm<K> {
    /// The constant form `[lo, hi]`.
    pub fn constant(c: FloatItv) -> Self {
        LinForm { terms: BTreeMap::new(), cst: c }
    }

    /// The form `1·v`.
    pub fn var(v: K) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(v, FloatItv::singleton(1.0));
        LinForm { terms, cst: FloatItv::singleton(0.0) }
    }

    /// The constant term.
    pub fn cst(&self) -> FloatItv {
        self.cst
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: &K) -> FloatItv {
        self.terms.get(v).copied().unwrap_or(FloatItv::singleton(0.0))
    }

    /// Iterates over (variable, coefficient) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &FloatItv)> {
        self.terms.iter()
    }

    /// `true` when the form is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// `Some((v, c))` when the form is exactly `1·v + c` — the shape octagon
    /// assignments exploit (paper Sect. 6.2.2).
    pub fn as_unit_var_plus_const(&self) -> Option<(&K, FloatItv)> {
        if self.terms.len() != 1 {
            return None;
        }
        let (k, c) = self.terms.iter().next().expect("one term");
        (c.lo == 1.0 && c.hi == 1.0).then_some((k, self.cst))
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        let mut terms = self.terms.clone();
        for (k, c) in &other.terms {
            let merged = iadd(self.coeff(k), *c);
            if merged == FloatItv::singleton(0.0) {
                terms.remove(k);
            } else {
                terms.insert(k.clone(), merged);
            }
        }
        LinForm { terms, cst: iadd(self.cst, other.cst) }
    }

    /// `-self`.
    #[must_use]
    pub fn neg(&self) -> Self {
        let terms = self.terms.iter().map(|(k, c)| (k.clone(), c.neg())).collect();
        LinForm { terms, cst: self.cst.neg() }
    }

    /// `self − other`.
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// `[a,b] · self`.
    #[must_use]
    pub fn scale(&self, factor: FloatItv) -> Self {
        let mut terms = BTreeMap::new();
        for (k, c) in &self.terms {
            let scaled = imul(*c, factor);
            if scaled != FloatItv::singleton(0.0) {
                terms.insert(k.clone(), scaled);
            }
        }
        LinForm { terms, cst: imul(self.cst, factor) }
    }

    /// Adds an absolute error `[−e, e]` to the constant term.
    #[must_use]
    pub fn add_error(&self, e: f64) -> Self {
        let mut out = self.clone();
        out.cst = iadd(out.cst, FloatItv::new(-e, e));
        out
    }

    /// Evaluates the form in an interval environment.
    pub fn eval(&self, lookup: impl Fn(&K) -> FloatItv) -> FloatItv {
        let mut acc = self.cst;
        for (k, c) in &self.terms {
            acc = iadd(acc, imul(*c, lookup(k)));
        }
        acc
    }

    /// Absorbs the floating-point rounding error of evaluating this form at
    /// format `kind` into the constant term (paper Sect. 6.3: "add the error
    /// contribution for each operator … an absolute error interval").
    ///
    /// The absolute error of one rounded operation with result magnitude `m`
    /// is at most `m·f + s` (`f` the unit roundoff, `s` the subnormal
    /// floor); a linear form with `n` terms costs at most `n + 1`
    /// operations, evaluated here against the environment to bound `m`.
    #[must_use]
    pub fn absorb_rounding(&self, kind: FloatKind, lookup: impl Fn(&K) -> FloatItv) -> Self {
        let v = self.eval(&lookup);
        if v.is_bottom() {
            return self.clone();
        }
        // Magnitude of intermediate results is bounded by the sum of term
        // magnitudes (no cancellation helps the worst case).
        let mut mag = self.cst.lo.abs().max(self.cst.hi.abs());
        for (k, c) in &self.terms {
            let t = imul(*c, lookup(k));
            if t.is_bottom() {
                continue;
            }
            mag = round::add_up(mag, t.lo.abs().max(t.hi.abs()));
        }
        let f = match kind {
            FloatKind::F64 => UNIT_ROUNDOFF,
            // binary32 unit roundoff 2⁻²⁴.
            FloatKind::F32 => 5.960464477539063e-08,
        };
        let ops = (self.terms.len() + 1) as f64;
        let e = round::add_up(round::mul_up(round::mul_up(mag, f), ops), MIN_SUBNORMAL * ops);
        self.add_error(e)
    }
}

impl<K: Ord + Clone + fmt::Display> fmt::Display for LinForm<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, c) in &self.terms {
            if let Some(v) = c.as_singleton() {
                write!(f, "{v}·{k} + ")?;
            } else {
                write!(f, "[{}, {}]·{k} + ", c.lo, c.hi)?;
            }
        }
        if let Some(v) = self.cst.as_singleton() {
            write!(f, "{v}")
        } else {
            write!(f, "[{}, {}]", self.cst.lo, self.cst.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(x: FloatItv) -> impl Fn(&&'static str) -> FloatItv {
        move |_| x
    }

    #[test]
    fn the_paper_example() {
        // X := X − 0.2·X in X ∈ [0, 1]: naive gives [−0.2, 1], linear form
        // gives [0, 0.8].
        let x: LinForm<&str> = LinForm::var("X");
        let l = x.sub(&x.scale(FloatItv::singleton(0.2)));
        let v = l.eval(env(FloatItv::new(0.0, 1.0)));
        assert!(v.lo >= -1e-12, "{v}");
        assert!(v.hi <= 0.8 + 1e-12, "{v}");
        // The coefficient is ~0.8 (one outward-rounded subtraction).
        let c = l.coeff(&"X");
        assert!(c.lo <= 0.8 && 0.8 <= c.hi);
    }

    #[test]
    fn shapes_for_octagon_assignments() {
        let y: LinForm<&str> = LinForm::var("Y");
        let form = y.add(&LinForm::constant(FloatItv::new(1.0, 2.0)));
        let (v, c) = form.as_unit_var_plus_const().expect("unit shape");
        assert_eq!(*v, "Y");
        assert_eq!(c, FloatItv::new(1.0, 2.0));
        let neg = y.neg().add(&LinForm::constant(FloatItv::singleton(0.0)));
        assert!(neg.as_unit_var_plus_const().is_none());
    }

    #[test]
    fn add_merges_and_cancels() {
        let x: LinForm<&str> = LinForm::var("X");
        let sum = x.add(&x.neg());
        assert!(sum.is_constant());
        let two = x.add(&x);
        assert_eq!(two.coeff(&"X"), FloatItv::singleton(2.0));
    }

    #[test]
    fn eval_is_sound_for_scaling() {
        let x: LinForm<&str> = LinForm::var("X");
        let l = x.scale(FloatItv::singleton(0.1)); // 0.1·X
        let v = l.eval(env(FloatItv::new(-3.0, 7.0)));
        for sample in [-3.0, 0.0, 7.0, 2.5] {
            let concrete = 0.1 * sample;
            assert!(v.contains(concrete), "{v} misses {concrete}");
        }
    }

    #[test]
    fn rounding_absorption_grows_cst() {
        let x: LinForm<&str> = LinForm::var("X");
        let l = x.scale(FloatItv::singleton(0.25));
        let with_err = l.absorb_rounding(FloatKind::F32, env(FloatItv::new(0.0, 100.0)));
        assert!(with_err.cst().lo < 0.0 && with_err.cst().hi > 0.0);
        // The f32 error at magnitude 25 is around 25·2⁻²⁴ ≈ 1.5e-6.
        assert!(with_err.cst().hi < 1e-4);
        assert!(with_err.cst().hi > 1e-7);
    }

    #[test]
    fn display_is_readable() {
        let x: LinForm<&str> = LinForm::var("X");
        let l = x.scale(FloatItv::singleton(2.0)).add(&LinForm::constant(FloatItv::singleton(1.0)));
        assert_eq!(l.to_string(), "2·X + 1");
    }
}
