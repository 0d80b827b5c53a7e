//! Integer intervals with ±∞ bounds.
//!
//! Bounds use `i64` with `i64::MIN`/`i64::MAX` as −∞/+∞ sentinels; all
//! arithmetic goes through `i128` and saturates onto the sentinels, which is
//! sound because the caller (the memory domain's transfer function) clips
//! every result against the operation type's range and raises the overflow
//! flag when clipping was needed.

use crate::thresholds::Thresholds;
use astree_ir::IntType;
use std::fmt;

/// −∞ sentinel.
const NEG: i64 = i64::MIN;
/// +∞ sentinel.
const POS: i64 = i64::MAX;

/// An integer interval `[lo, hi]` (empty when `lo > hi`).
///
/// # Examples
///
/// ```
/// use astree_domains::IntItv;
/// let a = IntItv::new(0, 10);
/// let b = IntItv::new(5, 20);
/// assert_eq!(a.join(b), IntItv::new(0, 20));
/// assert_eq!(a.meet(b), IntItv::new(5, 10));
/// assert_eq!(a.add(b), IntItv::new(5, 30));
/// assert!(a.meet(IntItv::new(11, 12)).is_bottom());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntItv {
    /// Lower bound (`i64::MIN` = −∞).
    pub lo: i64,
    /// Upper bound (`i64::MAX` = +∞).
    pub hi: i64,
}

fn clamp128(v: i128) -> i64 {
    if v <= NEG as i128 {
        NEG
    } else if v >= POS as i128 {
        POS
    } else {
        v as i64
    }
}

impl IntItv {
    /// The empty interval ⊥.
    pub const BOTTOM: IntItv = IntItv { lo: 1, hi: 0 };
    /// The full interval ⊤ = [−∞, +∞].
    pub const TOP: IntItv = IntItv { lo: NEG, hi: POS };

    /// `[lo, hi]`; empty if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> IntItv {
        IntItv { lo, hi }
    }

    /// `[v, v]`.
    pub fn singleton(v: i64) -> IntItv {
        IntItv { lo: v, hi: v }
    }

    /// The representable range of an integer type.
    pub fn of_type(t: IntType) -> IntItv {
        IntItv { lo: t.min(), hi: t.max() }
    }

    /// `true` for the empty interval.
    pub fn is_bottom(self) -> bool {
        self.lo > self.hi
    }

    /// `true` if `v` is in the interval.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `Some(v)` if the interval is the single value `v`.
    pub fn as_singleton(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Inclusion test `self ⊑ other`.
    pub fn leq(self, other: IntItv) -> bool {
        self.is_bottom() || (other.lo <= self.lo && self.hi <= other.hi)
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: IntItv) -> IntItv {
        if self.is_bottom() {
            return other;
        }
        if other.is_bottom() {
            return self;
        }
        IntItv { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Greatest lower bound.
    #[must_use]
    pub fn meet(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        IntItv { lo: self.lo.max(other.lo), hi: self.hi.min(other.hi) }
    }

    /// Widening with thresholds (paper Sect. 7.1.2): an escaping bound jumps
    /// to the next threshold of the ramp instead of ±∞.
    #[must_use]
    pub fn widen(self, other: IntItv, thresholds: &Thresholds) -> IntItv {
        if self.is_bottom() {
            return other;
        }
        if other.is_bottom() {
            return self;
        }
        let lo = if other.lo < self.lo { thresholds.below_int(other.lo) } else { self.lo };
        let hi = if other.hi > self.hi { thresholds.above_int(other.hi) } else { self.hi };
        IntItv { lo, hi }
    }

    /// Narrowing: refine infinite bounds with the other side's.
    #[must_use]
    pub fn narrow(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        IntItv {
            lo: if self.lo == NEG { other.lo } else { self.lo },
            hi: if self.hi == POS { other.hi } else { self.hi },
        }
    }

    // ----- arithmetic (exact ranges; caller clips to the op type) --------

    /// `-self`.
    #[must_use]
    pub fn neg(self) -> IntItv {
        if self.is_bottom() {
            return self;
        }
        IntItv { lo: clamp128(-(self.hi as i128)), hi: clamp128(-(self.lo as i128)) }
    }

    /// `self + other` (exact).
    #[must_use]
    pub fn add(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        IntItv {
            lo: if self.lo == NEG || other.lo == NEG {
                NEG
            } else {
                clamp128(self.lo as i128 + other.lo as i128)
            },
            hi: if self.hi == POS || other.hi == POS {
                POS
            } else {
                clamp128(self.hi as i128 + other.hi as i128)
            },
        }
    }

    /// `self - other` (exact).
    #[must_use]
    pub fn sub(self, other: IntItv) -> IntItv {
        self.add(other.neg())
    }

    /// `self * other` (exact).
    #[must_use]
    pub fn mul(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        // Infinite bounds require sign reasoning; go through i128 products of
        // the four corners with ∞ handled as a huge-but-signed value, which
        // is correct because clamp128 saturates back onto the sentinels.
        let big = |v: i64| -> i128 {
            match v {
                NEG => -(1i128 << 100),
                POS => 1i128 << 100,
                v => v as i128,
            }
        };
        let cands = [
            big(self.lo) * big(other.lo),
            big(self.lo) * big(other.hi),
            big(self.hi) * big(other.lo),
            big(self.hi) * big(other.hi),
        ];
        IntItv {
            lo: clamp128(*cands.iter().min().expect("non-empty")),
            hi: clamp128(*cands.iter().max().expect("non-empty")),
        }
    }

    /// C truncating division `self / other`, with 0 excluded from the
    /// divisor. Returns ⊥ when the divisor is exactly {0} (no non-erroneous
    /// execution). The caller flags the potential division by zero.
    #[must_use]
    pub fn div(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        let mut out = IntItv::BOTTOM;
        // Negative part of the divisor.
        if other.lo <= -1 {
            out = out.join(self.div_part(other.lo, other.hi.min(-1)));
        }
        // Positive part of the divisor.
        if other.hi >= 1 {
            out = out.join(self.div_part(other.lo.max(1), other.hi));
        }
        out
    }

    /// Division by a same-sign, zero-free divisor range.
    fn div_part(self, dlo: i64, dhi: i64) -> IntItv {
        let divq = |a: i64, d: i64| -> i128 {
            match (a, d) {
                (NEG, d) if d > 0 => -(1i128 << 100),
                (NEG, _) => 1i128 << 100,
                (POS, d) if d > 0 => 1i128 << 100,
                (POS, _) => -(1i128 << 100),
                // d is finite and non-zero here; ∞ divisors cannot occur
                // because the parts are derived from finite comparisons.
                (a, d) => (a as i128) / (d as i128),
            }
        };
        let ds = [dlo, dhi];
        let asx = [self.lo, self.hi];
        let mut lo = i128::MAX;
        let mut hi = i128::MIN;
        for &a in &asx {
            for &d in &ds {
                let q = divq(a, d);
                lo = lo.min(q);
                hi = hi.max(q);
            }
        }
        // Truncation is not monotone through zero crossings of the numerator;
        // include 0 when the numerator straddles it.
        if self.lo < 0 && self.hi > 0 {
            lo = lo.min(0);
            hi = hi.max(0);
        }
        IntItv { lo: clamp128(lo), hi: clamp128(hi) }
    }

    /// C remainder `self % other` (sign follows the dividend), divisor 0
    /// excluded.
    #[must_use]
    pub fn rem(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        // Largest |divisor| − 1 bounds |result|.
        let dmax = match (other.lo, other.hi) {
            (NEG, _) | (_, POS) => POS,
            (lo, hi) => lo.abs().max(hi.abs()).saturating_sub(1),
        };
        if other.lo > -1 && other.hi < 1 {
            return IntItv::BOTTOM; // divisor is exactly {0}
        }
        let lo = if self.lo >= 0 { 0 } else { (-dmax).max(self.lo) };
        let hi = if self.hi <= 0 { 0 } else { dmax.min(self.hi) };
        IntItv { lo, hi }
    }

    /// `self << other` for in-range shift amounts (callers validate range).
    #[must_use]
    pub fn shl(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        let amounts = IntItv { lo: other.lo.clamp(0, 63), hi: other.hi.clamp(0, 63) };
        let mut out = IntItv::BOTTOM;
        for d in [amounts.lo, amounts.hi] {
            let f = 1i128 << d;
            let m = IntItv {
                lo: if self.lo == NEG { NEG } else { clamp128(self.lo as i128 * f) },
                hi: if self.hi == POS { POS } else { clamp128(self.hi as i128 * f) },
            };
            out = out.join(m);
        }
        out
    }

    /// `self >> other` (arithmetic shift) for in-range amounts.
    #[must_use]
    pub fn shr(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        let mut out = IntItv::BOTTOM;
        for d in [other.lo.clamp(0, 63), other.hi.clamp(0, 63)] {
            let m = IntItv {
                lo: if self.lo == NEG { NEG } else { self.lo >> d },
                hi: if self.hi == POS { POS } else { self.hi >> d },
            };
            out = out.join(m);
        }
        out
    }

    /// Bitwise AND — precise for non-negative operands, conservative
    /// otherwise.
    #[must_use]
    pub fn bitand(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        if self.lo >= 0 && other.lo >= 0 {
            // 0 ≤ a & b ≤ min(max a, max b)
            IntItv { lo: 0, hi: self.hi.min(other.hi) }
        } else {
            IntItv::TOP
        }
    }

    /// Bitwise OR — precise-ish for non-negative operands.
    #[must_use]
    pub fn bitor(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        if self.lo >= 0 && other.lo >= 0 && self.hi != POS && other.hi != POS {
            // a | b < 2^ceil(log2(max+1)) for the wider operand
            let bound = next_pow2_minus1(self.hi.max(other.hi));
            IntItv { lo: self.lo.max(other.lo), hi: bound }
        } else {
            IntItv::TOP
        }
    }

    /// Bitwise XOR — bounded for non-negative operands.
    #[must_use]
    pub fn bitxor(self, other: IntItv) -> IntItv {
        if self.is_bottom() || other.is_bottom() {
            return IntItv::BOTTOM;
        }
        if self.lo >= 0 && other.lo >= 0 && self.hi != POS && other.hi != POS {
            IntItv { lo: 0, hi: next_pow2_minus1(self.hi.max(other.hi)) }
        } else {
            IntItv::TOP
        }
    }

    /// Bitwise complement `~x = −x − 1` (exact).
    #[must_use]
    pub fn bitnot(self) -> IntItv {
        self.neg().sub(IntItv::singleton(1))
    }

    /// Abstract conversion to integer type `t`: identity when the value fits,
    /// otherwise the full type range (C conversions wrap; the precise wrap
    /// image of a large interval is the whole type anyway).
    #[must_use]
    pub fn convert_to(self, t: IntType) -> IntItv {
        if self.is_bottom() {
            return self;
        }
        let r = IntItv::of_type(t);
        if self.leq(r) {
            self
        } else if t.is_bool() {
            // _Bool: 0 stays 0, anything else 1.
            let can_zero = self.contains(0);
            let can_nonzero = self.lo != 0 || self.hi != 0;
            match (can_zero, can_nonzero) {
                (true, true) => IntItv::new(0, 1),
                (true, false) => IntItv::singleton(0),
                (false, _) => IntItv::singleton(1),
            }
        } else if let Some(v) = self.as_singleton() {
            IntItv::singleton(t.wrap(v))
        } else {
            r
        }
    }
}

fn next_pow2_minus1(v: i64) -> i64 {
    let mut b = 1i64;
    while b - 1 < v && b < (1 << 62) {
        b <<= 1;
    }
    b - 1
}

impl fmt::Display for IntItv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            return write!(f, "⊥");
        }
        match (self.lo, self.hi) {
            (NEG, POS) => write!(f, "[-inf, +inf]"),
            (NEG, h) => write!(f, "[-inf, {h}]"),
            (l, POS) => write!(f, "[{l}, +inf]"),
            (l, h) => write!(f, "[{l}, {h}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_laws() {
        let a = IntItv::new(0, 5);
        let b = IntItv::new(3, 9);
        assert!(a.leq(a.join(b)));
        assert!(b.leq(a.join(b)));
        assert!(a.meet(b).leq(a));
        assert!(IntItv::BOTTOM.leq(a));
        assert!(a.leq(IntItv::TOP));
        assert_eq!(a.join(IntItv::BOTTOM), a);
        assert_eq!(a.meet(IntItv::TOP), a);
    }

    #[test]
    fn arithmetic_ranges() {
        let a = IntItv::new(-2, 3);
        let b = IntItv::new(4, 5);
        assert_eq!(a.add(b), IntItv::new(2, 8));
        assert_eq!(a.sub(b), IntItv::new(-7, -1));
        assert_eq!(a.mul(b), IntItv::new(-10, 15));
        assert_eq!(a.neg(), IntItv::new(-3, 2));
    }

    #[test]
    fn division_excludes_zero() {
        let a = IntItv::new(10, 20);
        assert_eq!(a.div(IntItv::new(2, 5)), IntItv::new(2, 10));
        // Divisor straddling zero: both signed parts contribute.
        let d = IntItv::new(-2, 2);
        let q = a.div(d);
        assert!(q.contains(10) && q.contains(-10) && q.contains(20) && q.contains(-20));
        // Divisor exactly zero: bottom.
        assert!(a.div(IntItv::singleton(0)).is_bottom());
    }

    #[test]
    fn division_trunc_toward_zero() {
        let a = IntItv::new(-7, 7);
        let q = a.div(IntItv::singleton(2));
        assert_eq!(q, IntItv::new(-3, 3));
        let q = IntItv::new(-7, -3).div(IntItv::singleton(2));
        assert_eq!(q, IntItv::new(-3, -1));
    }

    #[test]
    fn remainder_bounds() {
        let a = IntItv::new(0, 100);
        assert_eq!(a.rem(IntItv::singleton(7)), IntItv::new(0, 6));
        let b = IntItv::new(-100, 100);
        assert_eq!(b.rem(IntItv::singleton(10)), IntItv::new(-9, 9));
        let c = IntItv::new(-5, -1);
        assert_eq!(c.rem(IntItv::singleton(10)), IntItv::new(-5, 0));
    }

    #[test]
    fn shifts() {
        let a = IntItv::new(1, 4);
        assert_eq!(a.shl(IntItv::singleton(2)), IntItv::new(4, 16));
        assert_eq!(IntItv::new(8, 32).shr(IntItv::singleton(3)), IntItv::new(1, 4));
        assert_eq!(a.shl(IntItv::new(0, 2)), IntItv::new(1, 16));
    }

    #[test]
    fn bit_ops_nonnegative() {
        let a = IntItv::new(0, 12);
        let b = IntItv::new(0, 5);
        assert_eq!(a.bitand(b), IntItv::new(0, 5));
        assert!(a.bitor(b).hi >= 13); // 12|5 = 13, bound is 15
        assert!(a.bitor(b).hi <= 15);
        assert_eq!(a.bitxor(b).lo, 0);
        // Negative operands degrade to top.
        assert_eq!(IntItv::new(-1, 1).bitand(b), IntItv::TOP);
    }

    #[test]
    fn bitnot_is_exact() {
        assert_eq!(IntItv::new(0, 3).bitnot(), IntItv::new(-4, -1));
    }

    #[test]
    fn widen_uses_thresholds() {
        let t = Thresholds::geometric(1.0, 10.0, 3);
        let a = IntItv::new(0, 5);
        let b = IntItv::new(0, 12);
        assert_eq!(a.widen(b, &t), IntItv::new(0, 100));
        let c = IntItv::new(-3, 5);
        assert_eq!(a.widen(c, &t), IntItv::new(-10, 5));
        // Beyond the ramp: ±∞.
        let d = IntItv::new(0, 5000);
        assert_eq!(a.widen(d, &t).hi, POS);
        // Stable bounds stay put.
        assert_eq!(a.widen(IntItv::new(1, 4), &t), a);
    }

    #[test]
    fn narrow_refines_infinite_bounds() {
        let w = IntItv::new(0, POS);
        let f = IntItv::new(0, 17);
        assert_eq!(w.narrow(f), IntItv::new(0, 17));
        // Finite bounds are kept.
        assert_eq!(IntItv::new(0, 9).narrow(f), IntItv::new(0, 9));
    }

    #[test]
    fn conversions() {
        assert_eq!(IntItv::new(0, 100).convert_to(IntType::UCHAR), IntItv::new(0, 100));
        assert_eq!(IntItv::new(0, 300).convert_to(IntType::UCHAR), IntItv::new(0, 255));
        assert_eq!(IntItv::singleton(300).convert_to(IntType::UCHAR), IntItv::singleton(44));
        assert_eq!(IntItv::new(0, 5).convert_to(IntType::BOOL), IntItv::new(0, 1));
        assert_eq!(IntItv::new(1, 5).convert_to(IntType::BOOL), IntItv::singleton(1));
        assert_eq!(IntItv::singleton(0).convert_to(IntType::BOOL), IntItv::singleton(0));
    }

    #[test]
    fn saturation_at_sentinels() {
        let big = IntItv::new(i64::MAX / 2, i64::MAX - 1);
        let sum = big.add(big);
        assert_eq!(sum.hi, POS);
        let prod = big.mul(big);
        assert_eq!(prod.hi, POS);
    }

    #[test]
    fn display_forms() {
        assert_eq!(IntItv::new(1, 2).to_string(), "[1, 2]");
        assert_eq!(IntItv::TOP.to_string(), "[-inf, +inf]");
        assert_eq!(IntItv::BOTTOM.to_string(), "⊥");
    }

    // Exhaustive soundness check on small ranges: the abstract op contains
    // every concrete result.
    fn check_sound(
        f_abs: impl Fn(IntItv, IntItv) -> IntItv,
        f_conc: impl Fn(i64, i64) -> Option<i64>,
    ) {
        let ranges = [(-3i64, 3i64), (0, 5), (-5, -1), (2, 2), (-1, 4)];
        for &(alo, ahi) in &ranges {
            for &(blo, bhi) in &ranges {
                let r = f_abs(IntItv::new(alo, ahi), IntItv::new(blo, bhi));
                for x in alo..=ahi {
                    for y in blo..=bhi {
                        if let Some(v) = f_conc(x, y) {
                            assert!(
                                r.contains(v),
                                "[{alo},{ahi}] op [{blo},{bhi}] = {r} misses {x} op {y} = {v}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustive_soundness() {
        check_sound(|a, b| a.add(b), |x, y| Some(x + y));
        check_sound(|a, b| a.sub(b), |x, y| Some(x - y));
        check_sound(|a, b| a.mul(b), |x, y| Some(x * y));
        check_sound(|a, b| a.div(b), |x, y| (y != 0).then(|| x / y));
        check_sound(|a, b| a.rem(b), |x, y| (y != 0).then(|| x % y));
        check_sound(|a, b| a.shl(b), |x, y| (0..8).contains(&y).then(|| x << y));
        check_sound(|a, b| a.bitand(b), |x, y| Some(x & y));
        check_sound(|a, b| a.bitor(b), |x, y| Some(x | y));
        check_sound(|a, b| a.bitxor(b), |x, y| Some(x ^ y));
    }
}
