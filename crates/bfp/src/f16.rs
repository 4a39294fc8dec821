//! Software IEEE 754 binary16 ("half precision") floating point.
//!
//! The Brainwave multifunction units execute point-wise vector operations and
//! activation functions in float16 (§VI: "secondary operations … still
//! execute as float16 on hardware"). This module provides a from-scratch
//! software binary16: the bit-level storage format, correctly rounded
//! conversions to and from `f32` (round-to-nearest-even, subnormal, infinity
//! and NaN handling), and arithmetic defined as the correctly rounded result
//! of the corresponding `f32` operation — the same behaviour a hardware FP16
//! unit with an internal wide datapath exhibits.

use std::cmp::Ordering;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

/// An IEEE 754 binary16 floating point number (1 sign, 5 exponent, 10
/// mantissa bits), stored as its raw bit pattern.
///
/// Arithmetic operations round to nearest-even, matching a hardware float16
/// unit. All operations saturate to ±infinity on overflow and flush to
/// (signed) zero on underflow past the smallest subnormal, exactly as IEEE
/// 754 prescribes.
///
/// # Example
///
/// ```
/// use bw_bfp::F16;
///
/// let a = F16::from_f32(1.5);
/// let b = F16::from_f32(2.25);
/// assert_eq!((a + b).to_f32(), 3.75);
/// ```
#[derive(Clone, Copy, Default)]
pub struct F16(u16);

const F16_SIGN_MASK: u16 = 0x8000;
const F16_EXP_MASK: u16 = 0x7C00;
const F16_MAN_MASK: u16 = 0x03FF;

impl F16 {
    /// Positive zero.
    pub(crate) const ZERO: F16 = F16(0x0000);
    /// One.
    #[cfg(test)]
    pub(crate) const ONE: F16 = F16(0x3C00);
    /// Positive infinity.
    #[cfg(test)]
    pub(crate) const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    #[cfg(test)]
    pub(crate) const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// The largest finite value, 65504.
    #[cfg(test)]
    pub(crate) const MAX: F16 = F16(0x7BFF);
    /// The smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// The difference between 1.0 and the next larger representable value.
    #[cfg(test)]
    pub(crate) const EPSILON: F16 = F16(0x1400);

    /// Creates an `F16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to the nearest representable `F16`
    /// (round-to-nearest-even).
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x7F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN. Preserve NaN-ness (quiet bit set).
            return if man == 0 {
                F16(sign | F16_EXP_MASK)
            } else {
                F16(sign | F16_EXP_MASK | 0x0200 | ((man >> 13) as u16 & F16_MAN_MASK))
            };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflows f16 range: round to infinity.
            return F16(sign | F16_EXP_MASK);
        }
        if unbiased >= -14 {
            // Normal f16 range. 23-bit mantissa -> 10-bit with RNE.
            let half_exp = (unbiased + 15) as u16;
            let mut half_man = (man >> 13) as u16;
            let round_bits = man & 0x1FFF;
            // Round to nearest even on the 13 dropped bits.
            if round_bits > 0x1000 || (round_bits == 0x1000 && (half_man & 1) == 1) {
                half_man += 1;
            }
            // Mantissa carry can ripple into the exponent; the bit layout
            // makes the carry arithmetic fall out naturally.
            let combined = ((half_exp << 10) | (half_man & F16_MAN_MASK))
                + if half_man > F16_MAN_MASK { 0x0400 } else { 0 };
            if combined >= F16_EXP_MASK {
                return F16(sign | F16_EXP_MASK);
            }
            return F16(sign | combined);
        }
        if unbiased >= -25 {
            // Subnormal f16 range: shift in the implicit leading one.
            let full_man = man | 0x80_0000;
            let shift = (-14 - unbiased + 13) as u32;
            let mut half_man = (full_man >> shift) as u16;
            let dropped = full_man & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            if dropped > halfway || (dropped == halfway && (half_man & 1) == 1) {
                half_man += 1;
            }
            // A carry out of the subnormal mantissa correctly lands in the
            // smallest normal encoding.
            return F16(sign | half_man);
        }
        // Underflows to signed zero.
        F16(sign)
    }

    /// Converts this `F16` to `f32` exactly (every binary16 value is
    /// representable in binary32).
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & F16_SIGN_MASK) << 16;
        let exp = (self.0 & F16_EXP_MASK) >> 10;
        let man = u32::from(self.0 & F16_MAN_MASK);

        let bits = match exp {
            0 => {
                if man == 0 {
                    sign
                } else {
                    // Subnormal: value = man * 2^-24. Normalize around the
                    // mantissa's most significant bit at position `p`.
                    let p = 31 - man.leading_zeros(); // 0..=9
                    let exp32 = 103 + p; // p - 24 + 127
                    let man32 = (man << (23 - p)) & 0x7F_FFFF;
                    sign | (exp32 << 23) | man32
                }
            }
            0x1F => sign | 0x7F80_0000 | (man << 13),
            _ => {
                let exp32 = u32::from(exp) + 127 - 15;
                sign | (exp32 << 23) | (man << 13)
            }
        };
        f32::from_bits(bits)
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & F16_EXP_MASK) == F16_EXP_MASK && (self.0 & F16_MAN_MASK) != 0
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[cfg(test)]
    #[inline]
    pub(crate) fn is_infinite(self) -> bool {
        (self.0 & !F16_SIGN_MASK) == F16_EXP_MASK
    }

    /// Returns `true` if the sign bit is set (including `-0.0` and NaNs with
    /// the sign bit set).
    #[inline]
    pub(crate) fn is_sign_negative(self) -> bool {
        (self.0 & F16_SIGN_MASK) != 0
    }

    /// The larger of two values, propagating NaN like `f32::max` does not:
    /// if either operand is NaN the result is NaN, matching the strict
    /// hardware comparator used in the MFU `vv_max` unit.
    pub fn max(self, other: Self) -> Self {
        if self.is_nan() || other.is_nan() {
            return F16::NAN;
        }
        if self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// The logistic sigmoid `1 / (1 + e^-x)`, computed in f32 and rounded to
    /// f16 — the behaviour of the MFU sigmoid unit, which uses a piecewise
    /// interpolation accurate to the output precision.
    pub fn sigmoid(self) -> Self {
        let x = self.to_f32();
        F16::from_f32(1.0 / (1.0 + (-x).exp()))
    }

    /// The hyperbolic tangent, computed in f32 and rounded to f16.
    pub fn tanh(self) -> Self {
        F16::from_f32(self.to_f32().tanh())
    }

    /// The rectified linear unit `max(x, 0)`; NaN inputs produce NaN.
    pub fn relu(self) -> Self {
        if self.is_nan() {
            return F16::NAN;
        }
        if self.is_sign_negative() && self.0 != F16_SIGN_MASK {
            // Negative non-zero flushes to +0; -0.0 also maps to +0.
            F16::ZERO
        } else if self.0 == F16_SIGN_MASK {
            F16::ZERO
        } else {
            self
        }
    }
}

/// Rounds an `f32` to the nearest binary16 value (ties to even), returned as
/// an `f32`: exactly `F16::from_f32(value).to_f32()`, without building the
/// `F16` in the common case.
///
/// A value whose result is a normal binary16 (or a zero) is rounded by
/// integer add-and-mask on its bits: dropping the low 13 mantissa bits with
/// round-to-nearest-even is `(bits + 0xFFF + lsb) & !0x1FFF`, and a mantissa
/// carry lands in the exponent field as it should. NaN, infinities, values
/// at or above 65520 (which round to infinity) and the subnormal range take
/// the [`F16`] conversions.
///
/// # Example
///
/// ```
/// use bw_bfp::round_to_f16;
///
/// assert_eq!(round_to_f16(1.0 + 2.0f32.powi(-12)), 1.0);
/// assert_eq!(round_to_f16(65519.0), 65504.0);
/// assert!(round_to_f16(65520.0).is_infinite());
/// ```
#[inline]
pub fn round_to_f16(value: f32) -> f32 {
    /// 2^-14, the smallest normal binary16.
    const NORMAL_MIN: u32 = 0x3880_0000;
    /// 65520, halfway from the largest finite binary16 to 2^16.
    const OVERFLOW: u32 = 0x477F_F000;
    let bits = value.to_bits();
    let magnitude = bits & 0x7FFF_FFFF;
    if magnitude.wrapping_sub(NORMAL_MIN) < OVERFLOW - NORMAL_MIN || magnitude == 0 {
        f32::from_bits(bits.wrapping_add(0xFFF + ((bits >> 13) & 1)) & !0x1FFF)
    } else {
        F16::from_f32(value).to_f32()
    }
}

/// One activation's result for every binary16 input, as the MFU reads
/// `v_sigm` and `v_tanh`: each rounds its input to the binary16 grid first,
/// so it is a function of 65,536 possible inputs, indexed by the input's
/// bits. An entry is filled on its first touch by the [`F16`] function, so
/// a table costs no set-up, is bit-identical to evaluating every element by
/// construction, and holds resident pages only for the binades inputs land
/// in (1,024 entries, one 4 KiB page, per sign and binade).
///
/// `0` is an entry not yet filled; a filled one is the result's `f32` bits
/// with bit 0 set, which a value on the binary16 grid leaves clear.
/// Lookups and fills are single `Relaxed` atomic loads and stores, never a
/// vector gather, which could race a thread filling the same entry: an
/// entry publishes nothing but itself, and threads that race to fill one
/// store the same bits.
pub(crate) struct Table([AtomicU32; 1 << 16]);

/// [`F16::sigmoid`] of every binary16 input.
pub(crate) static SIGMOID: Table = Table::new();
/// [`F16::tanh`] of every binary16 input.
pub(crate) static TANH: Table = Table::new();

impl Table {
    pub(crate) const fn new() -> Self {
        Table([const { AtomicU32::new(0) }; 1 << 16])
    }

    /// `f` of the binary16 value with bits `h`, as an `f32`; `f` is the
    /// table's function, which fills the entry if this is its first touch.
    #[inline(always)]
    pub(crate) fn get(&self, h: u16, f: fn(F16) -> F16) -> f32 {
        match self.0[usize::from(h)].load(AtomicOrdering::Relaxed) {
            0 => self.fill(h, f),
            filled => f32::from_bits(filled & !1),
        }
    }

    #[cold]
    #[inline(never)]
    fn fill(&self, h: u16, f: fn(F16) -> F16) -> f32 {
        let y = f(F16::from_bits(h)).to_f32();
        debug_assert_eq!(y.to_bits() & 1, 0, "{y} is not on the binary16 grid");
        self.0[usize::from(h)].store(y.to_bits() | 1, AtomicOrdering::Relaxed);
        y
    }
}

impl From<f32> for F16 {
    fn from(value: f32) -> Self {
        F16::from_f32(value)
    }
}

impl From<F16> for f32 {
    fn from(value: F16) -> Self {
        value.to_f32()
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &Self) -> bool {
        // IEEE semantics: NaN != NaN, -0.0 == +0.0.
        self.to_f32() == other.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

macro_rules! f16_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F16 {
            type Output = F16;
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

f16_binop!(Add, add, +);
f16_binop!(Sub, sub, -);
f16_binop!(Mul, mul, *);
f16_binop!(Div, div, /);

impl std::ops::Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ F16_SIGN_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_round_trip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_sign_negative());
        assert!(F16::NAN.is_nan());
    }

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "integer {i}");
        }
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite());
        assert!(F16::from_f32(1e9).is_infinite());
        assert!(F16::from_f32(-1e9).is_infinite());
        assert!(F16::from_f32(-1e9).is_sign_negative());
        // 65504 is the max finite value; 65519.99 still rounds down to it.
        assert_eq!(F16::from_f32(65504.0).to_f32(), 65504.0);
    }

    #[test]
    fn underflow_flushes_to_signed_zero() {
        let tiny = 2.0f32.powi(-26); // half the smallest subnormal
        assert_eq!(F16::from_f32(tiny * 0.99).to_bits(), 0);
        assert_eq!(F16::from_f32(-tiny * 0.99).to_bits(), F16_SIGN_MASK);
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest subnormal is 2^-24.
        let s = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(s).to_f32(), s);
        assert_eq!(F16::from_f32(3.0 * s).to_f32(), 3.0 * s);
        let largest_subnormal = 1023.0 * s;
        assert_eq!(F16::from_f32(largest_subnormal).to_f32(), largest_subnormal);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10; RNE keeps
        // the even mantissa (1.0).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; RNE picks the
        // even mantissa 1+2^-9.
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway_up).to_f32(), 1.0 + 2.0f32.powi(-9));
        // Just above halfway rounds up.
        assert_eq!(
            F16::from_f32(halfway + 2.0f32.powi(-20)).to_f32(),
            1.0 + 2.0f32.powi(-10)
        );
    }

    #[test]
    fn nan_propagates_through_conversion() {
        let nan = F16::from_f32(f32::NAN);
        assert!(nan.is_nan());
        assert!(nan.to_f32().is_nan());
    }

    #[test]
    fn arithmetic_matches_f32_reference() {
        let cases = [
            (1.5f32, 2.25f32),
            (-4.0, 0.5),
            (1000.0, 0.125),
            (0.1, 0.2),
            (-0.0, 0.0),
        ];
        for (a, b) in cases {
            let (ha, hb) = (F16::from_f32(a), F16::from_f32(b));
            assert_eq!(
                (ha + hb).to_f32(),
                F16::from_f32(ha.to_f32() + hb.to_f32()).to_f32()
            );
            assert_eq!(
                (ha * hb).to_f32(),
                F16::from_f32(ha.to_f32() * hb.to_f32()).to_f32()
            );
        }
    }

    #[test]
    fn saturating_add_overflow() {
        let big = F16::from_f32(60000.0);
        assert!((big + big).is_infinite());
    }

    #[test]
    fn activation_functions() {
        assert_eq!(F16::ZERO.sigmoid().to_f32(), 0.5);
        assert_eq!(F16::ZERO.tanh().to_f32(), 0.0);
        assert_eq!(F16::from_f32(-3.0).relu().to_f32(), 0.0);
        assert_eq!(F16::from_f32(3.0).relu().to_f32(), 3.0);
        assert!(F16::from_f32(10.0).sigmoid().to_f32() > 0.9999);
        assert!(F16::from_f32(-10.0).sigmoid().to_f32() < 0.0001);
        assert!((F16::from_f32(1.0).tanh().to_f32() - 0.7617).abs() < 1e-3);
        assert!(F16::NAN.relu().is_nan());
    }

    #[test]
    fn max_propagates_nan() {
        assert!(F16::NAN.max(F16::ONE).is_nan());
        assert!(F16::ONE.max(F16::NAN).is_nan());
        assert_eq!(F16::ONE.max(F16::ZERO), F16::ONE);
    }

    #[test]
    fn neg_flips_sign_bit_only() {
        assert_eq!((-F16::ONE).to_f32(), -1.0);
        assert_eq!((-F16::ZERO).to_bits(), F16_SIGN_MASK);
        assert!((-F16::NAN).is_nan());
    }

    #[test]
    fn ordering_matches_f32() {
        let a = F16::from_f32(1.0);
        let b = F16::from_f32(2.0);
        assert!(a < b);
        assert!(b > a);
        assert!(F16::NAN.partial_cmp(&a).is_none());
    }

    fn assert_rounds_like_f16(x: f32) {
        let want = F16::from_f32(x).to_f32();
        let got = round_to_f16(x);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{x:e} ({:#010x})",
            x.to_bits()
        );
    }

    #[test]
    fn grid_rounding_matches_f16_around_every_binary16_value() {
        // Every binary16 value, its two f32 neighbours, and the halfway
        // point to the next binary16 with that point's own neighbours:
        // ties-to-even on every mantissa, the 65504/65520 overflow edge,
        // the 2^-14 normal/subnormal edge, ±0 and the NaN payloads.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits).to_f32();
            let next = F16::from_bits(bits.wrapping_add(1)).to_f32();
            let halfway = if h.is_finite() && next.is_finite() {
                ((f64::from(h) + f64::from(next)) / 2.0) as f32
            } else {
                // Past the largest finite value the tie is 65520.
                65520.0f32.copysign(h)
            };
            for centre in [h, halfway] {
                for step in [-1i32, 0, 1] {
                    assert_rounds_like_f16(f32::from_bits(
                        (centre.to_bits() as i32).wrapping_add(step) as u32,
                    ));
                }
            }
        }
        for payload in [1u32, 0x1FFF, 0x2000, 0x3F_FFFF, 0x40_0000, 0x7F_FFFF] {
            assert_rounds_like_f16(f32::from_bits(0x7F80_0000 | payload));
            assert_rounds_like_f16(f32::from_bits(0xFF80_0000 | payload));
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 bit patterns: ~20 s in release, run by CI"]
    fn grid_rounding_matches_f16_on_every_f32() {
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            let want = F16::from_f32(x).to_f32();
            if round_to_f16(x).to_bits() != want.to_bits() {
                panic!("{x:e} ({bits:#010x})");
            }
        }
    }

    #[test]
    fn two_threads_filling_one_table_agree() {
        // A table of this test's own, so that both threads meet it cold; the
        // barrier starts them on the same entries at the same time, from
        // opposite ends.
        static TABLE: Table = Table::new();
        let every_f16 = || (0..=u16::MAX).map(|h| F16::from_bits(h).to_f32());
        let barrier = std::sync::Barrier::new(2);
        let run = |reversed: bool| {
            let mut chain: Vec<f32> = every_f16().collect();
            if reversed {
                chain.reverse();
            }
            barrier.wait();
            for x in &mut chain {
                *x = TABLE.get(F16::from_f32(*x).to_bits(), F16::tanh);
            }
            if reversed {
                chain.reverse();
            }
            chain
        };
        let (forward, backward) = std::thread::scope(|s| {
            let backward = s.spawn(|| run(true));
            (run(false), backward.join().expect("the filling thread ran"))
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want: Vec<f32> = every_f16()
            .map(|x| F16::from_f32(x).tanh().to_f32())
            .collect();
        assert_eq!(bits(&forward), bits(&want));
        assert_eq!(bits(&backward), bits(&want));
        // And every entry read is filled with exactly that.
        for (x, y) in every_f16().zip(&want) {
            let h = F16::from_f32(x).to_bits();
            let filled = TABLE.0[usize::from(h)].load(AtomicOrdering::Relaxed);
            assert_eq!(filled, y.to_bits() | 1, "entry {h:#06x}");
        }
    }

    #[test]
    fn exhaustive_round_trip_through_f32() {
        // Every one of the 65536 bit patterns must survive a trip through
        // f32 and back (modulo NaN payload normalization).
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let rt = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(rt.is_nan());
            } else {
                assert_eq!(rt.to_bits(), bits, "bit pattern {bits:#06x}");
            }
        }
    }
}
