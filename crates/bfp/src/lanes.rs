//! Binary16 element loops over `f32` slices: what the MFU's add, subtract
//! and multiply units and its activation-table index compute, at the host's
//! vector width.
//!
//! A value on the binary16 grid is held as the `f32` it converts to
//! exactly. Each loop has a readable portable body, the definition in terms
//! of [`round_to_f16`] and [`F16`] — all there is under miri and off x86-64
//! — and a `std::arch` body chosen per call by runtime detection of AVX2
//! and F16C, which rounds eight lanes at a time with the hardware
//! conversions: `vcvtps2ph` to nearest-even, then `vcvtph2ps` back. They
//! give what [`F16::from_f32`] and [`F16::to_f32`] do on every `f32`, NaN
//! payloads included (the `#[ignore]`d sweep below checks all 2³² bit
//! patterns), so the two bodies agree bit for bit, with no fallback and a
//! tail of fewer than eight lanes run through the same conversions.
//!
//! The bodies differ in one place that neither defines: an `f32` operation
//! on two NaNs returns one of them, and which one is the compiler's choice
//! of operand order, so the sign of such a result is not pinned.

use crate::f16::{round_to_f16, F16};

/// A point-wise binary16 operation of the chain value `a` and a register
/// operand `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum F16BinaryOp {
    /// `a + b`.
    Add,
    /// `a - b`.
    ASubB,
    /// `b - a`.
    BSubA,
    /// `a · b`.
    Mul,
}

impl F16BinaryOp {
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            F16BinaryOp::Add => a + b,
            F16BinaryOp::ASubB => a - b,
            F16BinaryOp::BSubA => b - a,
            F16BinaryOp::Mul => a * b,
        }
    }
}

/// `a[i] = round(op(round(a[i]), round(b[i])))` for every `i`, where
/// `round` is to the nearest binary16 (ties to even), and the operation
/// runs in `f32`: the [`F16`] operators' definition, under the widest
/// vector unit the CPU has.
///
/// # Panics
///
/// If the slices differ in length.
///
/// # Example
///
/// ```
/// use bw_bfp::{f16_binary, F16BinaryOp};
///
/// let mut a = [1.0, 3.0];
/// f16_binary(F16BinaryOp::Add, &mut a, &[2.0f32.powi(-12), 0.5]);
/// assert_eq!(a, [1.0, 3.5]); // 2^-12 is below binary16 resolution at 1
/// ```
#[allow(unsafe_code)]
pub fn f16_binary(op: F16BinaryOp, a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "operands of one length");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if f16c_detected() {
        // SAFETY: a safe `#[target_feature(enable = "avx2,f16c")]` function
        // asks only that the running CPU supports both, which was just
        // detected.
        return unsafe { binary_f16c(op, a, b) };
    }
    f16_binary_portable(op, a, b);
}

/// [`f16_binary`]'s portable body, one element at a time.
///
/// # Panics
///
/// If the slices differ in length.
pub fn f16_binary_portable(op: F16BinaryOp, a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "operands of one length");
    for (a, &b) in a.iter_mut().zip(b) {
        *a = round_to_f16(op.apply(round_to_f16(*a), round_to_f16(b)));
    }
}

/// `bits[i]` = the binary16 encoding `x[i]` rounds to (ties to even), under
/// the widest vector unit the CPU has: [`F16::from_f32`]`(x[i]).to_bits()`.
///
/// # Panics
///
/// If the slices differ in length.
///
/// # Example
///
/// ```
/// use bw_bfp::f16_bits;
///
/// let mut bits = [0; 3];
/// f16_bits(&[1.0, -2.0, 65520.0], &mut bits);
/// assert_eq!(bits, [0x3C00, 0xC000, 0x7C00]);
/// ```
#[allow(unsafe_code)]
pub fn f16_bits(x: &[f32], bits: &mut [u16]) {
    assert_eq!(x.len(), bits.len(), "one encoding per element");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if f16c_detected() {
        // SAFETY: as in `f16_binary`.
        return unsafe { bits_f16c(x, bits) };
    }
    f16_bits_portable(x, bits);
}

/// [`f16_bits`]'s portable body, one element at a time.
///
/// # Panics
///
/// If the slices differ in length.
pub fn f16_bits_portable(x: &[f32], bits: &mut [u16]) {
    assert_eq!(x.len(), bits.len(), "one encoding per element");
    for (&x, h) in x.iter().zip(bits) {
        *h = F16::from_f32(x).to_bits();
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn f16c_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("f16c")
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
use std::arch::x86_64::{__m256, _mm256_cvtph_ps, _mm256_cvtps_ph, _MM_FROUND_TO_NEAREST_INT};

/// Eight lanes rounded to the nearest binary16, ties to even, and back.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn round8(x: __m256) -> __m256 {
    _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x))
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,f16c")]
#[allow(unsafe_code)]
#[inline]
fn load8(x: &[f32; 8]) -> __m256 {
    // SAFETY: an unaligned load of the eight `f32`s of `x`.
    unsafe { std::arch::x86_64::_mm256_loadu_ps(x.as_ptr()) }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,f16c")]
#[allow(unsafe_code)]
#[inline]
fn store8(x: &mut [f32; 8], v: __m256) {
    // SAFETY: an unaligned store to the eight `f32`s of `x`.
    unsafe { std::arch::x86_64::_mm256_storeu_ps(x.as_mut_ptr(), v) }
}

/// [`f16_binary_portable`] eight lanes at a time; the tail of fewer than
/// eight runs the same lanes over zero-padded copies.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,f16c")]
fn binary_f16c(op: F16BinaryOp, a: &mut [f32], b: &[f32]) {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_mul_ps, _mm256_sub_ps};
    match op {
        F16BinaryOp::Add => binary_lanes(a, b, |a, b| _mm256_add_ps(a, b)),
        F16BinaryOp::ASubB => binary_lanes(a, b, |a, b| _mm256_sub_ps(a, b)),
        F16BinaryOp::BSubA => binary_lanes(a, b, |a, b| _mm256_sub_ps(b, a)),
        F16BinaryOp::Mul => binary_lanes(a, b, |a, b| _mm256_mul_ps(a, b)),
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn binary_lanes(a: &mut [f32], b: &[f32], op: impl Fn(__m256, __m256) -> __m256) {
    let lanes = |a: &mut [f32; 8], b: &[f32; 8]| {
        store8(a, round8(op(round8(load8(a)), round8(load8(b)))));
    };
    let (groups, a_tail) = a.as_chunks_mut::<8>();
    let (b_groups, b_tail) = b.as_chunks::<8>();
    for (a, b) in groups.iter_mut().zip(b_groups) {
        lanes(a, b);
    }
    if a_tail.is_empty() {
        return;
    }
    let (mut a8, mut b8) = ([0.0; 8], [0.0; 8]);
    a8[..a_tail.len()].copy_from_slice(a_tail);
    b8[..b_tail.len()].copy_from_slice(b_tail);
    lanes(&mut a8, &b8);
    a_tail.copy_from_slice(&a8[..a_tail.len()]);
}

/// [`f16_bits_portable`] eight lanes at a time, the tail as in
/// [`binary_f16c`].
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,f16c")]
#[allow(unsafe_code)]
fn bits_f16c(x: &[f32], bits: &mut [u16]) {
    let lanes = |x: &[f32; 8], h: &mut [u16; 8]| {
        let v = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(load8(x));
        // SAFETY: an unaligned store to the eight `u16`s of `h`.
        unsafe { std::arch::x86_64::_mm_storeu_si128(h.as_mut_ptr().cast(), v) }
    };
    let (groups, x_tail) = x.as_chunks::<8>();
    let (h_groups, h_tail) = bits.as_chunks_mut::<8>();
    for (x, h) in groups.iter().zip(h_groups) {
        lanes(x, h);
    }
    if x_tail.is_empty() {
        return;
    }
    let (mut x8, mut h8) = ([0.0; 8], [0; 8]);
    x8[..x_tail.len()].copy_from_slice(x_tail);
    lanes(&x8, &mut h8);
    h_tail.copy_from_slice(&h8[..h_tail.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [F16BinaryOp; 4] = [
        F16BinaryOp::Add,
        F16BinaryOp::ASubB,
        F16BinaryOp::BSubA,
        F16BinaryOp::Mul,
    ];

    /// Off-grid values, both zeros, subnormal-range and overflowing
    /// magnitudes, infinities and NaNs of both signs, a signalling one
    /// among them.
    const SPECIALS: [f32; 21] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        -0.3,
        1.000_488_3, // 1 + 2^-11, a tie
        3.0e-6,
        -5.0e-8,
        1.0e-10,
        250.0,
        -300.0,
        65504.0,
        65519.9,
        65520.0,
        -1.0e9,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7F80_0001),
    ];

    /// Every pair of [`SPECIALS`], NaN on either side.
    fn grid() -> (Vec<f32>, Vec<f32>) {
        SPECIALS
            .iter()
            .flat_map(|&a| SPECIALS.iter().map(move |&b| (a, b)))
            .unzip()
    }

    #[test]
    fn dispatched_bodies_equal_the_portable_ones_at_every_tail() {
        let (a0, b0) = grid();
        assert_eq!(SPECIALS[6], 1.0 + 2.0f32.powi(-11));
        // Every slice of 0 to 17 elements that tiles the grid, so each pair
        // meets the eight-lane groups and the tail at every position.
        for len in 0..=17 {
            let starts = (0..a0.len()).step_by(len.max(1));
            for at in starts.map(|at| at..(at + len).min(a0.len())) {
                let (a, b) = (&a0[at.clone()], &b0[at.clone()]);
                for op in OPS {
                    let (mut portable, mut dispatched) = (a.to_vec(), a.to_vec());
                    f16_binary_portable(op, &mut portable, b);
                    f16_binary(op, &mut dispatched, b);
                    for (i, (p, d)) in portable.iter().zip(&dispatched).enumerate() {
                        // Two NaNs in: which one comes out is unpinned
                        // (module doc), and they differ only in sign.
                        let mask = if a[i].is_nan() && b[i].is_nan() {
                            !(1 << 31)
                        } else {
                            !0
                        };
                        assert_eq!(p.to_bits() & mask, d.to_bits() & mask, "{op:?} {at:?} {i}");
                    }
                }
                let (mut portable, mut dispatched) = (vec![0; a.len()], vec![1; a.len()]);
                f16_bits_portable(a, &mut portable);
                f16_bits(a, &mut dispatched);
                assert_eq!(portable, dispatched, "{at:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "operands of one length")]
    fn operands_of_different_lengths_are_refused() {
        f16_binary(F16BinaryOp::Add, &mut [1.0; 3], &[1.0; 2]);
    }

    #[test]
    #[ignore = "all 2^32 f32 bit patterns: ~20 s in release, run by CI"]
    fn dispatched_conversions_match_f16_on_every_f32() {
        // `x · 1` is `x` exactly, so the product's rounding is `x`'s.
        const BLOCK: usize = 1 << 12;
        let ones = [1.0f32; BLOCK];
        let (mut x, mut rounded, mut h) = ([0.0f32; BLOCK], [0.0f32; BLOCK], [0u16; BLOCK]);
        for start in (0..=u32::MAX).step_by(BLOCK) {
            for (k, x) in x.iter_mut().enumerate() {
                *x = f32::from_bits(start + k as u32);
            }
            f16_bits(&x, &mut h);
            rounded.copy_from_slice(&x);
            f16_binary(F16BinaryOp::Mul, &mut rounded, &ones);
            for k in 0..BLOCK {
                let want = F16::from_f32(x[k]);
                let (bits, back) = (want.to_bits(), want.to_f32().to_bits());
                if h[k] != bits || rounded[k].to_bits() != back {
                    panic!("{:e} ({:#010x})", x[k], x[k].to_bits());
                }
            }
        }
    }
}
