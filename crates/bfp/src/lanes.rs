//! Binary16 element loops over `f32` slices: what the MFU's add, subtract
//! and multiply units and its activation tables compute, at the host's
//! vector width.
//!
//! A value on the binary16 grid is held as the `f32` it converts to
//! exactly. Each loop has a readable portable body, the definition in terms
//! of [`round_to_f16`] and [`F16`] — all there is under miri and off x86-64
//! — and a `std::arch` body, taken when the [`Simd`] a caller detected once
//! has AVX2 and F16C, which rounds eight lanes at a time with the hardware
//! conversions: `vcvtps2ph` to nearest-even, then `vcvtph2ps` back. They
//! give what [`F16::from_f32`] and [`F16::to_f32`] do on every `f32`, NaN
//! payloads included (the `#[ignore]`d sweep below checks all 2³² bit
//! patterns, the activation tables' index among them), so the two bodies
//! agree bit for bit, with no fallback and a tail of fewer than eight lanes
//! run through the same conversions.
//!
//! The bodies differ in one place that neither defines: an `f32` operation
//! on two NaNs returns one of them, and which one is the compiler's choice
//! of operand order, so the sign of such a result is not pinned.

use crate::block::BfpBlock;
use crate::f16::{round_to_f16, Table, F16, SIGMOID, TANH};
use crate::format::BfpFormat;

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

/// Which bodies the binary16 loops and the narrow quantizer run: the
/// `std::arch` ones, where the CPU has AVX2 and F16C, or the portable
/// definitions. A caller detects it once ([`Simd::detect`]) and hands it to
/// every call, so no call detects the CPU; the bw-core simulator resolves
/// it when it lowers a program. The default is [`Simd::PORTABLE`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Simd {
    /// AVX2 and F16C were detected: never under miri or off x86-64.
    avx2_f16c: bool,
}

impl Simd {
    /// The portable bodies alone: the definitions the `std::arch` ones are
    /// checked against, and all there is under miri and off x86-64.
    pub const PORTABLE: Simd = Simd { avx2_f16c: false };

    /// The widest bodies the running CPU supports.
    pub fn detect() -> Simd {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        return Simd {
            avx2_f16c: std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c"),
        };
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        Simd::PORTABLE
    }

    /// Whether the `std::arch` bodies run: the CPU was found to have AVX2
    /// and F16C.
    pub(crate) fn avx2(self) -> bool {
        self.avx2_f16c
    }

    /// `a[i] = round(op(round(a[i]), round(b[i])))` for every `i`, where
    /// `round` is to the nearest binary16 (ties to even), and the operation
    /// runs in `f32`: the [`F16`] operators' definition.
    ///
    /// # Panics
    ///
    /// If the slices differ in length.
    ///
    /// # Example
    ///
    /// ```
    /// use bw_bfp::{F16BinaryOp, Simd};
    ///
    /// let mut a = [1.0, 3.0];
    /// Simd::detect().f16_binary(F16BinaryOp::Add, &mut a, &[2.0f32.powi(-12), 0.5]);
    /// assert_eq!(a, [1.0, 3.5]); // 2^-12 is below binary16 resolution at 1
    /// ```
    #[allow(unsafe_code)]
    pub fn f16_binary(self, op: F16BinaryOp, a: &mut [f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "operands of one length");
        if self.avx2() {
            // SAFETY: a safe `#[target_feature(enable = "avx2,f16c")]`
            // function asks only that the running CPU supports both, which
            // `detect` found.
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            return unsafe { binary_f16c(op, a, b) };
        }
        for (a, &b) in a.iter_mut().zip(b) {
            *a = round_to_f16(op.apply(round_to_f16(*a), round_to_f16(b)));
        }
    }

    /// [`BfpBlock::quantize_into`] with this `Simd`'s bodies: the narrow
    /// layout's rounding loop compiled for AVX2 where the CPU has it.
    pub fn quantize(self, values: &[f32], format: BfpFormat, out: &mut BfpBlock) {
        BfpBlock::quantize_with(self, values, format, out);
    }

    /// `x[i] = f(x[i] rounded to binary16)` for every `i`: the activation
    /// read from its table ([`F16Activation`]) by the binary16 encoding of
    /// the input, which the `std::arch` body takes eight lanes at a time
    /// from `vcvtps2ph`.
    ///
    /// # Example
    ///
    /// ```
    /// use bw_bfp::{F16Activation, Simd};
    ///
    /// let mut x = [0.0, 100.0, -100.0];
    /// Simd::detect().f16_activation(F16Activation::Sigmoid, &mut x);
    /// assert_eq!(x, [0.5, 1.0, 0.0]);
    /// ```
    #[allow(unsafe_code)]
    pub fn f16_activation(self, f: F16Activation, x: &mut [f32]) {
        if self.avx2() {
            // SAFETY: as in `f16_binary`.
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            return unsafe { activation_f16c(f, x) };
        }
        let (table, f) = f.table();
        for x in x {
            *x = table.get(F16::from_f32(*x).to_bits(), f);
        }
    }
}

/// A binary16 activation the MFU reads from a table of its result for
/// every binary16 input (`SIGMOID` and `TANH` in the `f16` module).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum F16Activation {
    /// [`F16::sigmoid`].
    Sigmoid,
    /// [`F16::tanh`].
    Tanh,
}

impl F16Activation {
    #[inline(always)]
    fn table(self) -> (&'static Table, fn(F16) -> F16) {
        match self {
            F16Activation::Sigmoid => (&SIGMOID, F16::sigmoid),
            F16Activation::Tanh => (&TANH, F16::tanh),
        }
    }
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

/// [`Simd::f16_binary`]'s portable body eight lanes at a time; the tail of
/// fewer than eight runs the same lanes over zero-padded copies.
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

/// The binary16 encodings of eight lanes, rounded to nearest-even:
/// [`F16::from_f32`]`(x).to_bits()` of each.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,f16c")]
#[allow(unsafe_code)]
#[inline]
fn bits8(x: &[f32; 8]) -> [u16; 8] {
    let v = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(load8(x));
    let mut h = [0u16; 8];
    // SAFETY: an unaligned store to the eight `u16`s of `h`.
    unsafe { std::arch::x86_64::_mm_storeu_si128(h.as_mut_ptr().cast(), v) };
    h
}

/// [`Simd::f16_activation`]'s portable body with each group of eight
/// encoded by [`bits8`], the tail zero-padded as in [`binary_f16c`], a
/// block of encodings at a time onto the stack.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2,f16c")]
fn activation_f16c(f: F16Activation, x: &mut [f32]) {
    const BLOCK: usize = 64;
    let (table, f) = f.table();
    let mut h = [0u16; BLOCK];
    for x in x.chunks_mut(BLOCK) {
        let h = &mut h[..x.len()];
        let (groups, tail) = x.as_chunks::<8>();
        let (h_groups, h_tail) = h.as_chunks_mut::<8>();
        for (x, h) in groups.iter().zip(h_groups) {
            *h = bits8(x);
        }
        if !tail.is_empty() {
            let mut x8 = [0.0; 8];
            x8[..tail.len()].copy_from_slice(tail);
            h_tail.copy_from_slice(&bits8(&x8)[..tail.len()]);
        }
        for (x, &h) in x.iter_mut().zip(&*h) {
            *x = table.get(h, f);
        }
    }
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

    const ACTIVATIONS: [F16Activation; 2] = [F16Activation::Sigmoid, F16Activation::Tanh];

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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The table index the `std::arch` activation body reads for each of
    /// `x`, where the CPU has that body.
    #[allow(unsafe_code)]
    fn table_index(x: &[f32; 8]) -> Option<[u16; 8]> {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if Simd::detect().avx2() {
            // SAFETY: `detect` found AVX2 and F16C.
            return Some(unsafe { bits8(x) });
        }
        let _ = x;
        None
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
                    Simd::PORTABLE.f16_binary(op, &mut portable, b);
                    Simd::detect().f16_binary(op, &mut dispatched, b);
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
                for f in ACTIVATIONS {
                    let (mut portable, mut dispatched) = (a.to_vec(), a.to_vec());
                    Simd::PORTABLE.f16_activation(f, &mut portable);
                    Simd::detect().f16_activation(f, &mut dispatched);
                    assert_eq!(bits(&portable), bits(&dispatched), "{f:?} {at:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "operands of one length")]
    fn operands_of_different_lengths_are_refused() {
        Simd::detect().f16_binary(F16BinaryOp::Add, &mut [1.0; 3], &[1.0; 2]);
    }

    #[test]
    fn table_index_is_the_binary16_encoding() {
        // Every binary16 value, then overflow and subnormal results.
        let every = (0..=u16::MAX).map(|h| F16::from_bits(h).to_f32());
        let others = [65520.0, -1.0e9, 3.0e-6, -5.0e-8, 1.0e-10, 6.1e-5, 0.0, 1.0];
        let xs: Vec<f32> = every.chain(others).collect();
        for x in xs.as_chunks::<8>().0 {
            let Some(got) = table_index(x) else { return };
            for (x, got) in x.iter().zip(got) {
                assert_eq!(got, F16::from_f32(*x).to_bits(), "{x:e}");
            }
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 bit patterns: ~70 s in release, run by CI"]
    fn dispatched_conversions_match_f16_on_every_f32() {
        // `x · 1` is `x` exactly, so the product's rounding is `x`'s; the
        // activations read their tables by the index `table_index` checks.
        const BLOCK: usize = 1 << 12;
        let (simd, ones) = (Simd::detect(), [1.0f32; BLOCK]);
        let (mut x, mut rounded) = ([0.0f32; BLOCK], [0.0f32; BLOCK]);
        let (mut fast, mut portable) = ([0.0f32; BLOCK], [0.0f32; BLOCK]);
        for start in (0..=u32::MAX).step_by(BLOCK) {
            for (k, x) in x.iter_mut().enumerate() {
                *x = f32::from_bits(start + k as u32);
            }
            rounded.copy_from_slice(&x);
            simd.f16_binary(F16BinaryOp::Mul, &mut rounded, &ones);
            for k in 0..BLOCK {
                if rounded[k].to_bits() != F16::from_f32(x[k]).to_f32().to_bits() {
                    panic!("{:e} ({:#010x})", x[k], x[k].to_bits());
                }
            }
            for x in x.as_chunks::<8>().0 {
                let Some(h) = table_index(x) else { break };
                for (x, h) in x.iter().zip(h) {
                    assert_eq!(
                        h,
                        F16::from_f32(*x).to_bits(),
                        "{x:e} ({:#010x})",
                        x.to_bits()
                    );
                }
            }
            for f in ACTIVATIONS {
                fast.copy_from_slice(&x);
                portable.copy_from_slice(&x);
                simd.f16_activation(f, &mut fast);
                Simd::PORTABLE.f16_activation(f, &mut portable);
                if bits(&fast) != bits(&portable) {
                    panic!("{f:?} from {start:#010x}");
                }
            }
        }
    }
}
