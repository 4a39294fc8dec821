//! Shared-exponent quantized vectors.

use crate::format::{BfpFormat, Layout};
use crate::kernel::{self, exp2, Mantissas, Operand, Rows, GROUP};
use crate::lanes::Simd;

/// Rounding discipline for quantization: round to the nearest
/// representable mantissa, the one rule serving uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rounding {
    /// Round to the nearest representable mantissa (ties away from zero).
    Nearest,
}

/// A vector quantized to block floating point.
///
/// The vector is split into chunks of the format's block size;
/// each chunk shares one exponent while every element keeps a private sign
/// and narrow mantissa. This mirrors the MVM datapath (§VI): "a single 5-bit
/// exponent per 128 independent signs and mantissas". Dot products between
/// two blocks execute as pure integer multiply-accumulates per chunk, with
/// exponents recombined once per chunk — exactly the arithmetic a shared-
/// exponent hardware MAC array performs, which is what makes the FPGA
/// implementation cheap.
///
/// # Example
///
/// ```
/// use bw_bfp::{BfpBlock, BfpFormat};
///
/// let fmt = BfpFormat::BFP_1S_5E_5M;
/// let a = BfpBlock::quantize(&[1.0, 2.0, 3.0], fmt);
/// let b = BfpBlock::quantize(&[1.0, 1.0, 1.0], fmt);
/// let dot = a.dot(&b).expect("same length and block size");
/// assert!((dot - 6.0).abs() < 0.2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BfpBlock {
    format: BfpFormat,
    len: usize,
    /// Signed mantissas, one per element, magnitude bounded by
    /// `format.max_mantissa()`, in the layout the format calls for: one
    /// packed row when that bound is ≤ 7, `i8` lanes when it is ≤ 127,
    /// `i32` otherwise.
    mantissas: Mantissas,
    /// One unbiased shared exponent per chunk of `format.block_size()`.
    exponents: Vec<i32>,
    /// `i8` mantissas widened once, at quantization, to the `i16` lanes the
    /// MAC kernel multiplies narrow rows by; empty in the other layouts.
    lanes: Vec<i16>,
    /// What the MAC kernel multiplies packed rows by: the mantissas as `i8`,
    /// each chunk zero-padded to whole groups, and each chunk's sum. Empty
    /// in the other layouts.
    padded: Vec<i8>,
    sums: Vec<i32>,
}

/// Error produced by [`BfpBlock::dot`] when the operands are incompatible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DotError {
    /// Operand lengths differ.
    LengthMismatch {
        /// Length of the left operand.
        lhs: usize,
        /// Length of the right operand.
        rhs: usize,
    },
    /// Operand chunk sizes differ, so exponent groups do not line up.
    BlockSizeMismatch {
        /// Chunk size of the left operand.
        lhs: u32,
        /// Chunk size of the right operand.
        rhs: u32,
    },
}

impl std::fmt::Display for DotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DotError::LengthMismatch { lhs, rhs } => {
                write!(f, "dot product length mismatch: {lhs} vs {rhs}")
            }
            DotError::BlockSizeMismatch { lhs, rhs } => {
                write!(f, "dot product block size mismatch: {lhs} vs {rhs}")
            }
        }
    }
}

impl std::error::Error for DotError {}

impl BfpBlock {
    /// Quantizes a slice of `f32` values into BFP.
    ///
    /// Each chunk's shared exponent is the smallest exponent that represents
    /// the chunk's largest magnitude without mantissa overflow, clamped to
    /// the format's exponent range (saturating element mantissas if the
    /// clamp binds). Non-finite inputs are treated as the format's largest
    /// magnitude, mirroring the saturating behaviour of the hardware
    /// quantizer.
    pub fn quantize(values: &[f32], format: BfpFormat) -> Self {
        let mut block = Self::empty(format);
        Self::quantize_into(values, format, Rounding::Nearest, &mut block);
        block
    }

    /// An empty block in the given format, useful as a reusable scratch
    /// target for [`BfpBlock::quantize_into`].
    pub fn empty(format: BfpFormat) -> Self {
        BfpBlock {
            format,
            len: 0,
            mantissas: Mantissas::with_capacity(format, 0, 0),
            exponents: Vec::new(),
            lanes: Vec::new(),
            padded: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Quantizes into an existing block, reusing its mantissa/exponent
    /// allocations. Produces exactly the block [`BfpBlock::quantize`]
    /// would; [`Rounding`] has the one value. [`Simd::quantize`] does the
    /// same with the bodies a caller detected once.
    pub fn quantize_into(values: &[f32], format: BfpFormat, _: Rounding, out: &mut Self) {
        Simd::detect().quantize(values, format, out);
    }

    /// [`BfpBlock::quantize_into`] with `simd`'s bodies.
    pub(crate) fn quantize_with(simd: Simd, values: &[f32], format: BfpFormat, out: &mut Self) {
        if format.layout() == Layout::Narrow {
            return quantize_narrow(simd, values, format, out);
        }
        out.format = format;
        out.len = values.len();
        out.mantissas.reset(format);
        out.exponents.clear();
        quantize_append(
            values,
            format,
            &mut out.mantissas,
            &mut out.exponents,
            &mut out.padded,
        );
        out.lanes.clear();
        out.sums.clear();
        match &out.mantissas {
            Mantissas::Packed(_) => {
                let stride = (format.block_size() as usize).next_multiple_of(GROUP);
                let sum = |chunk: &[i8]| chunk.iter().map(|&q| i32::from(q)).sum::<i32>();
                out.sums.extend(out.padded.chunks(stride).map(sum));
            }
            Mantissas::Narrow(m) => out.lanes.extend(m.iter().map(|&q| i16::from(q))),
            Mantissas::Wide(_) => {}
        }
    }

    /// The format this block was quantized with.
    #[inline]
    pub fn format(&self) -> BfpFormat {
        self.format
    }

    /// Number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the block holds no elements.
    #[cfg(test)]
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The signed mantissas, widened to `i32` from whichever layout the
    /// format stores them in.
    pub(crate) fn mantissas(&self) -> impl Iterator<Item = i32> + '_ {
        self.as_row().iter()
    }

    /// The unbiased shared exponents, one per chunk.
    #[cfg(test)]
    #[inline]
    pub(crate) fn exponents(&self) -> &[i32] {
        &self.exponents
    }

    /// Reconstructs the approximate `f32` values.
    pub fn dequantize(&self) -> Vec<f32> {
        self.as_row().dequantize()
    }

    /// This vector as the broadcast operand of a product.
    #[inline]
    pub(crate) fn operand(&self) -> Operand<'_> {
        Operand {
            format: self.format,
            mantissas: self.mantissas.as_slice(),
            lanes: &self.lanes,
            padded: &self.padded,
            sums: &self.sums,
            exponents: &self.exponents,
        }
    }

    /// This vector as the row side of a product.
    fn as_row(&self) -> Rows<'_> {
        Rows {
            format: self.format,
            cols: self.len(),
            mantissas: self.mantissas.as_slice(),
            exponents: &self.exponents,
        }
    }

    /// Dot product of two BFP vectors using integer MACs per chunk.
    ///
    /// This is the fast kernel: when both formats store their mantissas the
    /// same way, packed (≤ 3 mantissa bits) or as `i8` (≤ 7 — between them
    /// every format the NPU uses), the products are vector multiply-adds
    /// summed in `i32`; wider and mixed formats run the reference loop. Each
    /// chunk sum is then scaled once by the
    /// combined exponents and accumulated across chunks in double
    /// precision. Integer addition is exact and the per-chunk scale is an
    /// exact power of two, so the result is bit-identical to the
    /// element-by-element reference loop — the differential property tests
    /// pin this.
    ///
    /// # Errors
    ///
    /// Returns [`DotError`] if the operands differ in length or chunk size.
    pub fn dot(&self, other: &BfpBlock) -> Result<f32, DotError> {
        self.check_dot_operand(other)?;
        Ok(kernel::dot(self.as_row(), other.operand()))
    }

    /// Reference dot product: element-by-element 64-bit accumulation per
    /// chunk, retained as the oracle for the fast kernel.
    ///
    /// # Errors
    ///
    /// Returns [`DotError`] if the operands differ in length or chunk size.
    #[cfg(test)]
    pub(crate) fn dot_naive(&self, other: &BfpBlock) -> Result<f32, DotError> {
        self.check_dot_operand(other)?;
        Ok(kernel::dot_naive(self.as_row(), other.operand()))
    }

    fn check_dot_operand(&self, other: &BfpBlock) -> Result<(), DotError> {
        if self.len() != other.len() {
            return Err(DotError::LengthMismatch {
                lhs: self.len(),
                rhs: other.len(),
            });
        }
        if self.format.block_size() != other.format.block_size() {
            return Err(DotError::BlockSizeMismatch {
                lhs: self.format.block_size(),
                rhs: other.format.block_size(),
            });
        }
        Ok(())
    }

    /// Convenience: quantizes `other` with this block's format, then takes
    /// the dot product.
    ///
    /// # Errors
    ///
    /// Returns [`DotError::LengthMismatch`] if the lengths differ.
    #[cfg(test)]
    pub(crate) fn dot_f32(&self, other: &[f32]) -> Result<f32, DotError> {
        self.dot(&BfpBlock::quantize(other, self.format))
    }
}

/// Quantization core shared by [`BfpBlock`] and `BfpMatrix`: appends one
/// chunk-exponent per `block_size` group and one row of mantissas, in the
/// layout `mantissas` already has. A packed row is quantized as group-padded
/// `i8` and packed from there; `padded` is left holding that form of it, and
/// empty by the other layouts.
pub(crate) fn quantize_append(
    values: &[f32],
    format: BfpFormat,
    mantissas: &mut Mantissas,
    exponents: &mut Vec<i32>,
    padded: &mut Vec<i8>,
) {
    padded.clear();
    match mantissas {
        Mantissas::Packed(m) => {
            quantize_lanes(values, format, padded, exponents, true, |q| q as i8);
            kernel::pack_groups(padded, m);
        }
        Mantissas::Narrow(m) => {
            quantize_lanes(values, format, m, exponents, false, |q| q as i8);
        }
        Mantissas::Wide(m) => quantize_lanes(values, format, m, exponents, false, |q| q),
    }
}

/// Whether `values`, one exponent chunk, quantize (to nearest) to zero
/// mantissas only. The chunk's exponent follows from its largest magnitude
/// alone and rounding is monotone, so that element quantized by itself
/// decides.
pub(crate) fn quantizes_to_nothing(values: &[f32], format: BfpFormat) -> bool {
    let amax = values.iter().map(|&v| magnitude(v)).fold(0.0, f32::max);
    amax == 0.0 || BfpBlock::quantize(&[amax], format).mantissas().eq([0])
}

/// `|v|`, with non-finite values read as `f32::MAX`. Written as the
/// select that is one packed `min`, NaN taking the second arm.
#[inline]
fn magnitude(v: f32) -> f32 {
    let a = v.abs();
    if a < f32::MAX {
        a
    } else {
        f32::MAX
    }
}

/// Adding `1.5 · 2^52` to an `f64` of magnitude below `2^31` rounds it to
/// the nearest integer, ties to even, and leaves that integer in the low 32
/// bits of the sum as two's complement.
const ROUND_TO_INT: f64 = 6_755_399_441_055_744.0;

/// The `Nearest` mantissa of `v`: scaled by `stretched`, clamped to `±cap`
/// and rounded to the nearest integer ([`quantize_lanes`]). Every step is
/// one IEEE operation, so a loop of it vectorized agrees bit for bit.
#[inline(always)]
fn round_mantissa(v: f32, stretched: f64, cap: f64) -> i32 {
    let y = f64::from(magnitude(v).copysign(v)) * stretched;
    let y = if y < cap { y } else { cap };
    let y = if y > -cap { y } else { -cap };
    (y + ROUND_TO_INT).to_bits() as u32 as i32
}

/// The shared exponent of one chunk: the smallest that represents its
/// largest magnitude without mantissa overflow, clamped to the format's
/// range ([`BfpBlock::quantize`]).
#[inline(always)]
fn chunk_exponent(group: &[f32], format: BfpFormat) -> i32 {
    let (exp_min, exp_max) = format.exponent_range();
    let (m, max_man) = (i32::from(format.mantissa_bits()), format.max_mantissa());
    // Non-negative floats order like their bit patterns, and an integer
    // maximum may be taken in any order, so this reduction vectorizes
    // where a float one is a serial chain.
    let amax_bits = group
        .iter()
        .map(|&v| magnitude(v).to_bits() as i32)
        .fold(0, i32::max);
    let amax = f32::from_bits(amax_bits as u32);
    if amax == 0.0 {
        exp_min
    } else {
        // floor(log2(amax)) is the f32 exponent field. A subnormal reads
        // -127: at or above its true exponent and at or below anything
        // storable, so the bump and the clamp land where that would.
        let mut e = (amax.to_bits() >> 23) as i32 - 127;
        // Rounding the largest element may overflow the mantissa field
        // (e.g. 3.9 with 2-bit mantissas); bump the exponent if so. From
        // the true floor one step always suffices.
        let q_max = f64::from(amax) * exp2((m - 1) - e);
        if q_max >= f64::from(max_man) + 0.5 && e < exp_max {
            e += 1;
        }
        e.clamp(exp_min, exp_max)
    }
}

/// [`BfpBlock::quantize_into`] of the narrow layout, to nearest: the
/// mantissas, their `i16` lanes and the exponents in one pass per chunk,
/// each element as [`quantize_lanes`] rounds it ([`round_mantissa`]), under
/// the widest vector unit `simd` has: the loop is the same either way.
#[allow(unsafe_code)]
fn quantize_narrow(simd: Simd, values: &[f32], format: BfpFormat, out: &mut BfpBlock) {
    #[inline(always)]
    fn body(values: &[f32], format: BfpFormat, out: &mut BfpBlock) {
        (out.format, out.len) = (format, values.len());
        out.padded.clear();
        out.sums.clear();
        if !matches!(out.mantissas, Mantissas::Narrow(_)) {
            out.mantissas = Mantissas::Narrow(Vec::new());
        }
        let BfpBlock {
            mantissas: Mantissas::Narrow(m),
            lanes,
            exponents,
            ..
        } = out
        else {
            unreachable!("narrow mantissas were just put there")
        };
        // Every element is written below: a steady run of one length
        // resizes nothing.
        m.resize(values.len(), 0);
        lanes.resize(values.len(), 0);
        exponents.clear();
        let chunk = format.block_size() as usize;
        let (cap, bits) = (
            f64::from(format.max_mantissa()),
            i32::from(format.mantissa_bits()),
        );
        let parts = m.chunks_mut(chunk).zip(lanes.chunks_mut(chunk));
        for (group, (m, lanes)) in values.chunks(chunk).zip(parts) {
            let e = chunk_exponent(group, format);
            let stretched = exp2((bits - 1) - e) * (1.0 + exp2(-30));
            for ((m, l), &v) in m.iter_mut().zip(lanes.iter_mut()).zip(group) {
                let q = round_mantissa(v, stretched, cap);
                (*m, *l) = (q as i8, q as i16);
            }
            exponents.push(e);
        }
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx2")]
    fn avx2(values: &[f32], format: BfpFormat, out: &mut BfpBlock) {
        body(values, format, out);
    }
    if simd.avx2() {
        // SAFETY: a safe `#[target_feature(enable = "avx2")]` function asks
        // only that the running CPU supports AVX2, which `Simd::detect`
        // found.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        return unsafe { avx2(values, format, out) };
    }
    body(values, format, out);
}

/// `narrow` must be lossless on `-max_mantissa..=max_mantissa`. When
/// `grouped`, every chunk is zero-padded to whole packed groups.
fn quantize_lanes<M: Clone + Default>(
    values: &[f32],
    format: BfpFormat,
    mantissas: &mut Vec<M>,
    exponents: &mut Vec<i32>,
    grouped: bool,
    narrow: impl Fn(i32) -> M,
) {
    let chunk = format.block_size() as usize;
    let cap = f64::from(format.max_mantissa());
    let m = i32::from(format.mantissa_bits());
    mantissas.reserve(if grouped {
        kernel::padded_len(values.len(), chunk)
    } else {
        values.len()
    });
    exponents.reserve(values.len().div_ceil(chunk));

    for group in values.chunks(chunk) {
        let e = chunk_exponent(group, format);
        // Ties away from zero, without a libm `round` or a float-to-int
        // cast per element. Scaling by the reciprocal power of two is
        // exact, like the divide, and the scaled value has the input's
        // ≤ 24 significant bits, so it sits at least one unit in its own
        // last place from any half-integer it is not on. Stretching it by
        // 1 + 2^-30 — under 1/64 of that unit — therefore moves exact ties
        // off the tie, away from zero, and nothing else across one;
        // rounding to nearest-even then rounds half away. Clamping to
        // `max_man` first keeps the sum in range, whatever saturated.
        let stretched = exp2((m - 1) - e) * (1.0 + exp2(-30));
        let round = |&v: &f32| narrow(round_mantissa(v, stretched, cap));
        mantissas.extend(group.iter().map(round));
        exponents.push(e);
        if grouped {
            mantissas.resize(mantissas.len().next_multiple_of(GROUP), M::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FMT5: BfpFormat = BfpFormat::BFP_1S_5E_5M;
    const FMT2: BfpFormat = BfpFormat::BFP_1S_5E_2M;

    #[test]
    fn narrow_vectors_quantize_as_matrix_rows_do() {
        // The narrow layout's one-pass vector quantizer against the general
        // one a matrix row takes: specials, ties and chunk tails.
        let specials = [
            0.0,
            -0.0,
            0.5,
            -2.5,
            3.9,
            1e-9,
            -1e30,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let mut block = BfpBlock::empty(FMT5);
        for len in [0, 1, 7, 16, 17, 128, 129, 300] {
            let values: Vec<f32> = (0..len)
                .map(|i| match i % 5 {
                    0 => specials[i / 5 % specials.len()],
                    _ => (i as f32 * 0.37).sin() * 2.0f32.powi(i as i32 % 7 - 3),
                })
                .collect();
            BfpBlock::quantize_into(&values, FMT5, Rounding::Nearest, &mut block);
            let mut portable = BfpBlock::empty(FMT5);
            Simd::PORTABLE.quantize(&values, FMT5, &mut portable);
            assert_eq!(block, portable, "{len}");
            let row = crate::BfpMatrix::quantize(1, len, &values, FMT5).unwrap();
            if len > 0 {
                let row = row.row(0);
                assert!(block.mantissas().eq(row.mantissas()), "{len}");
                assert!(block.exponents().iter().copied().eq(row.exponents()));
            }
            assert_eq!(block.len(), len);
            assert!(block
                .lanes
                .iter()
                .map(|&l| i32::from(l))
                .eq(block.mantissas()));
        }
    }

    #[test]
    #[ignore = "all 2^32 f32 bit patterns in 16-element windows: ~95 s in release, run by CI"]
    fn narrow_quantizer_bodies_agree_on_every_f32() {
        // Consecutive patterns, so each window's shared exponent is its own
        // and the walk meets every binade, subnormals, infinities and NaNs.
        const BLOCK: usize = 1 << 12;
        let simd = Simd::detect();
        let mut x = [0.0f32; BLOCK];
        let (mut fast, mut portable) = (BfpBlock::empty(FMT5), BfpBlock::empty(FMT5));
        for start in (0..=u32::MAX).step_by(BLOCK) {
            for (k, x) in x.iter_mut().enumerate() {
                *x = f32::from_bits(start + k as u32);
            }
            for window in x.chunks(16) {
                simd.quantize(window, FMT5, &mut fast);
                Simd::PORTABLE.quantize(window, FMT5, &mut portable);
                if fast != portable {
                    panic!("window at {:#010x}", window[0].to_bits());
                }
            }
        }
    }

    #[test]
    fn zero_vector_quantizes_to_zero() {
        let b = BfpBlock::quantize(&[0.0; 16], FMT2);
        assert!(b.dequantize().iter().all(|&v| v == 0.0));
        assert_eq!(b.len(), 16);
    }

    #[test]
    fn empty_vector() {
        let b = BfpBlock::quantize(&[], FMT2);
        assert!(b.is_empty());
        assert!(b.dequantize().is_empty());
        assert_eq!(b.exponents().len(), 0);
    }

    #[test]
    fn largest_element_relative_error_bounded() {
        // The chunk max must be representable within one quantization step.
        for amax in [0.37f32, 1.0, 3.9, 100.0, 1e-3] {
            let b = BfpBlock::quantize(&[amax], FMT5);
            let back = b.dequantize()[0];
            let rel = (back - amax).abs() / amax;
            assert!(rel <= 1.0 / 31.0, "amax={amax} back={back} rel={rel}");
        }
    }

    #[test]
    fn chunked_exponents_are_independent() {
        let fmt = BfpFormat::new(5, 5, 2).unwrap();
        // Two chunks with very different magnitudes.
        let b = BfpBlock::quantize(&[1000.0, 900.0, 0.01, 0.02], fmt);
        assert_eq!(b.exponents().len(), 2);
        assert!(b.exponents()[0] > b.exponents()[1]);
        let back = b.dequantize();
        assert!((back[0] - 1000.0).abs() / 1000.0 < 0.05);
        assert!((back[3] - 0.02).abs() / 0.02 < 0.05);
    }

    #[test]
    fn small_values_in_large_chunk_are_crushed() {
        // With a 2-bit mantissa, anything below ~1/8 of the chunk max
        // quantizes to zero — the documented BFP quantization noise.
        let b = BfpBlock::quantize(&[8.0, 0.4], FMT2);
        let back = b.dequantize();
        assert_eq!(back[1], 0.0);
        assert!((back[0] - 8.0).abs() < 2.0);
    }

    #[test]
    fn exponent_clamps_and_saturates() {
        // 2^20 exceeds a 5-bit exponent's max of 16; mantissas saturate.
        let b = BfpBlock::quantize(&[2.0f32.powi(20)], FMT5);
        assert_eq!(b.exponents()[0], 16);
        assert_eq!(b.mantissas().next(), Some(31));
        // Denormal-small input underflows toward zero.
        let tiny = BfpBlock::quantize(&[2.0f32.powi(-30)], FMT5);
        assert_eq!(tiny.exponents()[0], -15);
        assert_eq!(tiny.dequantize()[0], 0.0);
    }

    #[test]
    fn non_finite_inputs_saturate() {
        let b = BfpBlock::quantize(&[f32::INFINITY, f32::NEG_INFINITY], FMT5);
        let back = b.dequantize();
        assert!(back[0] > 0.0);
        assert!(back[1] < 0.0);
        assert_eq!(b.mantissas().collect::<Vec<_>>(), [31, -31]);
    }

    #[test]
    fn dot_matches_reference_within_quantization_noise() {
        let a: Vec<f32> = (0..256)
            .map(|i| ((i * 37) % 19) as f32 / 19.0 - 0.5)
            .collect();
        let b: Vec<f32> = (0..256)
            .map(|i| ((i * 53) % 23) as f32 / 23.0 - 0.5)
            .collect();
        let qa = BfpBlock::quantize(&a, FMT5);
        let qb = BfpBlock::quantize(&b, FMT5);
        let reference: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let got = qa.dot(&qb).unwrap();
        assert!(
            (got - reference).abs() < 0.35,
            "got {got}, reference {reference}"
        );
    }

    #[test]
    fn dot_error_cases() {
        let a = BfpBlock::quantize(&[1.0, 2.0], FMT5);
        let b = BfpBlock::quantize(&[1.0], FMT5);
        assert_eq!(a.dot(&b), Err(DotError::LengthMismatch { lhs: 2, rhs: 1 }));
        let fmt_small = BfpFormat::new(5, 5, 64).unwrap();
        let c = BfpBlock::quantize(&[1.0, 2.0], fmt_small);
        assert_eq!(
            a.dot(&c),
            Err(DotError::BlockSizeMismatch { lhs: 128, rhs: 64 })
        );
    }

    #[test]
    fn quantize_into_matches_quantize_and_reuses_buffers() {
        let xs: Vec<f32> = (0..300).map(|i| (i as f32 * 0.77).sin() * 9.0).collect();
        let mut scratch = BfpBlock::empty(FMT2);
        for fmt in [FMT2, FMT5] {
            BfpBlock::quantize_into(&xs, fmt, Rounding::Nearest, &mut scratch);
            assert_eq!(scratch, BfpBlock::quantize(&xs, fmt));
        }
        // Shrinking input must not leave stale tail data.
        BfpBlock::quantize_into(&xs[..3], FMT5, Rounding::Nearest, &mut scratch);
        assert_eq!(scratch, BfpBlock::quantize(&xs[..3], FMT5));
    }

    #[test]
    fn fast_dot_bit_identical_to_naive_on_edge_cases() {
        // Zero blocks, denormal-range values, saturating values, and a
        // length straddling a chunk boundary.
        let cases: Vec<Vec<f32>> = vec![
            vec![0.0; 200],
            vec![2.0f32.powi(-30); 129],
            vec![2.0f32.powi(20), -1.0e-20, 0.0, 5.5],
            (0..257).map(|i| ((i * 37) % 19) as f32 - 9.0).collect(),
        ];
        for xs in &cases {
            for fmt in [FMT2, BfpFormat::BFP_1S_5E_3M, FMT5] {
                let a = BfpBlock::quantize(xs, fmt);
                let neg: Vec<f32> = xs.iter().map(|v| -v * 0.3).collect();
                let b = BfpBlock::quantize(&neg, fmt);
                assert_eq!(
                    a.dot(&b).unwrap().to_bits(),
                    a.dot_naive(&b).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn wide_and_mixed_layouts_match_the_naive_kernel() {
        // 23-bit mantissas need 64-bit chunk sums, and a vector may be
        // quantized wider or narrower than the row it multiplies.
        let wide = BfpFormat::new(8, 23, 128).unwrap();
        let xs: Vec<f32> = (0..256).map(|i| (i as f32 * 0.13).sin() * 100.0).collect();
        let ys: Vec<f32> = (0..256).map(|i| (i as f32 * 0.29).cos() * 100.0).collect();
        for (fa, fb) in [(wide, wide), (FMT5, wide), (wide, FMT2), (FMT2, FMT5)] {
            let a = BfpBlock::quantize(&xs, fa);
            let b = BfpBlock::quantize(&ys, fb);
            assert_eq!(
                a.dot(&b).unwrap().to_bits(),
                a.dot_naive(&b).unwrap().to_bits(),
                "{fa} x {fb}"
            );
        }
    }

    #[test]
    fn layout_follows_the_format_alone() {
        for bits in 1..=23 {
            let fmt = BfpFormat::new(5, bits, 128).unwrap();
            let b = BfpBlock::quantize(&[1.0, -2.0, 0.5], fmt);
            let (packed, narrow) = match b.mantissas {
                Mantissas::Packed(_) => (true, false),
                Mantissas::Narrow(_) => (false, true),
                Mantissas::Wide(_) => (false, false),
            };
            assert_eq!(packed, fmt.max_mantissa() <= 7, "{fmt}");
            assert_eq!(narrow, !packed && fmt.max_mantissa() <= 127, "{fmt}");
            assert_eq!(b.lanes.len(), if narrow { 3 } else { 0 });
            assert_eq!(b.padded.len(), if packed { GROUP } else { 0 });
            assert_eq!(
                b.sums,
                if packed {
                    vec![b.mantissas().sum()]
                } else {
                    vec![]
                }
            );
        }
    }

    #[test]
    fn dot_f32_equals_quantize_then_dot() {
        let a = BfpBlock::quantize(&[0.5, -0.25, 1.0], FMT5);
        let direct = a.dot_f32(&[1.0, 1.0, 1.0]).unwrap();
        let via = a.dot(&BfpBlock::quantize(&[1.0, 1.0, 1.0], FMT5)).unwrap();
        assert_eq!(direct, via);
    }

    /// The quantizer as it stood before the exponent-field / reciprocal /
    /// narrow-lane rewrite, verbatim: `log2().floor()` start, bump loop, `f64`
    /// divide and `round()` per element. The oracle for [`quantize_append`].
    fn quantize_append_oracle(
        values: &[f32],
        format: BfpFormat,
        mantissas: &mut Vec<i32>,
        exponents: &mut Vec<i32>,
    ) {
        let chunk = format.block_size() as usize;
        let max_man = format.max_mantissa();
        let (exp_min, exp_max) = format.exponent_range();
        mantissas.reserve(values.len());
        exponents.reserve(values.len().div_ceil(chunk.max(1)));

        for group in values.chunks(chunk) {
            let amax = group
                .iter()
                .map(|v| if v.is_finite() { v.abs() } else { f32::MAX })
                .fold(0.0f32, f32::max);
            let mut e = if amax == 0.0 {
                exp_min
            } else {
                amax.log2().floor() as i32
            };
            // Rounding the largest element may overflow the mantissa field
            // (e.g. 3.9 with 2-bit mantissas); bump the exponent if so.
            let m = i32::from(format.mantissa_bits());
            loop {
                let scale = exp2(e - (m - 1));
                let q_max = (f64::from(amax) / scale).round() as i64;
                if q_max <= i64::from(max_man) || e >= exp_max {
                    break;
                }
                e += 1;
            }
            let e = e.clamp(exp_min, exp_max);
            let scale = exp2(e - (m - 1));
            for &v in group {
                let v = if v.is_finite() {
                    v
                } else if v.is_sign_negative() {
                    f32::MIN
                } else {
                    f32::MAX
                };
                let q = (f64::from(v) / scale).round() as i64;
                let q = q.clamp(-i64::from(max_man), i64::from(max_man));
                mantissas.push(q as i32);
            }
            exponents.push(e);
        }
    }

    /// Asserts the rewritten quantizer and the oracle agree on `values`
    /// under `format`, element for element.
    fn assert_matches_oracle(values: &[f32], format: BfpFormat) {
        let (mut man, mut exp) = (Vec::new(), Vec::new());
        quantize_append_oracle(values, format, &mut man, &mut exp);
        let got = BfpBlock::quantize(values, format);
        assert_eq!(got.exponents(), exp, "{format} exponents");
        assert_eq!(
            got.mantissas().collect::<Vec<_>>(),
            man,
            "{format} mantissas of {values:?}"
        );
    }

    /// Every supported width up to 16 bits: both layouts and the 7→8
    /// boundary, under both exponent-field widths the repo uses.
    fn oracle_formats() -> impl Iterator<Item = BfpFormat> {
        // The interpreter is ~1000× slower: there, the layout boundary only.
        let widths = if cfg!(miri) { 7..=8 } else { 1..=16 };
        widths.flat_map(|bits| {
            [(5, 128), (8, 128), (5, 3)]
                .map(|(exp_bits, block)| BfpFormat::new(exp_bits, bits, block).unwrap())
        })
    }

    #[test]
    fn quantizer_matches_oracle_around_powers_of_two() {
        // `log2().floor()` reads one too high just below a power of two and
        // the bump loop hides it; the exponent field never does. Both must
        // land on the same exponent and mantissas.
        let mut values = Vec::new();
        for k in [
            -140, -127, -126, -30, -16, -15, -14, -1, 0, 1, 3, 15, 16, 17, 20, 100, 127,
        ] {
            let p = 2.0f64.powi(k) as f32;
            for ulps in -12i32..=12 {
                let v = f32::from_bits((p.to_bits() as i32 + ulps).max(0) as u32);
                values.extend([v, -v]);
            }
        }
        for fmt in oracle_formats() {
            for &v in &values {
                assert_matches_oracle(&[v], fmt);
                assert_matches_oracle(&[v * 0.37, v, -v * 0.81], fmt);
            }
        }
    }

    #[test]
    fn quantizer_matches_oracle_on_subnormals_zeros_and_non_finite() {
        let tiny = f32::from_bits(1);
        let largest_subnormal = f32::from_bits(0x007F_FFFF);
        let cases: [&[f32]; 10] = [
            &[0.0; 7],
            &[-0.0, 0.0, -0.0],
            &[tiny, -tiny, 0.0],
            &[largest_subnormal, tiny, -largest_subnormal],
            &[f32::MIN_POSITIVE, largest_subnormal],
            &[f32::INFINITY, 1.0, -3.5],
            &[f32::NEG_INFINITY, f32::NAN, -f32::NAN, 0.25],
            &[f32::MAX, f32::MIN, 1.0e30],
            // The exponent clamp binds (5-bit exponents top out at 16) and
            // mantissas saturate; the second chunk of a 3-block does not.
            &[3.0e6, -2.9e6, 7.0e5, 0.4, -0.1, 0.3],
            // ... and binds from below: everything underflows toward zero.
            &[3.0e-6, -2.9e-6, 1.0e-7],
        ];
        for fmt in oracle_formats() {
            for values in cases {
                assert_matches_oracle(values, fmt);
            }
        }
    }

    #[test]
    fn quantizer_matches_oracle_on_rounding_ties() {
        // Halves round away from zero.
        let ties: Vec<f32> = (-40..=40).map(|i| i as f32 * 0.5).collect();
        let wave: Vec<f32> = (0..300).map(|i| (i as f32 * 0.77).sin() * 9.0).collect();
        for fmt in oracle_formats() {
            assert_matches_oracle(&ties, fmt);
            assert_matches_oracle(&wave, fmt);
            // Exact ties at the format's own step: leading each group with
            // max_mantissa · 2^j pins the step at 2^j, and the rest are
            // odd multiples of half of it, with their f32 neighbours.
            let max = fmt.max_mantissa();
            for j in [-9, 0, 6] {
                let step = 2.0f32.powi(j);
                let ties_at_step: Vec<i32> =
                    (0..max.min(90)).chain(max - max.min(4)..max).collect();
                for group in ties_at_step.chunks(30) {
                    let mut values = vec![max as f32 * step];
                    for &n in group {
                        let tie = (n as f32 + 0.5) * step;
                        let (below, above) = (tie.to_bits() - 1, tie.to_bits() + 1);
                        values.extend([tie, -tie, f32::from_bits(below), -f32::from_bits(above)]);
                    }
                    assert_matches_oracle(&values, fmt);
                }
            }
        }
    }

    #[test]
    fn widest_formats_take_the_tight_exponent_below_a_power_of_two() {
        // Where the rewrite and the oracle part ways, on purpose: with ≥ 17
        // mantissa bits the oracle's f32 `log2` can round up to the next
        // integer so close below a power of two that no bump is needed to
        // hide it, and the oracle keeps an exponent one larger than the
        // smallest that fits — which is what `quantize` documents.
        let fmt = BfpFormat::new(8, 23, 128).unwrap();
        let v = f32::from_bits(2.0f32.powi(20).to_bits() - 8);
        let (mut man, mut exp) = (Vec::new(), Vec::new());
        quantize_append_oracle(&[v], fmt, &mut man, &mut exp);
        let got = BfpBlock::quantize(&[v], fmt);
        assert_eq!((exp[0], got.exponents()[0]), (20, 19));
        assert_eq!(got.dequantize()[0], v);
    }

    proptest! {
        #[test]
        fn quantize_error_bounded_by_chunk_max(values in prop::collection::vec(-100.0f32..100.0, 1..300)) {
            let b = BfpBlock::quantize(&values, FMT5);
            let back = b.dequantize();
            let chunk = FMT5.block_size() as usize;
            for (ci, group) in values.chunks(chunk).enumerate() {
                let amax = group.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                // One quantization step is at most chunk_max / (2^m - 1)
                // after the overflow bump; allow the half-step rounding.
                let step = (amax / 31.0).max(f32::EPSILON);
                for (i, &v) in group.iter().enumerate() {
                    let err = (back[ci * chunk + i] - v).abs();
                    prop_assert!(err <= step * 1.01 + 1e-6,
                        "chunk {ci} elem {i}: v={v} err={err} step={step}");
                }
            }
        }

        #[test]
        fn mantissas_within_format_bounds(values in prop::collection::vec(-1e6f32..1e6, 0..200)) {
            for fmt in [FMT2, FMT5, BfpFormat::BFP_1S_5E_3M] {
                let b = BfpBlock::quantize(&values, fmt);
                let bound = fmt.max_mantissa();
                prop_assert!(b.mantissas().all(|q| q.abs() <= bound));
                let (lo, hi) = fmt.exponent_range();
                prop_assert!(b.exponents().iter().all(|&e| e >= lo && e <= hi));
            }
        }

        #[test]
        fn dot_is_symmetric(
            a in prop::collection::vec(-10.0f32..10.0, 1..200),
            seed in 0u64..1000,
        ) {
            let b: Vec<f32> = a.iter().enumerate()
                .map(|(i, v)| v * (((i as u64 + seed) % 7) as f32 - 3.0))
                .collect();
            let qa = BfpBlock::quantize(&a, FMT5);
            let qb = BfpBlock::quantize(&b, FMT5);
            prop_assert_eq!(qa.dot(&qb).unwrap(), qb.dot(&qa).unwrap());
        }

        #[test]
        fn fast_dot_bit_identical_to_naive(
            len_idx in 0usize..12,
            free_len in 0usize..400,
            mantissa_bits in 1u8..=9,
            block_idx in 0usize..5,
            saturate in 0u8..3,
            seed in 0u64..1000,
        ) {
            // Lengths at vector-width and chunk tails, plus free ones.
            let len = [0, 1, 15, 16, 17, 127, 128, 129, 400]
                .get(len_idx)
                .copied()
                .unwrap_or(free_len);
            let block_size = [1u32, 2, 16, 64, 128][block_idx];
            let fmt = BfpFormat::new(5, mantissa_bits, block_size).unwrap();
            // `saturate` pins every mantissa of one or both operands to
            // ±max_mantissa: the i16 product and i32 sum bounds.
            let wave = |i: usize, k: u64| ((i as u64 * 37 + seed * k) % 201) as f32 - 100.0;
            let max = fmt.max_mantissa();
            let a: Vec<f32> = (0..len)
                .map(|i| if saturate >= 1 { (max as f32).copysign(wave(i, 3)) } else { wave(i, 3) })
                .collect();
            let b: Vec<f32> = (0..len)
                .map(|i| if saturate == 2 { (max as f32).copysign(wave(i, 5)) } else { wave(i, 5) * 0.1 })
                .collect();
            let qa = BfpBlock::quantize(&a, fmt);
            let qb = BfpBlock::quantize(&b, fmt);
            if saturate == 2 {
                prop_assert!(qa.mantissas().chain(qb.mantissas()).all(|q| q.abs() == max));
            }
            let fast = qa.dot(&qb).unwrap();
            let naive = qa.dot_naive(&qb).unwrap();
            prop_assert_eq!(fast.to_bits(), naive.to_bits(),
                "fast {} vs naive {}", fast, naive);
        }

        #[test]
        fn quantizer_matches_oracle(
            values in prop::collection::vec(-1.0e4f32..1.0e4, 0..300),
            mantissa_bits in 1u8..=16,
            exponent_bits in 3u8..=8,
            block_idx in 0usize..4,
            scale_exp in -40i32..40,
        ) {
            let fmt = BfpFormat::new(exponent_bits, mantissa_bits, [1u32, 3, 16, 128][block_idx]).unwrap();
            let scaled: Vec<f32> = values.iter().map(|v| v * 2.0f32.powi(scale_exp)).collect();
            assert_matches_oracle(&scaled, fmt);
        }

        #[test]
        fn quantize_is_idempotent(values in prop::collection::vec(-50.0f32..50.0, 1..100)) {
            // Quantizing already-quantized values must be exact.
            let once = BfpBlock::quantize(&values, FMT5).dequantize();
            let twice = BfpBlock::quantize(&once, FMT5).dequantize();
            for (a, b) in once.iter().zip(&twice) {
                prop_assert!((a - b).abs() <= a.abs() * 1e-6 + 1e-9,
                    "once={a} twice={b}");
            }
        }
    }
}
