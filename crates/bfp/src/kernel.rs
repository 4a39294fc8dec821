//! Mantissa storage layouts and the multiply-accumulate kernels over them.
//!
//! A format's mantissas are stored in the narrowest lane that holds them:
//! `i8` when [`BfpFormat::mantissa_bits`] ≤ 7 (magnitudes ≤ 127 — every
//! format the paper deploys), `i32` otherwise. The format alone picks the
//! layout; nothing else does.
//!
//! Two kernels compute the same per-chunk integer sums recombined in the
//! same `f64` order, so they agree bit for bit:
//!
//! * [`mac_rows`], the hot path. When both operands are narrow it streams
//!   `i8` rows against the input's mantissas pre-widened to `i16`
//!   ([`Operand::lanes`]), the shape compilers turn into packed 16-bit
//!   multiply-adds. The one body is instantiated twice: portably, and on
//!   x86-64 under `#[target_feature(enable = "avx2")]`, chosen per call by
//!   runtime detection. Any other layout pairing runs the oracle's loop.
//! * [`dot_naive`], the oracle: element-by-element 64-bit accumulation over
//!   either layout.

use serde::{Deserialize, Serialize};

use crate::format::BfpFormat;

/// Owned signed mantissas in the lane width their format calls for.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) enum Mantissas {
    /// `mantissa_bits ≤ 7`: one byte per element.
    Narrow(Vec<i8>),
    /// Wider formats: one `i32` per element.
    Wide(Vec<i32>),
}

impl Mantissas {
    /// Empty storage in `format`'s layout with room for `capacity` elements.
    pub(crate) fn with_capacity(format: BfpFormat, capacity: usize) -> Self {
        if format.is_narrow() {
            Mantissas::Narrow(Vec::with_capacity(capacity))
        } else {
            Mantissas::Wide(Vec::with_capacity(capacity))
        }
    }

    /// Empties the storage for reuse under `format`, keeping the allocation
    /// when the layout does not change.
    pub(crate) fn reset(&mut self, format: BfpFormat) {
        match self {
            Mantissas::Narrow(m) if format.is_narrow() => m.clear(),
            Mantissas::Wide(m) if !format.is_narrow() => m.clear(),
            _ => *self = Mantissas::with_capacity(format, 0),
        }
    }

    pub(crate) fn as_slice(&self) -> MantissaSlice<'_> {
        match self {
            Mantissas::Narrow(m) => MantissaSlice::Narrow(m),
            Mantissas::Wide(m) => MantissaSlice::Wide(m),
        }
    }
}

/// Borrowed mantissas of either layout.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MantissaSlice<'a> {
    Narrow(&'a [i8]),
    Wide(&'a [i32]),
}

impl<'a> MantissaSlice<'a> {
    pub(crate) fn len(self) -> usize {
        match self {
            MantissaSlice::Narrow(m) => m.len(),
            MantissaSlice::Wide(m) => m.len(),
        }
    }

    pub(crate) fn range(self, range: std::ops::Range<usize>) -> Self {
        match self {
            MantissaSlice::Narrow(m) => MantissaSlice::Narrow(&m[range]),
            MantissaSlice::Wide(m) => MantissaSlice::Wide(&m[range]),
        }
    }

    /// The mantissas widened to `i32`, whatever their storage.
    pub(crate) fn iter(self) -> impl Iterator<Item = i32> + 'a {
        (0..self.len()).map(move |i| match self {
            MantissaSlice::Narrow(m) => i32::from(m[i]),
            MantissaSlice::Wide(m) => m[i],
        })
    }

    /// Reconstructs approximate `f32` values, one exponent per `format`
    /// chunk.
    pub(crate) fn dequantize(self, exponents: &[i32], format: BfpFormat) -> Vec<f32> {
        let chunk = format.block_size() as usize;
        let m = i32::from(format.mantissa_bits());
        self.iter()
            .enumerate()
            .map(|(i, q)| (f64::from(q) * exp2(exponents[i / chunk] - (m - 1))) as f32)
            .collect()
    }
}

/// `2.0^e` as an `f64` without going through `powi` (exact for the exponent
/// ranges BFP uses).
#[inline]
pub(crate) fn exp2(e: i32) -> f64 {
    f64::from_bits(((1023 + i64::from(e)) as u64) << 52)
}

/// Consecutive quantized rows of `cols` elements each: slices into a
/// matrix's slabs, or one vector.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rows<'a> {
    pub(crate) format: BfpFormat,
    pub(crate) cols: usize,
    pub(crate) mantissas: MantissaSlice<'a>,
    /// One exponent per chunk per row, row-major.
    pub(crate) exponents: &'a [i32],
}

impl<'a> Rows<'a> {
    /// Row `r` alone.
    pub(crate) fn row(self, r: usize) -> Self {
        let cpr = self.cols.div_ceil(self.format.block_size() as usize);
        Rows {
            mantissas: self.mantissas.range(r * self.cols..(r + 1) * self.cols),
            exponents: &self.exponents[r * cpr..(r + 1) * cpr],
            ..self
        }
    }
}

/// The quantized vector every row is multiplied by.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Operand<'a> {
    pub(crate) format: BfpFormat,
    pub(crate) mantissas: MantissaSlice<'a>,
    /// Narrow mantissas widened to `i16`; empty in the wide layout.
    pub(crate) lanes: &'a [i16],
    pub(crate) exponents: &'a [i32],
}

/// Dot product of every row with `x`, stored to (`ACC == false`) or added in
/// `f32` onto (`ACC == true`) the matching element of `out`.
///
/// Callers have validated that `x` has `rows.cols` elements in chunks of the
/// rows' block size and that `out` has one element per row. Bit-identical to
/// [`dot_naive`] row by row: integer sums are exact in any order, and the
/// per-chunk scale and the cross-chunk `f64` order are the oracle's.
pub(crate) fn mac_rows<const ACC: bool>(rows: Rows<'_>, x: Operand<'_>, out: &mut [f32]) {
    if let (MantissaSlice::Narrow(w), MantissaSlice::Narrow(_)) = (rows.mantissas, x.mantissas) {
        let chunk = rows.format.block_size() as usize;
        let bias = scale_bias(rows.format, x.format);
        return narrow_rows::<ACC>(w, rows.exponents, x.lanes, x.exponents, chunk, bias, out);
    }
    for (r, slot) in out.iter_mut().enumerate() {
        let dot = dot_naive(rows.row(r), x);
        if ACC {
            *slot += dot;
        } else {
            *slot = dot;
        }
    }
}

/// [`mac_rows`] for a single row.
pub(crate) fn dot(row: Rows<'_>, x: Operand<'_>) -> f32 {
    let mut dot = [0.0f32];
    mac_rows::<false>(row, x, &mut dot);
    dot[0]
}

/// Reference dot kernel of one row with `x`: element-by-element 64-bit
/// accumulation per chunk, the oracle the narrow kernel is tested against
/// and the only kernel of the wide layout.
pub(crate) fn dot_naive(row: Rows<'_>, x: Operand<'_>) -> f32 {
    use MantissaSlice::{Narrow, Wide};
    match (row.mantissas, x.mantissas) {
        (Narrow(a), Narrow(b)) => dot_lanes_naive(a, b, row, x),
        (Narrow(a), Wide(b)) => dot_lanes_naive(a, b, row, x),
        (Wide(a), Narrow(b)) => dot_lanes_naive(a, b, row, x),
        (Wide(a), Wide(b)) => dot_lanes_naive(a, b, row, x),
    }
}

fn dot_lanes_naive<A: Copy + Into<i64>, B: Copy + Into<i64>>(
    a_man: &[A],
    b_man: &[B],
    row: Rows<'_>,
    x: Operand<'_>,
) -> f32 {
    let chunk = row.format.block_size() as usize;
    let bias = scale_bias(row.format, x.format);
    let mut total = 0.0f64;
    for (gi, (ga, gb)) in a_man.chunks(chunk).zip(b_man.chunks(chunk)).enumerate() {
        let mut acc: i64 = 0;
        for (&a, &b) in ga.iter().zip(gb) {
            acc += a.into() * b.into();
        }
        total += acc as f64 * exp2(row.exponents[gi] + x.exponents[gi] - bias);
    }
    total as f32
}

/// What a chunk's two exponents are reduced by to scale its integer sum:
/// each mantissa carries `mantissa_bits - 1` fractional bits.
#[inline]
fn scale_bias(a: BfpFormat, b: BfpFormat) -> i32 {
    i32::from(a.mantissa_bits()) - 1 + i32::from(b.mantissa_bits()) - 1
}

/// Longest run of narrow products an `i32` sums exactly:
/// `127 · 127 · 2^17 < 2^31`.
const I32_RUN: usize = 1 << 17;

/// Runs [`narrow_rows_body`] under the widest vector unit the CPU has.
#[allow(unsafe_code)]
fn narrow_rows<const ACC: bool>(
    w: &[i8],
    w_exp: &[i32],
    x: &[i16],
    x_exp: &[i32],
    chunk: usize,
    bias: i32,
    out: &mut [f32],
) {
    // A compile-time fact, not a runtime guess: under miri and off x86-64
    // only the portable instantiation exists.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: a safe `#[target_feature(enable = "avx2")]` function asks
        // only that the running CPU supports AVX2, which was just detected.
        return unsafe { narrow_rows_avx2::<ACC>(w, w_exp, x, x_exp, chunk, bias, out) };
    }
    narrow_rows_body::<ACC>(w, w_exp, x, x_exp, chunk, bias, out);
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
fn narrow_rows_avx2<const ACC: bool>(
    w: &[i8],
    w_exp: &[i32],
    x: &[i16],
    x_exp: &[i32],
    chunk: usize,
    bias: i32,
    out: &mut [f32],
) {
    narrow_rows_body::<ACC>(w, w_exp, x, x_exp, chunk, bias, out);
}

/// The per-tile body: `out.len()` rows of `x.len()` `i8` mantissas in `w`,
/// each row's chunk sums scaled by `2^(row exponent + x exponent - bias)`
/// and totalled in `f64` in chunk order.
#[inline(always)]
fn narrow_rows_body<const ACC: bool>(
    w: &[i8],
    w_exp: &[i32],
    x: &[i16],
    x_exp: &[i32],
    chunk: usize,
    bias: i32,
    out: &mut [f32],
) {
    let (cols, cpr) = (x.len(), x_exp.len());
    assert!(w.len() == out.len() * cols && w_exp.len() == out.len() * cpr);
    assert!(cpr == cols.div_ceil(chunk));
    // Offsets advance by addition: `chunks()` divides to size its iterator,
    // once per row and chunk, which costs about what a chunk's MACs do.
    let (mut w_at, mut exp_at) = (0, 0);
    for slot in out.iter_mut() {
        let row = &w[w_at..w_at + cols];
        let row_exp = &w_exp[exp_at..exp_at + cpr];
        w_at += cols;
        exp_at += cpr;
        let mut total = 0.0f64;
        let mut at = 0;
        for (&ew, &ex) in row_exp.iter().zip(x_exp) {
            let end = (at + chunk).min(cols);
            let mut sum = 0i64;
            while at < end {
                let run_end = (at + I32_RUN).min(end);
                let mut acc = 0i32;
                for (&w, &x) in row[at..run_end].iter().zip(&x[at..run_end]) {
                    acc += i32::from(w) * i32::from(x);
                }
                sum += i64::from(acc);
                at = run_end;
            }
            total += sum as f64 * exp2(ew + ex - bias);
        }
        if ACC {
            *slot += total as f32;
        } else {
            *slot = total as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp2_matches_powi() {
        for e in -40..=40 {
            assert_eq!(exp2(e), 2.0f64.powi(e), "exponent {e}");
        }
    }

    #[test]
    fn longest_i32_run_cannot_overflow() {
        assert!(127 * 127 * (I32_RUN as i64) <= i64::from(i32::MAX));
    }

    /// Three rows against one input: a row of all +127, one of all −127 and
    /// a mixed one, against an input of ±127, so chunk sums reach their
    /// bounds in both directions.
    struct Saturated {
        w: Vec<i8>,
        w_exp: Vec<i32>,
        x: Vec<i16>,
        x_exp: Vec<i32>,
    }

    impl Saturated {
        fn new(cols: usize, chunk: usize, seed: u64) -> Self {
            let cpr = cols.div_ceil(chunk);
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as i32
            };
            let w = (0..3 * cols)
                .map(|i| match (i / cols, next() % 4) {
                    (0, _) | (2, 0) => 127,
                    (1, _) | (2, 1) => -127,
                    _ => (next() % 128) as i8,
                })
                .collect();
            let x = (0..cols)
                .map(|i| match (i as u64 + seed) % 3 {
                    0 => -127,
                    _ => 127,
                })
                .collect();
            Saturated {
                w,
                w_exp: (0..3 * cpr).map(|_| next() % 17 - 8).collect(),
                x,
                x_exp: (0..cpr).map(|_| next() % 17 - 8).collect(),
            }
        }
    }

    fn assert_narrow_matches_oracle(cols: usize, chunk: usize) {
        let f = BfpFormat::new(5, 7, chunk as u32).unwrap();
        for seed in 0..4 {
            let Saturated { w, w_exp, x, x_exp } = Saturated::new(cols, chunk, seed);
            let x8: Vec<i8> = x.iter().map(|&q| q as i8).collect();
            let rows = Rows {
                format: f,
                cols,
                mantissas: MantissaSlice::Narrow(&w),
                exponents: &w_exp,
            };
            let operand = Operand {
                format: f,
                mantissas: MantissaSlice::Narrow(&x8),
                lanes: &x,
                exponents: &x_exp,
            };
            let mut got = vec![7.0f32; 3];
            narrow_rows::<false>(&w, &w_exp, &x, &x_exp, chunk, scale_bias(f, f), &mut got);
            for (r, got) in got.iter().enumerate() {
                let want = dot_naive(rows.row(r), operand);
                assert_eq!(got.to_bits(), want.to_bits(), "cols {cols} row {r}");
            }
        }
    }

    #[test]
    fn narrow_body_matches_oracle_at_vector_width_and_chunk_tails() {
        for cols in [0, 1, 15, 16, 17, 127, 128, 129, 400] {
            assert_narrow_matches_oracle(cols, 128);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "millions of MACs: too slow under the interpreter")]
    fn narrow_body_sums_exponent_chunks_longer_than_an_i32_run() {
        assert_narrow_matches_oracle(I32_RUN + 5, 1 << 18);
        assert_narrow_matches_oracle(2 * I32_RUN + 1, 1 << 18);
    }

    #[test]
    fn portable_and_dispatched_instantiations_agree() {
        // Where AVX2 is detected the dispatcher takes that instantiation,
        // so this compares the two; elsewhere it compares portable to itself.
        for cols in [0, 1, 15, 16, 17, 31, 33, 127, 128, 129, 400] {
            for seed in 0..6 {
                let Saturated { w, w_exp, x, x_exp } = Saturated::new(cols, 128, seed);
                let mut portable = vec![0.5f32; 3];
                let mut dispatched = portable.clone();
                narrow_rows_body::<true>(&w, &w_exp, &x, &x_exp, 128, 12, &mut portable);
                narrow_rows::<true>(&w, &w_exp, &x, &x_exp, 128, 12, &mut dispatched);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&portable), bits(&dispatched), "cols {cols}");
            }
        }
    }

    #[test]
    fn store_keeps_the_sign_of_an_underflowed_total() {
        // A negative total too small for `f32` is `-0.0`; accumulating onto
        // `0.0` would lose the sign that a store keeps.
        let fmt = BfpFormat::new(8, 2, 128).unwrap();
        let rows = Rows {
            format: fmt,
            cols: 1,
            mantissas: MantissaSlice::Narrow(&[-1]),
            exponents: &[-100],
        };
        let x = Operand {
            format: fmt,
            mantissas: MantissaSlice::Narrow(&[1]),
            lanes: &[1],
            exponents: &[-100],
        };
        let mut out = [1.0f32];
        mac_rows::<false>(rows, x, &mut out);
        assert_eq!(out[0].to_bits(), (-0.0f32).to_bits());
    }
}
