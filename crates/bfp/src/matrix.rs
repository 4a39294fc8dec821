//! Row-quantized BFP matrices, the storage format of the matrix register
//! file (MRF).

use serde::{Deserialize, Serialize};

use crate::block::{quantize_append, BfpBlock, DotError, Rounding};
use crate::format::BfpFormat;
use crate::kernel::{self, mac_rows, Mantissas, Rows};

/// A dense matrix quantized to block floating point, row by row.
///
/// Model weights pinned in the MRF are stored this way: each row is a BFP
/// vector (chunked into shared-exponent groups), so a dot-product engine
/// multiplying the input vector by one row performs only integer MACs plus a
/// per-chunk exponent recombination.
///
/// Storage is one flat row-major mantissa slab plus a flat exponent slab
/// (one per chunk per row), which the MAC kernel streams through without
/// per-row indirection. The format alone picks the slab's layout, the
/// narrowest that holds its mantissas: two per byte when it has ≤ 3 mantissa
/// bits (the paper's production 1s.5e.2m: a 400 × 400 tile is 90 KB), one
/// `i8` each up to 7 bits, one `i32` each beyond. The `kernel` module doc
/// defines the packed layout.
///
/// # Example
///
/// ```
/// use bw_bfp::{BfpFormat, BfpMatrix};
///
/// let m = BfpMatrix::quantize(2, 3, &[1.0, 0.0, 0.0, 0.0, 2.0, 0.0], BfpFormat::BFP_1S_5E_5M)?;
/// let y = m.mv_mul_f32(&[1.0, 1.0, 1.0]).unwrap();
/// assert!((y[0] - 1.0).abs() < 0.1);
/// assert!((y[1] - 2.0).abs() < 0.1);
/// # Ok::<(), bw_bfp::MatrixShapeError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BfpMatrix {
    rows: usize,
    cols: usize,
    format: BfpFormat,
    /// `rows` rows of `cols` signed mantissas, row-major.
    mantissas: Mantissas,
    /// `rows * chunks_per_row` shared exponents, row-major.
    exponents: Vec<i32>,
}

/// A borrowed view of one quantized matrix row: slices into the matrix's
/// flat mantissa/exponent slabs.
#[derive(Clone, Copy, Debug)]
pub struct BfpRowRef<'a> {
    row: Rows<'a>,
}

impl BfpRowRef<'_> {
    /// Number of elements in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.row.cols
    }

    /// Returns `true` if the row holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The quantization format.
    #[inline]
    pub fn format(&self) -> BfpFormat {
        self.row.format
    }

    /// The row's signed mantissas, widened to `i32` from whichever layout
    /// the format stores them in.
    pub fn mantissas(&self) -> impl Iterator<Item = i32> + '_ {
        self.row.iter()
    }

    /// The row's shared exponents, one per chunk.
    #[inline]
    pub fn exponents(&self) -> &[i32] {
        self.row.exponents
    }

    /// Dot product of this row against a quantized vector (fast kernel).
    ///
    /// # Errors
    ///
    /// Returns [`DotError`] if `x` differs in length or chunk size.
    pub fn dot(&self, x: &BfpBlock) -> Result<f32, DotError> {
        check_operand(self.row.format, self.len(), x)?;
        Ok(kernel::dot(self.row, x.operand()))
    }

    /// Reconstructs the approximate `f32` values of the row.
    pub fn dequantize(&self) -> Vec<f32> {
        self.row.dequantize()
    }
}

#[inline]
fn check_operand(format: BfpFormat, cols: usize, x: &BfpBlock) -> Result<(), DotError> {
    if cols != x.len() {
        return Err(DotError::LengthMismatch {
            lhs: cols,
            rhs: x.len(),
        });
    }
    if format.block_size() != x.format().block_size() {
        return Err(DotError::BlockSizeMismatch {
            lhs: format.block_size(),
            rhs: x.format().block_size(),
        });
    }
    Ok(())
}

/// Error returned when the data length does not match the requested shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatrixShapeError {
    /// Rows requested.
    pub rows: usize,
    /// Columns requested.
    pub cols: usize,
    /// Elements supplied.
    pub len: usize,
}

impl std::fmt::Display for MatrixShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix shape {}x{} requires {} elements, got {}",
            self.rows,
            self.cols,
            self.rows * self.cols,
            self.len
        )
    }
}

impl std::error::Error for MatrixShapeError {}

impl BfpMatrix {
    /// Quantizes a row-major `rows × cols` slice of `f32` weights.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixShapeError`] if `data.len() != rows * cols`.
    pub fn quantize(
        rows: usize,
        cols: usize,
        data: &[f32],
        format: BfpFormat,
    ) -> Result<Self, MatrixShapeError> {
        if data.len() != rows * cols {
            return Err(MatrixShapeError {
                rows,
                cols,
                len: data.len(),
            });
        }
        let mut mantissas = Mantissas::with_capacity(format, rows, cols);
        let mut exponents = Vec::new();
        // The one row a packed slab is quantized through.
        let mut padded = Vec::new();
        for row in data.chunks(cols.max(1)).take(rows) {
            quantize_append(
                row,
                format,
                Rounding::Nearest,
                &mut mantissas,
                &mut exponents,
                &mut padded,
            );
        }
        Ok(BfpMatrix {
            rows,
            cols,
            format,
            mantissas,
            exponents,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantization format.
    #[inline]
    pub fn format(&self) -> BfpFormat {
        self.format
    }

    /// Borrows one quantized row as slices into the flat slabs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> BfpRowRef<'_> {
        assert!(row < self.rows, "row {row} out of range ({})", self.rows);
        BfpRowRef {
            row: self.all_rows().row(row),
        }
    }

    /// Every row, as the MAC kernel takes them.
    fn all_rows(&self) -> Rows<'_> {
        Rows {
            format: self.format,
            cols: self.cols,
            mantissas: self.mantissas.as_slice(),
            exponents: &self.exponents,
        }
    }

    /// Matrix-vector product against an already-quantized input vector.
    ///
    /// # Errors
    ///
    /// Returns [`DotError`] if `x` does not match the column count or chunk
    /// size.
    pub fn mv_mul(&self, x: &BfpBlock) -> Result<Vec<f32>, DotError> {
        let mut out = Vec::new();
        self.mv_mul_into(x, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product written into a reusable output buffer.
    ///
    /// `out` is cleared and filled with `rows` elements; its allocation is
    /// reused across calls.
    ///
    /// # Errors
    ///
    /// Returns [`DotError`] if `x` does not match the column count or chunk
    /// size.
    pub fn mv_mul_into(&self, x: &BfpBlock, out: &mut Vec<f32>) -> Result<(), DotError> {
        out.clear();
        if self.rows == 0 {
            return Ok(());
        }
        check_operand(self.format, self.cols, x)?;
        out.resize(self.rows, 0.0);
        mac_rows::<false>(self.all_rows(), x.operand(), out);
        Ok(())
    }

    /// Matrix-vector product *accumulated* into `acc`: `acc[r] += row_r · x`.
    ///
    /// The per-row dot is computed as an `f32` (exactly as [`mv_mul`]
    /// produces it) and then added in `f32`, matching the MVM datapath's
    /// tile-accumulation order bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`DotError`] if `x` does not match the column count or chunk
    /// size, or [`DotError::LengthMismatch`] if `acc.len() != self.rows()`.
    ///
    /// [`mv_mul`]: BfpMatrix::mv_mul
    pub fn mv_mul_acc(&self, x: &BfpBlock, acc: &mut [f32]) -> Result<(), DotError> {
        if acc.len() != self.rows {
            return Err(DotError::LengthMismatch {
                lhs: self.rows,
                rhs: acc.len(),
            });
        }
        if self.rows == 0 {
            return Ok(());
        }
        check_operand(self.format, self.cols, x)?;
        mac_rows::<true>(self.all_rows(), x.operand(), acc);
        Ok(())
    }

    /// Matrix-vector product using the retained naive reference kernel;
    /// bit-identical to [`BfpMatrix::mv_mul`] (the differential property
    /// tests pin this).
    ///
    /// # Errors
    ///
    /// Returns [`DotError`] if `x` does not match the column count or chunk
    /// size.
    pub fn mv_mul_naive(&self, x: &BfpBlock) -> Result<Vec<f32>, DotError> {
        if self.rows == 0 {
            return Ok(Vec::new());
        }
        check_operand(self.format, self.cols, x)?;
        let (rows, x) = (self.all_rows(), x.operand());
        Ok((0..self.rows)
            .map(|r| kernel::dot_naive(rows.row(r), x))
            .collect())
    }

    /// Matrix-vector product; quantizes `x` with this matrix's format first.
    ///
    /// # Errors
    ///
    /// Returns [`DotError::LengthMismatch`] if `x.len() != self.cols()`.
    pub fn mv_mul_f32(&self, x: &[f32]) -> Result<Vec<f32>, DotError> {
        let qx = BfpBlock::quantize(x, self.format);
        self.mv_mul(&qx)
    }

    /// Reconstructs the approximate row-major `f32` contents.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            out.extend(self.row(r).dequantize());
        }
        out
    }

    /// On-chip storage footprint in bytes under this BFP format.
    pub fn storage_bytes(&self) -> u64 {
        self.format.storage_bytes((self.rows * self.cols) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FMT: BfpFormat = BfpFormat::BFP_1S_5E_5M;

    #[test]
    fn identity_mv_mul() {
        let n = 8;
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        let m = BfpMatrix::quantize(n, n, &data, FMT).unwrap();
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y = m.mv_mul_f32(&x).unwrap();
        for (i, v) in y.iter().enumerate() {
            assert!((v - x[i]).abs() < 0.3, "row {i}: {v} vs {}", x[i]);
        }
    }

    #[test]
    fn shape_validation() {
        let err = BfpMatrix::quantize(2, 3, &[0.0; 5], FMT).unwrap_err();
        assert_eq!(
            err,
            MatrixShapeError {
                rows: 2,
                cols: 3,
                len: 5
            }
        );
        assert!(err.to_string().contains("6 elements"));
    }

    #[test]
    fn zero_sized_matrix() {
        let m = BfpMatrix::quantize(0, 0, &[], FMT).unwrap();
        assert_eq!(m.rows(), 0);
        assert_eq!(m.mv_mul_f32(&[]).unwrap(), Vec::<f32>::new());
        assert_eq!(
            m.mv_mul_naive(&BfpBlock::quantize(&[], FMT)).unwrap().len(),
            0
        );
        assert_eq!(m.storage_bytes(), 0);
    }

    #[test]
    fn mv_mul_matches_dense_reference() {
        let (rows, cols) = (5, 130); // spans a chunk boundary at 128
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31) % 17) as f32 / 17.0 - 0.5)
            .collect();
        let x: Vec<f32> = (0..cols)
            .map(|i| ((i * 7) % 13) as f32 / 13.0 - 0.5)
            .collect();
        let m = BfpMatrix::quantize(rows, cols, &data, FMT).unwrap();
        let y = m.mv_mul_f32(&x).unwrap();
        for r in 0..rows {
            let reference: f32 = (0..cols).map(|c| data[r * cols + c] * x[c]).sum();
            assert!(
                (y[r] - reference).abs() < 0.3,
                "row {r}: {} vs {}",
                y[r],
                reference
            );
        }
    }

    #[test]
    fn flat_rows_match_per_row_quantization() {
        // Quantizing the matrix row-by-row into flat slabs must equal
        // quantizing each row as a standalone BfpBlock.
        let (rows, cols) = (4, 200);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 13) % 29) as f32 - 14.0)
            .collect();
        let m = BfpMatrix::quantize(rows, cols, &data, FMT).unwrap();
        for r in 0..rows {
            let standalone = BfpBlock::quantize(&data[r * cols..(r + 1) * cols], FMT);
            assert!(m.row(r).mantissas().eq(standalone.mantissas()));
            assert_eq!(m.row(r).exponents(), standalone.exponents());
            assert_eq!(m.row(r).dequantize(), standalone.dequantize());
        }
    }

    #[test]
    fn mv_mul_error_cases_match_block_dot() {
        let m = BfpMatrix::quantize(2, 3, &[1.0; 6], FMT).unwrap();
        let short = BfpBlock::quantize(&[1.0], FMT);
        assert_eq!(
            m.mv_mul(&short),
            Err(DotError::LengthMismatch { lhs: 3, rhs: 1 })
        );
        let fmt_small = BfpFormat::new(5, 5, 64).unwrap();
        let wrong_chunk = BfpBlock::quantize(&[1.0; 3], fmt_small);
        assert_eq!(
            m.mv_mul(&wrong_chunk),
            Err(DotError::BlockSizeMismatch { lhs: 128, rhs: 64 })
        );
    }

    #[test]
    fn mv_mul_acc_accumulates_in_f32() {
        let m = BfpMatrix::quantize(3, 4, &[0.5; 12], FMT).unwrap();
        let x = BfpBlock::quantize(&[1.0, 2.0, 3.0, 4.0], FMT);
        let base = m.mv_mul(&x).unwrap();
        let mut acc = base.clone();
        m.mv_mul_acc(&x, &mut acc).unwrap();
        for (a, b) in acc.iter().zip(&base) {
            assert_eq!(*a, b + b);
        }
        let mut wrong = vec![0.0; 2];
        assert_eq!(
            m.mv_mul_acc(&x, &mut wrong),
            Err(DotError::LengthMismatch { lhs: 3, rhs: 2 })
        );
    }

    #[test]
    fn storage_matches_format_accounting() {
        let m = BfpMatrix::quantize(4, 128, &[1.0; 512], FMT).unwrap();
        assert_eq!(m.storage_bytes(), FMT.storage_bytes(512));
    }

    #[test]
    fn narrowest_formats_hold_one_packed_slab() {
        // A BW_S10 tile: 400 rows of 2 + 2 + 2 + 1 groups of 32 bytes, 90 KB
        // where `i8` lanes were 160 KB; the format alone picks the layout.
        let data: Vec<f32> = (0..400 * 400).map(|i| (i % 23) as f32 - 11.0).collect();
        for (format, bytes) in [
            (BfpFormat::BFP_1S_5E_2M, 400 * 224),
            (BfpFormat::BFP_1S_5E_3M, 400 * 224),
            (FMT, 400 * 400),
        ] {
            let m = BfpMatrix::quantize(400, 400, &data, format).unwrap();
            let owned = match &m.mantissas {
                Mantissas::Packed(slab) => slab.capacity(),
                Mantissas::Narrow(slab) => slab.capacity(),
                Mantissas::Wide(slab) => 4 * slab.capacity(),
            };
            assert_eq!(owned, bytes, "{format}");
            assert_eq!(m, BfpMatrix::quantize(400, 400, &data, format).unwrap());
        }
    }

    #[test]
    fn packed_matrix_takes_the_oracle_against_other_layouts() {
        // A 1s.5e.2m matrix times a 1s.5e.5m or a 23-bit vector, and the
        // other way round: no fast pairing, the oracle's answer.
        let wide = BfpFormat::new(8, 23, 128).unwrap();
        let packed = BfpFormat::BFP_1S_5E_2M;
        let (rows, cols) = (5, 300);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31) % 17) as f32 - 8.0)
            .collect();
        let x: Vec<f32> = (0..cols).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        for (format, x_format) in [(packed, FMT), (packed, wide), (FMT, packed), (wide, packed)] {
            let m = BfpMatrix::quantize(rows, cols, &data, format).unwrap();
            let qx = BfpBlock::quantize(&x, x_format);
            let naive = m.mv_mul_naive(&qx).unwrap();
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&m.mv_mul(&qx).unwrap()),
                bits(&naive),
                "{format} × {x_format}"
            );
            let unpacked: Vec<f32> = (0..rows)
                .map(|r| BfpBlock::quantize(&data[r * cols..][..cols], format).dot_naive(&qx))
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(bits(&unpacked), bits(&naive), "{format} × {x_format}");
        }
    }

    #[test]
    fn packed_matrix_pads_blocks_that_are_not_whole_groups() {
        // The block-128 formats of the `native_dim(4)` test machines, and
        // blocks of 16, 100 and 400, all take the packed pairing.
        for block in [16, 100, 128, 400] {
            let format = BfpFormat::new(5, 2, block).unwrap();
            for (rows, cols) in [(4, 4), (3, 100), (9, 401)] {
                let data: Vec<f32> = (0..rows * cols)
                    .map(|i| ((i * 13) % 29) as f32 - 14.0)
                    .collect();
                let x: Vec<f32> = (0..cols).map(|i| ((i * 5) % 11) as f32 - 5.0).collect();
                let m = BfpMatrix::quantize(rows, cols, &data, format).unwrap();
                let qx = BfpBlock::quantize(&x, format);
                let (fast, naive) = (m.mv_mul(&qx).unwrap(), m.mv_mul_naive(&qx).unwrap());
                for (f, n) in fast.iter().zip(&naive) {
                    assert_eq!(f.to_bits(), n.to_bits(), "{rows} × {cols} in {block}s");
                }
                // Every row is the vector it was quantized from.
                for r in 0..rows {
                    let standalone = BfpBlock::quantize(&data[r * cols..][..cols], format);
                    assert!(m.row(r).mantissas().eq(standalone.mantissas()));
                    assert_eq!(m.row(r).dequantize(), standalone.dequantize());
                }
            }
        }
    }

    #[test]
    fn row_access_and_dequantize_shape() {
        let m = BfpMatrix::quantize(3, 4, &[2.0; 12], FMT).unwrap();
        assert_eq!(m.row(1).len(), 4);
        assert_eq!(m.dequantize().len(), 12);
    }

    proptest! {
        #[test]
        fn fast_mv_mul_bit_identical_to_naive(
            rows in 0usize..6,
            cols_idx in 0usize..12,
            free_cols in 0usize..160,
            mantissa_bits in 1u8..=9,
            x_mantissa_bits in 1u8..=9,
            saturate in any::<bool>(),
            seed in 0u64..500,
        ) {
            // Column counts at vector-width and chunk tails, plus free ones;
            // both layouts for the matrix and, independently, the vector.
            let cols = [0, 1, 15, 16, 17, 127, 128, 129, 400]
                .get(cols_idx)
                .copied()
                .unwrap_or(free_cols);
            let fmt = BfpFormat::new(5, mantissa_bits, 128).unwrap();
            let x_fmt = BfpFormat::new(5, x_mantissa_bits, 128).unwrap();
            // `saturate` pins every mantissa to ±max_mantissa: the bound on
            // the i16 products and the i32 chunk sums.
            let pin = |v: f32, f: BfpFormat| {
                if saturate { (f.max_mantissa() as f32).copysign(v) } else { v }
            };
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| pin((((i as u64).wrapping_mul(seed + 3)) % 37) as f32 - 18.0, fmt))
                .collect();
            let x: Vec<f32> = (0..cols)
                .map(|i| pin((((i as u64).wrapping_mul(seed + 11)) % 23) as f32 * 0.25 - 2.5, x_fmt))
                .collect();
            let m = BfpMatrix::quantize(rows, cols, &data, fmt).unwrap();
            let qx = BfpBlock::quantize(&x, x_fmt);
            if saturate {
                let max = fmt.max_mantissa();
                prop_assert!((0..rows).all(|r| m.row(r).mantissas().all(|q| q.abs() == max)));
                prop_assert!(qx.mantissas().all(|q| q.abs() == x_fmt.max_mantissa()));
            }
            let fast = m.mv_mul(&qx).unwrap();
            let naive = m.mv_mul_naive(&qx).unwrap();
            prop_assert_eq!(fast.len(), naive.len());
            for (f, n) in fast.iter().zip(&naive) {
                prop_assert_eq!(f.to_bits(), n.to_bits(), "fast {} vs naive {}", f, n);
            }
            // mv_mul_into reuses buffers but must produce the same values,
            // and mv_mul_acc adds exactly them in f32.
            let mut buf = vec![9.0f32; 3];
            m.mv_mul_into(&qx, &mut buf).unwrap();
            prop_assert_eq!(&buf, &fast);
            let mut acc = vec![0.75f32; rows];
            m.mv_mul_acc(&qx, &mut acc).unwrap();
            for (a, f) in acc.iter().zip(&fast) {
                prop_assert_eq!(a.to_bits(), (0.75f32 + f).to_bits());
            }
            for (r, f) in fast.iter().enumerate() {
                prop_assert_eq!(m.row(r).dot(&qx).unwrap().to_bits(), f.to_bits());
            }
        }
    }
}
