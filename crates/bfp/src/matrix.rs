//! Row-quantized BFP matrices, the storage format of the matrix register
//! file (MRF).

use crate::block::{quantize_append, quantizes_to_nothing, BfpBlock, DotError};
use crate::format::{BfpFormat, Layout};
use crate::kernel::{self, mac_rows, Mantissas, Rows, Tile};

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
/// # The live extent
///
/// **A tile costs the host its live extent; the modeled NPU its full
/// N × N.** The slabs hold the smallest prefix of rows, and of every row's
/// exponent chunks, outside which each weight quantizes to the zero mantissa
/// — found from the data, so a partial tile's padding, an all-zero tile (an
/// extent of 0 × 0, which allocates nothing) and weights too small for the
/// format are caught alike, and a dense matrix is the case extent = shape.
/// A chunk of zero mantissas adds `+0.0` to a row's total, so the products
/// multiply the stored prefix by the matching prefix of the vector and give
/// the rows past it `+0.0`: bit for bit what the whole shape gives. All
/// else ([`rows`](Self::rows), equality,
/// [`storage_bytes`](Self::storage_bytes), ...) describes the logical
/// matrix, and [`mv_mul_naive`](Self::mv_mul_naive) walks all of it, so the
/// oracle checks this shortcut instead of sharing it.
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
#[derive(Clone, Debug, PartialEq)]
pub struct BfpMatrix {
    rows: usize,
    cols: usize,
    format: BfpFormat,
    /// The live extent: rows `live_rows..` and, in every row, exponent
    /// chunks `live_chunks..` hold zero mantissas only and are not stored.
    live_rows: usize,
    live_chunks: usize,
    /// `live_rows` rows of `live_cols()` signed mantissas, row-major.
    mantissas: Mantissas,
    /// `live_rows * live_chunks` shared exponents, row-major. The chunks
    /// not stored have the format's lowest exponent, the one the quantizer
    /// gives a chunk that holds nothing.
    exponents: Vec<i32>,
}

/// A borrowed view of one quantized matrix row at its logical width: what
/// the matrix stores of it, then zero mantissas.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BfpRowRef<'a> {
    /// The row's stored prefix: slices into the matrix's slabs.
    stored: Rows<'a>,
    cols: usize,
}

impl BfpRowRef<'_> {
    /// Number of elements in the row.
    #[cfg(test)]
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.cols
    }

    /// The quantization format.
    #[cfg(test)]
    #[inline]
    pub(crate) fn format(&self) -> BfpFormat {
        self.stored.format
    }

    /// The row's signed mantissas, widened to `i32` from whichever layout
    /// the format stores them in.
    #[cfg(test)]
    pub(crate) fn mantissas(&self) -> impl Iterator<Item = i32> + '_ {
        let stored = self.stored.iter();
        stored.chain(std::iter::repeat(0)).take(self.cols)
    }

    /// The row's shared exponents, one per chunk. An iterator and not a
    /// slice: the chunks a matrix does not store have no memory to lend.
    #[cfg(test)]
    pub(crate) fn exponents(&self) -> impl Iterator<Item = i32> + '_ {
        let format = self.format();
        let stored = self.stored.exponents.iter().copied();
        stored
            .chain(std::iter::repeat(format.exponent_range().0))
            .take(self.cols.div_ceil(format.block_size() as usize))
    }

    /// Dot product of this row against a quantized vector (fast kernel).
    ///
    /// # Errors
    ///
    /// Returns [`DotError`] if `x` differs in length or chunk size.
    #[cfg(test)]
    pub(crate) fn dot(&self, x: &BfpBlock) -> Result<f32, DotError> {
        check_operand(self.format(), self.cols, x)?;
        let x = x.operand().prefix(self.stored.cols);
        Ok(kernel::dot(self.stored, x))
    }

    /// Reconstructs the approximate `f32` values of the row.
    pub(crate) fn dequantize(&self) -> Vec<f32> {
        let mut values = self.stored.dequantize();
        values.resize(self.cols, 0.0);
        values
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
        // The live extent (type doc), then only that is quantized.
        let chunk = format.block_size() as usize;
        let mut m = BfpMatrix::zeros(rows, cols, format);
        for (r, row) in data.chunks(cols.max(1)).take(rows).enumerate() {
            let live = |weights| !quantizes_to_nothing(weights, format);
            if let Some(last) = row.chunks(chunk).rposition(live) {
                m.live_rows = r + 1;
                m.live_chunks = m.live_chunks.max(last + 1);
            }
        }
        let (live_rows, live_cols) = m.live_shape();
        m.mantissas = Mantissas::with_capacity(format, live_rows, live_cols);
        // The one row a packed slab is quantized through.
        let mut padded = Vec::new();
        for row in data.chunks(cols.max(1)).take(live_rows) {
            quantize_append(
                &row[..live_cols],
                format,
                &mut m.mantissas,
                &mut m.exponents,
                &mut padded,
            );
        }
        // Derived `PartialEq` counts on the extent being the smallest: the
        // last row and the last chunk column each hold a mantissa.
        let holds = |r: usize, from: usize| m.live().row(r).iter().skip(from).any(|q| q != 0);
        let last = m.live_chunks.saturating_sub(1) * chunk;
        debug_assert!(match m.live_rows {
            0 => m.live_chunks == 0,
            n => holds(n - 1, 0) && (0..n).any(|r| holds(r, last)),
        });
        Ok(m)
    }

    /// The `rows × cols` matrix of zeros: a live extent of 0 × 0, which
    /// allocates nothing.
    pub fn zeros(rows: usize, cols: usize, format: BfpFormat) -> Self {
        BfpMatrix {
            rows,
            cols,
            format,
            live_rows: 0,
            live_chunks: 0,
            mantissas: Mantissas::with_capacity(format, 0, 0),
            exponents: Vec::new(),
        }
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

    /// `(rows, cols)` of the live extent (type doc): what the host stores
    /// and streams, where [`rows`](Self::rows) × [`cols`](Self::cols) is what
    /// the modeled MVM dispatches.
    #[inline]
    pub fn live_shape(&self) -> (usize, usize) {
        let live_cols = self.live_chunks * self.format.block_size() as usize;
        (self.live_rows, live_cols.min(self.cols))
    }

    /// Borrows one quantized row as slices into the flat slabs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub(crate) fn row(&self, row: usize) -> BfpRowRef<'_> {
        assert!(row < self.rows, "row {row} out of range ({})", self.rows);
        // A row past the extent stores nothing.
        let live = self.live();
        let cols = if row < self.live_rows { live.cols } else { 0 };
        let stored = Rows { cols, ..live }.row(row);
        BfpRowRef {
            stored,
            cols: self.cols,
        }
    }

    /// The live extent as the matrix it is to the MAC kernel.
    #[inline]
    fn live(&self) -> Rows<'_> {
        Rows {
            format: self.format,
            cols: self.live_shape().1,
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
    pub(crate) fn mv_mul(&self, x: &BfpBlock) -> Result<Vec<f32>, DotError> {
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
        let (live, out) = (self.live(), &mut out[..self.live_rows]);
        mac_rows::<false>(live, x.operand().prefix(live.cols), out);
        Ok(())
    }

    /// One grid row of a tiled matrix-vector product, accumulated: for
    /// each `(tile, x)` in order, `acc[r] += tile.row(r) · x`.
    ///
    /// Each tile's per-row dot is computed as an `f32` (exactly as
    /// [`mv_mul_into`](Self::mv_mul_into) produces it) and then added in
    /// `f32`, tile by tile, matching the MVM datapath's tile-accumulation
    /// order bit-for-bit. Every tile is checked before anything is added,
    /// and the kernel is picked once for the row, not once per tile.
    ///
    /// # Errors
    ///
    /// Returns [`DotError`] if an `x` does not match its tile's column
    /// count or chunk size, or [`DotError::LengthMismatch`] if a tile does
    /// not have `acc.len()` rows; `acc` is then left as it was.
    #[inline]
    pub fn mv_mul_acc_row<'a, I>(tiles: I, acc: &mut [f32]) -> Result<(), DotError>
    where
        I: IntoIterator<Item = (&'a BfpMatrix, &'a BfpBlock)>,
        I::IntoIter: Clone,
    {
        let tiles = tiles.into_iter();
        for (tile, x) in tiles.clone() {
            if acc.len() != tile.rows {
                return Err(DotError::LengthMismatch {
                    lhs: tile.rows,
                    rhs: acc.len(),
                });
            }
            check_operand(tile.format, tile.cols, x)?;
        }
        let tiles = tiles.map(|(tile, x)| Tile {
            live: tile.live(),
            rows: tile.live_rows,
            chunks: tile.live_chunks,
            x: x.operand(),
        });
        kernel::mac_tiles(tiles, acc);
        Ok(())
    }

    /// Matrix-vector product using the retained naive reference kernel;
    /// bit-identical to [`BfpMatrix::mv_mul_into`] (the differential property
    /// tests pin this). Every row is walked at its logical width, one
    /// element at a time, with the zero mantissa read where nothing is
    /// stored.
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
        // Each row at its logical width, in one scratch row.
        let mut scratch = (Mantissas::with_capacity(self.format, 0, 0), Vec::new());
        Ok((0..self.rows)
            .map(|r| {
                let row = self.row(r).stored.widened(self.cols, &mut scratch);
                kernel::dot_naive(row, x.operand())
            })
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

    /// The modeled on-chip footprint in bytes under this BFP format: every
    /// element of the logical `rows × cols`, as the MRF holds a tile.
    pub fn storage_bytes(&self) -> u64 {
        self.format.storage_bytes((self.rows * self.cols) as u64)
    }

    /// What the host holds for this matrix in bytes: the slabs of the live
    /// extent, in the host's layout.
    pub fn host_bytes(&self) -> usize {
        let unit = match self.format.layout() {
            Layout::Wide => size_of::<i32>(),
            _ => 1,
        };
        self.mantissas.len() * unit + self.exponents.len() * size_of::<i32>()
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
            assert!(m
                .row(r)
                .exponents()
                .eq(standalone.exponents().iter().copied()));
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
        BfpMatrix::mv_mul_acc_row([(&m, &x)], &mut acc).unwrap();
        for (a, b) in acc.iter().zip(&base) {
            assert_eq!(*a, b + b);
        }
        // A row of tiles adds each tile's `f32` product in turn.
        let mut acc = base.clone();
        BfpMatrix::mv_mul_acc_row([(&m, &x), (&m, &x)], &mut acc).unwrap();
        for (a, b) in acc.iter().zip(&base) {
            assert_eq!(*a, b + b + b);
        }
        let mut wrong = vec![0.0; 2];
        assert_eq!(
            BfpMatrix::mv_mul_acc_row([(&m, &x)], &mut wrong),
            Err(DotError::LengthMismatch { lhs: 3, rhs: 2 })
        );
        // A refused tile anywhere in the row leaves the accumulator as it
        // was.
        let short = BfpBlock::quantize(&[1.0], FMT);
        let mut acc = base.clone();
        assert_eq!(
            BfpMatrix::mv_mul_acc_row([(&m, &x), (&m, &short)], &mut acc),
            Err(DotError::LengthMismatch { lhs: 4, rhs: 1 })
        );
        assert_eq!(acc, base);
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
    fn zeros_allocates_nothing_and_equals_a_quantized_zero_matrix() {
        for format in [
            BfpFormat::BFP_1S_5E_2M,
            FMT,
            BfpFormat::new(8, 12, 128).unwrap(),
        ] {
            let zeros = BfpMatrix::zeros(3, 300, format);
            assert_eq!(
                zeros,
                BfpMatrix::quantize(3, 300, &[0.0; 900], format).unwrap()
            );
            assert_eq!((zeros.live_shape(), zeros.host_bytes()), ((0, 0), 0));
            assert_eq!(zeros.storage_bytes(), format.storage_bytes(900));
            assert_eq!(zeros.dequantize(), vec![0.0; 900]);
        }
    }

    #[test]
    fn host_bytes_follow_the_live_extent() {
        // A BW_S10 corner tile of an h = 512 model: 112 live rows of one
        // 128-element chunk each, where the modeled tile is all of 400 × 400.
        let mut data = vec![0.0f32; 400 * 400];
        for r in 0..112 {
            data[r * 400..][..112].fill(1.0);
        }
        let m = BfpMatrix::quantize(400, 400, &data, BfpFormat::BFP_1S_5E_2M).unwrap();
        assert_eq!(m.live_shape(), (112, 128));
        assert_eq!(m.host_bytes(), 112 * (64 + 4));
        assert_eq!(
            m.storage_bytes(),
            BfpFormat::BFP_1S_5E_2M.storage_bytes(160_000)
        );
    }

    #[test]
    fn row_access_and_dequantize_shape() {
        let m = BfpMatrix::quantize(3, 4, &[2.0; 12], FMT).unwrap();
        assert_eq!(m.row(1).len(), 4);
        assert_eq!(m.dequantize().len(), 12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 32 } else { 768 }))]

        #[test]
        fn live_extent_changes_no_bit_and_no_reading(
            mantissa_bits_idx in 0usize..3,
            block_idx in 0usize..3,
            rows in 0usize..8,
            cols_idx in 0usize..8,
            pattern in 0usize..9,
            cut_rows in 0usize..8,
            cut_chunks in 0usize..5,
            seed in 0u64..1000,
        ) {
            // One format per layout; blocks of 16 give a handful of chunks
            // (and of padded packed groups) at sizes miri can walk.
            let block: usize = [16, 16, if cfg!(miri) { 16 } else { 128 }][block_idx];
            let format = BfpFormat::new(5, [2, 5, 9][mantissa_bits_idx], block as u32).unwrap();
            let cols = [0, 1, block - 1, block, block + 1, 3 * block, 3 * block + 8, 5 * block][cols_idx];
            let chunks = cols.div_ceil(block);
            let (dead_rows, dead_chunks) = (cut_rows.min(rows), cut_chunks.min(chunks));
            // The value of a mantissa of 1 under the lowest exponent.
            let step = 2.0f32.powi(format.exponent_range().0 - (i32::from(format.mantissa_bits()) - 1));
            let value = |r: usize, c: usize| {
                let v = ((r * cols + c) as u64).wrapping_mul(seed + 3) % 37;
                if v == 18 { 19.0 } else { v as f32 - 18.0 }
            };
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| {
                    let (r, c) = (i / cols, i % cols);
                    let (tail_row, tail_chunk) = (r >= rows - dead_rows, c / block >= chunks - dead_chunks);
                    match pattern {
                        0 => value(r, c),
                        1 if tail_row => 0.0,
                        2 if tail_chunk => 0.0,
                        3 if tail_row || tail_chunk => 0.0,
                        // Interior zero chunks are stored, and still right.
                        4 if c / block == chunks / 2 || r == rows / 2 => 0.0,
                        // One live element, in the last row's last chunk.
                        5 if (r, c) != (rows - 1, cols - 1) => 0.0,
                        6 => 0.0,
                        // Too small for the format: zero mantissas from
                        // non-zero weights (and `-0.0`).
                        7 if tail_row || tail_chunk => [1.0e-30, -0.49 * step, -0.0][i % 3],
                        // Half the smallest step rounds away from zero: the
                        // smallest weights that are not nothing.
                        8 if tail_row || tail_chunk => [0.0, 0.5 * step, 0.49 * step][(r + c) % 3],
                        _ => value(r, c),
                    }
                })
                .collect();
            let m = BfpMatrix::quantize(rows, cols, &data, format).unwrap();

            // The untrimmed reference: every row a vector of its own.
            let reference: Vec<BfpBlock> = (0..rows)
                .map(|r| BfpBlock::quantize(&data[r * cols..][..cols], format))
                .collect();
            let live_chunks = |row: &BfpBlock| {
                row.mantissas().collect::<Vec<_>>().iter().rposition(|&q| q != 0).map_or(0, |i| i / block + 1)
            };
            let live_rows = reference.iter().rposition(|row| live_chunks(row) > 0).map_or(0, |r| r + 1);
            let live_cols = reference.iter().map(live_chunks).max().unwrap_or(0) * block;
            prop_assert_eq!(m.live_shape(), (live_rows, live_cols.min(cols)));
            match pattern {
                1 | 7 if cols > 0 => prop_assert!(live_rows <= rows - dead_rows),
                6 => prop_assert_eq!(m.host_bytes(), 0),
                _ => {}
            }

            prop_assert_eq!((m.rows(), m.cols()), (rows, cols));
            for (r, row) in reference.iter().enumerate() {
                prop_assert!(m.row(r).mantissas().eq(row.mantissas()));
                prop_assert!(m.row(r).exponents().eq(row.exponents().iter().copied()));
                prop_assert_eq!(m.row(r).dequantize(), row.dequantize());
            }
            let dequantized: Vec<f32> = reference.iter().flat_map(BfpBlock::dequantize).collect();
            prop_assert_eq!(m.dequantize(), dequantized);
            // Equality is of the logical matrix: weights that quantize to
            // nothing are the zeros they quantize to.
            let flushed: Vec<f32> = data.iter().map(|&v| if v.abs() < 0.495 * step { 0.0 } else { v }).collect();
            prop_assert_eq!(&m, &BfpMatrix::quantize(rows, cols, &flushed, format).unwrap());

            // Products: the oracle walks the whole shape and agrees with the
            // untrimmed rows; the fast path agrees with the oracle, storing
            // and accumulating — onto `-0.0` too, which only `+0.0` shows.
            let x: Vec<f32> = (0..cols)
                .map(|c| ((c as u64).wrapping_mul(seed + 11) % 23) as f32 * 0.25 - 2.5)
                .collect();
            let qx = BfpBlock::quantize(&x, format);
            let naive = m.mv_mul_naive(&qx).unwrap();
            let fast = m.mv_mul(&qx).unwrap();
            prop_assert_eq!(naive.len(), rows);
            let mut acc: Vec<f32> = (0..rows).map(|r| if r % 2 == 0 { -0.0 } else { 0.75 }).collect();
            let before = acc.clone();
            BfpMatrix::mv_mul_acc_row([(&m, &qx)], &mut acc).unwrap();
            for r in 0..rows {
                prop_assert_eq!(naive[r].to_bits(), reference[r].dot_naive(&qx).unwrap().to_bits());
                prop_assert_eq!(fast[r].to_bits(), naive[r].to_bits(), "row {}", r);
                prop_assert_eq!(acc[r].to_bits(), (before[r] + naive[r]).to_bits(), "row {}", r);
                prop_assert_eq!(m.row(r).dot(&qx).unwrap().to_bits(), naive[r].to_bits());
            }
        }

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
            // and mv_mul_acc_row adds exactly them in f32.
            let mut buf = vec![9.0f32; 3];
            m.mv_mul_into(&qx, &mut buf).unwrap();
            prop_assert_eq!(&buf, &fast);
            let mut acc = vec![0.75f32; rows];
            BfpMatrix::mv_mul_acc_row([(&m, &qx)], &mut acc).unwrap();
            for (a, f) in acc.iter().zip(&fast) {
                prop_assert_eq!(a.to_bits(), (0.75f32 + f).to_bits());
            }
            for (r, f) in fast.iter().enumerate() {
                prop_assert_eq!(m.row(r).dot(&qx).unwrap().to_bits(), f.to_bits());
            }
        }
    }
}
