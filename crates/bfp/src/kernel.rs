//! Mantissa storage layouts and the multiply-accumulate kernels over them.
//!
//! A format's mantissas are stored in the narrowest layout that holds them,
//! and the format alone ([`BfpFormat::layout`]) picks it:
//!
//! * **packed**, `mantissa_bits` ≤ 3 (magnitudes ≤ 7 — the paper's
//!   production 1s.5e.2m, and 3m): two mantissas per byte;
//! * **narrow**, ≤ 7 bits (1s.5e.5m): one `i8` each;
//! * **wide**: one `i32` each.
//!
//! # The packed layout
//!
//! Every exponent chunk of a row is padded to whole *groups* of [`GROUP`] =
//! 64 elements, 32 bytes each. Byte `k` of a group holds element `k` in its
//! low nibble and element `32 + k` in its high nibble, each as
//! `mantissa + 8` (1..=15), so one 32-byte load, an `and` and a shift yield
//! two vectors of unsigned bytes that line up with elements `0..32` and
//! `32..64` of the operand. Padding is the zero mantissa, byte `0x88`, so a
//! slab has one canonical form and equal matrices have equal bytes. A
//! 400-column row in chunks of 128 is 2 + 2 + 2 + 1 groups: 224 bytes for
//! 400 as `i8`.
//!
//! The operand of a packed product ([`Operand::padded`]) is the vector's
//! mantissas as `i8` in element order, its chunks zero-padded to the same
//! groups, with each chunk's `Σx` beside them. A chunk's integer sum is then
//! `Σ(w + 8)·x − 8·Σx`, exactly `Σw·x`: the first term is what unsigned ×
//! signed byte multiply-adds (`pmaddubsw`) compute, the second costs one
//! multiply per chunk. Their `i16` lanes take four products of at most
//! 15 · 128 per group and are widened to `i32` every [`I16_GROUPS`] groups;
//! the `i32` sums are exact for chunks up to [`PACKED_MAX_CHUNK`] elements,
//! beyond which the pairing is not taken.
//!
//! # The narrow layout
//!
//! A row is its `i8` mantissas in element order; the operand of a narrow
//! product ([`Operand::lanes`]) is the vector's mantissas widened once, at
//! quantization, to `i16`. A chunk's integer sum is `Σw·x` in `i32` runs of
//! at most [`I32_RUN`] products — each within `127 · 128` — joined in
//! `i64` (the AVX2 body joins them in `f64`, exactly: they stay below
//! `2^53`).
//!
//! # Kernels
//!
//! All compute the same per-chunk integer sums, scale each by
//! `2^(row exponent + operand exponent − bias)` and total them in `f64` in
//! chunk order, so they agree bit for bit:
//!
//! * [`mac_rows`], the hot path, has two fast pairings, packed rows × a
//!   packed-format operand and narrow rows × a narrow operand. Each has a
//!   readable portable body ([`packed_rows_body`], [`narrow_rows_body`]:
//!   all there is under miri and off x86-64) and a `std::arch` AVX2 body
//!   chosen by runtime detection (`packed_block_avx2`,
//!   `narrow_block_avx2`). Each AVX2 body takes a block of rows at a time
//!   — the narrow one eight, the packed one four (eight rows of its two
//!   accumulators would spill) — then the tail one at a time (the narrow
//!   one runs a tail of two or more as the eight-row block that ends at
//!   the last row and keeps only the tail's lanes), loads each group of
//!   the operand once for the block and reduces the block's chunk sums
//!   together. The narrow body sign-extends each row's `i8` and
//!   multiplies with `pmaddwd`, and reads a group that a chunk's end cuts
//!   short from zero-padded copies; a hadd tree and one cross-lane permute
//!   leave its eight row sums in one vector, which eight `2^e` built in the
//!   exponent field scale and one conversion and one store (or add) write
//!   out, so a small tile costs its MACs and a few vector operations per
//!   eight rows. Where a row is one chunk of whole groups whose sums and
//!   scaled totals `f32` holds exactly (`NarrowProduct::f32_exact`), the
//!   sums are scaled and stored in `f32`, which gives the bits the `f64`
//!   totals round to. The packed body hints the slab into cache ahead of its
//!   loads. Left to the autovectoriser, the packed loop runs at about a
//!   tenth of the speed and the narrow one at 0.20 ns per MAC against
//!   0.036 on a 400 × 400 tile, and 140 against 50 ns on a 16 × 16 one
//!   (`mv_mul_into`, the fastest of 2,000 alternating timings in one
//!   process pinned to one CPU of a 2-vCPU Xeon VM; medians on that shared
//!   host run up to twice as long). Any other pairing runs the oracle's
//!   loop.
//! * [`mac_tiles`], the MVM's path, runs one grid row of tiles: a narrow
//!   tile goes to the narrow body detected once for the row, with its
//!   shape taken from the counts its matrix keeps, so its fixed work is
//!   slicing, not division; any other tile goes through [`mac_rows`].
//! * [`dot_naive`], the oracle: element-by-element 64-bit accumulation over
//!   any layout, a packed side unpacked one group at a time.

use crate::format::{BfpFormat, Layout};

/// Owned signed mantissas in the layout their format calls for.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Mantissas {
    /// `mantissa_bits ≤ 3`: whole rows of nibble pairs (module doc).
    Packed(Vec<u8>),
    /// `mantissa_bits ≤ 7`: one byte per element.
    Narrow(Vec<i8>),
    /// Wider formats: one `i32` per element.
    Wide(Vec<i32>),
}

impl Mantissas {
    /// Empty storage in `format`'s layout with room for `rows` rows of
    /// `cols` elements.
    pub(crate) fn with_capacity(format: BfpFormat, rows: usize, cols: usize) -> Self {
        match format.layout() {
            Layout::Packed => {
                let row_bytes = padded_len(cols, format.block_size() as usize) / 2;
                Mantissas::Packed(Vec::with_capacity(rows * row_bytes))
            }
            Layout::Narrow => Mantissas::Narrow(Vec::with_capacity(rows * cols)),
            Layout::Wide => Mantissas::Wide(Vec::with_capacity(rows * cols)),
        }
    }

    /// Empties the storage for reuse under `format`, keeping the allocation
    /// when the layout does not change.
    pub(crate) fn reset(&mut self, format: BfpFormat) {
        match (&mut *self, format.layout()) {
            (Mantissas::Packed(m), Layout::Packed) => m.clear(),
            (Mantissas::Narrow(m), Layout::Narrow) => m.clear(),
            (Mantissas::Wide(m), Layout::Wide) => m.clear(),
            _ => *self = Mantissas::with_capacity(format, 0, 0),
        }
    }

    pub(crate) fn as_slice(&self) -> MantissaSlice<'_> {
        match self {
            Mantissas::Packed(m) => MantissaSlice::Packed(m),
            Mantissas::Narrow(m) => MantissaSlice::Narrow(m),
            Mantissas::Wide(m) => MantissaSlice::Wide(m),
        }
    }

    /// Length in storage units: bytes when packed, elements otherwise.
    pub(crate) fn len(&self) -> usize {
        match self {
            Mantissas::Packed(m) => m.len(),
            Mantissas::Narrow(m) => m.len(),
            Mantissas::Wide(m) => m.len(),
        }
    }
}

/// Borrowed mantissas of any layout: whole rows of them.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MantissaSlice<'a> {
    Packed(&'a [u8]),
    Narrow(&'a [i8]),
    Wide(&'a [i32]),
}

impl MantissaSlice<'_> {
    /// Storage units — bytes when packed, elements otherwise — that `cols`
    /// elements in exponent chunks of `chunk` take.
    fn units(self, cols: usize, chunk: usize) -> usize {
        match self {
            MantissaSlice::Packed(_) => padded_len(cols, chunk) / 2,
            _ => cols,
        }
    }

    /// `range` in storage units.
    pub(crate) fn range(self, range: std::ops::Range<usize>) -> Self {
        match self {
            MantissaSlice::Packed(m) => MantissaSlice::Packed(&m[range]),
            MantissaSlice::Narrow(m) => MantissaSlice::Narrow(&m[range]),
            MantissaSlice::Wide(m) => MantissaSlice::Wide(&m[range]),
        }
    }
}

/// Elements in one group of the packed layout: 32 bytes of nibble pairs.
pub(crate) const GROUP: usize = 64;

/// Elements a `cols`-element vector in exponent chunks of `chunk` occupies
/// once every chunk is padded to whole groups; a packed row is half as many
/// bytes.
pub(crate) fn padded_len(cols: usize, chunk: usize) -> usize {
    cols / chunk * chunk.next_multiple_of(GROUP) + (cols % chunk).next_multiple_of(GROUP)
}

/// Appends group-padded mantissas (each within ±7) to a packed slab.
pub(crate) fn pack_groups(lanes: &[i8], out: &mut Vec<u8>) {
    debug_assert_eq!(lanes.len() % GROUP, 0);
    let at = out.len();
    out.resize(at + lanes.len() / 2, 0);
    for (bytes, group) in out[at..]
        .chunks_exact_mut(GROUP / 2)
        .zip(lanes.chunks_exact(GROUP))
    {
        let (low, high) = group.split_at(GROUP / 2);
        for ((byte, &l), &h) in bytes.iter_mut().zip(low).zip(high) {
            *byte = (l + 8) as u8 | ((h + 8) as u8) << 4;
        }
    }
}

/// The 64 mantissas of one packed group, in element order.
fn unpack_group(bytes: &[u8]) -> [i8; GROUP] {
    let mut group = [0; GROUP];
    for (k, &byte) in bytes[..GROUP / 2].iter().enumerate() {
        group[k] = (byte & 15) as i8 - 8;
        group[GROUP / 2 + k] = (byte >> 4) as i8 - 8;
    }
    group
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
    /// Storage units from one row to the next.
    pub(crate) fn stride(self) -> usize {
        let chunk = self.format.block_size() as usize;
        self.mantissas.units(self.cols, chunk)
    }

    /// Row `r` alone.
    pub(crate) fn row(self, r: usize) -> Self {
        let cpr = self.cols.div_ceil(self.format.block_size() as usize);
        let stride = self.stride();
        Rows {
            mantissas: self.mantissas.range(r * stride..(r + 1) * stride),
            exponents: &self.exponents[r * cpr..(r + 1) * cpr],
            ..self
        }
    }

    /// The first row at `cols` elements, written to `scratch`: what this
    /// holds of it — whole exponent chunks — then zero mantissas under the
    /// format's lowest exponent, the one the quantizer gives a chunk that
    /// holds nothing.
    pub(crate) fn widened(self, cols: usize, scratch: &mut (Mantissas, Vec<i32>)) -> Rows<'_> {
        fn fill<T: Copy>(row: &mut Vec<T>, held: &[T], len: usize, rest: T) {
            row.clear();
            row.extend_from_slice(held);
            row.resize(len, rest);
        }
        let chunk = self.format.block_size() as usize;
        let units = self.mantissas.units(cols, chunk);
        let (mantissas, exponents) = scratch;
        match (&mut *mantissas, self.mantissas) {
            (Mantissas::Packed(row), MantissaSlice::Packed(m)) => fill(row, m, units, 0x88),
            (Mantissas::Narrow(row), MantissaSlice::Narrow(m)) => fill(row, m, units, 0),
            (Mantissas::Wide(row), MantissaSlice::Wide(m)) => fill(row, m, units, 0),
            _ => unreachable!("the scratch row is in the row's layout"),
        }
        let lowest = self.format.exponent_range().0;
        fill(exponents, self.exponents, cols.div_ceil(chunk), lowest);
        Rows {
            cols,
            mantissas: mantissas.as_slice(),
            exponents,
            ..self
        }
    }

    /// The first row's mantissas widened to `i32`, whatever their storage.
    pub(crate) fn iter(self) -> impl Iterator<Item = i32> + 'a {
        let chunk = self.format.block_size() as usize;
        (0..self.cols).map(move |i| match self.mantissas {
            MantissaSlice::Packed(m) => {
                let group = i / chunk * chunk.div_ceil(GROUP) + i % chunk / GROUP;
                let (k, byte) = (i % chunk % GROUP, &m[group * (GROUP / 2)..]);
                i32::from(byte[k % (GROUP / 2)] >> (k / (GROUP / 2) * 4) & 15) - 8
            }
            MantissaSlice::Narrow(m) => i32::from(m[i]),
            MantissaSlice::Wide(m) => m[i],
        })
    }

    /// Reconstructs the first row's approximate `f32` values.
    pub(crate) fn dequantize(self) -> Vec<f32> {
        let chunk = self.format.block_size() as usize;
        let m = i32::from(self.format.mantissa_bits());
        self.iter()
            .enumerate()
            .map(|(i, q)| (f64::from(q) * exp2(self.exponents[i / chunk] - (m - 1))) as f32)
            .collect()
    }
}

/// The quantized vector every row is multiplied by.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Operand<'a> {
    pub(crate) format: BfpFormat,
    pub(crate) mantissas: MantissaSlice<'a>,
    /// Narrow mantissas widened to `i16`; empty in the other layouts.
    pub(crate) lanes: &'a [i16],
    /// Packed mantissas as `i8` in element order, each chunk zero-padded to
    /// whole groups; empty in the other layouts.
    pub(crate) padded: &'a [i8],
    /// `Σx` of each chunk of `padded`.
    pub(crate) sums: &'a [i32],
    pub(crate) exponents: &'a [i32],
}

impl Operand<'_> {
    /// The first `cols` elements — whole exponent chunks, or everything —
    /// as an operand of their own: what a matrix whose later columns hold
    /// only zero mantissas multiplies by.
    pub(crate) fn prefix(self, cols: usize) -> Self {
        let chunk = self.format.block_size() as usize;
        let (chunks, padded) = (cols.div_ceil(chunk), padded_len(cols, chunk));
        Operand {
            mantissas: self.mantissas.range(0..self.mantissas.units(cols, chunk)),
            lanes: &self.lanes[..cols.min(self.lanes.len())],
            padded: &self.padded[..padded.min(self.padded.len())],
            sums: &self.sums[..chunks.min(self.sums.len())],
            exponents: &self.exponents[..chunks],
            ..self
        }
    }
}

/// Dot product of every row with `x`, stored to (`ACC == false`) or added in
/// `f32` onto (`ACC == true`) the matching element of `out`.
///
/// Callers have validated that `x` has `rows.cols` elements in chunks of the
/// rows' block size and that `out` has one element per row. Bit-identical to
/// [`dot_naive`] row by row: integer sums are exact in any order, and the
/// per-chunk scale and the cross-chunk `f64` order are the oracle's.
pub(crate) fn mac_rows<const ACC: bool>(rows: Rows<'_>, x: Operand<'_>, out: &mut [f32]) {
    use MantissaSlice::{Narrow, Packed};
    let chunk = rows.format.block_size() as usize;
    match (rows.mantissas, x.mantissas) {
        (Packed(w), Packed(_)) if chunk <= PACKED_MAX_CHUNK => {
            return packed_rows::<ACC>(w, rows, x, out);
        }
        (Narrow(w), Narrow(_)) => return narrow_rows::<ACC>(w, rows, x, out),
        _ => {}
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

/// One tile of a grid row for [`mac_tiles`]: its live extent, `rows` rows
/// of `live.cols` elements in `chunks` exponent chunks each (the matrix
/// keeps both counts, so nothing divides to find them), and the operand
/// its columns multiply, whole or longer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tile<'a> {
    pub(crate) live: Rows<'a>,
    pub(crate) rows: usize,
    pub(crate) chunks: usize,
    pub(crate) x: Operand<'a>,
}

impl Tile<'_> {
    /// Adds this tile's product onto `acc`, one element per row of the
    /// tile: [`mac_rows`] onto its live rows, with `narrow` as the body of
    /// the narrow pairing, and `+0.0` onto the rows past them.
    #[inline(always)]
    fn mac(self, acc: &mut [f32], narrow: impl FnOnce(NarrowProduct<'_>, &mut [f32])) {
        let (live, past) = acc.split_at_mut(self.rows);
        match (self.live.mantissas, self.x.mantissas) {
            (MantissaSlice::Narrow(w), MantissaSlice::Narrow(_)) => {
                narrow(
                    NarrowProduct::new(w, self.live, self.chunks, self.x, self.rows),
                    live,
                );
            }
            _ => mac_rows::<true>(self.live, self.x.prefix(self.live.cols), live),
        }
        // A row of zero mantissas adds `+0.0`, which an accumulator of
        // `-0.0` shows.
        past.iter_mut().for_each(|a| *a += 0.0);
    }
}

/// The tiles of one grid row multiplied by their operands and added onto
/// `acc` in `f32`, tile by tile in order, each tile's products rounded to
/// `f32` first: bit for bit one [`Tile::mac`] after another. The AVX2
/// detection is made once for the row's narrow tiles, whose per-tile work
/// is then slicing, no division.
///
/// Callers have validated that every tile has `acc.len()` rows and that
/// its operand has its columns in chunks of its block size.
#[allow(unsafe_code)]
pub(crate) fn mac_tiles<'a>(tiles: impl Iterator<Item = Tile<'a>>, acc: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: a safe `#[target_feature(enable = "avx2")]` function asks
        // only that the running CPU supports AVX2, which was just detected.
        return unsafe { mac_tiles_avx2(tiles, acc) };
    }
    for tile in tiles {
        tile.mac(acc, narrow_rows_body::<true>);
    }
}

/// [`mac_tiles`] with the narrow pairing's AVX2 body.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
fn mac_tiles_avx2<'a>(tiles: impl Iterator<Item = Tile<'a>>, acc: &mut [f32]) {
    for tile in tiles {
        tile.mac(acc, |p, out| narrow_avx2::<true>(p, out));
    }
}

/// Reference dot kernel of one row with `x`: element-by-element 64-bit
/// accumulation per chunk, the oracle the fast pairings are tested against
/// and the only kernel of the wide layout.
pub(crate) fn dot_naive(row: Rows<'_>, x: Operand<'_>) -> f32 {
    use MantissaSlice::{Narrow, Packed, Wide};
    let chunk = row.format.block_size() as usize;
    match (row.mantissas, x.mantissas) {
        (Narrow(a), Narrow(b)) => dot_lanes_naive(a, b, row, x),
        (Narrow(a), Wide(b)) => dot_lanes_naive(a, b, row, x),
        (Wide(a), Narrow(b)) => dot_lanes_naive(a, b, row, x),
        (Wide(a), Wide(b)) => dot_lanes_naive(a, b, row, x),
        // A product commutes, so a packed operand takes the packed side too;
        // against a packed row it reads as its padded lanes.
        (Packed(a), Packed(_)) => {
            dot_packed_naive(a, x.padded, chunk.next_multiple_of(GROUP), row, x)
        }
        (Packed(a), Narrow(b)) => dot_packed_naive(a, b, chunk, row, x),
        (Packed(a), Wide(b)) => dot_packed_naive(a, b, chunk, row, x),
        (Narrow(a), Packed(b)) => dot_packed_naive(b, a, chunk, row, x),
        (Wide(a), Packed(b)) => dot_packed_naive(b, a, chunk, row, x),
    }
}

/// [`dot_lanes_naive`] with one side packed: each group is unpacked to the
/// stack and multiplied by the elements of `other` it stands for, whose
/// chunks start every `other_stride` elements.
fn dot_packed_naive<B: Copy + Into<i64>>(
    packed: &[u8],
    other: &[B],
    other_stride: usize,
    row: Rows<'_>,
    x: Operand<'_>,
) -> f32 {
    let chunk = row.format.block_size() as usize;
    let bias = scale_bias(row.format, x.format);
    let mut groups = packed.chunks_exact(GROUP / 2);
    let mut total = 0.0f64;
    for (gi, (&ew, &ex)) in row.exponents.iter().zip(x.exponents).enumerate() {
        let len = chunk.min(row.cols - gi * chunk);
        let mut acc: i64 = 0;
        for (at, bytes) in (0..len).step_by(GROUP).zip(&mut groups) {
            let b = &other[gi * other_stride + at..][..GROUP.min(len - at)];
            for (&a, &b) in unpack_group(bytes).iter().zip(b) {
                acc += i64::from(a) * b.into();
            }
        }
        total += acc as f64 * exp2(ew + ex - bias);
    }
    total as f32
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

/// Longest exponent chunk the packed pairing takes: its `i32` chunk sums
/// are of products of at most `15 · 128`.
const PACKED_MAX_CHUNK: usize = 1 << 20;

/// Groups between widenings of the packed kernel's `i16` lanes: a lane takes
/// four products of at most `15 · 128` per group.
const I16_GROUPS: usize = 4;

/// How far ahead of its loads the AVX2 packed body hints the slab into
/// cache: a model's tiles are read once per product from beyond L2, where a
/// hint per cache line takes the kernel from 0.041 to 0.030 ns per MAC (and
/// costs an in-L2 tile 0.026 → 0.028).
#[cfg(all(target_arch = "x86_64", not(miri)))]
const PREFETCH_AHEAD: usize = 4096;

/// Runs the packed pairing — `w` is the packed slab of `rows`, `x` a
/// packed-format operand — under the widest vector unit the CPU has.
#[allow(unsafe_code)]
fn packed_rows<const ACC: bool>(w: &[u8], rows: Rows<'_>, x: Operand<'_>, out: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: a safe `#[target_feature(enable = "avx2")]` function asks
        // only that the running CPU supports AVX2, which was just detected.
        // Rows four at a time — eight rows' `lanes` and `wide` accumulators
        // would spill — then the `rows % 4` tail (all of a `dot`).
        return unsafe {
            let done = packed_block_avx2::<4, ACC>(w, rows, x, out, 0);
            packed_block_avx2::<1, ACC>(w, rows, x, out, done);
        };
    }
    packed_rows_body::<ACC>(w, rows, x, out);
}

/// Bytes per packed row and per whole chunk of one (a row's last chunk is
/// what is left of it) and chunks per row, having asserted that every slice
/// the packed bodies index is exactly `n` rows, or one operand, long.
fn packed_shape(w: &[u8], rows: Rows<'_>, x: Operand<'_>, n: usize) -> (usize, usize, usize) {
    let chunk = rows.format.block_size() as usize;
    let (row_bytes, cpr) = (padded_len(rows.cols, chunk) / 2, rows.cols.div_ceil(chunk));
    assert!(w.len() == n * row_bytes && rows.exponents.len() == n * cpr);
    assert!(x.padded.len() == 2 * row_bytes && x.sums.len() == cpr && x.exponents.len() == cpr);
    (row_bytes, chunk.div_ceil(GROUP) * (GROUP / 2), cpr)
}

/// The packed pairing, one row and one product at a time: per chunk
/// `Σ(w + 8)·x` over its groups, less `8·Σx`, scaled and totalled as in
/// [`narrow_rows_body`].
fn packed_rows_body<const ACC: bool>(w: &[u8], rows: Rows<'_>, x: Operand<'_>, out: &mut [f32]) {
    let (row_bytes, chunk_bytes, cpr) = packed_shape(w, rows, x, out.len());
    let bias = scale_bias(rows.format, x.format);
    for (r, slot) in out.iter_mut().enumerate() {
        let (row, row_exp) = (
            &w[r * row_bytes..][..row_bytes],
            &rows.exponents[r * cpr..][..cpr],
        );
        let mut total = 0.0f64;
        let mut at = 0;
        for (ci, (&ew, &ex)) in row_exp.iter().zip(x.exponents).enumerate() {
            let end = (at + chunk_bytes).min(row_bytes);
            let mut sum = 0i32;
            for (bytes, x) in row[at..end]
                .chunks_exact(GROUP / 2)
                .zip(x.padded[2 * at..2 * end].chunks_exact(GROUP))
            {
                for (k, &byte) in bytes.iter().enumerate() {
                    sum += i32::from(byte & 15) * i32::from(x[k])
                        + i32::from(byte >> 4) * i32::from(x[GROUP / 2 + k]);
                }
            }
            total += f64::from(sum - 8 * x.sums[ci]) * exp2(ew + ex - bias);
            at = end;
        }
        if ACC {
            *slot += total as f32;
        } else {
            *slot = total as f32;
        }
    }
}

/// The 32 bytes of `lanes` from element `at` as one vector.
///
/// # Safety
///
/// `at + 32 / size_of::<T>() <= lanes.len()`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
unsafe fn load32<T>(lanes: &[T], at: usize) -> std::arch::x86_64::__m256i {
    const { assert!(size_of::<T>() == 1 || size_of::<T>() == 2) };
    debug_assert!(at + 32 / size_of::<T>() <= lanes.len());
    // SAFETY: the caller keeps the 32 bytes from element `at` inside
    // `lanes`, and an unaligned load asks for nothing else.
    unsafe { std::arch::x86_64::_mm256_loadu_si256(lanes.as_ptr().add(at).cast()) }
}

/// The 16 mantissas of `row` from `at`, sign-extended to `i16` lanes.
///
/// # Safety
///
/// `at + 16 <= row.len()`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
unsafe fn widen16(row: &[i8], at: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    debug_assert!(at + 16 <= row.len());
    // SAFETY: the caller keeps the 16 bytes from `at` inside `row`, and an
    // unaligned load asks for nothing else.
    unsafe { _mm256_cvtepi8_epi16(_mm_loadu_si128(row.as_ptr().add(at).cast())) }
}

/// [`packed_rows_body`] over rows `first..` in blocks of `R` (4 or 1) that
/// share each load of the operand; returns the first row left over. Per
/// group and row an `and`, a shift and an `and` split the nibbles, two
/// `pmaddubsw` multiply them into `i16` pair sums and `pmaddwd` by ones
/// widens those every [`I16_GROUPS`] groups; per chunk the block's sums are
/// reduced together, corrected, scaled by a vector of `2^e` built in the
/// exponent field, and added to its `f64` totals.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
fn packed_block_avx2<const R: usize, const ACC: bool>(
    w: &[u8],
    rows: Rows<'_>,
    x: Operand<'_>,
    out: &mut [f32],
    first: usize,
) -> usize {
    use std::arch::x86_64::*;
    const { assert!(R == 1 || R == 4) };
    let (row_bytes, chunk_bytes, cpr) = packed_shape(w, rows, x, out.len());
    let bias = scale_bias(rows.format, x.format);
    let (nibble, ones) = (_mm256_set1_epi8(15), _mm256_set1_epi16(1));
    let mut row = first;
    for slots in out[first..].chunks_exact_mut(R) {
        let (mut ws, mut exps) = ([w; R], [rows.exponents; R]);
        for r in 0..R {
            ws[r] = &w[(row + r) * row_bytes..][..row_bytes];
            exps[r] = &rows.exponents[(row + r) * cpr..][..cpr];
        }
        let mut totals = _mm256_setzero_pd();
        let mut at = 0;
        for ci in 0..cpr {
            let end = (at + chunk_bytes).min(row_bytes);
            let mut wide = [_mm256_setzero_si256(); R];
            while at < end {
                let run_end = (at + I16_GROUPS * (GROUP / 2)).min(end);
                let mut lanes = [_mm256_setzero_si256(); R];
                while at < run_end {
                    // SAFETY: `at < end <= row_bytes`, all multiples of 32,
                    // so `at + 32 <= row_bytes`; `packed_shape` asserted
                    // that `x.padded` is twice that long.
                    let (x_low, x_high) =
                        unsafe { (load32(x.padded, 2 * at), load32(x.padded, 2 * at + 32)) };
                    for r in 0..R {
                        // SAFETY: `at + 32 <= row_bytes`, the length `ws[r]`
                        // was sliced to.
                        let bytes = unsafe { load32(ws[r], at) };
                        if at % 64 == 0 {
                            // A hint: it faults on no address, past the
                            // slab's end included.
                            let ahead = ws[r].as_ptr().wrapping_add(at + PREFETCH_AHEAD);
                            _mm_prefetch::<_MM_HINT_T0>(ahead.cast());
                        }
                        let low = _mm256_and_si256(bytes, nibble);
                        let high = _mm256_and_si256(_mm256_srli_epi16(bytes, 4), nibble);
                        let pairs = _mm256_add_epi16(
                            _mm256_maddubs_epi16(low, x_low),
                            _mm256_maddubs_epi16(high, x_high),
                        );
                        lanes[r] = _mm256_add_epi16(lanes[r], pairs);
                    }
                    at += GROUP / 2;
                }
                for r in 0..R {
                    wide[r] = _mm256_add_epi32(wide[r], _mm256_madd_epi16(lanes[r], ones));
                }
            }
            let sums = _mm_sub_epi32(row_sums(&wide), _mm_set1_epi32(8 * x.sums[ci]));
            let scale = chunk_scales(&exps, ci, x.exponents[ci] - bias);
            totals = _mm256_add_pd(totals, _mm256_mul_pd(_mm256_cvtepi32_pd(sums), scale));
        }
        store_totals::<ACC>(slots, totals);
        row += R;
    }
    row
}

/// Row `r`'s sum of the `i32` lanes of `acc[r]` in lane `r`; a one-row
/// block has its row in all four.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[inline]
fn row_sums<const R: usize>(acc: &[std::arch::x86_64::__m256i; R]) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let low = _mm256_hadd_epi32(acc[0], acc[1 % R]);
    let high = _mm256_hadd_epi32(acc[2 % R], acc[3 % R]);
    let sums = _mm256_hadd_epi32(low, high);
    _mm_add_epi32(
        _mm256_castsi256_si128(sums),
        _mm256_extracti128_si256(sums, 1),
    )
}

/// `2^(row exponent + e)` of chunk `ci` of row `r` in lane `r`, built in
/// the exponent field as [`exp2`] builds it, so the two agree bit for bit.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[inline]
fn chunk_scales<const R: usize>(
    exps: &[&[i32]; R],
    ci: usize,
    e: i32,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let exp = |r: usize| exps[r % R][ci];
    let biased = _mm_add_epi32(
        _mm_set_epi32(exp(3), exp(2), exp(1), exp(0)),
        _mm_set1_epi32(1023 + e),
    );
    _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_cvtepi32_epi64(biased), 52))
}

/// Stores (`ACC == false`) or adds in `f32` (`ACC == true`) lane `r` of
/// `totals` to `slots[r]`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[inline]
fn store_totals<const ACC: bool>(slots: &mut [f32], totals: std::arch::x86_64::__m256d) {
    use std::arch::x86_64::*;
    let (lo, hi) = (
        _mm256_castpd256_pd128(totals),
        _mm256_extractf128_pd(totals, 1),
    );
    let totals = [lo, _mm_unpackhi_pd(lo, lo), hi, _mm_unpackhi_pd(hi, hi)];
    for (slot, total) in slots.iter_mut().zip(totals) {
        if ACC {
            *slot += _mm_cvtsd_f64(total) as f32;
        } else {
            *slot = _mm_cvtsd_f64(total) as f32;
        }
    }
}

/// Longest run of narrow products an `i32` sums exactly: a row's mantissa
/// is within ±127 and an operand's lane within ±128.
const I32_RUN: usize = 1 << 17;
const _: () = assert!(127 * 128 * I32_RUN <= i32::MAX as usize);

/// Elements in one group of the narrow AVX2 body: one vector of `i16`
/// operand lanes.
const NARROW_GROUP: usize = 16;

/// A narrow product whose slices have been checked against its shape
/// once: `w` holds rows of `cols` `i8` mantissas and `exponents` rows of
/// `chunks` exponents, one row per output, and the operand is `cols` `i16`
/// lanes in `chunks` chunks.
#[derive(Clone, Copy, Debug)]
struct NarrowProduct<'a> {
    w: &'a [i8],
    exponents: &'a [i32],
    lanes: &'a [i16],
    x_exponents: &'a [i32],
    cols: usize,
    chunks: usize,
    /// Elements per exponent chunk.
    chunk: usize,
    bias: i32,
    /// Whether each row is one chunk whose integer sums and scaled totals
    /// `f32` represents exactly: under `2^24` in magnitude, and scaled by
    /// `2^e` with `e` in `-126..=104` for every pair of the formats'
    /// exponents.
    f32_exact: bool,
}

impl<'a> NarrowProduct<'a> {
    /// `n` rows of `rows` — `w` is their `i8` slab — in `chunks` exponent
    /// chunks each, times the first `rows.cols` elements of `x`. Nothing
    /// here divides: the caller knows `chunks`.
    #[inline]
    fn new(w: &'a [i8], rows: Rows<'a>, chunks: usize, x: Operand<'a>, n: usize) -> Self {
        let (cols, chunk) = (rows.cols, rows.format.block_size() as usize);
        assert!(w.len() == n * cols && rows.exponents.len() == n * chunks);
        debug_assert_eq!(chunks, cols.div_ceil(chunk));
        let bias = scale_bias(rows.format, x.format);
        let ((wlo, whi), (xlo, xhi)) = (rows.format.exponent_range(), x.format.exponent_range());
        NarrowProduct {
            w,
            exponents: rows.exponents,
            lanes: &x.lanes[..cols],
            x_exponents: &x.exponents[..chunks],
            cols,
            chunks,
            chunk,
            bias,
            f32_exact: chunks == 1
                && cols * 127 * 128 < 1 << 24
                && wlo + xlo - bias >= -126
                && whi + xhi - bias <= 104,
        }
    }
}

/// Runs the narrow pairing — `w` is the `i8` slab of `rows`, `x` a
/// narrow operand with its [`Operand::lanes`] — under the widest vector
/// unit the CPU has.
#[allow(unsafe_code)]
fn narrow_rows<const ACC: bool>(w: &[i8], rows: Rows<'_>, x: Operand<'_>, out: &mut [f32]) {
    let product = NarrowProduct::new(w, rows, x.exponents.len(), x, out.len());
    // A compile-time fact, not a runtime guess: under miri and off x86-64
    // only the portable body exists.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: a safe `#[target_feature(enable = "avx2")]` function asks
        // only that the running CPU supports AVX2, which was just detected.
        return unsafe { narrow_avx2::<ACC>(product, out) };
    }
    narrow_rows_body::<ACC>(product, out);
}

/// The narrow pairing, one row at a time and the portable definition: each
/// row's chunk sums — `i32` runs of at most [`I32_RUN`] products joined in
/// `i64` — scaled by `2^(row exponent + x exponent - bias)` and totalled
/// in `f64` in chunk order.
fn narrow_rows_body<const ACC: bool>(p: NarrowProduct<'_>, out: &mut [f32]) {
    let (cols, cpr) = (p.cols, p.chunks);
    // Offsets advance by addition: `chunks()` divides to size its iterator,
    // once per row and chunk, which costs about what a chunk's MACs do.
    let (mut w_at, mut exp_at) = (0, 0);
    for slot in out.iter_mut() {
        let row = &p.w[w_at..w_at + cols];
        let row_exp = &p.exponents[exp_at..exp_at + cpr];
        w_at += cols;
        exp_at += cpr;
        let mut total = 0.0f64;
        let mut at = 0;
        for (&ew, &ex) in row_exp.iter().zip(p.x_exponents) {
            let end = (at + p.chunk).min(cols);
            let mut sum = 0i64;
            while at < end {
                let run_end = (at + I32_RUN).min(end);
                let mut acc = 0i32;
                for (&w, &x) in row[at..run_end].iter().zip(&p.lanes[at..run_end]) {
                    acc += i32::from(w) * i32::from(x);
                }
                sum += i64::from(acc);
                at = run_end;
            }
            total += sum as f64 * exp2(ew + ex - p.bias);
        }
        if ACC {
            *slot += total as f32;
        } else {
            *slot = total as f32;
        }
    }
}

/// The AVX2 narrow pairing: rows eight at a time, then a `rows % 8` tail
/// of two or more as one more eight-row block, the one that ends at the
/// last row, run onto a copy of its slots of which only the tail's are
/// copied back. A lone tail row, and the rows of a tile shorter than a
/// block (all of a `dot`), run one at a time.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[inline]
fn narrow_avx2<const ACC: bool>(p: NarrowProduct<'_>, out: &mut [f32]) {
    let done = if p.f32_exact && p.cols.is_multiple_of(NARROW_GROUP) {
        narrow_exact_avx2::<ACC>(p, out)
    } else {
        narrow_block_avx2::<8, ACC>(p, out, 0)
    };
    if done < out.len() {
        narrow_tail_avx2::<ACC>(p, out, done);
    }
}

/// [`narrow_block_avx2`]'s eight-row blocks where each row is one chunk of
/// whole groups whose sums and scaled totals `f32` holds exactly
/// (`NarrowProduct::f32_exact`): `f32` arithmetic then gives the bits the
/// `f64` totals round to, with a conversion, a scale and a store per
/// block. Returns the first row left over.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
fn narrow_exact_avx2<const ACC: bool>(p: NarrowProduct<'_>, out: &mut [f32]) -> usize {
    use std::arch::x86_64::*;
    let cols = p.cols;
    let e = _mm256_set1_epi32(127 + p.x_exponents[0] - p.bias);
    let done = out.len() / 8 * 8;
    for (b, slots) in out.chunks_exact_mut(8).enumerate() {
        let w = &p.w[8 * b * cols..][..8 * cols];
        let mut acc = [_mm256_setzero_si256(); 8];
        for at in (0..cols).step_by(NARROW_GROUP) {
            // SAFETY: `at + 16 <= cols`, the length of the operand's lanes,
            // and row `r`'s group ends by `8 · cols`, the length of `w`.
            let x = unsafe { load32(p.lanes, at) };
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: as above.
                let wide = unsafe { widen16(w, r * cols + at) };
                *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(wide, x));
            }
        }
        let run = _mm256_cvtepi32_ps(block_sums(&acc));
        let exps: &[i32; 8] = p.exponents[8 * b..][..8].try_into().expect("eight rows");
        // SAFETY: an unaligned load of the 32 bytes of `exps`.
        let exps = unsafe { _mm256_loadu_si256(exps.as_ptr().cast()) };
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(exps, e)));
        store_ps::<ACC>(slots, _mm256_mul_ps(run, scale));
    }
    done
}

/// [`narrow_avx2`]'s tail, the rows from `done`, out of its hot path.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn narrow_tail_avx2<const ACC: bool>(p: NarrowProduct<'_>, out: &mut [f32], done: usize) {
    let n = out.len();
    if n < 8 || n - done == 1 {
        narrow_block_avx2::<1, ACC>(p, out, done);
        return;
    }
    let last = NarrowProduct {
        w: &p.w[(n - 8) * p.cols..],
        exponents: &p.exponents[(n - 8) * p.chunks..],
        ..p
    };
    let mut slots = [0.0; 8];
    slots.copy_from_slice(&out[n - 8..]);
    narrow_block_avx2::<8, ACC>(last, &mut slots, 0);
    out[done..].copy_from_slice(&slots[8 - (n - done)..]);
}

/// [`narrow_rows_body`] over rows `first..` in blocks of `R` (8 or 1) that
/// share each load of the operand; returns the first row left over. Per
/// [`NARROW_GROUP`] elements the operand's `i16` lanes are loaded once, and
/// each row's mantissas are sign-extended and multiplied into `i32` pair
/// sums (`pmaddwd`); a group that a chunk's end cuts short is read from
/// zero-padded copies. Per run of at most [`I32_RUN`] elements the block's
/// sums are reduced together, row `r` in lane `r`, and added to `f64`
/// chunk sums, exactly: they stay below `2^53`. Per chunk those are scaled
/// by a vector of `2^e` built in the exponent field and added to the
/// block's `f64` totals, which are rounded to `f32` and stored (or added)
/// together.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
fn narrow_block_avx2<const R: usize, const ACC: bool>(
    p: NarrowProduct<'_>,
    out: &mut [f32],
    first: usize,
) -> usize {
    use std::arch::x86_64::*;
    const { assert!(R == 1 || R == 8) };
    let (cols, cpr) = (p.cols, p.chunks);
    let mut row = first;
    for slots in out[first..].chunks_exact_mut(R) {
        // Row `r` of the block starts `r · cols` into `w`, its exponents
        // `r · cpr` into `exps`.
        let w = &p.w[row * cols..][..R * cols];
        let exps = &p.exponents[row * cpr..][..R * cpr];
        let mut totals = [_mm256_setzero_pd(); 2];
        let mut at = 0;
        for ci in 0..cpr {
            let end = (at + p.chunk).min(cols);
            let mut sums = [_mm256_setzero_pd(); 2];
            while at < end {
                let run_end = (at + I32_RUN).min(end);
                let mut acc = [_mm256_setzero_si256(); R];
                while at + NARROW_GROUP <= run_end {
                    // SAFETY: `at + 16 <= run_end <= cols`, the length
                    // `NarrowProduct::new` sliced `p.lanes` to.
                    let lanes = unsafe { load32(p.lanes, at) };
                    for (r, acc) in acc.iter_mut().enumerate() {
                        // SAFETY: `at + 16 <= cols`, so row `r`'s group ends
                        // by `(r + 1) · cols <= R · cols`, the length `w`
                        // was sliced to.
                        let wide = unsafe { widen16(w, r * cols + at) };
                        *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(wide, lanes));
                    }
                    at += NARROW_GROUP;
                }
                if at < run_end {
                    let tail = at..run_end;
                    let mut padded = [0i16; NARROW_GROUP];
                    padded[..tail.len()].copy_from_slice(&p.lanes[tail.clone()]);
                    // SAFETY: `padded` is 16 lanes, one group, long.
                    let lanes = unsafe { load32(&padded, 0) };
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let mut padded = [0i8; NARROW_GROUP];
                        padded[..tail.len()]
                            .copy_from_slice(&w[r * cols + tail.start..][..tail.len()]);
                        // SAFETY: `padded` is 16 bytes, one group, long.
                        let wide = unsafe { widen16(&padded, 0) };
                        *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(wide, lanes));
                    }
                    at = run_end;
                }
                let run = block_sums(&acc);
                sums[0] = _mm256_add_pd(sums[0], _mm256_cvtepi32_pd(_mm256_castsi256_si128(run)));
                sums[1] = _mm256_add_pd(
                    sums[1],
                    _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(run)),
                );
            }
            let scales = block_scales::<R>(exps, cpr, ci, p.x_exponents[ci] - p.bias);
            for (total, (sum, scale)) in totals.iter_mut().zip(sums.into_iter().zip(scales)) {
                *total = _mm256_add_pd(*total, _mm256_mul_pd(sum, scale));
            }
        }
        store_block::<R, ACC>(slots, totals);
        row += R;
    }
    row
}

/// Stores (`ACC == false`) or adds in `f32` (`ACC == true`) the eight
/// lanes of `y` to `slots`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
fn store_ps<const ACC: bool>(slots: &mut [f32], mut y: std::arch::x86_64::__m256) {
    use std::arch::x86_64::*;
    let slots: &mut [f32; 8] = slots.try_into().expect("a block of eight rows");
    // SAFETY: `slots` is eight `f32`s, the 32 bytes an unaligned load and
    // store touch.
    unsafe {
        if ACC {
            y = _mm256_add_ps(_mm256_loadu_ps(slots.as_ptr()), y);
        }
        _mm256_storeu_ps(slots.as_mut_ptr(), y);
    }
}

/// Row `r`'s sum of the `i32` lanes of `acc[r]` in lane `r`: a hadd tree
/// leaves each 128-bit half holding four rows' sums of that half's lanes,
/// and one cross-lane permute lines the halves up. A one-row block has its
/// row in all eight lanes.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[inline]
fn block_sums<const R: usize>(acc: &[std::arch::x86_64::__m256i; R]) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let pair = |r: usize| _mm256_hadd_epi32(acc[r % R], acc[(r + 1) % R]);
    // Rows 0–3, then 4–7, each half over its own four lanes.
    let low = _mm256_hadd_epi32(pair(0), pair(2));
    let high = _mm256_hadd_epi32(pair(4), pair(6));
    _mm256_add_epi32(
        _mm256_blend_epi32::<0xf0>(low, high),
        _mm256_permute2x128_si256::<0x21>(low, high),
    )
}

/// `2^(row exponent + e)` of chunk `ci` of row `r` in lane `r` — rows 0–3
/// in the first vector, 4–7 in the second, a one-row block's row in all
/// eight — where row `r`'s `cpr` exponents start `r · cpr` into `exps`.
/// Built in the exponent field as [`exp2`] builds it, so the two agree bit
/// for bit.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
fn block_scales<const R: usize>(
    exps: &[i32],
    cpr: usize,
    ci: usize,
    e: i32,
) -> [std::arch::x86_64::__m256d; 2] {
    use std::arch::x86_64::*;
    let exp = |r: usize| exps[r % R * cpr + ci];
    let block = if R == 8 && cpr == 1 {
        // Eight rows of one chunk each: eight consecutive exponents.
        let exps: &[i32; 8] = exps.try_into().expect("eight rows of one chunk");
        // SAFETY: an unaligned load of the 32 bytes of `exps`.
        unsafe { _mm256_loadu_si256(exps.as_ptr().cast()) }
    } else {
        _mm256_setr_epi32(
            exp(0),
            exp(1),
            exp(2),
            exp(3),
            exp(4),
            exp(5),
            exp(6),
            exp(7),
        )
    };
    let biased = _mm256_add_epi32(block, _mm256_set1_epi32(1023 + e));
    let field = |half| _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_cvtepi32_epi64(half)));
    [
        field(_mm256_castsi256_si128(biased)),
        field(_mm256_extracti128_si256::<1>(biased)),
    ]
}

/// Stores (`ACC == false`) or adds in `f32` (`ACC == true`) lane `r` of
/// `totals` to `slots[r]`, rounded as `total as f32` rounds: a block of
/// eight in one conversion and one store.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
fn store_block<const R: usize, const ACC: bool>(
    slots: &mut [f32],
    totals: [std::arch::x86_64::__m256d; 2],
) {
    use std::arch::x86_64::*;
    if R == 1 {
        let total = _mm256_cvtsd_f64(totals[0]) as f32;
        if ACC {
            slots[0] += total;
        } else {
            slots[0] = total;
        }
        return;
    }
    let slots: &mut [f32; 8] = slots.try_into().expect("a block of eight rows");
    let mut y = _mm256_set_m128(_mm256_cvtpd_ps(totals[1]), _mm256_cvtpd_ps(totals[0]));
    // SAFETY: `slots` is eight `f32`s, the 32 bytes an unaligned load and
    // store touch.
    unsafe {
        if ACC {
            y = _mm256_add_ps(_mm256_loadu_ps(slots.as_ptr()), y);
        }
        _mm256_storeu_ps(slots.as_mut_ptr(), y);
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
        // Every prefix of a run of the largest products, either sign.
        for product in [127 * 128, -127 * 128] {
            let run = (0..I32_RUN).try_fold(0i32, |sum, _| sum.checked_add(product));
            assert!(run.is_some(), "{product} · {I32_RUN}");
        }
    }

    /// A deterministic stream of non-negative `i32`s.
    fn lcg(seed: u64) -> impl FnMut() -> i32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as i32
        }
    }

    /// `i8` rows and an operand of `i16` lanes at the bounds the narrow
    /// pairing is written for: rows of all `+127`, of all `−127` and mixed
    /// ones in turn, against an operand of `±128`, so chunk sums reach
    /// their bounds in both directions.
    struct NarrowCase {
        format: BfpFormat,
        cols: usize,
        w: Vec<i8>,
        w_exp: Vec<i32>,
        lanes: Vec<i16>,
        /// The operand again for the oracle, as `i32`: `+128` is no `i8`.
        wide: Vec<i32>,
        x_exp: Vec<i32>,
    }

    impl NarrowCase {
        fn saturated(rows: usize, cols: usize, chunk: usize, seed: u64) -> Self {
            let cpr = cols.div_ceil(chunk);
            let mut next = lcg(seed);
            let w = (0..rows * cols)
                .map(|i| match (i / cols % 3, next() % 4) {
                    (0, _) | (2, 0) => 127,
                    (1, _) | (2, 1) => -127,
                    _ => (next() % 255 - 127) as i8,
                })
                .collect();
            let lanes: Vec<i16> = (0..cols)
                .map(|i| match (i as u64 + seed) % 3 {
                    0 => -128,
                    _ => 128,
                })
                .collect();
            NarrowCase {
                format: BfpFormat::new(5, 7, chunk as u32).unwrap(),
                cols,
                w,
                w_exp: (0..rows * cpr).map(|_| next() % 17 - 8).collect(),
                wide: lanes.iter().map(|&x| i32::from(x)).collect(),
                lanes,
                x_exp: (0..cpr).map(|_| next() % 17 - 8).collect(),
            }
        }

        fn rows(&self) -> Rows<'_> {
            Rows {
                format: self.format,
                cols: self.cols,
                mantissas: MantissaSlice::Narrow(&self.w),
                exponents: &self.w_exp,
            }
        }

        fn operand(&self) -> Operand<'_> {
            Operand {
                format: self.format,
                mantissas: MantissaSlice::Wide(&self.wide),
                lanes: &self.lanes,
                padded: &[],
                sums: &[],
                exponents: &self.x_exp,
            }
        }
    }

    /// `n` rows of `cols` in chunks of `chunk` through the narrow pairing
    /// against the oracle, row by row: stored, and added onto `-0.0` (where
    /// a skipped `+0.0` would show) and onto `0.75`.
    fn assert_narrow_matches_oracle(n: usize, cols: usize, chunk: usize, seed: u64) {
        let case = NarrowCase::saturated(n, cols, chunk, seed);
        let (rows, x) = (case.rows(), case.operand());
        let dots: Vec<f32> = (0..n).map(|r| dot_naive(rows.row(r), x)).collect();
        let mut stored = vec![7.0f32; n];
        narrow_rows::<false>(&case.w, rows, x, &mut stored);
        assert_eq!(bits(&stored), bits(&dots), "{n} × {cols} in {chunk}s");
        for start in [-0.0f32, 0.75] {
            let mut added = vec![start; n];
            narrow_rows::<true>(&case.w, rows, x, &mut added);
            let want: Vec<f32> = dots.iter().map(|d| start + d).collect();
            assert_eq!(bits(&added), bits(&want), "{n} × {cols} onto {start}");
        }
    }

    #[test]
    fn narrow_body_matches_oracle_at_vector_width_and_chunk_tails() {
        let all = [0, 1, 15, 16, 17, 31, 32, 33, 127, 128, 129, 400];
        let widths = if cfg!(miri) { &all[..8] } else { &all[..] };
        for &cols in widths {
            for n in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
                assert_narrow_matches_oracle(n, cols, 128, (cols + n) as u64);
            }
        }
    }

    #[test]
    fn narrow_pairing_sums_chunks_that_are_not_whole_groups() {
        // Chunks shorter than a group, one group, between six and seven,
        // and a vector's worth: tails inside every chunk, or none.
        for chunk in [4, 16, 100, 128] {
            for cols in [3, 4, 5, 15, 16, 17, 100, 101, 400] {
                assert_narrow_matches_oracle(6, cols, chunk, (chunk + cols) as u64);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "millions of MACs: too slow under the interpreter")]
    fn narrow_body_sums_exponent_chunks_longer_than_an_i32_run() {
        // A run and a group tail, then two chunks of a run and a bit.
        assert_narrow_matches_oracle(5, I32_RUN + 5, 1 << 18, 1);
        assert_narrow_matches_oracle(5, 2 * I32_RUN + 19, I32_RUN + 1, 2);
    }

    #[test]
    #[ignore = "every width to 1,024 in six chunk sizes: 30 s unoptimized, run by CI in release"]
    fn narrow_pairing_matches_oracle_at_every_width_and_chunk() {
        for chunk in [4, 16, 64, 100, 128, 400] {
            for cols in 0..=1024 {
                for n in [1, 4, 8, 9, 12, 15, 17] {
                    assert_narrow_matches_oracle(n, cols, chunk, (chunk * cols + n) as u64);
                }
            }
        }
    }

    #[test]
    fn portable_and_dispatched_instantiations_agree() {
        // Where AVX2 is detected the dispatcher takes that body, so this
        // compares the two; elsewhere it compares portable to itself.
        for cols in [0, 1, 15, 16, 17, 31, 32, 33, 127, 128, 129, 400] {
            for n in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
                let case = NarrowCase::saturated(n, cols, 128, (cols * n) as u64);
                let (rows, x) = (case.rows(), case.operand());
                let product = NarrowProduct::new(&case.w, rows, x.exponents.len(), x, n);
                let mut portable = vec![0.5f32; n];
                let mut dispatched = portable.clone();
                narrow_rows_body::<true>(product, &mut portable);
                narrow_rows::<true>(&case.w, rows, x, &mut dispatched);
                assert_eq!(bits(&portable), bits(&dispatched), "{n} × {cols}");
                narrow_rows_body::<false>(product, &mut portable);
                narrow_rows::<false>(&case.w, rows, x, &mut dispatched);
                assert_eq!(bits(&portable), bits(&dispatched), "{n} × {cols}");
            }
        }
    }

    #[test]
    fn store_keeps_the_sign_of_an_underflowed_total() {
        // A negative total too small for `f32` is `-0.0`; accumulating onto
        // `0.0` would lose the sign that a store keeps.
        let fmt = BfpFormat::new(8, 5, 128).unwrap();
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
            padded: &[],
            sums: &[],
            exponents: &[-100],
        };
        let mut out = [1.0f32];
        mac_rows::<false>(rows, x, &mut out);
        assert_eq!(out[0].to_bits(), (-0.0f32).to_bits());
        // The narrow pairing's block of eight converts and stores its
        // totals together: one block, a block and a tail, two and a tail.
        // Added onto `-0.0` the sign stays too.
        for n in [8, 9, 17] {
            let (w, exponents) = (vec![-1; n], vec![-100; n]);
            let rows = Rows {
                mantissas: MantissaSlice::Narrow(&w),
                exponents: &exponents,
                ..rows
            };
            for (start, acc) in [(1.0f32, false), (-0.0, true)] {
                let mut out = vec![start; n];
                if acc {
                    mac_rows::<true>(rows, x, &mut out);
                } else {
                    mac_rows::<false>(rows, x, &mut out);
                }
                assert!(
                    out.iter().all(|y| y.to_bits() == (-0.0f32).to_bits()),
                    "{n} rows"
                );
            }
        }
        // The packed pairing, one row (the tail body) and five (a block and
        // a tail): every total is -1 · 2^-202.
        for n in [1, 5] {
            let case = PackedCase::new(&vec![-1; n], &vec![-100; n], &[1], &[-100], 8, 128);
            let mut out = vec![1.0f32; n];
            mac_rows::<false>(case.rows(), case.operand(), &mut out);
            assert!(out.iter().all(|y| y.to_bits() == (-0.0f32).to_bits()));
        }
    }

    /// `chunk`-element chunks of `natural`, each zero-padded to whole groups.
    fn pad(natural: &[i8], chunk: usize) -> Vec<i8> {
        let mut padded = Vec::new();
        for c in natural.chunks(chunk) {
            padded.extend_from_slice(c);
            padded.resize(padded.len().next_multiple_of(GROUP), 0);
        }
        padded
    }

    /// Packed rows and a packed-format operand built from mantissas in
    /// element order.
    struct PackedCase {
        format: BfpFormat,
        cols: usize,
        w: Vec<u8>,
        w_exp: Vec<i32>,
        x: Vec<u8>,
        padded: Vec<i8>,
        sums: Vec<i32>,
        x_exp: Vec<i32>,
    }

    impl PackedCase {
        fn new(
            w: &[i8],
            w_exp: &[i32],
            x: &[i8],
            x_exp: &[i32],
            exponent_bits: u8,
            chunk: usize,
        ) -> Self {
            let mut case = PackedCase {
                format: BfpFormat::new(exponent_bits, 3, chunk as u32).unwrap(),
                cols: x.len(),
                w: Vec::new(),
                w_exp: w_exp.to_vec(),
                x: Vec::new(),
                padded: pad(x, chunk),
                sums: x
                    .chunks(chunk)
                    .map(|c| c.iter().map(|&q| i32::from(q)).sum())
                    .collect(),
                x_exp: x_exp.to_vec(),
            };
            for row in w.chunks(x.len().max(1)) {
                pack_groups(&pad(row, chunk), &mut case.w);
            }
            pack_groups(&case.padded, &mut case.x);
            case
        }

        /// `rows` rows of `cols` against one input, every mantissa within
        /// `±max`: rows of all `+max`, of all `−max` and mixed ones in turn,
        /// against an input of `±max`, so chunk sums reach their bounds in
        /// both directions.
        fn saturated(rows: usize, cols: usize, chunk: usize, max: i8, seed: u64) -> Self {
            let cpr = cols.div_ceil(chunk);
            let mut next = lcg(seed);
            let w: Vec<i8> = (0..rows * cols)
                .map(|i| match (i / cols % 3, next() % 4) {
                    (0, _) | (2, 0) => max,
                    (1, _) | (2, 1) => -max,
                    _ => (next() % (2 * i32::from(max) + 1)) as i8 - max,
                })
                .collect();
            let x: Vec<i8> = (0..cols)
                .map(|i| match (i as u64 + seed) % 3 {
                    0 => -max,
                    _ => max,
                })
                .collect();
            let w_exp: Vec<i32> = (0..rows * cpr).map(|_| next() % 17 - 8).collect();
            let x_exp: Vec<i32> = (0..cpr).map(|_| next() % 17 - 8).collect();
            PackedCase::new(&w, &w_exp, &x, &x_exp, 5, chunk)
        }

        fn rows(&self) -> Rows<'_> {
            Rows {
                format: self.format,
                cols: self.cols,
                mantissas: MantissaSlice::Packed(&self.w),
                exponents: &self.w_exp,
            }
        }

        fn operand(&self) -> Operand<'_> {
            Operand {
                format: self.format,
                mantissas: MantissaSlice::Packed(&self.x),
                lanes: &[],
                padded: &self.padded,
                sums: &self.sums,
                exponents: &self.x_exp,
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn packing_round_trips_every_mantissa_with_canonical_padding() {
        // The interpreter is ~1000× slower: there, every tenth width.
        let step = if cfg!(miri) { 10 } else { 1 };
        for chunk in [16, 64, 128, 400] {
            for cols in (0..=200).step_by(step) {
                let natural: Vec<i8> = (0..cols).map(|i| ((i * 7 + cols) % 15) as i8 - 7).collect();
                let padded = pad(&natural, chunk);
                assert_eq!(padded.len(), padded_len(cols, chunk), "{cols} in {chunk}s");
                let mut bytes = Vec::new();
                pack_groups(&padded, &mut bytes);
                let row = Rows {
                    format: BfpFormat::new(5, 3, chunk as u32).unwrap(),
                    cols,
                    mantissas: MantissaSlice::Packed(&bytes),
                    exponents: &[],
                };
                assert!(row.iter().eq(natural.iter().map(|&q| i32::from(q))));
                // Group by group the slab unpacks to the padded lanes, zeros
                // and all: the same mantissas always pack to the same bytes.
                let unpacked: Vec<i8> = bytes.chunks(GROUP / 2).flat_map(unpack_group).collect();
                assert_eq!(unpacked, padded, "{cols} in {chunk}s");
            }
        }
        let all: Vec<i8> = (-7..=7).cycle().take(GROUP).collect();
        let mut bytes = Vec::new();
        pack_groups(&all, &mut bytes);
        assert_eq!(unpack_group(&bytes)[..], all[..]);
    }

    #[test]
    fn packed_kernel_intervals_cannot_overflow() {
        // Four products of an unsigned nibble and an `i8` per lane per group.
        assert!(I16_GROUPS * 4 * 15 * 128 <= i16::MAX as usize);
        assert!(PACKED_MAX_CHUNK as i64 * 15 * 128 <= i64::from(i32::MAX));
    }

    #[test]
    fn packed_pairing_matches_oracle_at_group_chunk_and_row_block_tails() {
        let all = [0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 400];
        let widths = if cfg!(miri) { &all[..8] } else { &all[..] };
        for max in [7, 3] {
            for &cols in widths {
                for n in [1, 2, 3, 4, 5, 7, 8] {
                    let case = PackedCase::saturated(n, cols, 128, max, (cols + n) as u64);
                    let (rows, x) = (case.rows(), case.operand());
                    let dots: Vec<f32> = (0..n).map(|r| dot_naive(rows.row(r), x)).collect();
                    let mut stored = vec![7.0f32; n];
                    mac_rows::<false>(rows, x, &mut stored);
                    assert_eq!(bits(&stored), bits(&dots), "±{max}, {n} × {cols}");
                    let mut added = vec![0.75f32; n];
                    mac_rows::<true>(rows, x, &mut added);
                    let want: Vec<f32> = dots.iter().map(|d| 0.75 + d).collect();
                    assert_eq!(bits(&added), bits(&want), "±{max}, {n} × {cols}");
                    // Where AVX2 is detected the dispatcher took that body,
                    // so this compares the two bodies as well.
                    let mut scalar = vec![0.75f32; n];
                    packed_rows_body::<true>(&case.w, rows, x, &mut scalar);
                    assert_eq!(bits(&scalar), bits(&added), "±{max}, {n} × {cols}");
                }
            }
        }
    }

    #[test]
    fn packed_pairing_pads_chunks_that_are_not_whole_groups() {
        // Chunks shorter than a group, between one and two, of 400 (six and
        // a quarter: the `i16` lanes are widened twice per chunk) and of
        // 2^15, where lanes never widened would overflow after 78 groups.
        let shapes = [4, 16, 100, 400]
            .into_iter()
            .flat_map(|chunk| [3, 4, 5, 100, 101, 400, 900].map(|cols| (chunk, cols)))
            .chain((!cfg!(miri)).then_some((1 << 15, (1 << 15) + 65)));
        for (chunk, cols) in shapes {
            let case = PackedCase::saturated(6, cols, chunk, 7, (chunk + cols) as u64);
            let (rows, x) = (case.rows(), case.operand());
            let dots: Vec<f32> = (0..6).map(|r| dot_naive(rows.row(r), x)).collect();
            let mut got = vec![0.0f32; 6];
            mac_rows::<false>(rows, x, &mut got);
            assert_eq!(bits(&got), bits(&dots), "{cols} in {chunk}s");
        }
    }

    #[test]
    fn packed_oracle_matches_the_unpacked_one() {
        // The same mantissas as `i8` lanes through the loop that was the
        // oracle before there was a packed layout; and, the product
        // commuting, with the packed side as the operand.
        let case = PackedCase::saturated(3, 333, 128, 7, 9);
        // Chunks of 128 are whole groups, so only the row's tail is padded.
        let x = &case.padded[..333];
        let narrow = Operand {
            mantissas: MantissaSlice::Narrow(x),
            ..case.operand()
        };
        for r in 0..3 {
            let row = case.rows().row(r);
            let w: Vec<i8> = row.iter().map(|q| q as i8).collect();
            let narrow_row = Rows {
                mantissas: MantissaSlice::Narrow(&w),
                ..row
            };
            let want = dot_naive(narrow_row, narrow).to_bits();
            assert_eq!(dot_naive(row, case.operand()).to_bits(), want);
            assert_eq!(dot_naive(row, narrow).to_bits(), want);
            assert_eq!(dot_naive(narrow_row, case.operand()).to_bits(), want);
        }
    }
}
