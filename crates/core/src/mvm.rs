//! The matrix-vector multiplier (§V-A): tile engines, dot-product engines,
//! and lanes.
//!
//! The MVM is the workhorse of the NPU. Functionally it multiplies a tiled
//! `rows·N × cols·N` matrix (a grid of native tiles resident in the MRF) by
//! `cols` native input vectors, producing `rows` native output vectors; the
//! arithmetic is shared-exponent block floating point with exact integer
//! accumulation inside each exponent block (see [`bw_bfp`]).
//!
//! The timing model follows the physical organization: each tile engine
//! computes one native `N × N` matrix-vector product every
//! `N / lanes` cycles (each of its `N` dot-product engines streams `lanes`
//! elements per cycle), so a `rows × cols` tile grid scheduled across `E`
//! tile engines occupies the MVM for `ceil(rows·cols · N/lanes / E)`
//! cycles: its engine-cycles spread over the engines ([`occupancy`]), not
//! whole waves of `E` tiles. An 8 × 8 grid on BW_S10 takes 107 cycles,
//! not 110.
//!
//! [`compute_into`] is the fast functional path: it multiplies input
//! vectors quantized once into retained blocks ([`quantize_columns`]) and
//! accumulates tile products directly into a flat output slab, so a
//! steady-state chain performs no allocation.
//! [`compute_naive`] retains the original allocate-per-call shape with the
//! naive BFP kernels as the differential-testing oracle and perf baseline.

use bw_bfp::{BfpBlock, BfpMatrix, Simd};

use crate::config::NpuConfig;
use crate::mem::MatrixFile;
use crate::npu::SimError;

/// Cycles the MVM is occupied by one `mv_mul` of a `rows × cols` tile grid.
///
/// Each native tile costs `native_dim / lanes` engine-cycles; the grid's
/// total engine-cycles spread across the tile engines. Charging
/// `ceil(tiles · stream / engines)` (rather than whole waves) models the
/// spatially distributed per-engine scheduling of §V-A: when a grid
/// underfills the engine array, the idle engines start the next chain's
/// tiles — essential for CNN lowerings whose per-position grids are small.
pub(crate) fn occupancy(config: &NpuConfig, rows: u32, cols: u32) -> u64 {
    let tiles = u64::from(rows) * u64::from(cols);
    (tiles * u64::from(config.tile_stream_cycles())).div_ceil(u64::from(config.tile_engines()))
}

/// Multiply-accumulate operations dispatched by one `mv_mul` (counting
/// padding): `rows · cols · N²`.
pub(crate) fn macs(config: &NpuConfig, rows: u32, cols: u32) -> u64 {
    u64::from(rows)
        * u64::from(cols)
        * u64::from(config.native_dim())
        * u64::from(config.native_dim())
}

/// Why a BFP kernel cannot refuse an MRF tile: the host loaders admit only
/// native `N × N` tiles in the configuration's format, and inputs quantize
/// in that format from `N`-element native vectors.
const NATIVE: &str = "MRF tiles and inputs are native to the configuration";

/// Quantizes the native vectors of `input` into the first of `blocks`, one
/// block per grid column, reusing their storage, with `simd`'s bodies.
/// Every tile in a column reads the same block, as the hardware broadcasts
/// the vector.
pub(crate) fn quantize_columns(
    config: &NpuConfig,
    simd: Simd,
    input: &[f32],
    blocks: &mut Vec<BfpBlock>,
) {
    let (nd, fmt) = (config.native_dim() as usize, config.matrix_format());
    for (c, chunk) in input.chunks(nd).enumerate() {
        if c == blocks.len() {
            blocks.push(BfpBlock::empty(fmt));
        }
        simd.quantize(chunk, fmt, &mut blocks[c]);
    }
}

/// Functionally computes the tiled matrix-vector product into a reusable
/// flat output buffer.
///
/// `base` is the first MRF entry; tile `(r, c)` lives at `base + r·cols + c`
/// (row-major grid order, matching the ISA's "20 consecutive MRF entries as
/// a tiled 4N × 5N matrix" semantics). `inputs` holds the `cols` quantized
/// input vectors ([`quantize_columns`]) first; `out` is cleared and filled
/// with `rows` native vectors. Accumulation across the `cols` tiles of a
/// row happens in `f32`, modelling the wide add-reduction unit that follows
/// the tile engines (Figure 6).
pub(crate) fn compute_into(
    config: &NpuConfig,
    mrf: &MatrixFile,
    (base, rows, cols): (u32, u32, u32),
    inputs: &[BfpBlock],
    out: &mut Vec<f32>,
) -> Result<(), SimError> {
    let nd = config.native_dim() as usize;
    // One call per grid row: bw-bfp checks the row's tiles and picks its
    // kernel once, then adds each tile's product in column order.
    out.clear();
    out.resize(rows as usize * nd, 0.0);
    for (r, acc) in (0..rows).zip(out.chunks_exact_mut(nd)) {
        let tiles = mrf.tiles(base + r * cols, cols)?;
        BfpMatrix::mv_mul_acc_row(tiles.zip(inputs), acc).expect(NATIVE);
    }
    Ok(())
}

/// The original allocate-per-call tiled product using the naive BFP
/// kernels: quantizes every input vector afresh, allocates an accumulator
/// per row, and materializes each tile's partial product. Retained as the
/// reference the fast path is differentially tested against, and as the
/// honestly-measured baseline for the `perf` benchmark.
pub(crate) fn compute_naive(
    config: &NpuConfig,
    mrf: &MatrixFile,
    (base, rows, cols): (u32, u32, u32),
    input: &[f32],
) -> Result<Vec<Vec<f32>>, SimError> {
    let nd = config.native_dim() as usize;
    let fmt = config.matrix_format();
    let qinputs: Vec<BfpBlock> = input
        .chunks(nd)
        .map(|v| BfpBlock::quantize(v, fmt))
        .collect();

    let mut outputs = Vec::with_capacity(rows as usize);
    for r in 0..rows {
        let mut acc = vec![0.0f32; nd];
        for c in 0..cols {
            let tile = mrf.tile(base + r * cols + c)?;
            let partial = tile.mv_mul_naive(&qinputs[c as usize]).expect(NATIVE);
            for (a, p) in acc.iter_mut().zip(partial) {
                *a += p;
            }
        }
        outputs.push(acc);
    }
    Ok(outputs)
}

/// Quantizes an `rows·N × cols·N` (or smaller, zero-padded) row-major `f32`
/// matrix into the native tile grid layout and returns the tiles in
/// `(r, c)` row-major order, ready to be stored at consecutive MRF indices.
/// The host loader has checked that the matrix fits the grid.
pub(crate) fn tile_matrix(
    config: &NpuConfig,
    mat_rows: usize,
    mat_cols: usize,
    data: &[f32],
    grid_rows: u32,
    grid_cols: u32,
) -> Vec<BfpMatrix> {
    let nd = config.native_dim() as usize;
    let fmt = config.matrix_format();
    let mut tiles = Vec::with_capacity((grid_rows * grid_cols) as usize);
    let mut scratch = vec![0.0f32; nd * nd];
    for tr in 0..grid_rows as usize {
        for tc in 0..grid_cols as usize {
            scratch.iter_mut().for_each(|v| *v = 0.0);
            for local_r in 0..nd {
                let src_r = tr * nd + local_r;
                if src_r >= mat_rows {
                    break;
                }
                let src_c0 = tc * nd;
                if src_c0 >= mat_cols {
                    continue;
                }
                let n = nd.min(mat_cols - src_c0);
                let src = &data[src_r * mat_cols + src_c0..src_r * mat_cols + src_c0 + n];
                scratch[local_r * nd..local_r * nd + n].copy_from_slice(src);
            }
            tiles.push(BfpMatrix::quantize(nd, nd, &scratch, fmt).expect("an N × N buffer"));
        }
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(4)
            .lanes(2)
            .tile_engines(2)
            .mrf_entries(64)
            // Functional tests use the 5-bit-mantissa format; the default
            // 2-bit format is intentionally coarse (§VI).
            .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    fn compute_flat(
        cfg: &NpuConfig,
        mrf: &MatrixFile,
        base: u32,
        rows: u32,
        cols: u32,
        input: &[f32],
    ) -> Result<Vec<f32>, SimError> {
        let (mut out, mut blocks) = (Vec::new(), Vec::new());
        quantize_columns(cfg, Simd::detect(), input, &mut blocks);
        compute_into(cfg, mrf, (base, rows, cols), &blocks, &mut out)?;
        Ok(out)
    }

    #[test]
    fn occupancy_matches_formula() {
        let cfg = tiny_config();
        // 1 tile of 2 engine-cycles on 2 engines: 1 cycle.
        assert_eq!(occupancy(&cfg, 1, 1), 1);
        // 4 tiles x 2 cycles / 2 engines = 4 cycles.
        assert_eq!(occupancy(&cfg, 2, 2), 4);
        // 5 tiles x 2 / 2 = 5 cycles.
        assert_eq!(occupancy(&cfg, 5, 1), 5);

        let s10 = NpuConfig::bw_s10();
        // GRU-2816: 8x8 tiles x 10 cycles on 6 engines = ceil(640/6).
        assert_eq!(occupancy(&s10, 8, 8), 107);
        // LSTM-2000: 5x5 tiles: ceil(250/6).
        assert_eq!(occupancy(&s10, 5, 5), 42);
    }

    #[test]
    fn macs_count_padding() {
        let s10 = NpuConfig::bw_s10();
        assert_eq!(macs(&s10, 5, 5), 25 * 400 * 400);
    }

    #[test]
    fn tile_matrix_round_trips_identity() {
        let cfg = tiny_config();
        // An 8x8 identity becomes a 2x2 grid of 4x4 tiles.
        let n = 8;
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        let tiles = tile_matrix(&cfg, n, n, &data, 2, 2);
        assert_eq!(tiles.len(), 4);
        // Diagonal tiles are identities; off-diagonal are zero.
        let d0 = tiles[0].dequantize();
        assert_eq!(d0[0], 1.0);
        assert_eq!(d0[1], 0.0);
        let off = tiles[1].dequantize();
        assert!(off.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tile_matrix_pads_partial_tiles_with_zeros() {
        let cfg = tiny_config();
        // A 3x5 matrix in a 1x2 grid of 4x4 tiles.
        let data: Vec<f32> = (0..15).map(|i| i as f32).collect();
        let tiles = tile_matrix(&cfg, 3, 5, &data, 1, 2);
        assert_eq!(tiles.len(), 2);
        let t1 = tiles[1].dequantize();
        // Second tile holds column 4 only; the rest is padding.
        assert_eq!(t1[0], 4.0);
        assert_eq!(t1[1], 0.0);
        let t0 = tiles[0].dequantize();
        // Row 3 of tile 0 is padding.
        assert!(t0[12..16].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tile_matrix_rejects_oversized_input() {
        // The grid-fit check sits in the host loader, ahead of tiling, so an
        // oversized matrix never reaches `tile_matrix`.
        let err = crate::Npu::new(tiny_config())
            .load_tiled_matrix(0, 2, 1, 9, 4, &[0.0; 36])
            .unwrap_err();
        assert!(matches!(err, SimError::MatrixDoesNotFitGrid { .. }));
    }

    #[test]
    fn compute_tiled_product_matches_reference() {
        let cfg = tiny_config();
        let mut mrf = MatrixFile::new(64);
        // 8x8 matrix = 2x2 grid; input 8 = 2 native vectors.
        let n = 8;
        let data: Vec<f32> = (0..n * n).map(|i| ((i % 5) as f32 - 2.0) / 4.0).collect();
        let tiles = tile_matrix(&cfg, n, n, &data, 2, 2);
        for (i, t) in tiles.into_iter().enumerate() {
            mrf.store(i as u32, t);
        }
        let x: Vec<f32> = (0..n).map(|i| (i as f32 - 3.0) / 3.0).collect();
        let out = compute_flat(&cfg, &mrf, 0, 2, 2, &x).unwrap();
        for r in 0..n {
            let reference: f32 = (0..n).map(|c| data[r * n + c] * x[c]).sum();
            let got = out[r];
            assert!(
                (got - reference).abs() < 0.1,
                "row {r}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn fast_compute_bit_identical_to_naive() {
        let cfg = tiny_config();
        let mut mrf = MatrixFile::new(64);
        let n = 8;
        let data: Vec<f32> = (0..n * n).map(|i| ((i * 7) % 11) as f32 - 5.0).collect();
        let tiles = tile_matrix(&cfg, n, n, &data, 2, 2);
        for (i, t) in tiles.into_iter().enumerate() {
            mrf.store(i as u32, t);
        }
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let fast = compute_flat(&cfg, &mrf, 0, 2, 2, &x).unwrap();
        let naive = compute_naive(&cfg, &mrf, (0, 2, 2), &x).unwrap();
        let naive_flat: Vec<f32> = naive.into_iter().flatten().collect();
        assert_eq!(fast.len(), naive_flat.len());
        for (f, nv) in fast.iter().zip(&naive_flat) {
            assert_eq!(f.to_bits(), nv.to_bits(), "fast {f} vs naive {nv}");
        }

        // The demo MLP's shapes (native 16, 1s.5e.5m): its 64 × 16,
        // 32 × 64 and 8 × 32 layers are 4 × 1, 2 × 4 and 1 × 2 grids, the
        // last of tiles with 8 live rows (one block of the narrow kernel);
        // 12 live rows are a block and a tail.
        let cfg = NpuConfig::builder()
            .native_dim(16)
            .lanes(4)
            .tile_engines(4)
            .mrf_entries(64)
            .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (rows, cols, grid_rows, grid_cols) in [
            (64, 16, 4, 1),
            (32, 64, 2, 4),
            (8, 32, 1, 2),
            (12, 32, 1, 2),
        ] {
            let mut mrf = MatrixFile::new(64);
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((i * 7) % 23) as f32 / 8.0 - 1.3)
                .collect();
            let tiles = tile_matrix(&cfg, rows, cols, &data, grid_rows, grid_cols);
            for (i, t) in tiles.into_iter().enumerate() {
                mrf.store(i as u32, t);
            }
            assert_eq!(mrf.tile(0).unwrap().live_shape(), (rows.min(16), 16));
            let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let columns: Vec<Vec<f32>> = x.chunks(16).map(<[f32]>::to_vec).collect();
            let fast = compute_flat(&cfg, &mrf, 0, grid_rows, grid_cols, &x).unwrap();
            let naive = compute_naive(&cfg, &mrf, (0, grid_rows, grid_cols), &x).unwrap();
            let naive: Vec<f32> = naive.into_iter().flatten().collect();
            assert_eq!(bits(&fast), bits(&naive), "{rows} × {cols}");
            // A grid row added onto `-0.0`, which the rows past a tile's
            // live extent turn to `+0.0`.
            let fmt = cfg.matrix_format();
            let qx: Vec<BfpBlock> = columns.iter().map(|c| BfpBlock::quantize(c, fmt)).collect();
            for r in 0..grid_rows {
                let mut acc = vec![-0.0f32; 16];
                let row = mrf.tiles(r * grid_cols, grid_cols).unwrap();
                BfpMatrix::mv_mul_acc_row(row.zip(&qx), &mut acc).unwrap();
                let mut want = vec![-0.0f32; 16];
                for (c, x) in qx.iter().enumerate() {
                    let tile = mrf.tile(r * grid_cols + c as u32).unwrap();
                    for (w, p) in want.iter_mut().zip(tile.mv_mul_naive(x).unwrap()) {
                        *w += p;
                    }
                }
                assert_eq!(bits(&acc), bits(&want), "{rows} × {cols}, grid row {r}");
            }
        }
    }

    #[test]
    fn compute_errors_on_missing_tile() {
        let cfg = tiny_config();
        let mrf = MatrixFile::new(4);
        let err = compute_flat(&cfg, &mrf, 0, 1, 1, &[0.0; 4]).unwrap_err();
        assert!(matches!(err, SimError::MrfEntryUninitialized { index: 0 }));
    }
}
