//! 2-D convolution lowered onto matrix-vector multiplication.
//!
//! The BW NPU deliberately has no convolution primitive (§IV-B): CNN layers
//! are *linearized* onto `mv_mul`. Each output position's receptive field is
//! an im2col patch — a `K·K·C_in` vector — and the kernel is a
//! `C_out × K·K·C_in` matrix pinned in the MRF, so one chain per output
//! position produces all `C_out` channels.

use bw_core::isa::{MemId, Program, ProgramBuilder};
use bw_core::{Npu, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference;

/// The shape of one convolution layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Input channels.
    pub c_in: usize,
    /// Kernel size (square `k × k`).
    pub k: usize,
    /// Output channels.
    pub c_out: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
}

impl ConvShape {
    /// Output height.
    pub fn h_out(&self) -> usize {
        (self.h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn w_out(&self) -> usize {
        (self.w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Number of output positions (= chains per evaluation).
    pub fn positions(&self) -> usize {
        self.h_out() * self.w_out()
    }

    /// im2col patch length, the matrix-vector input dimension.
    pub fn patch_len(&self) -> usize {
        self.k * self.k * self.c_in
    }

    /// True model FLOPs (2 per MAC): matches Table I's 231M for the
    /// 28×28×128 / K:128×3×3 layer.
    pub fn ops(&self) -> u64 {
        2 * self.positions() as u64 * self.c_out as u64 * self.patch_len() as u64
    }

    /// Weight parameter count.
    pub fn weight_count(&self) -> usize {
        self.c_out * self.patch_len()
    }
}

/// A convolution layer mapped onto a BW NPU.
///
/// # Example
///
/// ```
/// use bw_core::{Npu, NpuConfig};
/// use bw_models::{ConvLayer, ConvShape};
///
/// let cfg = NpuConfig::builder()
///     .native_dim(8).lanes(4).tile_engines(2)
///     .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
///     .build()?;
/// let shape = ConvShape { h: 6, w: 6, c_in: 2, k: 3, c_out: 4, stride: 1, pad: 1 };
/// let conv = ConvLayer::new(&cfg, shape);
/// let mut npu = Npu::new(cfg);
/// conv.load_random_weights(&mut npu, 0, 3)?;
/// let input = vec![0.25; 6 * 6 * 2];
/// let (output, _) = conv.run(&mut npu, 0, &input, true)?;
/// assert_eq!(output.len(), 6 * 6 * 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvLayer {
    shape: ConvShape,
    /// Native tile rows: `ceil(C_out / N)`.
    grid_out: u32,
    /// Native tile columns: `ceil(K·K·C_in / N)`.
    grid_in: u32,
}

impl ConvLayer {
    /// Plans a convolution layer for an NPU configuration.
    pub fn new(config: &bw_core::NpuConfig, shape: ConvShape) -> Self {
        let nd = config.native_dim();
        ConvLayer {
            shape,
            grid_out: (shape.c_out as u32).div_ceil(nd),
            grid_in: (shape.patch_len() as u32).div_ceil(nd),
        }
    }

    /// The layer shape.
    pub fn shape(&self) -> ConvShape {
        self.shape
    }

    /// MRF entries the kernel matrix occupies.
    pub fn mrf_entries_required(&self) -> u32 {
        self.grid_out * self.grid_in
    }

    /// Generates firmware: one chain per output position, streaming patches
    /// from the network queue. `relu` fuses the activation.
    pub fn program(&self, mrf_base: u32, relu: bool) -> Program {
        let mut b = ProgramBuilder::new();
        let ok = "statically valid conv firmware";
        b.set_rows(self.grid_out).set_cols(self.grid_in);
        b.begin_loop(self.shape.positions() as u32).expect(ok);
        b.v_rd(MemId::NetQ, 0).mv_mul(mrf_base);
        if relu {
            b.v_relu();
        }
        b.v_wr(MemId::NetQ, 0).end_chain().expect(ok);
        b.end_loop().expect(ok);
        b.build()
    }

    /// Pins the kernel (layout `C_out × K·K·C_in`, matching
    /// [`reference::conv2d`]) at `mrf_base`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or capacity overflow.
    pub fn load_weights(
        &self,
        npu: &mut Npu,
        mrf_base: u32,
        kernel: &[f32],
    ) -> Result<(), SimError> {
        let (rows, cols) = (self.shape.c_out, self.shape.patch_len());
        npu.load_tiled_matrix(mrf_base, self.grid_out, self.grid_in, rows, cols, kernel)?;
        Ok(())
    }

    /// Pins a random kernel (deterministic in `seed`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn load_random_weights(
        &self,
        npu: &mut Npu,
        mrf_base: u32,
        seed: u64,
    ) -> Result<(), SimError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, cols) = (self.shape.c_out, self.shape.patch_len());
        let scale = 1.0 / (cols as f32).sqrt();
        let kernel: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        self.load_weights(npu, mrf_base, &kernel)
    }

    /// Runs the layer on an `H × W × C_in` HWC input, returning the
    /// `H_out × W_out × C_out` HWC output and run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or execution failure.
    pub fn run(
        &self,
        npu: &mut Npu,
        mrf_base: u32,
        input: &[f32],
        relu: bool,
    ) -> Result<(Vec<f32>, bw_core::RunStats), SimError> {
        let s = self.shape;
        if input.len() != s.h * s.w * s.c_in {
            return Err(SimError::VectorLengthMismatch {
                expected: s.h * s.w * s.c_in,
                actual: input.len(),
            });
        }
        for oy in 0..s.h_out() {
            for ox in 0..s.w_out() {
                let patch =
                    reference::im2col_patch(input, s.h, s.w, s.c_in, s.k, s.stride, s.pad, oy, ox);
                npu.push_input_padded(&patch);
            }
        }
        let stats = npu.run(&self.program(mrf_base, relu))?;
        let mut output = vec![0.0f32; s.positions() * s.c_out];
        for row in output.chunks_exact_mut(s.c_out) {
            let y = npu
                .pop_output_concat(self.grid_out as usize, s.c_out)
                .ok_or(SimError::NetQueueEmpty {
                    requested: self.grid_out,
                    available: 0,
                })?;
            row.copy_from_slice(&y);
        }
        Ok((output, stats))
    }

    /// Timing-only evaluation: reserves the kernel grid, pushes placeholder
    /// patches, and runs. The NPU should be in
    /// [`bw_core::ExecMode::TimingOnly`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn run_timing_only(
        &self,
        npu: &mut Npu,
        mrf_base: u32,
    ) -> Result<bw_core::RunStats, SimError> {
        npu.reserve_matrix_grid(mrf_base, self.grid_out, self.grid_in)?;
        npu.push_input_zeros(self.grid_in as usize * self.shape.positions());
        npu.run(&self.program(mrf_base, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_bfp::BfpFormat;
    use bw_core::NpuConfig;

    fn small_config() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mrf_entries(256)
            .vrf_entries(128)
            .matrix_format(BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    #[test]
    fn table1_cnn_op_counts() {
        // Table I row 3: In 28x28x128, K 128x3x3 -> 231M ops.
        let a = ConvShape {
            h: 28,
            w: 28,
            c_in: 128,
            k: 3,
            c_out: 128,
            stride: 1,
            pad: 1,
        };
        assert_eq!(a.ops(), 231_211_008);
        // Table I row 4: In 56x56x64, K 256x1x1 -> 103M ops.
        let b = ConvShape {
            h: 56,
            w: 56,
            c_in: 64,
            k: 1,
            c_out: 256,
            stride: 1,
            pad: 0,
        };
        assert_eq!(b.ops(), 102_760_448);
    }

    #[test]
    fn conv_matches_reference() {
        let cfg = small_config();
        let shape = ConvShape {
            h: 5,
            w: 5,
            c_in: 2,
            k: 3,
            c_out: 4,
            stride: 1,
            pad: 1,
        };
        let conv = ConvLayer::new(&cfg, shape);
        let kernel: Vec<f32> = (0..shape.weight_count())
            .map(|i| ((i % 9) as f32 - 4.0) / 16.0)
            .collect();
        let input: Vec<f32> = (0..5 * 5 * 2)
            .map(|i| ((i % 7) as f32 - 3.0) / 8.0)
            .collect();
        let mut npu = Npu::new(cfg);
        conv.load_weights(&mut npu, 0, &kernel).unwrap();
        let (got, stats) = conv.run(&mut npu, 0, &input, false).unwrap();
        let want = reference::conv2d(&input, 5, 5, 2, &kernel, 3, 4, 1, 1);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 0.12, "elem {i}: {g} vs {w}");
        }
        assert_eq!(stats.chains, 25);
    }

    #[test]
    fn relu_is_fused() {
        let cfg = small_config();
        let shape = ConvShape {
            h: 2,
            w: 2,
            c_in: 1,
            k: 1,
            c_out: 1,
            stride: 1,
            pad: 0,
        };
        let conv = ConvLayer::new(&cfg, shape);
        let mut npu = Npu::new(cfg);
        conv.load_weights(&mut npu, 0, &[-1.0]).unwrap();
        let (got, _) = conv
            .run(&mut npu, 0, &[1.0, -1.0, 2.0, -2.0], true)
            .unwrap();
        assert_eq!(got, vec![0.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn strided_shapes() {
        let shape = ConvShape {
            h: 224,
            w: 224,
            c_in: 3,
            k: 7,
            c_out: 64,
            stride: 2,
            pad: 3,
        };
        assert_eq!(shape.h_out(), 112);
        assert_eq!(shape.positions(), 112 * 112);
    }

    #[test]
    fn timing_only_conv() {
        let cfg = small_config();
        let shape = ConvShape {
            h: 6,
            w: 6,
            c_in: 4,
            k: 3,
            c_out: 8,
            stride: 1,
            pad: 1,
        };
        let conv = ConvLayer::new(&cfg, shape);
        let mut npu = Npu::with_mode(cfg, bw_core::ExecMode::TimingOnly);
        let stats = conv.run_timing_only(&mut npu, 0).unwrap();
        assert_eq!(stats.chains, 36);
        assert!(stats.cycles > 0);
    }
}
