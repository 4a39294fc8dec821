//! 1-D (text) convolution lowered onto matrix-vector multiplication.
//!
//! The ISA's coverage targets include "1D (text) CNNs" (§IV-C). A 1-D
//! convolution over a `seq_len × embed` token matrix with window `k` and
//! `filters` output channels is, per output position, a dot of the
//! flattened `k·embed` window against each filter row — the same
//! matrix-vector lowering as 2-D convolution with a one-dimensional
//! sliding window.

use bw_core::isa::Program;
use bw_core::{Npu, SimError};

use crate::cnn::MvLayer;

/// Shape of a 1-D convolution layer over a token sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Conv1dShape {
    /// Sequence length (tokens).
    pub seq_len: usize,
    /// Embedding dimension per token.
    pub embed: usize,
    /// Window size in tokens.
    pub k: usize,
    /// Output filters.
    pub filters: usize,
}

impl Conv1dShape {
    /// Output positions (valid convolution, stride 1).
    pub fn positions(&self) -> usize {
        self.seq_len + 1 - self.k
    }

    /// Flattened window length, the matrix-vector input dimension.
    pub fn window_len(&self) -> usize {
        self.k * self.embed
    }

    /// True model FLOPs per evaluation.
    pub fn ops(&self) -> u64 {
        2 * self.positions() as u64 * self.filters as u64 * self.window_len() as u64
    }

    /// Filter parameter count.
    pub fn weight_count(&self) -> usize {
        self.filters * self.window_len()
    }
}

/// A text-CNN layer mapped onto a BW NPU: one chain per window position,
/// with a fused ReLU.
///
/// # Example
///
/// ```
/// use bw_core::{Npu, NpuConfig};
/// use bw_models::{Conv1d, Conv1dShape};
///
/// let cfg = NpuConfig::builder()
///     .native_dim(8).lanes(4).tile_engines(2)
///     .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
///     .build()?;
/// let shape = Conv1dShape { seq_len: 10, embed: 4, k: 3, filters: 6 };
/// let conv = Conv1d::new(&cfg, shape);
/// let mut npu = Npu::new(cfg);
/// conv.load_random_weights(&mut npu, 0, 5)?;
/// let tokens = vec![0.1; 10 * 4];
/// let (features, _) = conv.run(&mut npu, 0, &tokens)?;
/// assert_eq!(features.len(), 8 * 6); // positions x filters
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conv1d {
    shape: Conv1dShape,
    layer: MvLayer,
}

impl Conv1d {
    /// Plans a 1-D convolution for an NPU configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the sequence.
    pub fn new(config: &bw_core::NpuConfig, shape: Conv1dShape) -> Self {
        assert!(shape.k <= shape.seq_len, "window exceeds sequence");
        let layer = MvLayer::new(config, shape.positions(), shape.filters, shape.window_len());
        Conv1d { shape, layer }
    }

    /// The layer shape.
    pub fn shape(&self) -> Conv1dShape {
        self.shape
    }

    /// MRF entries the filter matrix occupies.
    pub fn mrf_entries_required(&self) -> u32 {
        self.layer.mrf_entries_required()
    }

    /// Generates the firmware: one fused `mv_mul`+ReLU chain per position.
    pub fn program(&self, mrf_base: u32) -> Program {
        self.layer.program(mrf_base, true)
    }

    /// Pins the filter matrix (layout `filters × k·embed`, window-major).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or capacity overflow.
    pub fn load_weights(
        &self,
        npu: &mut Npu,
        mrf_base: u32,
        filters: &[f32],
    ) -> Result<(), SimError> {
        self.layer.load_weights(npu, mrf_base, filters)
    }

    /// Pins random filters (deterministic in `seed`).
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
        self.layer.load_random_weights(npu, mrf_base, seed)
    }

    /// Runs the layer over a `seq_len × embed` row-major token matrix,
    /// returning `positions × filters` ReLU'd features.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or execution failure.
    pub fn run(
        &self,
        npu: &mut Npu,
        mrf_base: u32,
        tokens: &[f32],
    ) -> Result<(Vec<f32>, bw_core::RunStats), SimError> {
        let s = self.shape;
        if tokens.len() != s.seq_len * s.embed {
            return Err(SimError::VectorLengthMismatch {
                expected: s.seq_len * s.embed,
                actual: tokens.len(),
            });
        }
        for p in 0..s.positions() {
            let window = &tokens[p * s.embed..(p + s.k) * s.embed];
            npu.push_input_padded(window);
        }
        self.layer.run(npu, mrf_base, true)
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
            .mrf_entries(128)
            .vrf_entries(128)
            .matrix_format(BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_sliding_window_reference() {
        let cfg = small_config();
        let shape = Conv1dShape {
            seq_len: 8,
            embed: 3,
            k: 2,
            filters: 4,
        };
        let conv = Conv1d::new(&cfg, shape);
        let filters: Vec<f32> = (0..shape.weight_count())
            .map(|i| ((i % 9) as f32 - 4.0) / 12.0)
            .collect();
        let tokens: Vec<f32> = (0..8 * 3).map(|i| ((i % 7) as f32 - 3.0) / 6.0).collect();
        let mut npu = Npu::new(cfg);
        conv.load_weights(&mut npu, 0, &filters).unwrap();
        let (got, stats) = conv.run(&mut npu, 0, &tokens).unwrap();
        assert_eq!(stats.chains, 7);

        for p in 0..shape.positions() {
            let window = &tokens[p * 3..(p + 2) * 3];
            for f in 0..4 {
                let row = &filters[f * 6..(f + 1) * 6];
                let want: f32 = row
                    .iter()
                    .zip(window)
                    .map(|(a, b)| a * b)
                    .sum::<f32>()
                    .max(0.0);
                let g = got[p * 4 + f];
                assert!((g - want).abs() < 0.08, "pos {p} filter {f}: {g} vs {want}");
            }
        }
    }

    #[test]
    fn shape_accounting() {
        let shape = Conv1dShape {
            seq_len: 100,
            embed: 128,
            k: 5,
            filters: 256,
        };
        assert_eq!(shape.positions(), 96);
        assert_eq!(shape.window_len(), 640);
        assert_eq!(shape.ops(), 2 * 96 * 256 * 640);
    }

    #[test]
    fn rejects_bad_token_matrix() {
        let cfg = small_config();
        let shape = Conv1dShape {
            seq_len: 4,
            embed: 2,
            k: 2,
            filters: 2,
        };
        let conv = Conv1d::new(&cfg, shape);
        let mut npu = Npu::new(cfg);
        conv.load_random_weights(&mut npu, 0, 1).unwrap();
        assert!(matches!(
            conv.run(&mut npu, 0, &[0.0; 5]).unwrap_err(),
            SimError::VectorLengthMismatch { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "window exceeds sequence")]
    fn window_larger_than_sequence_panics() {
        let cfg = small_config();
        let _ = Conv1d::new(
            &cfg,
            Conv1dShape {
                seq_len: 2,
                embed: 2,
                k: 3,
                filters: 2,
            },
        );
    }
}
