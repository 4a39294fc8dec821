//! Dense multilayer perceptron firmware.

use bw_core::isa::{MemId, Program, ProgramBuilder};
use bw_core::{AnalysisOptions, Npu, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Weights of one dense layer.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseWeights {
    /// Row-major `out × in` weight matrix.
    pub w: Vec<f32>,
    /// Bias, `out` long.
    pub b: Vec<f32>,
}

/// A dense MLP mapped onto a BW NPU: one `mv_mul`+bias+ReLU chain per
/// layer, ping-ponging activations between two `InitialVrf` regions
/// (the final layer skips the ReLU and writes to the network queue).
///
/// # Example
///
/// ```
/// use bw_core::{Npu, NpuConfig};
/// use bw_models::Mlp;
///
/// let cfg = NpuConfig::builder()
///     .native_dim(8).lanes(4).tile_engines(2)
///     .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
///     .build()?;
/// let mlp = Mlp::new(&cfg, &[8, 16, 4]);
/// let mut npu = Npu::new(cfg);
/// mlp.load_random_weights(&mut npu, 7)?;
/// let (y, _) = mlp.run(&mut npu, &[vec![0.5; 8]])?;
/// assert_eq!(y[0].len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mlp {
    dims: Vec<usize>,
    grids: Vec<u32>,
}

impl Mlp {
    /// Plans an MLP whose layer widths are `dims` (at least input and one
    /// output layer).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or any dim is zero.
    pub fn new(config: &bw_core::NpuConfig, dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "an MLP needs an input and an output layer");
        assert!(dims.iter().all(|&d| d > 0), "layer widths must be positive");
        let nd = config.native_dim();
        Mlp {
            dims: dims.to_vec(),
            grids: dims.iter().map(|&d| (d as u32).div_ceil(nd)).collect(),
        }
    }

    /// The layer widths.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dense layers.
    pub fn layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// True model FLOPs per inference (matrix products only).
    pub fn ops(&self) -> u64 {
        self.dims
            .windows(2)
            .map(|w| 2 * w[0] as u64 * w[1] as u64)
            .sum()
    }

    /// MRF entries required for all layers.
    pub fn mrf_entries_required(&self) -> u32 {
        (0..self.layers())
            .map(|l| self.grids[l] * self.grids[l + 1])
            .sum()
    }

    fn mrf_base(&self, layer: usize) -> u32 {
        (0..layer).map(|l| self.grids[l] * self.grids[l + 1]).sum()
    }

    /// Generates the firmware with all MRF indices offset by `mrf_base` —
    /// for co-locating the MLP after another model's weights on the same
    /// device.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn program_at(&self, batch: u32, mrf_base: u32) -> Program {
        self.emit_program(batch, mrf_base)
    }

    /// Activations ping-pong between these two InitialVrf regions; region
    /// size is the widest layer.
    fn ivrf_slot(&self, which: usize) -> u32 {
        let widest = *self.grids.iter().max().expect("non-empty dims");
        which as u32 % 2 * widest
    }

    fn asvrf0_bias(&self, layer: usize) -> u32 {
        (0..layer).map(|l| self.grids[l + 1]).sum()
    }

    /// Generates the firmware for `batch` consecutive inferences.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn program(&self, batch: u32) -> Program {
        self.emit_program(batch, 0)
    }

    fn emit_program(&self, batch: u32, mrf_offset: u32) -> Program {
        assert!(batch > 0, "batch must be positive");
        let mut b = ProgramBuilder::new();
        let ok = "statically valid MLP firmware";
        b.begin_loop(batch).expect(ok);

        // Read the input vector.
        b.set_rows(self.grids[0]);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, self.ivrf_slot(0))
            .end_chain()
            .expect(ok);

        for layer in 0..self.layers() {
            let last = layer + 1 == self.layers();
            b.set_rows(self.grids[layer + 1])
                .set_cols(self.grids[layer]);
            b.v_rd(MemId::InitialVrf, self.ivrf_slot(layer))
                .mv_mul(mrf_offset + self.mrf_base(layer))
                .vv_add(self.asvrf0_bias(layer));
            if !last {
                b.v_relu()
                    .v_wr(MemId::InitialVrf, self.ivrf_slot(layer + 1));
            } else {
                b.v_wr(MemId::NetQ, 0);
            }
            b.end_chain().expect(ok);
        }

        b.end_loop().expect(ok);
        b.build()
    }

    /// The deployment facts the host establishes before running
    /// [`Mlp::program`]`(batch)`: pinned weights and biases for every
    /// layer, one `grids[0]`-vector input per inference, and one
    /// `grids[last]`-vector output per inference. Feed the result to
    /// [`bw_core::analyze_with`] to lint the generated firmware.
    pub fn analysis_options(&self, batch: u32) -> AnalysisOptions {
        self.analysis_options_at(batch, 0)
    }

    /// [`Mlp::analysis_options`] for firmware generated by
    /// [`Mlp::program_at`] with an MRF offset.
    pub fn analysis_options_at(&self, batch: u32, mrf_base: u32) -> AnalysisOptions {
        let last = *self.grids.last().expect("non-empty dims");
        AnalysisOptions::default()
            .preload(MemId::MatrixRf, mrf_base, self.mrf_entries_required())
            .preload(MemId::AddSubVrf(0), 0, self.asvrf0_bias(self.layers()))
            .with_input_vectors(u64::from(self.grids[0]) * u64::from(batch))
            .with_expected_outputs(u64::from(last) * u64::from(batch))
    }

    /// Pins one layer's weights.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or capacity overflow.
    pub fn load_layer(
        &self,
        npu: &mut Npu,
        layer: usize,
        weights: &DenseWeights,
    ) -> Result<(), SimError> {
        self.load_layer_at(npu, layer, weights, 0)
    }

    /// Pins one layer's weights at an MRF offset (see [`Mlp::program_at`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or capacity overflow.
    pub fn load_layer_at(
        &self,
        npu: &mut Npu,
        layer: usize,
        weights: &DenseWeights,
        mrf_base: u32,
    ) -> Result<(), SimError> {
        let (rows, cols) = (self.dims[layer + 1], self.dims[layer]);
        npu.load_tiled_matrix(
            mrf_base + self.mrf_base(layer),
            self.grids[layer + 1],
            self.grids[layer],
            rows,
            cols,
            &weights.w,
        )?;
        npu.load_vector(MemId::AddSubVrf(0), self.asvrf0_bias(layer), &weights.b)?;
        Ok(())
    }

    /// Pins random weights for every layer (deterministic in `seed`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn load_random_weights(&self, npu: &mut Npu, seed: u64) -> Result<(), SimError> {
        let mut rng = StdRng::seed_from_u64(seed);
        for layer in 0..self.layers() {
            let (rows, cols) = (self.dims[layer + 1], self.dims[layer]);
            let scale = 1.0 / (cols as f32).sqrt();
            let w: Vec<f32> = (0..rows * cols)
                .map(|_| rng.gen_range(-scale..scale))
                .collect();
            let b: Vec<f32> = (0..rows).map(|_| rng.gen_range(-0.1..0.1)).collect();
            self.load_layer(npu, layer, &DenseWeights { w, b })?;
        }
        Ok(())
    }

    /// Runs the MLP on a batch of inputs (sequentially, as BW serves
    /// requests), returning the outputs and run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or execution failure.
    pub fn run(
        &self,
        npu: &mut Npu,
        inputs: &[Vec<f32>],
    ) -> Result<(Vec<Vec<f32>>, bw_core::RunStats), SimError> {
        self.run_at(npu, inputs, 0)
    }

    /// Like [`Mlp::run`], with the weights pinned at an MRF offset (see
    /// [`Mlp::program_at`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or execution failure.
    pub fn run_at(
        &self,
        npu: &mut Npu,
        inputs: &[Vec<f32>],
        mrf_base: u32,
    ) -> Result<(Vec<Vec<f32>>, bw_core::RunStats), SimError> {
        let in_dim = self.dims[0];
        let out_dim = *self.dims.last().expect("non-empty dims");
        for x in inputs {
            if x.len() != in_dim {
                return Err(SimError::VectorLengthMismatch {
                    expected: in_dim,
                    actual: x.len(),
                });
            }
            npu.push_input_padded(x);
        }
        let stats = npu.run(&self.emit_program(inputs.len() as u32, mrf_base))?;
        let out_grid = *self.grids.last().expect("non-empty grids") as usize;
        let mut outputs = Vec::with_capacity(inputs.len());
        for _ in 0..inputs.len() {
            outputs.push(npu.pop_output_concat(out_grid, out_dim).ok_or(
                SimError::NetQueueEmpty {
                    requested: out_grid as u32,
                    available: 0,
                },
            )?);
        }
        Ok((outputs, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
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
    fn generated_firmware_lints_clean() {
        let cfg = small_config();
        let mlp = Mlp::new(&cfg, &[10, 20, 5]);
        for batch in [1, 4] {
            let report =
                bw_core::analyze_with(&mlp.program(batch), &cfg, mlp.analysis_options(batch));
            assert!(report.is_clean(), "batch {batch}: {report}");
        }
        // Offset firmware carries its preloads at the same offset.
        let report =
            bw_core::analyze_with(&mlp.program_at(2, 32), &cfg, mlp.analysis_options_at(2, 32));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn ops_and_layout() {
        let cfg = small_config();
        let mlp = Mlp::new(&cfg, &[10, 20, 5]);
        assert_eq!(mlp.layers(), 2);
        assert_eq!(mlp.ops(), 2 * (10 * 20 + 20 * 5));
        // grids: ceil(10/8)=2, ceil(20/8)=3, ceil(5/8)=1.
        assert_eq!(mlp.mrf_entries_required(), 2 * 3 + 3);
    }

    #[test]
    fn matches_dense_reference() {
        let cfg = small_config();
        let mlp = Mlp::new(&cfg, &[8, 12, 4]);
        let w1 = DenseWeights {
            w: (0..12 * 8).map(|i| ((i % 7) as f32 - 3.0) / 10.0).collect(),
            b: (0..12).map(|i| i as f32 / 20.0).collect(),
        };
        let w2 = DenseWeights {
            w: (0..4 * 12).map(|i| ((i % 5) as f32 - 2.0) / 8.0).collect(),
            b: vec![0.25; 4],
        };
        let mut npu = Npu::new(cfg);
        mlp.load_layer(&mut npu, 0, &w1).unwrap();
        mlp.load_layer(&mut npu, 1, &w2).unwrap();

        let x: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) / 8.0).collect();
        let (y, _) = mlp.run(&mut npu, std::slice::from_ref(&x)).unwrap();
        let hidden = reference::dense(&w1.w, &w1.b, 12, 8, &x, true);
        let want = reference::dense(&w2.w, &w2.b, 4, 12, &hidden, false);
        for (got, want) in y[0].iter().zip(&want) {
            assert!((got - want).abs() < 0.1, "{got} vs {want}");
        }
    }

    #[test]
    fn batch_runs_produce_one_output_per_input() {
        let cfg = small_config();
        let mlp = Mlp::new(&cfg, &[8, 8]);
        let mut npu = Npu::new(cfg);
        mlp.load_random_weights(&mut npu, 5).unwrap();
        let inputs = vec![vec![0.1; 8], vec![0.2; 8], vec![0.3; 8]];
        let (y, stats) = mlp.run(&mut npu, &inputs).unwrap();
        assert_eq!(y.len(), 3);
        assert_eq!(stats.chains, 3 * 2); // read + 1 layer per input
    }

    #[test]
    #[should_panic(expected = "input and an output")]
    fn rejects_single_layer() {
        let cfg = small_config();
        let _ = Mlp::new(&cfg, &[8]);
    }
}
