//! GRU firmware in the cuDNN formulation DeepBench benchmarks.

use bw_core::isa::{MemId, Program, ProgramBuilder};
use bw_core::{AnalysisOptions, Npu, SimError};

use crate::rnn::{GruWeights, RnnDims};

/// A GRU model mapped onto a BW NPU.
///
/// Uses the cuDNN gate formulation (reset gate applied to the *recurrent
/// projection*, `ñ = tanh(Wn·x + r ∘ (Un·h + bn))`), which is what
/// DeepBench measures and — crucially for a dataflow machine — lets all
/// three recurrent matrix products start as soon as `h` is available
/// instead of serializing behind the reset gate.
///
/// Per step the firmware emits: one network read, three `x·W` precompute
/// chains, the `r` and `z` gate chains, the candidate chain, and one state
/// update chain computing `h' = ñ + z ∘ (h − ñ)` (algebraically equal to
/// `(1−z)∘ñ + z∘h`).
///
/// # Example
///
/// ```
/// use bw_core::{Npu, NpuConfig};
/// use bw_models::{Gru, GruWeights, RnnDims};
///
/// let cfg = NpuConfig::builder()
///     .native_dim(8).lanes(4).tile_engines(2)
///     .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
///     .build()?;
/// let dims = RnnDims::square(8);
/// let gru = Gru::new(&cfg, dims);
/// let mut npu = Npu::new(cfg);
/// gru.load_weights(&mut npu, &GruWeights::random(dims, 1))?;
/// let (outputs, _) = gru.run(&mut npu, &[vec![0.2; 8]])?;
/// assert_eq!(outputs[0].len(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gru {
    dims: RnnDims,
    native_dim: u32,
    grid_h: u32,
    grid_x: u32,
}

/// Gate order: reset, update, candidate.
const GATES: usize = 3;

impl Gru {
    /// Plans a GRU of the given dimensions for an NPU configuration.
    pub fn new(config: &bw_core::NpuConfig, dims: RnnDims) -> Self {
        let nd = config.native_dim();
        Gru {
            dims,
            native_dim: nd,
            grid_h: (dims.hidden as u32).div_ceil(nd),
            grid_x: (dims.input as u32).div_ceil(nd),
        }
    }

    /// The model dimensions.
    pub fn dims(&self) -> RnnDims {
        self.dims
    }

    /// Native tile rows of the hidden dimension.
    pub fn grid_h(&self) -> u32 {
        self.grid_h
    }

    /// Native tile columns of the input dimension.
    pub fn grid_x(&self) -> u32 {
        self.grid_x
    }

    /// MRF entries required: `3·(grid_h·grid_x) + 3·(grid_h·grid_h)`.
    pub fn mrf_entries_required(&self) -> u32 {
        3 * self.grid_h * self.grid_x + 3 * self.grid_h * self.grid_h
    }

    /// True model FLOPs per time step (six matrix products at 2 FLOPs per
    /// MAC; Table I quotes 94M for a 2800-dim GRU).
    pub fn ops_per_step(&self) -> u64 {
        let h = self.dims.hidden as u64;
        let d = self.dims.input as u64;
        2 * 3 * (h * d + h * h)
    }

    /// True model FLOPs over `steps` time steps.
    pub fn ops(&self, steps: u32) -> u64 {
        self.ops_per_step() * u64::from(steps)
    }

    // --- MRF layout -------------------------------------------------------

    fn mrf_w(&self, gate: usize) -> u32 {
        gate as u32 * self.grid_h * self.grid_x
    }

    fn mrf_u(&self, gate: usize) -> u32 {
        3 * self.grid_h * self.grid_x + gate as u32 * self.grid_h * self.grid_h
    }

    // --- VRF layout --------------------------------------------------------
    //
    // Each batch instance `b` gets its own per-sequence slots; weights and
    // biases are shared. Instance 0 is the single-request layout.

    fn ivrf_stride(&self) -> u32 {
        self.grid_x + self.grid_h
    }
    fn ivrf_xt_b(&self, b: u32) -> u32 {
        b * self.ivrf_stride()
    }
    fn ivrf_h_prev_b(&self, b: u32) -> u32 {
        b * self.ivrf_stride() + self.grid_x
    }
    fn asvrf0_bias(&self, gate: usize) -> u32 {
        gate as u32 * self.grid_h
    }
    fn asvrf0_xwr_b(&self, b: u32) -> u32 {
        (3 + 3 * b) * self.grid_h
    }
    fn asvrf0_xwz_b(&self, b: u32) -> u32 {
        (4 + 3 * b) * self.grid_h
    }
    fn asvrf0_nt_b(&self, b: u32) -> u32 {
        (5 + 3 * b) * self.grid_h
    }
    fn asvrf1_xwn_b(&self, b: u32) -> u32 {
        2 * b * self.grid_h
    }
    fn asvrf1_nt_b(&self, b: u32) -> u32 {
        (2 * b + 1) * self.grid_h
    }
    fn mulvrf0_rt_b(&self, b: u32) -> u32 {
        2 * b * self.grid_h
    }
    fn mulvrf0_zt_b(&self, b: u32) -> u32 {
        (2 * b + 1) * self.grid_h
    }

    fn ivrf_h_prev(&self) -> u32 {
        self.ivrf_h_prev_b(0)
    }

    /// Generates the firmware for `steps` time steps (batch size 1).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn program(&self, steps: u32) -> Program {
        self.program_batched(steps, 1)
    }

    /// Generates batch-interleaved firmware (the §VII-B3 future-work
    /// optimization; see [`Lstm::program_batched`](crate::Lstm::program_batched)):
    /// `batch` independent sequences advance together each time step, so
    /// one sequence's recurrent latency hides behind the others' matrix
    /// products. Inputs interleave per step on the network queue, outputs
    /// emit in batch order within each step.
    ///
    /// # Panics
    ///
    /// Panics if `steps` or `batch` is zero.
    pub fn program_batched(&self, steps: u32, batch: u32) -> Program {
        assert!(steps > 0, "steps must be positive");
        assert!(batch > 0, "batch must be positive");
        let mut b = ProgramBuilder::new();
        let ok = "statically valid GRU firmware";

        b.begin_loop(steps).expect(ok);
        for bi in 0..batch {
            // Read x_t[bi].
            b.set_rows(self.grid_x);
            b.v_rd(MemId::NetQ, 0)
                .v_wr(MemId::InitialVrf, self.ivrf_xt_b(bi))
                .end_chain()
                .expect(ok);

            b.set_rows(self.grid_h).set_cols(self.grid_x);
            // xWr = x·Wr + br; xWz = x·Wz + bz.
            b.v_rd(MemId::InitialVrf, self.ivrf_xt_b(bi))
                .mv_mul(self.mrf_w(0))
                .vv_add(self.asvrf0_bias(0))
                .v_wr(MemId::AddSubVrf(0), self.asvrf0_xwr_b(bi))
                .end_chain()
                .expect(ok);
            b.v_rd(MemId::InitialVrf, self.ivrf_xt_b(bi))
                .mv_mul(self.mrf_w(1))
                .vv_add(self.asvrf0_bias(1))
                .v_wr(MemId::AddSubVrf(0), self.asvrf0_xwz_b(bi))
                .end_chain()
                .expect(ok);
            // xWn = x·Wn (candidate bias rides the recurrent side).
            b.v_rd(MemId::InitialVrf, self.ivrf_xt_b(bi))
                .mv_mul(self.mrf_w(2))
                .v_wr(MemId::AddSubVrf(1), self.asvrf1_xwn_b(bi))
                .end_chain()
                .expect(ok);

            b.set_cols(self.grid_h);
            // r = σ(Ur·h + xWr).
            b.v_rd(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .mv_mul(self.mrf_u(0))
                .vv_add(self.asvrf0_xwr_b(bi))
                .v_sigm()
                .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_rt_b(bi))
                .end_chain()
                .expect(ok);
            // z = σ(Uz·h + xWz).
            b.v_rd(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .mv_mul(self.mrf_u(1))
                .vv_add(self.asvrf0_xwz_b(bi))
                .v_sigm()
                .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_zt_b(bi))
                .end_chain()
                .expect(ok);
            // ñ = tanh((Un·h + bn) ∘ r + xWn), multicast for the update
            // chain.
            b.v_rd(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .mv_mul(self.mrf_u(2))
                .vv_add(self.asvrf0_bias(2))
                .vv_mul(self.mulvrf0_rt_b(bi))
                .vv_add(self.asvrf1_xwn_b(bi))
                .v_tanh()
                .v_wr(MemId::AddSubVrf(0), self.asvrf0_nt_b(bi))
                .v_wr(MemId::AddSubVrf(1), self.asvrf1_nt_b(bi))
                .end_chain()
                .expect(ok);
            // h' = ñ + z ∘ (h − ñ).
            b.v_rd(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .vv_a_sub_b(self.asvrf0_nt_b(bi))
                .vv_mul(self.mulvrf0_zt_b(bi))
                .vv_add(self.asvrf1_nt_b(bi))
                .v_wr(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .v_wr(MemId::NetQ, 0)
                .end_chain()
                .expect(ok);
        }
        b.end_loop().expect(ok);
        b.build()
    }

    /// Pins weights and biases — the host runtime's deployment step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on MRF/VRF capacity overflow.
    pub fn load_weights(&self, npu: &mut Npu, weights: &GruWeights) -> Result<(), SimError> {
        let (h, d) = (self.dims.hidden, self.dims.input);
        for g in 0..GATES {
            npu.load_tiled_matrix(
                self.mrf_w(g),
                self.grid_h,
                self.grid_x,
                h,
                d,
                &weights.w_x[g],
            )?;
            npu.load_tiled_matrix(
                self.mrf_u(g),
                self.grid_h,
                self.grid_h,
                h,
                h,
                &weights.w_h[g],
            )?;
            npu.load_vector(MemId::AddSubVrf(0), self.asvrf0_bias(g), &weights.bias[g])?;
        }
        Ok(())
    }

    /// Reserves the MRF footprint for timing-only sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on MRF capacity overflow.
    pub fn prepare_timing_only(&self, npu: &mut Npu) -> Result<(), SimError> {
        for g in 0..GATES {
            npu.reserve_matrix_grid(self.mrf_w(g), self.grid_h, self.grid_x)?;
            npu.reserve_matrix_grid(self.mrf_u(g), self.grid_h, self.grid_h)?;
        }
        Ok(())
    }

    /// The deployment facts the host establishes before running
    /// [`Gru::program`]`(steps)`: pinned weights and biases
    /// ([`Gru::load_weights`]), zeroed recurrent state
    /// ([`Gru::reset_state`]), `grid_x` input vectors per step, and
    /// `grid_h` emitted hidden vectors per step. Feed the result to
    /// [`bw_core::analyze_with`] to lint the generated firmware.
    pub fn analysis_options(&self, steps: u32) -> AnalysisOptions {
        self.analysis_options_batched(steps, 1)
    }

    /// [`Gru::analysis_options`] for the batch-interleaved firmware,
    /// assuming the host resets every sequence's recurrent state.
    pub fn analysis_options_batched(&self, steps: u32, batch: u32) -> AnalysisOptions {
        let mut opts = AnalysisOptions::default()
            .preload(MemId::MatrixRf, 0, self.mrf_entries_required())
            .preload(MemId::AddSubVrf(0), 0, GATES as u32 * self.grid_h)
            .with_input_vectors(u64::from(self.grid_x) * u64::from(steps) * u64::from(batch))
            .with_expected_outputs(u64::from(self.grid_h) * u64::from(steps) * u64::from(batch));
        for b in 0..batch {
            opts = opts.preload(MemId::InitialVrf, self.ivrf_h_prev_b(b), self.grid_h);
        }
        opts
    }

    /// Clears the recurrent state to zero.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on VRF capacity overflow.
    pub fn reset_state(&self, npu: &mut Npu) -> Result<(), SimError> {
        let zeros = vec![0.0f32; self.dims.hidden];
        npu.load_vector(MemId::InitialVrf, self.ivrf_h_prev(), &zeros)?;
        Ok(())
    }

    /// Runs the GRU over `inputs`, returning per-step hidden states and run
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or execution failure.
    pub fn run(
        &self,
        npu: &mut Npu,
        inputs: &[Vec<f32>],
    ) -> Result<(Vec<Vec<f32>>, bw_core::RunStats), SimError> {
        for x in inputs {
            if x.len() != self.dims.input {
                return Err(SimError::VectorLengthMismatch {
                    expected: self.dims.input,
                    actual: x.len(),
                });
            }
            npu.push_input_padded(x);
        }
        let stats = npu.run(&self.program(inputs.len() as u32))?;
        let mut outputs = Vec::with_capacity(inputs.len());
        for _ in 0..inputs.len() {
            let h = npu
                .pop_output_concat(self.grid_h as usize, self.dims.hidden)
                .ok_or(SimError::NetQueueEmpty {
                    requested: self.grid_h,
                    available: 0,
                })?;
            outputs.push(h);
        }
        Ok((outputs, stats))
    }

    /// Timing-only evaluation over `steps` time steps (see
    /// [`Lstm::run_timing_only`](crate::Lstm::run_timing_only)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn run_timing_only(
        &self,
        npu: &mut Npu,
        steps: u32,
    ) -> Result<bw_core::RunStats, SimError> {
        self.prepare_timing_only(npu)?;
        npu.push_input_zeros(self.grid_x as usize * steps as usize);
        npu.run(&self.program(steps))
    }

    /// Timing-only evaluation of the batch-interleaved firmware (see
    /// [`Gru::program_batched`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn run_timing_only_batched(
        &self,
        npu: &mut Npu,
        steps: u32,
        batch: u32,
    ) -> Result<bw_core::RunStats, SimError> {
        self.prepare_timing_only(npu)?;
        npu.push_input_zeros(self.grid_x as usize * steps as usize * batch as usize);
        npu.run(&self.program_batched(steps, batch))
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
            .mfus(2)
            .mrf_entries(128)
            .vrf_entries(128)
            .matrix_format(BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    #[test]
    fn generated_firmware_lints_clean() {
        let cfg = small_config();
        for dims in [
            RnnDims::square(16),
            RnnDims {
                hidden: 16,
                input: 8,
            },
        ] {
            let gru = Gru::new(&cfg, dims);
            let steps = 5;
            let report =
                bw_core::analyze_with(&gru.program(steps), &cfg, gru.analysis_options(steps));
            assert!(report.is_clean(), "{dims:?}: {report}");
        }
        let gru = Gru::new(&cfg, RnnDims::square(8));
        let (steps, batch) = (4, 3);
        let report = bw_core::analyze_with(
            &gru.program_batched(steps, batch),
            &cfg,
            gru.analysis_options_batched(steps, batch),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn chain_structure() {
        let cfg = small_config();
        let gru = Gru::new(&cfg, RnnDims::square(16));
        // 8 chains per step.
        assert_eq!(gru.program(5).chain_count(), 40);
        assert_eq!(gru.mrf_entries_required(), 6 * 4);
    }

    #[test]
    fn matches_f32_reference_within_quantization_noise() {
        let cfg = small_config();
        let dims = RnnDims::square(8);
        let gru = Gru::new(&cfg, dims);
        let weights = GruWeights::random(dims, 11);
        let mut npu = Npu::new(cfg);
        gru.load_weights(&mut npu, &weights).unwrap();

        let steps = 4;
        let inputs: Vec<Vec<f32>> = (0..steps)
            .map(|t| {
                (0..8)
                    .map(|i| ((t * 5 + i) as f32 * 0.37).cos() * 0.4)
                    .collect()
            })
            .collect();
        let (outputs, _) = gru.run(&mut npu, &inputs).unwrap();

        let mut h = vec![0.0f32; 8];
        for (t, x) in inputs.iter().enumerate() {
            h = reference::gru_cell(&weights.w_x, &weights.w_h, &weights.bias, 8, 8, x, &h);
            for (j, (got, want)) in outputs[t].iter().zip(&h).enumerate() {
                assert!(
                    (got - want).abs() < 0.08,
                    "step {t} elem {j}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn ops_match_table1_gru() {
        // GRU 2800x2800: 94M ops per step.
        let cfg = bw_core::NpuConfig::bw_s10();
        let gru = Gru::new(&cfg, RnnDims::square(2800));
        assert_eq!(gru.ops_per_step(), 94_080_000);
    }

    #[test]
    fn timing_only_large_gru_runs_fast() {
        // The paper's largest GRU (h=2816): an 8x8 tile grid on BW_S10.
        let cfg = NpuConfig::builder()
            .native_dim(400)
            .lanes(40)
            .tile_engines(6)
            .mrf_entries(1024)
            .clock_mhz(250.0)
            .build()
            .unwrap();
        let gru = Gru::new(&cfg, RnnDims::square(2816));
        assert_eq!(gru.grid_h(), 8);
        let mut npu = Npu::with_mode(cfg, bw_core::ExecMode::TimingOnly);
        let stats = gru.run_timing_only(&mut npu, 10).unwrap();
        // 6 matmuls x 64 tiles x 160k MACs per step.
        assert_eq!(stats.mvm_macs, 10 * 6 * 64 * 160_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn batched_firmware_matches_independent_sequences() {
        let cfg = small_config();
        let dims = RnnDims::square(8);
        let gru = Gru::new(&cfg, dims);
        let weights = GruWeights::random(dims, 31);
        let (steps, batch) = (3usize, 2usize);
        let seqs: Vec<Vec<Vec<f32>>> = (0..batch)
            .map(|b| {
                (0..steps)
                    .map(|t| {
                        (0..8)
                            .map(|i| ((b * 77 + t * 8 + i) as f32 * 0.33).cos() * 0.4)
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let mut npu = Npu::new(cfg.clone());
        gru.load_weights(&mut npu, &weights).unwrap();
        for t in 0..steps {
            for seq in &seqs {
                npu.push_input_padded(&seq[t]);
            }
        }
        npu.run(&gru.program_batched(steps as u32, batch as u32))
            .unwrap();
        let mut interleaved = vec![Vec::new(); batch];
        for _ in 0..steps {
            for seq_outputs in interleaved.iter_mut().take(batch) {
                seq_outputs.push(
                    npu.pop_output_concat(gru.grid_h() as usize, 8)
                        .expect("one output per sequence per step"),
                );
            }
        }
        for (b, seq) in seqs.iter().enumerate() {
            let mut solo = Npu::new(cfg.clone());
            gru.load_weights(&mut solo, &weights).unwrap();
            let (outputs, _) = gru.run(&mut solo, seq).unwrap();
            for t in 0..steps {
                assert_eq!(interleaved[b][t], outputs[t], "sequence {b} step {t}");
            }
        }
    }

    #[test]
    fn interleaving_raises_small_model_utilization() {
        let cfg = NpuConfig::builder()
            .native_dim(400)
            .lanes(40)
            .tile_engines(6)
            .mrf_entries(64)
            .vrf_entries(4096)
            .clock_mhz(250.0)
            .build()
            .unwrap();
        let gru = Gru::new(&cfg, RnnDims::square(512));
        let util = |batch: u32| {
            let mut npu = Npu::with_mode(cfg.clone(), bw_core::ExecMode::TimingOnly);
            let stats = gru.run_timing_only_batched(&mut npu, 25, batch).unwrap();
            stats.effective_utilization(gru.ops(25) * u64::from(batch))
        };
        let (u1, u4) = (util(1), util(4));
        assert!(u4 > 2.0 * u1, "{u1:.4} -> {u4:.4}");
    }

    #[test]
    fn update_gate_identity_preserves_state_shape() {
        // With zero weights, h' = (1-σ(0))·tanh(0) + σ(0)·h = 0.5·h.
        let cfg = small_config();
        let dims = RnnDims::square(8);
        let gru = Gru::new(&cfg, dims);
        let mut npu = Npu::new(cfg);
        gru.load_weights(&mut npu, &GruWeights::zeros(dims))
            .unwrap();
        npu.load_vector(MemId::InitialVrf, gru.ivrf_h_prev(), &[0.8; 8])
            .unwrap();
        let (outputs, _) = gru.run(&mut npu, &[vec![0.0; 8]]).unwrap();
        for v in &outputs[0] {
            assert!((v - 0.4).abs() < 0.02, "{v}");
        }
    }
}
