//! LSTM firmware: the production kernel of the paper's §IV-C listing,
//! generated for any dimension and NPU configuration.

use bw_core::isa::{MemId, Program, ProgramBuilder};
use bw_core::{AnalysisOptions, Npu, SimError};

use crate::rnn::{LstmWeights, RnnDims};

/// An LSTM model mapped onto a BW NPU: register file layout, MRF layout,
/// and the per-timestep instruction chains.
///
/// The generated firmware is the paper's kernel: per step, one network-read
/// chain, four `x·W + b` precompute chains, three gate chains, a cell-update
/// chain, and an output chain that multicasts `h_t` to the recurrent slot
/// and the network queue.
///
/// # Example
///
/// ```
/// use bw_core::{Npu, NpuConfig};
/// use bw_models::{Lstm, LstmWeights, RnnDims};
///
/// let cfg = NpuConfig::builder()
///     .native_dim(8).lanes(4).tile_engines(2)
///     .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
///     .build()?;
/// let dims = RnnDims::square(8);
/// let lstm = Lstm::new(&cfg, dims);
/// let mut npu = Npu::new(cfg);
/// lstm.load_weights(&mut npu, &LstmWeights::random(dims, 42))?;
/// let inputs = vec![vec![0.1; 8]; 3];
/// let (outputs, stats) = lstm.run(&mut npu, &inputs)?;
/// assert_eq!(outputs.len(), 3);
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lstm {
    dims: RnnDims,
    native_dim: u32,
    /// Native tiles per hidden dimension: `ceil(hidden / N)`.
    grid_h: u32,
    /// Native tiles per input dimension: `ceil(input / N)`.
    grid_x: u32,
}

/// Gate order used throughout: forget, input, output, candidate.
const GATES: usize = 4;

impl Lstm {
    /// Plans an LSTM of the given dimensions for an NPU configuration.
    pub fn new(config: &bw_core::NpuConfig, dims: RnnDims) -> Self {
        let nd = config.native_dim();
        Lstm {
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

    /// MRF entries the pinned weights require:
    /// `4·(grid_h·grid_x) + 4·(grid_h·grid_h)`.
    pub fn mrf_entries_required(&self) -> u32 {
        4 * self.grid_h * self.grid_x + 4 * self.grid_h * self.grid_h
    }

    /// True model FLOPs per time step, counting the eight matrix products
    /// at 2 FLOPs per MAC — the paper's accounting (Table I: 64M for
    /// a 2000-dim LSTM).
    pub fn ops_per_step(&self) -> u64 {
        let h = self.dims.hidden as u64;
        let d = self.dims.input as u64;
        2 * 4 * (h * d + h * h)
    }

    /// True model FLOPs for `steps` time steps.
    pub fn ops(&self, steps: u32) -> u64 {
        self.ops_per_step() * u64::from(steps)
    }

    // --- MRF layout -----------------------------------------------------

    fn mrf_w(&self, gate: usize) -> u32 {
        gate as u32 * self.grid_h * self.grid_x
    }

    fn mrf_u(&self, gate: usize) -> u32 {
        4 * self.grid_h * self.grid_x + gate as u32 * self.grid_h * self.grid_h
    }

    // --- VRF layout (in native-vector entries) ---------------------------
    //
    // Each batch instance `b` gets its own copy of every per-sequence slot
    // (weights and biases are shared); instance 0 is the layout the
    // single-request firmware uses.

    fn ivrf_stride(&self) -> u32 {
        self.grid_x + 2 * self.grid_h
    }
    fn ivrf_xt_b(&self, b: u32) -> u32 {
        b * self.ivrf_stride()
    }
    fn ivrf_ct_b(&self, b: u32) -> u32 {
        b * self.ivrf_stride() + self.grid_x
    }
    fn ivrf_h_prev_b(&self, b: u32) -> u32 {
        b * self.ivrf_stride() + self.grid_x + self.grid_h
    }
    fn asvrf0_bias(&self, gate: usize) -> u32 {
        gate as u32 * self.grid_h
    }
    fn asvrf0_xw_b(&self, gate: usize, b: u32) -> u32 {
        (GATES as u32 + b * GATES as u32 + gate as u32) * self.grid_h
    }
    fn asvrf1_ft_mod_b(&self, b: u32) -> u32 {
        b * self.grid_h
    }
    fn mulvrf0_c_prev_b(&self, b: u32) -> u32 {
        3 * b * self.grid_h
    }
    fn mulvrf0_it_b(&self, b: u32) -> u32 {
        (3 * b + 1) * self.grid_h
    }
    fn mulvrf0_ot_b(&self, b: u32) -> u32 {
        (3 * b + 2) * self.grid_h
    }

    fn ivrf_ct(&self) -> u32 {
        self.ivrf_ct_b(0)
    }
    fn ivrf_h_prev(&self) -> u32 {
        self.ivrf_h_prev_b(0)
    }

    /// Generates the firmware for `steps` time steps (batch size 1).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero (an LSTM evaluation must advance time).
    pub fn program(&self, steps: u32) -> Program {
        self.program_batched(steps, 1)
    }

    /// Generates batch-interleaved firmware: `batch` independent sequences
    /// advance together, with each time step emitting every sequence's
    /// chains before the next step.
    ///
    /// This implements the optimization the paper leaves as future work
    /// (§VII-B3): "interleaving the computation for each RNN timestep among
    /// all input batches to further space out dependencies. This would be
    /// particularly effective at increasing utilization for small LSTM/GRU
    /// layers, which are not always able to fill the deep BW pipeline."
    /// Sequence `b`'s recurrent chains wait on its own `h`, but the other
    /// sequences' matrix products fill the MVM in the meantime.
    ///
    /// Inputs interleave per step on the network queue
    /// (`x[t=0][b=0], x[t=0][b=1], …`), and each step emits every
    /// sequence's hidden state in batch order.
    ///
    /// # Panics
    ///
    /// Panics if `steps` or `batch` is zero.
    pub fn program_batched(&self, steps: u32, batch: u32) -> Program {
        assert!(steps > 0, "steps must be positive");
        assert!(batch > 0, "batch must be positive");
        let mut b = ProgramBuilder::new();
        let ok = "statically valid LSTM firmware";

        b.begin_loop(steps).expect(ok);
        for bi in 0..batch {
            // Read x_t[bi] from the network into the initial VRF.
            b.set_rows(self.grid_x);
            b.v_rd(MemId::NetQ, 0)
                .v_wr(MemId::InitialVrf, self.ivrf_xt_b(bi))
                .end_chain()
                .expect(ok);

            // xW_g = x_t · W_g + b_g for each gate.
            b.set_rows(self.grid_h).set_cols(self.grid_x);
            for g in 0..GATES {
                b.v_rd(MemId::InitialVrf, self.ivrf_xt_b(bi))
                    .mv_mul(self.mrf_w(g))
                    .vv_add(self.asvrf0_bias(g))
                    .v_wr(MemId::AddSubVrf(0), self.asvrf0_xw_b(g, bi))
                    .end_chain()
                    .expect(ok);
            }

            b.set_cols(self.grid_h);
            // f gate, fused with c_prev: ft_mod = σ(U_f·h + xW_f) ∘ c_prev.
            b.v_rd(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .mv_mul(self.mrf_u(0))
                .vv_add(self.asvrf0_xw_b(0, bi))
                .v_sigm()
                .vv_mul(self.mulvrf0_c_prev_b(bi))
                .v_wr(MemId::AddSubVrf(1), self.asvrf1_ft_mod_b(bi))
                .end_chain()
                .expect(ok);
            // i gate: it = σ(U_i·h + xW_i).
            b.v_rd(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .mv_mul(self.mrf_u(1))
                .vv_add(self.asvrf0_xw_b(1, bi))
                .v_sigm()
                .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_it_b(bi))
                .end_chain()
                .expect(ok);
            // o gate: ot = σ(U_o·h + xW_o).
            b.v_rd(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .mv_mul(self.mrf_u(2))
                .vv_add(self.asvrf0_xw_b(2, bi))
                .v_sigm()
                .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_ot_b(bi))
                .end_chain()
                .expect(ok);
            // c update: c_t = tanh(U_c·h + xW_c) ∘ it + ft_mod, multicast
            // to the recurrent c_prev slot and the h-chain input.
            b.v_rd(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .mv_mul(self.mrf_u(3))
                .vv_add(self.asvrf0_xw_b(3, bi))
                .v_tanh()
                .vv_mul(self.mulvrf0_it_b(bi))
                .vv_add(self.asvrf1_ft_mod_b(bi))
                .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_c_prev_b(bi))
                .v_wr(MemId::InitialVrf, self.ivrf_ct_b(bi))
                .end_chain()
                .expect(ok);
            // h_t = tanh(c_t) ∘ ot, multicast to the recurrent slot and
            // the network output queue.
            b.v_rd(MemId::InitialVrf, self.ivrf_ct_b(bi))
                .v_tanh()
                .vv_mul(self.mulvrf0_ot_b(bi))
                .v_wr(MemId::InitialVrf, self.ivrf_h_prev_b(bi))
                .v_wr(MemId::NetQ, 0)
                .end_chain()
                .expect(ok);
        }
        b.end_loop().expect(ok);
        b.build()
    }

    /// The deployment facts the host establishes before running
    /// [`Lstm::program`]`(steps)`: pinned weights and biases
    /// ([`Lstm::load_weights`]), zeroed recurrent state
    /// ([`Lstm::reset_state`]), `grid_x` input vectors per step, and
    /// `grid_h` emitted hidden vectors per step. Feed the result to
    /// [`bw_core::analyze_with`] to lint the generated firmware.
    pub fn analysis_options(&self, steps: u32) -> AnalysisOptions {
        self.analysis_options_batched(steps, 1)
    }

    /// [`Lstm::analysis_options`] for the batch-interleaved firmware,
    /// assuming the host resets every sequence's recurrent state.
    pub fn analysis_options_batched(&self, steps: u32, batch: u32) -> AnalysisOptions {
        let mut opts = AnalysisOptions::default()
            .preload(MemId::MatrixRf, 0, self.mrf_entries_required())
            .preload(MemId::AddSubVrf(0), 0, GATES as u32 * self.grid_h)
            .with_input_vectors(u64::from(self.grid_x) * u64::from(steps) * u64::from(batch))
            .with_expected_outputs(u64::from(self.grid_h) * u64::from(steps) * u64::from(batch));
        for b in 0..batch {
            // `c_t` and `h_prev` are contiguous in the instance's IVRF slice.
            opts = opts
                .preload(MemId::InitialVrf, self.ivrf_ct_b(b), 2 * self.grid_h)
                .preload(MemId::MultiplyVrf(0), self.mulvrf0_c_prev_b(b), self.grid_h);
        }
        opts
    }

    /// Pins weights into the NPU's MRF and stages biases in the MFU
    /// register files — the host runtime's model deployment step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the weights exceed MRF/VRF capacity.
    pub fn load_weights(&self, npu: &mut Npu, weights: &LstmWeights) -> Result<(), SimError> {
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

    /// Reserves the MRF footprint without quantizing real weights — pair
    /// with [`bw_core::ExecMode::TimingOnly`] for large sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the footprint exceeds MRF capacity.
    pub fn prepare_timing_only(&self, npu: &mut Npu) -> Result<(), SimError> {
        for g in 0..GATES {
            npu.reserve_matrix_grid(self.mrf_w(g), self.grid_h, self.grid_x)?;
            npu.reserve_matrix_grid(self.mrf_u(g), self.grid_h, self.grid_h)?;
        }
        Ok(())
    }

    /// Clears the recurrent state (`h`, `c`) to zero.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on VRF capacity overflow.
    pub fn reset_state(&self, npu: &mut Npu) -> Result<(), SimError> {
        let zeros = vec![0.0f32; self.dims.hidden];
        npu.load_vector(MemId::InitialVrf, self.ivrf_h_prev(), &zeros)?;
        npu.load_vector(MemId::InitialVrf, self.ivrf_ct(), &zeros)?;
        npu.load_vector(MemId::MultiplyVrf(0), self.mulvrf0_c_prev_b(0), &zeros)?;
        Ok(())
    }

    /// Enqueues one time step's input vector (padded to native vectors).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VectorLengthMismatch`] if `x` is not the input
    /// dimension.
    pub fn push_step_input(&self, npu: &mut Npu, x: &[f32]) -> Result<(), SimError> {
        if x.len() != self.dims.input {
            return Err(SimError::VectorLengthMismatch {
                expected: self.dims.input,
                actual: x.len(),
            });
        }
        let pushed = npu.push_input_padded(x);
        debug_assert_eq!(pushed, self.grid_x as usize);
        Ok(())
    }

    /// Runs the LSTM over `inputs` (one vector per time step), returning the
    /// hidden state emitted at each step and the run statistics.
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
            self.push_step_input(npu, x)?;
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

    /// A timing-only evaluation: reserves state, pushes placeholder inputs,
    /// runs `steps` time steps, and returns the statistics. The NPU should
    /// be in [`bw_core::ExecMode::TimingOnly`].
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
    /// [`Lstm::program_batched`]).
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
            let lstm = Lstm::new(&cfg, dims);
            let steps = 5;
            let report =
                bw_core::analyze_with(&lstm.program(steps), &cfg, lstm.analysis_options(steps));
            assert!(report.is_clean(), "{dims:?}: {report}");
        }
    }

    #[test]
    fn batched_firmware_lints_clean() {
        let cfg = small_config();
        let lstm = Lstm::new(&cfg, RnnDims::square(8));
        let (steps, batch) = (4, 3);
        let report = bw_core::analyze_with(
            &lstm.program_batched(steps, batch),
            &cfg,
            lstm.analysis_options_batched(steps, batch),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn layout_accounting() {
        let cfg = small_config();
        let lstm = Lstm::new(
            &cfg,
            RnnDims {
                input: 20,
                hidden: 12,
            },
        );
        assert_eq!(lstm.grid_h(), 2); // ceil(12/8)
        assert_eq!(lstm.grid_x(), 3); // ceil(20/8)
        assert_eq!(lstm.mrf_entries_required(), 4 * 6 + 4 * 4);
        assert_eq!(lstm.ops_per_step(), 2 * 4 * (12 * 20 + 12 * 12));
    }

    #[test]
    fn program_has_expected_chain_structure() {
        let cfg = small_config();
        let lstm = Lstm::new(&cfg, RnnDims::square(16));
        let p = lstm.program(10);
        // 10 chains per step: read, 4 precompute, f/i/o gates, c, h.
        assert_eq!(p.chain_count(), 100);
    }

    #[test]
    fn matches_f32_reference_within_quantization_noise() {
        let cfg = small_config();
        let dims = RnnDims::square(8);
        let lstm = Lstm::new(&cfg, dims);
        let weights = LstmWeights::random(dims, 3);
        let mut npu = Npu::new(cfg);
        lstm.load_weights(&mut npu, &weights).unwrap();

        let steps = 4;
        let inputs: Vec<Vec<f32>> = (0..steps)
            .map(|t| {
                (0..8)
                    .map(|i| ((t * 8 + i) as f32 * 0.618).sin() * 0.5)
                    .collect()
            })
            .collect();
        let (outputs, stats) = lstm.run(&mut npu, &inputs).unwrap();

        // f32 reference.
        let mut h = vec![0.0f32; 8];
        let mut c = vec![0.0f32; 8];
        for (t, x) in inputs.iter().enumerate() {
            let (h2, c2) =
                reference::lstm_cell(&weights.w_x, &weights.w_h, &weights.bias, 8, 8, x, &h, &c);
            h = h2;
            c = c2;
            for (j, (got, want)) in outputs[t].iter().zip(&h).enumerate() {
                assert!(
                    (got - want).abs() < 0.08,
                    "step {t} elem {j}: {got} vs {want}"
                );
            }
        }
        assert_eq!(stats.chains, 10 * steps as u64);
        assert!(stats.mvm_macs > 0);
    }

    #[test]
    fn recurrence_carries_state_between_runs_until_reset() {
        let cfg = small_config();
        let dims = RnnDims::square(8);
        let lstm = Lstm::new(&cfg, dims);
        let weights = LstmWeights::random(dims, 9);
        let mut npu = Npu::new(cfg);
        lstm.load_weights(&mut npu, &weights).unwrap();

        let x = vec![0.3f32; 8];
        let (out1, _) = lstm.run(&mut npu, std::slice::from_ref(&x)).unwrap();
        let (out2, _) = lstm.run(&mut npu, std::slice::from_ref(&x)).unwrap();
        // Same input, different hidden state -> different output.
        assert_ne!(out1[0], out2[0]);

        lstm.reset_state(&mut npu).unwrap();
        let (out3, _) = lstm.run(&mut npu, std::slice::from_ref(&x)).unwrap();
        assert_eq!(out1[0], out3[0]);
    }

    #[test]
    fn timing_only_runs_without_weights() {
        let cfg = small_config();
        let lstm = Lstm::new(&cfg, RnnDims::square(32));
        let mut npu = Npu::with_mode(cfg, bw_core::ExecMode::TimingOnly);
        let stats = lstm.run_timing_only(&mut npu, 25).unwrap();
        assert!(stats.cycles > 0);
        assert_eq!(stats.chains, 10 * 25);
        // 8 matmuls per step of a 4x4 tile grid (32/8 = 4).
        assert_eq!(stats.mvm_macs, 25 * 8 * 16 * 64);
    }

    #[test]
    fn per_step_latency_is_flat_in_steps() {
        // Steady state: doubling steps should roughly double cycles.
        let cfg = small_config();
        let lstm = Lstm::new(&cfg, RnnDims::square(16));
        let mut npu = Npu::with_mode(cfg.clone(), bw_core::ExecMode::TimingOnly);
        let s10 = lstm.run_timing_only(&mut npu, 10).unwrap();
        let mut npu2 = Npu::with_mode(cfg, bw_core::ExecMode::TimingOnly);
        let s20 = lstm.run_timing_only(&mut npu2, 20).unwrap();
        let ratio = s20.cycles as f64 / s10.cycles as f64;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn batched_firmware_matches_independent_sequences() {
        let cfg = small_config();
        let dims = RnnDims::square(8);
        let lstm = Lstm::new(&cfg, dims);
        let weights = LstmWeights::random(dims, 21);
        let steps = 3usize;
        let batch = 2usize;
        let seqs: Vec<Vec<Vec<f32>>> = (0..batch)
            .map(|b| {
                (0..steps)
                    .map(|t| {
                        (0..8)
                            .map(|i| ((b * 100 + t * 8 + i) as f32 * 0.41).sin() * 0.5)
                            .collect()
                    })
                    .collect()
            })
            .collect();

        // Interleaved execution.
        let mut npu = Npu::new(cfg.clone());
        lstm.load_weights(&mut npu, &weights).unwrap();
        for t in 0..steps {
            for seq in seqs.iter().take(batch) {
                npu.push_input_padded(&seq[t]);
            }
        }
        npu.run(&lstm.program_batched(steps as u32, batch as u32))
            .unwrap();
        // Outputs per step, batch-major within the step.
        let mut interleaved = vec![Vec::new(); batch];
        for _ in 0..steps {
            for seq_outputs in interleaved.iter_mut().take(batch) {
                let h = npu
                    .pop_output_concat(lstm.grid_h() as usize, 8)
                    .expect("one output per sequence per step");
                seq_outputs.push(h);
            }
        }

        // Independent executions.
        for (b, seq) in seqs.iter().enumerate() {
            let mut solo = Npu::new(cfg.clone());
            lstm.load_weights(&mut solo, &weights).unwrap();
            let (outputs, _) = lstm.run(&mut solo, seq).unwrap();
            for t in 0..steps {
                assert_eq!(
                    interleaved[b][t], outputs[t],
                    "sequence {b} step {t} diverged"
                );
            }
        }
    }

    #[test]
    fn interleaving_raises_small_model_utilization() {
        // The §VII-B3 future-work claim: small layers cannot fill the deep
        // pipeline at batch 1, and interleaving recovers utilization.
        let cfg = NpuConfig::builder()
            .native_dim(400)
            .lanes(40)
            .tile_engines(6)
            .mrf_entries(64)
            .vrf_entries(4096)
            .clock_mhz(250.0)
            .build()
            .unwrap();
        let dims = RnnDims::square(512);
        let lstm = Lstm::new(&cfg, dims);
        let steps = 25;

        let util = |batch: u32| {
            let mut npu = Npu::with_mode(cfg.clone(), bw_core::ExecMode::TimingOnly);
            let stats = lstm
                .run_timing_only_batched(&mut npu, steps, batch)
                .unwrap();
            stats.effective_utilization(lstm.ops(steps) * u64::from(batch))
        };
        let u1 = util(1);
        let u4 = util(4);
        assert!(
            u4 > 2.0 * u1,
            "batch-4 interleaving should at least double utilization: {u1:.4} -> {u4:.4}"
        );
    }

    #[test]
    fn rejects_wrong_input_length() {
        let cfg = small_config();
        let dims = RnnDims::square(8);
        let lstm = Lstm::new(&cfg, dims);
        let mut npu = Npu::new(cfg);
        let err = lstm.push_step_input(&mut npu, &[0.0; 5]).unwrap_err();
        assert!(matches!(err, SimError::VectorLengthMismatch { .. }));
    }
}
