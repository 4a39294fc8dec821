//! LSTM firmware: the production kernel of the paper's §IV-C listing,
//! generated for any dimension and NPU configuration.

use std::ops::Deref;

use bw_core::isa::{MemId, ProgramBuilder};
use bw_core::NpuConfig;

use crate::deepbench::RnnKind;
use crate::rnn::{Rnn, RnnDims, StateSlot, FIRMWARE};

/// An LSTM model mapped onto a BW NPU: the [`Rnn`] generator with the
/// LSTM cell.
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
pub struct Lstm(Rnn);

impl Lstm {
    /// Plans an LSTM of the given dimensions for an NPU configuration.
    pub fn new(config: &NpuConfig, dims: RnnDims) -> Self {
        Lstm(Rnn::new(RnnKind::Lstm, config, dims))
    }
}

impl Deref for Lstm {
    type Target = Rnn;

    fn deref(&self) -> &Rnn {
        &self.0
    }
}

// The LSTM cell: gate order forget, input, output, candidate. Per sequence
// `b` the IVRF holds `c_t` between `x_t` and `h_prev`; ASVRF1 holds
// `f ∘ c_prev`, MULVRF0 `c_prev`, `i_t` and `o_t`.
impl Rnn {
    fn ivrf_ct(&self, b: u32) -> u32 {
        self.ivrf_h_prev(b) - self.grid_h()
    }
    fn asvrf1_ft_mod(&self, b: u32) -> u32 {
        b * self.grid_h()
    }
    fn mulvrf0_c_prev(&self, b: u32) -> u32 {
        3 * b * self.grid_h()
    }
    fn mulvrf0_it(&self, b: u32) -> u32 {
        (3 * b + 1) * self.grid_h()
    }
    fn mulvrf0_ot(&self, b: u32) -> u32 {
        (3 * b + 2) * self.grid_h()
    }

    /// `c_t` and `h_prev` (contiguous in the IVRF) and `c_prev`.
    pub(crate) fn lstm_state(&self, b: u32) -> Vec<StateSlot> {
        vec![
            StateSlot {
                mem: MemId::InitialVrf,
                start: self.ivrf_ct(b),
                vectors: 2,
            },
            StateSlot {
                mem: MemId::MultiplyVrf(0),
                start: self.mulvrf0_c_prev(b),
                vectors: 1,
            },
        ]
    }

    /// One time step of sequence `b` after its input read.
    pub(crate) fn lstm_step(&self, p: &mut ProgramBuilder, b: u32) {
        for g in 0..4 {
            self.precompute(p, g, b);
        }

        p.set_cols(self.grid_h());
        // f gate, fused with c_prev: ft_mod = σ(U_f·h + xW_f) ∘ c_prev.
        p.v_rd(MemId::InitialVrf, self.ivrf_h_prev(b))
            .mv_mul(self.mrf_u(0))
            .vv_add(self.asvrf0_xw(0, b))
            .v_sigm()
            .vv_mul(self.mulvrf0_c_prev(b))
            .v_wr(MemId::AddSubVrf(1), self.asvrf1_ft_mod(b))
            .end_chain()
            .expect(FIRMWARE);
        // i gate: it = σ(U_i·h + xW_i).
        p.v_rd(MemId::InitialVrf, self.ivrf_h_prev(b))
            .mv_mul(self.mrf_u(1))
            .vv_add(self.asvrf0_xw(1, b))
            .v_sigm()
            .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_it(b))
            .end_chain()
            .expect(FIRMWARE);
        // o gate: ot = σ(U_o·h + xW_o).
        p.v_rd(MemId::InitialVrf, self.ivrf_h_prev(b))
            .mv_mul(self.mrf_u(2))
            .vv_add(self.asvrf0_xw(2, b))
            .v_sigm()
            .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_ot(b))
            .end_chain()
            .expect(FIRMWARE);
        // c update: c_t = tanh(U_c·h + xW_c) ∘ it + ft_mod, multicast
        // to the recurrent c_prev slot and the h-chain input.
        p.v_rd(MemId::InitialVrf, self.ivrf_h_prev(b))
            .mv_mul(self.mrf_u(3))
            .vv_add(self.asvrf0_xw(3, b))
            .v_tanh()
            .vv_mul(self.mulvrf0_it(b))
            .vv_add(self.asvrf1_ft_mod(b))
            .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_c_prev(b))
            .v_wr(MemId::InitialVrf, self.ivrf_ct(b))
            .end_chain()
            .expect(FIRMWARE);
        // h_t = tanh(c_t) ∘ ot, multicast to the recurrent slot and
        // the network output queue.
        p.v_rd(MemId::InitialVrf, self.ivrf_ct(b))
            .v_tanh()
            .vv_mul(self.mulvrf0_ot(b))
            .v_wr(MemId::InitialVrf, self.ivrf_h_prev(b))
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .expect(FIRMWARE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::rnn::LstmWeights;
    use bw_bfp::BfpFormat;
    use bw_core::{Npu, SimError};

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
