//! GRU firmware in the cuDNN formulation DeepBench benchmarks.

use std::ops::Deref;

use bw_core::isa::{MemId, ProgramBuilder};
use bw_core::NpuConfig;

use crate::deepbench::RnnKind;
use crate::rnn::{Rnn, RnnDims, StateSlot, FIRMWARE};

/// A GRU model mapped onto a BW NPU: the [`Rnn`] generator with the GRU
/// cell.
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
pub struct Gru(Rnn);

impl Gru {
    /// Plans a GRU of the given dimensions for an NPU configuration.
    pub fn new(config: &NpuConfig, dims: RnnDims) -> Self {
        Gru(Rnn::new(RnnKind::Gru, config, dims))
    }
}

impl Deref for Gru {
    type Target = Rnn;

    fn deref(&self) -> &Rnn {
        &self.0
    }
}

// The GRU cell: gate order reset, update, candidate. The candidate's
// ASVRF0 `x·W` slot holds `ñ` (its `x·Wn` goes to ASVRF1, beside a second
// copy of `ñ`); MULVRF0 holds `r_t` and `z_t`.
impl Rnn {
    fn asvrf0_nt(&self, b: u32) -> u32 {
        self.asvrf0_xw(2, b)
    }
    fn asvrf1_xwn(&self, b: u32) -> u32 {
        2 * b * self.grid_h()
    }
    fn asvrf1_nt(&self, b: u32) -> u32 {
        (2 * b + 1) * self.grid_h()
    }
    fn mulvrf0_rt(&self, b: u32) -> u32 {
        2 * b * self.grid_h()
    }
    fn mulvrf0_zt(&self, b: u32) -> u32 {
        (2 * b + 1) * self.grid_h()
    }

    /// `h_prev`.
    pub(crate) fn gru_state(&self, b: u32) -> Vec<StateSlot> {
        vec![StateSlot {
            mem: MemId::InitialVrf,
            start: self.ivrf_h_prev(b),
            vectors: 1,
        }]
    }

    /// One time step of sequence `b` after its input read.
    pub(crate) fn gru_step(&self, p: &mut ProgramBuilder, b: u32) {
        // xWr = x·Wr + br; xWz = x·Wz + bz.
        self.precompute(p, 0, b);
        self.precompute(p, 1, b);
        // xWn = x·Wn (candidate bias rides the recurrent side).
        p.v_rd(MemId::InitialVrf, self.ivrf_xt(b))
            .mv_mul(self.mrf_w(2))
            .v_wr(MemId::AddSubVrf(1), self.asvrf1_xwn(b))
            .end_chain()
            .expect(FIRMWARE);

        p.set_cols(self.grid_h());
        // r = σ(Ur·h + xWr).
        p.v_rd(MemId::InitialVrf, self.ivrf_h_prev(b))
            .mv_mul(self.mrf_u(0))
            .vv_add(self.asvrf0_xw(0, b))
            .v_sigm()
            .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_rt(b))
            .end_chain()
            .expect(FIRMWARE);
        // z = σ(Uz·h + xWz).
        p.v_rd(MemId::InitialVrf, self.ivrf_h_prev(b))
            .mv_mul(self.mrf_u(1))
            .vv_add(self.asvrf0_xw(1, b))
            .v_sigm()
            .v_wr(MemId::MultiplyVrf(0), self.mulvrf0_zt(b))
            .end_chain()
            .expect(FIRMWARE);
        // ñ = tanh((Un·h + bn) ∘ r + xWn), multicast for the update
        // chain.
        p.v_rd(MemId::InitialVrf, self.ivrf_h_prev(b))
            .mv_mul(self.mrf_u(2))
            .vv_add(self.asvrf0_bias(2))
            .vv_mul(self.mulvrf0_rt(b))
            .vv_add(self.asvrf1_xwn(b))
            .v_tanh()
            .v_wr(MemId::AddSubVrf(0), self.asvrf0_nt(b))
            .v_wr(MemId::AddSubVrf(1), self.asvrf1_nt(b))
            .end_chain()
            .expect(FIRMWARE);
        // h' = ñ + z ∘ (h − ñ).
        p.v_rd(MemId::InitialVrf, self.ivrf_h_prev(b))
            .vv_a_sub_b(self.asvrf0_nt(b))
            .vv_mul(self.mulvrf0_zt(b))
            .vv_add(self.asvrf1_nt(b))
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
    use crate::rnn::GruWeights;
    use bw_bfp::BfpFormat;
    use bw_core::Npu;

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
        npu.load_vector(MemId::InitialVrf, gru.ivrf_h_prev(0), &[0.8; 8])
            .unwrap();
        let (outputs, _) = gru.run(&mut npu, &[vec![0.0; 8]]).unwrap();
        for v in &outputs[0] {
            assert!((v - 0.4).abs() < 0.02, "{v}");
        }
    }
}
