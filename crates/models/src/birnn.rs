//! Bidirectional RNNs split across two accelerators.
//!
//! §II-A: "we have split bidirectional RNNs across two independent FPGAs,
//! with the server invoking the forward and backward RNN FPGAs separately
//! and concatenating their outputs." This module reproduces exactly that
//! deployment: one LSTM pinned on each of two NPUs, the backward device
//! fed the reversed sequence, and the host concatenating the per-step
//! hidden states.

use bw_core::{Npu, RunStats, SimError};

use crate::lstm::Lstm;
use crate::rnn::{LstmWeights, RnnDims};

/// A bidirectional LSTM deployed across two NPUs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BiLstm {
    forward: Lstm,
    backward: Lstm,
    dims: RnnDims,
}

/// The two directions' statistics plus the effective serving latency.
#[derive(Clone, Debug, PartialEq)]
pub struct BiRunStats {
    /// Forward device statistics.
    pub forward: RunStats,
    /// Backward device statistics.
    pub backward: RunStats,
}

impl BiRunStats {
    /// The serving latency: both directions run in parallel on independent
    /// devices, so the request completes when the slower one does.
    pub fn latency_seconds(&self) -> f64 {
        self.forward
            .latency_seconds()
            .max(self.backward.latency_seconds())
    }

    /// Combined true-operation throughput in TFLOPS.
    pub fn effective_tflops(&self, total_ops: u64) -> f64 {
        let s = self.latency_seconds();
        if s > 0.0 {
            total_ops as f64 / s / 1e12
        } else {
            0.0
        }
    }
}

impl BiLstm {
    /// Plans a bidirectional LSTM: each direction is an independent cell of
    /// the given dimensions (outputs concatenate to `2 × hidden`).
    pub fn new(config: &bw_core::NpuConfig, dims: RnnDims) -> Self {
        BiLstm {
            forward: Lstm::new(config, dims),
            backward: Lstm::new(config, dims),
            dims,
        }
    }

    /// The per-direction cell dimensions.
    pub fn dims(&self) -> RnnDims {
        self.dims
    }

    /// The forward-direction plan (e.g. for capacity queries).
    pub fn forward(&self) -> &Lstm {
        &self.forward
    }

    /// The backward-direction plan.
    pub fn backward(&self) -> &Lstm {
        &self.backward
    }

    /// True model FLOPs for a `steps`-long sequence (both directions).
    pub fn ops(&self, steps: u32) -> u64 {
        2 * self.forward.ops(steps)
    }

    /// Pins each direction's weights on its own device.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn load_weights(
        &self,
        forward_npu: &mut Npu,
        backward_npu: &mut Npu,
        forward_weights: &LstmWeights,
        backward_weights: &LstmWeights,
    ) -> Result<(), SimError> {
        self.forward.load_weights(forward_npu, forward_weights)?;
        self.backward.load_weights(backward_npu, backward_weights)?;
        Ok(())
    }

    /// Runs the full bidirectional evaluation: the forward device sees the
    /// sequence in order, the backward device reversed; the host
    /// concatenates so `output[t] = [h_fw[t], h_bw[t]]` (each `2·hidden`
    /// long).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or execution failure.
    pub fn run(
        &self,
        forward_npu: &mut Npu,
        backward_npu: &mut Npu,
        inputs: &[Vec<f32>],
    ) -> Result<(Vec<Vec<f32>>, BiRunStats), SimError> {
        let (fw, fw_stats) = self.forward.run(forward_npu, inputs)?;
        let reversed: Vec<Vec<f32>> = inputs.iter().rev().cloned().collect();
        let (bw_rev, bw_stats) = self.backward.run(backward_npu, &reversed)?;

        let steps = inputs.len();
        let mut outputs = Vec::with_capacity(steps);
        for t in 0..steps {
            let mut v = fw[t].clone();
            // The backward pass's output for original step t is its own
            // step (steps - 1 - t).
            v.extend_from_slice(&bw_rev[steps - 1 - t]);
            outputs.push(v);
        }
        Ok((
            outputs,
            BiRunStats {
                forward: fw_stats,
                backward: bw_stats,
            },
        ))
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
    fn concatenated_outputs_match_two_reference_passes() {
        let cfg = small_config();
        let dims = RnnDims::square(8);
        let bi = BiLstm::new(&cfg, dims);
        let wf = LstmWeights::random(dims, 1);
        let wb = LstmWeights::random(dims, 2);

        let mut fw_npu = Npu::new(cfg.clone());
        let mut bw_npu = Npu::new(cfg);
        bi.load_weights(&mut fw_npu, &mut bw_npu, &wf, &wb).unwrap();

        let steps = 4;
        let inputs: Vec<Vec<f32>> = (0..steps)
            .map(|t| {
                (0..8)
                    .map(|i| ((t * 8 + i) as f32 * 0.29).sin() * 0.5)
                    .collect()
            })
            .collect();
        let (outputs, stats) = bi.run(&mut fw_npu, &mut bw_npu, &inputs).unwrap();
        assert_eq!(outputs.len(), steps);
        assert_eq!(outputs[0].len(), 16);

        // Forward reference.
        let mut h = vec![0.0f32; 8];
        let mut c = vec![0.0f32; 8];
        let mut fw_ref = Vec::new();
        for x in &inputs {
            let (h2, c2) = reference::lstm_cell(&wf.w_x, &wf.w_h, &wf.bias, 8, 8, x, &h, &c);
            h = h2;
            c = c2;
            fw_ref.push(h.clone());
        }
        // Backward reference (over the reversed sequence).
        let mut h = vec![0.0f32; 8];
        let mut c = vec![0.0f32; 8];
        let mut bw_ref_rev = Vec::new();
        for x in inputs.iter().rev() {
            let (h2, c2) = reference::lstm_cell(&wb.w_x, &wb.w_h, &wb.bias, 8, 8, x, &h, &c);
            h = h2;
            c = c2;
            bw_ref_rev.push(h.clone());
        }

        for t in 0..steps {
            for (got, want) in outputs[t][..8].iter().zip(&fw_ref[t]) {
                assert!((got - want).abs() < 0.1, "fw step {t}");
            }
            for (got, want) in outputs[t][8..].iter().zip(&bw_ref_rev[steps - 1 - t]) {
                assert!((got - want).abs() < 0.1, "bw step {t}");
            }
        }
        // The two directions ran in parallel: the request latency is the
        // max, not the sum.
        assert!(
            stats.latency_seconds()
                < stats.forward.latency_seconds() + stats.backward.latency_seconds()
        );
    }

    #[test]
    fn ops_count_both_directions() {
        let cfg = small_config();
        let bi = BiLstm::new(&cfg, RnnDims::square(16));
        assert_eq!(bi.ops(10), 2 * bi.forward().ops(10));
    }
}
