//! The DeepBench RNN inference suite of Table V.

use crate::rnn::RnnDims;

/// RNN cell family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RnnKind {
    /// Long short-term memory (4 gates, 8 matrix products per step).
    Lstm,
    /// Gated recurrent unit (3 gates, 6 matrix products per step).
    Gru,
}

impl RnnKind {
    /// Gates per cell: each gate owns one input and one recurrent matrix
    /// product per step.
    pub fn gates(self) -> u32 {
        match self {
            RnnKind::Lstm => 4,
            RnnKind::Gru => 3,
        }
    }
}

impl std::fmt::Display for RnnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RnnKind::Lstm => write!(f, "LSTM"),
            RnnKind::Gru => write!(f, "GRU"),
        }
    }
}

/// One DeepBench RNN inference benchmark point: a square cell evaluated over
/// a number of time steps at a given batch size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RnnBenchmark {
    /// Cell family.
    pub kind: RnnKind,
    /// Hidden (= input) dimension.
    pub hidden: usize,
    /// Time steps per inference.
    pub timesteps: u32,
    /// Batch size (1 for the paper's headline results).
    pub batch: u32,
}

impl RnnBenchmark {
    /// Creates a batch-1 benchmark.
    pub fn new(kind: RnnKind, hidden: usize, timesteps: u32) -> Self {
        RnnBenchmark {
            kind,
            hidden,
            timesteps,
            batch: 1,
        }
    }

    /// The square cell dimensions.
    pub fn dims(&self) -> RnnDims {
        RnnDims::square(self.hidden)
    }

    /// The display name used in Table V, e.g. `"GRU h=2816 t=750"`.
    pub fn name(&self) -> String {
        format!("{} h={} t={}", self.kind, self.hidden, self.timesteps)
    }

    /// Matrix products per time step (8 for LSTM, 6 for GRU).
    pub fn matmuls_per_step(&self) -> u64 {
        2 * u64::from(self.kind.gates())
    }

    /// True model FLOPs per time step per sample (square cell:
    /// `matmuls · 2 · hidden²`).
    pub fn ops_per_step(&self) -> u64 {
        self.matmuls_per_step() * 2 * (self.hidden as u64) * (self.hidden as u64)
    }

    /// True model FLOPs for a full inference of one batch.
    pub fn ops(&self) -> u64 {
        self.ops_per_step() * u64::from(self.timesteps) * u64::from(self.batch)
    }

    /// Weight bytes when pinned in the given BFP format (the "Data" column
    /// of Table I: 32 MB for LSTM-2000, 47 MB for GRU-2800 at ~1 byte per
    /// parameter).
    pub fn weight_bytes(&self, format: bw_bfp::BfpFormat) -> u64 {
        let params = self.matmuls_per_step() * (self.hidden as u64) * (self.hidden as u64);
        format.storage_bytes(params)
    }

    /// Weight parameter count.
    pub fn weight_params(&self) -> u64 {
        self.matmuls_per_step() * (self.hidden as u64) * (self.hidden as u64)
    }
}

/// The eleven batch-1 benchmark points of Table V, in table order.
pub fn table5_suite() -> Vec<RnnBenchmark> {
    use RnnKind::{Gru, Lstm};
    vec![
        RnnBenchmark::new(Gru, 2816, 750),
        RnnBenchmark::new(Gru, 2560, 375),
        RnnBenchmark::new(Gru, 2048, 375),
        RnnBenchmark::new(Gru, 1536, 375),
        RnnBenchmark::new(Gru, 1024, 1500),
        RnnBenchmark::new(Gru, 512, 1),
        RnnBenchmark::new(Lstm, 2048, 25),
        RnnBenchmark::new(Lstm, 1536, 50),
        RnnBenchmark::new(Lstm, 1024, 25),
        RnnBenchmark::new(Lstm, 512, 25),
        RnnBenchmark::new(Lstm, 256, 150),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table5() {
        let suite = table5_suite();
        assert_eq!(suite.len(), 11);
        assert_eq!(suite[0].name(), "GRU h=2816 t=750");
        assert_eq!(suite[10].name(), "LSTM h=256 t=150");
        assert!(suite.iter().all(|b| b.batch == 1));
    }

    #[test]
    fn gru_2816_total_ops() {
        // 6 * 2 * 2816^2 * 750 ≈ 71.4 GFLOP; at the paper's 1.987 ms this
        // is the 35.9 TFLOPS headline.
        let b = RnnBenchmark::new(RnnKind::Gru, 2816, 750);
        let tflops_at_paper_latency = b.ops() as f64 / 1.987e-3 / 1e12;
        assert!(
            (35.0..36.5).contains(&tflops_at_paper_latency),
            "{tflops_at_paper_latency}"
        );
    }

    #[test]
    fn lstm_2048_ops_per_step() {
        let b = RnnBenchmark::new(RnnKind::Lstm, 2048, 25);
        assert_eq!(b.ops_per_step(), 8 * 2 * 2048 * 2048);
    }

    #[test]
    fn weight_bytes_near_one_byte_per_param() {
        // Table I: LSTM 2000 -> 32 MB of weights.
        let b = RnnBenchmark::new(RnnKind::Lstm, 2000, 1);
        let bytes = b.weight_bytes(bw_bfp::BfpFormat::BFP_1S_5E_5M);
        let params = b.weight_params();
        assert_eq!(params, 32_000_000);
        // 1 sign + 5 mantissa bits + amortized exponent ≈ 0.76 B/param.
        let ratio = bytes as f64 / params as f64;
        assert!((0.7..1.1).contains(&ratio), "ratio {ratio}");
    }
}
