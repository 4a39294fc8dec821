//! Closed-form UDM/SDM critical-path analysis (§III).
//!
//! The Unconstrained Dataflow Machine (UDM) executes a model's dataflow
//! graph with infinite unit-latency functional units: its latency is the
//! graph's critical path. The Structurally-constrained Dataflow Machine
//! (SDM) has a fixed number of multiply-accumulators: its latency adds the
//! work bound `ceil(MACs / #FU)` per serialized step. These are the bounds
//! of Table I and the SDM rows of Table V.
//!
//! The tests cross-validate the closed forms against the explicit graph
//! machinery of the `graph` module at small dimensions.

use bw_models::RnnKind;

/// Depth of a length-`n` dot product: one multiply plus a binary reduction
/// tree, `1 + ceil(log2 n)` cycles.
///
/// # Panics
///
/// Panics if `n` is zero.
pub(crate) fn dot_depth(n: u64) -> u64 {
    assert!(n > 0, "dot product needs at least one element");
    1 + (64 - (n - 1).leading_zeros().min(63) as u64).min(63) * u64::from(n > 1)
}

/// Critical-path characterization of one RNN cell evaluation step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RnnCriticalPath {
    /// Hidden dimension.
    pub hidden: u64,
    /// Input dimension.
    pub input: u64,
    /// Multiply-accumulates per time step (matrix products only).
    pub macs_per_step: u64,
    /// FLOPs per time step (2 per MAC).
    pub ops_per_step: u64,
    /// UDM critical path of one step, in cycles.
    pub udm_step_cycles: u64,
    /// Weight parameter count.
    pub weight_params: u64,
}

impl RnnCriticalPath {
    /// One step of a `kind` cell: two matrix products per gate. The UDM
    /// critical path of an LSTM runs through a dot product, the x/h
    /// combine, bias, sigmoid, the `c` update (two point-wise ops), tanh,
    /// and the output gate product — `dot_depth + 7` (19 for a 2000-dim
    /// LSTM, Table I). A GRU (standard formulation, reset gate applied
    /// before the candidate matrix product) has two serialized dot
    /// products plus five point-wise stages — `2·dot_depth + 5` (31 for a
    /// 2800-dim GRU, Table I).
    pub fn new(kind: RnnKind, hidden: u64, input: u64) -> Self {
        let macs = u64::from(kind.gates()) * (hidden * input + hidden * hidden);
        let depth = dot_depth(hidden.max(input));
        RnnCriticalPath {
            hidden,
            input,
            macs_per_step: macs,
            ops_per_step: 2 * macs,
            udm_step_cycles: match kind {
                RnnKind::Lstm => depth + 7,
                RnnKind::Gru => 2 * depth + 5,
            },
            weight_params: macs,
        }
    }

    /// An LSTM step ([`RnnCriticalPath::new`]).
    pub fn lstm(hidden: u64, input: u64) -> Self {
        Self::new(RnnKind::Lstm, hidden, input)
    }

    /// A GRU step ([`RnnCriticalPath::new`]).
    pub fn gru(hidden: u64, input: u64) -> Self {
        Self::new(RnnKind::Gru, hidden, input)
    }

    /// UDM latency over `steps` serialized time steps.
    pub fn udm_cycles(&self, steps: u64) -> u64 {
        self.udm_step_cycles * steps
    }

    /// SDM latency over `steps` time steps with `fu_macs`
    /// multiply-accumulators: per step, the MAC work bound plus the
    /// unavoidable dependence depth.
    ///
    /// # Panics
    ///
    /// Panics if `fu_macs` is zero.
    pub fn sdm_cycles(&self, steps: u64, fu_macs: u64) -> u64 {
        assert!(fu_macs > 0, "the SDM needs at least one functional unit");
        steps * (self.macs_per_step.div_ceil(fu_macs) + self.udm_step_cycles)
    }

    /// Weight bytes at one byte per parameter — the convention of Table I's
    /// "Data" column (32 MB for LSTM-2000, 47 MB for GRU-2800).
    pub fn weight_bytes(&self) -> u64 {
        self.weight_params
    }
}

/// Critical-path characterization of one CNN layer evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvCriticalPath {
    /// Output positions (`H_out × W_out`).
    pub positions: u64,
    /// Output channels.
    pub c_out: u64,
    /// im2col patch length (`K²·C_in`).
    pub patch_len: u64,
    /// Multiply-accumulates per evaluation.
    pub macs: u64,
    /// FLOPs per evaluation.
    pub ops: u64,
    /// UDM critical path in cycles.
    pub udm_cycles: u64,
    /// Weights plus input activations, in bytes at one byte per value
    /// (Table I's "Data" column: 247 KB for the 28×28×128 / 3×3 layer).
    pub data_bytes: u64,
}

impl ConvCriticalPath {
    /// Characterizes a conv layer. All output positions are independent, so
    /// the UDM latency is a single dot product plus the bias add:
    /// `dot_depth(K²·C_in) + 1` (13 for the 3×3×128 layer of Table I).
    #[allow(clippy::too_many_arguments)]
    pub fn new(h: u64, w: u64, c_in: u64, k: u64, c_out: u64, stride: u64, pad: u64) -> Self {
        let h_out = (h + 2 * pad - k) / stride + 1;
        let w_out = (w + 2 * pad - k) / stride + 1;
        let positions = h_out * w_out;
        let patch_len = k * k * c_in;
        let macs = positions * c_out * patch_len;
        ConvCriticalPath {
            positions,
            c_out,
            patch_len,
            macs,
            ops: 2 * macs,
            udm_cycles: dot_depth(patch_len) + 1,
            data_bytes: c_out * patch_len + h * w * c_in,
        }
    }

    /// SDM latency with `fu_macs` multiply-accumulators: the layer is
    /// embarrassingly parallel, so the work bound dominates.
    ///
    /// # Panics
    ///
    /// Panics if `fu_macs` is zero.
    pub fn sdm_cycles(&self, fu_macs: u64) -> u64 {
        assert!(fu_macs > 0, "the SDM needs at least one functional unit");
        self.macs.div_ceil(fu_macs).max(self.udm_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{dot_product_graph, Graph};

    #[test]
    fn dot_depth_matches_graph() {
        for n in [1u64, 2, 5, 8, 100, 400, 2000, 2800] {
            let mut g = Graph::new();
            dot_product_graph(&mut g, n as usize);
            assert_eq!(dot_depth(n), g.critical_path(), "n={n}");
        }
    }

    #[test]
    fn table1_lstm_row() {
        // LSTM 2000x2000: 64M ops, UDM 19, SDM 352 at 96,000 MACs.
        let cp = RnnCriticalPath::lstm(2000, 2000);
        assert_eq!(cp.ops_per_step, 64_000_000);
        assert_eq!(cp.udm_step_cycles, 19);
        assert_eq!(cp.sdm_cycles(1, 96_000), 353); // paper rounds to 352
        assert_eq!(cp.weight_bytes(), 32_000_000); // 32 MB
    }

    #[test]
    fn table1_gru_row() {
        // GRU 2800x2800: 94M ops, UDM 31, SDM 520 at 96,000 MACs.
        let cp = RnnCriticalPath::gru(2800, 2800);
        assert_eq!(cp.ops_per_step, 94_080_000);
        assert_eq!(cp.udm_step_cycles, 31);
        let sdm = cp.sdm_cycles(1, 96_000);
        assert!((520..=522).contains(&sdm), "sdm {sdm}");
        assert_eq!(cp.weight_bytes(), 47_040_000); // 47 MB
    }

    #[test]
    fn table1_cnn_rows() {
        // CNN 28x28x128, K 128x3x3: 231M ops, UDM 13, SDM 1204.
        let a = ConvCriticalPath::new(28, 28, 128, 3, 128, 1, 1);
        assert_eq!(a.ops, 231_211_008);
        assert_eq!(a.udm_cycles, 13);
        assert_eq!(a.sdm_cycles(96_000), 1205); // paper rounds to 1204
        let kb = a.data_bytes / 1024;
        assert!((240..=250).contains(&kb), "data {kb} KB");

        // CNN 56x56x64, K 256x1x1: 103M ops, SDM 549.
        let b = ConvCriticalPath::new(56, 56, 64, 1, 256, 1, 0);
        assert_eq!(b.ops, 102_760_448);
        assert_eq!(b.sdm_cycles(96_000), 536); // paper reports 549
        let kb = b.data_bytes / 1024;
        assert!((195..=215).contains(&kb), "data {kb} KB");
    }

    #[test]
    fn table5_sdm_latencies() {
        // The SDM rows of Table V at 250 MHz and 96,000 MACs.
        let cases: [(RnnCriticalPath, u64, f64); 4] = [
            (RnnCriticalPath::gru(2816, 2816), 750, 1.581),
            (RnnCriticalPath::gru(2560, 2560), 375, 0.661),
            (RnnCriticalPath::lstm(2048, 2048), 25, 0.037),
            (RnnCriticalPath::lstm(512, 512), 25, 0.0038),
        ];
        for (cp, steps, paper_ms) in cases {
            let ms = cp.sdm_cycles(steps, 96_000) as f64 / 250e6 * 1e3;
            let ratio = ms / paper_ms;
            assert!(
                (0.9..1.15).contains(&ratio),
                "h={} : {ms:.4} ms vs paper {paper_ms} ms",
                cp.hidden
            );
        }
    }

    #[test]
    fn sdm_reduces_to_udm_with_infinite_fus() {
        let cp = RnnCriticalPath::lstm(64, 64);
        assert_eq!(
            cp.sdm_cycles(10, u64::MAX / 4),
            10 * (cp.udm_step_cycles + 1)
        );
        // The graph-level identity: huge FU counts approach the UDM.
        let conv = ConvCriticalPath::new(8, 8, 4, 3, 8, 1, 1);
        assert_eq!(conv.sdm_cycles(u64::MAX / 4), conv.udm_cycles);
    }

    #[test]
    fn udm_scales_linearly_in_steps() {
        let cp = RnnCriticalPath::gru(128, 128);
        assert_eq!(cp.udm_cycles(100), 100 * cp.udm_step_cycles);
    }
}
