//! The Titan Xp reference dataset.
//!
//! The paper compares against *published* DeepBench results on an NVIDIA
//! Titan Xp (§VII-B: "the DeepBench published results on a modern NVIDIA
//! Titan Xp GPU"). We encode the numbers the paper quotes in Table V as a
//! typed dataset — the faithful reproduction of the paper's own baseline
//! methodology, since no GPU is available here (see `DESIGN.md`).

use bw_models::{RnnBenchmark, RnnKind};

/// The Titan Xp device constants of Table IV.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TitanXp {
    /// Peak single-precision TFLOPS.
    pub peak_tflops: f64,
    /// Thermal design power in watts.
    pub tdp_watts: f64,
    /// Off-chip memory bandwidth in GB/s (GDDR5X).
    pub mem_bw_gbs: f64,
}

/// The Table IV Titan Xp.
pub const TITAN_XP: TitanXp = TitanXp {
    peak_tflops: 12.1,
    tdp_watts: 250.0,
    mem_bw_gbs: 547.6,
};

/// One measured Titan Xp data point from Table V (batch size 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TitanXpPoint {
    /// Cell family.
    pub kind: RnnKind,
    /// Hidden dimension.
    pub hidden: usize,
    /// Time steps.
    pub timesteps: u32,
    /// Measured latency in milliseconds.
    pub latency_ms: f64,
    /// Effective TFLOPS the paper reports.
    pub tflops: f64,
    /// Hardware utilization percentage the paper reports.
    pub utilization_pct: f64,
}

/// The eleven Titan Xp rows of Table V.
pub fn table5_titan_xp() -> Vec<TitanXpPoint> {
    use RnnKind::{Gru, Lstm};
    let rows = [
        (Gru, 2816, 750, 178.60, 0.40, 3.3),
        (Gru, 2560, 375, 74.62, 0.40, 3.3),
        (Gru, 2048, 375, 51.59, 0.37, 3.0),
        (Gru, 1536, 375, 31.73, 0.33, 2.8),
        (Gru, 1024, 1500, 59.51, 0.32, 2.6),
        (Gru, 512, 1, 0.06, 0.05, 0.4),
        (Lstm, 2048, 25, 5.27, 0.32, 2.7),
        (Lstm, 1536, 50, 6.20, 0.30, 2.5),
        (Lstm, 1024, 25, 1.87, 0.22, 1.9),
        (Lstm, 512, 25, 1.26, 0.08, 0.7),
        (Lstm, 256, 150, 1.99, 0.08, 0.7),
    ];
    rows.into_iter()
        .map(
            |(kind, hidden, timesteps, latency_ms, tflops, utilization_pct)| TitanXpPoint {
                kind,
                hidden,
                timesteps,
                latency_ms,
                tflops,
                utilization_pct,
            },
        )
        .collect()
}

/// Looks up the Table V Titan Xp point matching a benchmark, if the paper
/// measured it.
pub fn titan_xp_point(bench: &RnnBenchmark) -> Option<TitanXpPoint> {
    table5_titan_xp().into_iter().find(|p| {
        p.kind == bench.kind && p.hidden == bench.hidden && p.timesteps == bench.timesteps
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_models::table5_suite;

    #[test]
    fn dataset_covers_the_whole_suite() {
        for bench in table5_suite() {
            assert!(
                titan_xp_point(&bench).is_some(),
                "missing Titan Xp point for {}",
                bench.name()
            );
        }
    }

    #[test]
    fn reported_tflops_are_consistent_with_latency() {
        // ops / latency should approximate the reported TFLOPS (the paper
        // rounds to two digits).
        for p in table5_titan_xp() {
            let bench = RnnBenchmark::new(p.kind, p.hidden, p.timesteps);
            let tflops = bench.ops() as f64 / (p.latency_ms * 1e-3) / 1e12;
            assert!(
                (tflops - p.tflops).abs() < 0.06,
                "{}: derived {tflops:.3} vs reported {}",
                bench.name(),
                p.tflops
            );
        }
    }

    #[test]
    fn reported_utilization_is_tflops_over_peak() {
        for p in table5_titan_xp() {
            let derived = p.tflops / TITAN_XP.peak_tflops * 100.0;
            assert!(
                (derived - p.utilization_pct).abs() < 0.35,
                "h={}: derived {derived:.2}% vs reported {}%",
                p.hidden,
                p.utilization_pct
            );
        }
    }
}
