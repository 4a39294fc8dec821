//! Calibration probe: per-step cycles on BW_S10 vs. the paper's Table V.
//!
//! Prints the simulated steady-state cycles per RNN time step next to the
//! figure implied by the paper's published latencies, to check the cycle
//! model's calibration (`DESIGN.md` §4). The benchmarks run in parallel
//! across the available cores.

use crate::{render_table, run_suite};
use bw_baselines::titan_xp_point;
use bw_models::table5_suite;

/// Builds the calibration report: simulated cycles per time step on
/// BW_S10 next to the figure the paper's Table V latencies imply.
pub fn calibrate_report() -> String {
    let mut out = String::new();
    let paper_ms = |name: &str| -> f64 {
        match name {
            "GRU h=2816 t=750" => 1.987,
            "GRU h=2560 t=375" => 0.993,
            "GRU h=2048 t=375" => 0.954,
            "GRU h=1536 t=375" => 0.951,
            "GRU h=1024 t=1500" => 3.792,
            "GRU h=512 t=1" => 0.013,
            "LSTM h=2048 t=25" => 0.074,
            "LSTM h=1536 t=50" => 0.145,
            "LSTM h=1024 t=25" => 0.074,
            "LSTM h=512 t=25" => 0.077,
            "LSTM h=256 t=150" => 0.425,
            _ => f64::NAN,
        }
    };
    let suite = table5_suite();
    let results = run_suite(&suite);
    let mut rows = Vec::new();
    for (bench, r) in suite.iter().zip(&results) {
        let paper = paper_ms(&bench.name());
        let paper_step = paper * 1e-3 * 250e6 / f64::from(bench.timesteps);
        rows.push(vec![
            bench.name(),
            (r.cycles / u64::from(bench.timesteps)).to_string(),
            format!("{paper_step:.0}"),
            format!("{:.3}", r.latency_ms),
            format!("{paper:.3}"),
            format!("{:.2}", r.latency_ms / paper),
        ]);
        let _ = titan_xp_point(bench);
    }
    outln!(
        out,
        "Cycle-model calibration against the paper's BW_S10 measurements\n"
    );
    outln!(
        out,
        "{}",
        render_table(
            &[
                "benchmark",
                "cyc/step",
                "paper",
                "sim ms",
                "paper ms",
                "ratio"
            ],
            &rows
        )
    );
    out
}
