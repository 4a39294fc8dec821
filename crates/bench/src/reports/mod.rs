//! Report builders for the paper's tables and figures.
//!
//! Each builder returns the full plain-text report as a `String`. The
//! `bw-bench` subcommand of the same name prints it verbatim, and the
//! golden snapshot tests in `tests/golden.rs` compare it byte-for-byte
//! against a checked-in fixture — so a change to the cycle model, the BFP
//! kernels, or the table formatting shows up as a reviewable fixture diff.

/// `println!` into a report `String`.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

mod ablations;
mod calibrate;
mod fig2;
mod fig6_hdd;
mod lint;
mod power;
mod precision_sweep;
mod profile;
mod sla_study;
mod table2;
mod table3;
mod table4;
mod table6;

pub use ablations::ablations_report;
pub use calibrate::calibrate_report;
pub use fig2::fig2_report;
pub use fig6_hdd::fig6_hdd_report;
pub use lint::{lint_report, LintRequest, LintTarget};
pub use power::power_report;
pub use precision_sweep::precision_sweep_report;
pub use profile::{profile, Profile};
pub use sla_study::sla_study_report;
pub use table2::table2_report;
pub use table3::table3_report;
pub use table4::table4_report;
pub use table6::table6_report;

use bw_baselines::{titan_xp_point, GpuBatchModel, TITAN_XP};
use bw_core::{ExecMode, Npu, NpuConfig};
use bw_dataflow::{ConvCriticalPath, RnnCriticalPath};
use bw_models::{table5_suite, ConvLayer, ConvShape, RnnBenchmark, RnnKind};

use crate::{bw_s10_rnn, render_table, run_bw_s10, run_suite, sdm_latency_ms, BwRnnResult};

/// Builds the Table V report: DeepBench RNN inference at batch 1 — SDM
/// bound, simulated BW NPU, and the Titan Xp published baseline.
///
/// # Panics
///
/// Panics if the baseline dataset does not cover the suite.
pub fn table5_report() -> String {
    let suite = table5_suite();
    let results = run_suite(&suite);
    let mut rows = Vec::new();
    for (bench, bw) in suite.iter().zip(&results) {
        let sdm = sdm_latency_ms(bench);
        let xp = titan_xp_point(bench).expect("dataset covers the suite");

        rows.push(vec![
            bench.name(),
            "SDM".to_owned(),
            format!("{sdm:.4}"),
            "-".to_owned(),
            "-".to_owned(),
        ]);
        rows.push(vec![
            String::new(),
            "BW (sim)".to_owned(),
            format!("{:.4}", bw.latency_ms),
            format!("{:.2}", bw.tflops),
            format!("{:.1}", bw.utilization_pct),
        ]);
        rows.push(vec![
            String::new(),
            "Titan Xp".to_owned(),
            format!("{:.2}", xp.latency_ms),
            format!("{:.2}", xp.tflops),
            format!("{:.1}", xp.utilization_pct),
        ]);
    }

    let mut out = String::new();
    out.push_str("Table V: DeepBench RNN inference performance, batch size 1\n");
    out.push_str("(BW: simulated BW_S10 at 250 MHz; Titan Xp: published DeepBench results)\n\n");
    out.push_str(&render_table(
        &["benchmark", "device", "latency (ms)", "TFLOPS", "% util"],
        &rows,
    ));

    // Headline ratios the paper calls out.
    let big = &suite[0];
    let bw = &results[0];
    let xp = titan_xp_point(big).expect("covered");
    out.push_str(&format!(
        "headline: {} -> BW {:.2} ms vs Titan Xp {:.1} ms ({:.0}x lower latency, {:.0}x TFLOPS)\n",
        big.name(),
        bw.latency_ms,
        xp.latency_ms,
        xp.latency_ms / bw.latency_ms,
        bw.tflops / xp.tflops,
    ));
    out
}

/// Builds the Figure 7 report: hardware utilization across the DeepBench
/// RNN inference experiments at batch 1, as a text bar chart.
///
/// # Panics
///
/// Panics if the baseline dataset does not cover the suite.
pub fn fig7_report() -> String {
    fn bar(pct: f64) -> String {
        let width = (pct / 2.0).round() as usize; // 2% per character
        "#".repeat(width.min(50))
    }

    let suite = table5_suite();
    let results = run_suite(&suite);
    let mut out = String::new();
    out.push_str("Figure 7: utilization across DeepBench RNN inference, batch 1\n");
    out.push_str("(percentage of peak FLOPS; 1 '#' = 2%)\n\n");
    for (bench, bw) in suite.iter().zip(&results) {
        let xp = titan_xp_point(bench).expect("dataset covers the suite");
        out.push_str(&format!("{:<20}\n", bench.name()));
        out.push_str(&format!(
            "  BW (sim)  {:>5.1}% |{}\n",
            bw.utilization_pct,
            bar(bw.utilization_pct)
        ));
        out.push_str(&format!(
            "  Titan Xp  {:>5.1}% |{}\n",
            xp.utilization_pct,
            bar(xp.utilization_pct)
        ));
    }
    out.push_str(
        "\nShape check: BW utilization climbs with hidden dimension (23-75% for\n\
         dims > 1500 in the paper) while the GPU stays in single digits at batch 1.\n",
    );
    out
}

/// Builds the Figure 8 report: utilization scaling with batch size.
///
/// BW executes a single input at a time, so its utilization is flat in
/// batch (verified by simulating the requests back to back, §VII-B3); the
/// GPU's utilization climbs with batch per the analytic model anchored at
/// the published batch-1 points. The "BW interleaved" rows run the
/// batch-interleaved firmware, the paper's §VII-B3 future-work
/// optimization ("interleaving the computation for each RNN timestep
/// among all input batches").
///
/// # Panics
///
/// Panics if the baseline dataset does not cover the suite.
pub fn fig8_report() -> String {
    let back_to_back = |bench: &RnnBenchmark, batch: u32| {
        let mut seq = *bench;
        seq.timesteps *= batch;
        run_bw_s10(&seq).utilization_pct
    };
    let interleaved = |bench: &RnnBenchmark, batch: u32| {
        let (cfg, rnn) = bw_s10_rnn(bench.kind, bench.dims());
        let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
        let stats = rnn
            .run_timing_only_batched(&mut npu, bench.timesteps, batch)
            .expect("sized");
        stats.effective_utilization(bench.ops() * u64::from(batch)) * 100.0
    };

    let row = |layer: String, device: &str, cells: [f64; 4]| -> Vec<String> {
        let cells = cells.iter().map(|v| format!("{v:.1}"));
        [layer, device.to_owned()]
            .into_iter()
            .chain(cells)
            .collect()
    };

    let batches = [1u32, 2, 4, 32];
    let mut rows = Vec::new();
    // The medium and large layers Figure 8 plots, truncated to at most 50
    // steps (per-step behaviour is batch-independent); the GPU model reads
    // the suite entry's own published point.
    for canonical in table5_suite().into_iter().filter(|b| b.hidden >= 1024) {
        let xp_b1 = titan_xp_point(&canonical).expect("dataset covers the suite");
        let gpu = GpuBatchModel::from_point(&xp_b1, TITAN_XP.peak_tflops);
        let bench = RnnBenchmark {
            timesteps: canonical.timesteps.min(50),
            ..canonical
        };
        let layer = format!("{} {}", bench.kind, bench.hidden);
        let bw = batches.map(|b| back_to_back(&bench, b));
        let il = batches.map(|b| interleaved(&bench, b));
        let gpu = batches.map(|b| gpu.utilization(b) * 100.0);
        rows.push(row(layer, "BW (sim)", bw));
        rows.push(row(String::new(), "BW interleaved", il));
        rows.push(row(String::new(), "Titan Xp", gpu));
    }

    let mut out = String::new();
    out.push_str("Figure 8: % utilization vs. batch size\n");
    out.push_str("(BW utilization is flat — it serves requests one at a time; the GPU\n");
    out.push_str(" needs batching to fill its SMs. 'BW interleaved' implements the\n");
    out.push_str(" paper's §VII-B3 future-work timestep interleaving for LSTMs.)\n\n");
    out.push_str(&render_table(
        &["layer", "device", "b=1", "b=2", "b=4", "b=32"],
        &rows,
    ));
    // Consistency check against the single-request harness.
    let check = run_bw_s10(&table5_suite()[2]);
    out.push_str(&format!(
        "\ncross-check: GRU-2048 single-request utilization {:.1}%\n",
        check.utilization_pct
    ));
    out
}

/// A per-layer CNN specialization at the BW_S10 MAC budget (~96,000 MACs
/// at 250 MHz): the native dimension matches the layer's channel counts
/// and the MFU stream is widened to one native vector per cycle (§VII-B2's
/// "increasing MFU resources"). Each output position is one chain, so the
/// structural floor is one cycle per position — see `EXPERIMENTS.md` for
/// the resulting deviation on very position-heavy 1×1 layers.
fn cnn_specialized(native_dim: u32, lanes: u32, engines: u32) -> NpuConfig {
    NpuConfig::builder()
        .name("BW_S10_CNN")
        .native_dim(native_dim)
        .lanes(lanes)
        .tile_engines(engines)
        .mfu_lanes(native_dim)
        .mrf_entries(256)
        .vrf_entries(4096)
        .clock_mhz(250.0)
        .build()
        .expect("CNN-specialized configuration is valid")
}

fn mb(bytes: u64) -> String {
    if bytes >= 1_000_000 {
        format!("{:.0}MB", bytes as f64 / 1e6)
    } else {
        format!("{}KB", bytes / 1024)
    }
}

/// Builds the Table I report: critical-path analysis of LSTM, GRU, and
/// CNN. RNN rows report one time step; the BW cycles column is the
/// simulator's steady-state per-step latency.
///
/// # Panics
///
/// Panics if a harness configuration fails to simulate.
pub fn table1_report() -> String {
    let mut rows = Vec::new();

    // --- RNN rows: per-time-step analysis at the paper's dimensions. ---
    let steps = 50;
    let rnn_cases = [
        ("LSTM 2000x2000", RnnKind::Lstm, 2000usize, 718u64),
        ("GRU 2800x2800", RnnKind::Gru, 2800, 662),
    ];
    let sims: Vec<BwRnnResult> = run_suite(
        &rnn_cases
            .iter()
            .map(|&(_, kind, dim, _)| RnnBenchmark::new(kind, dim, steps))
            .collect::<Vec<_>>(),
    );
    for ((label, kind, dim, paper_bw), sim) in rnn_cases.into_iter().zip(&sims) {
        let cp = RnnCriticalPath::new(kind, dim as u64, dim as u64);
        rows.push(vec![
            label.to_owned(),
            format!("{}M", cp.ops_per_step / 1_000_000),
            cp.udm_step_cycles.to_string(),
            cp.sdm_cycles(1, 96_000).to_string(),
            (sim.cycles / u64::from(steps)).to_string(),
            format!("(paper {paper_bw})"),
            mb(cp.weight_bytes()),
        ]);
    }

    // --- CNN rows, each on its own specialization. ---
    for (label, shape, cfg, paper_bw) in [
        (
            "CNN In:28x28x128 K:128x3x3",
            ConvShape {
                h: 28,
                w: 28,
                c_in: 128,
                k: 3,
                c_out: 128,
                stride: 1,
                pad: 1,
            },
            // 47 x 128 x 16 = 96,256 MACs; 128 divides both channel counts.
            cnn_specialized(128, 16, 47),
            1326u64,
        ),
        (
            "CNN In:56x56x64 K:256x1x1",
            ConvShape {
                h: 56,
                w: 56,
                c_in: 64,
                k: 1,
                c_out: 256,
                stride: 1,
                pad: 0,
            },
            // 12 x 256 x 32 = 98,304 MACs; all 256 output channels form
            // one native vector per position.
            cnn_specialized(256, 32, 12),
            646,
        ),
    ] {
        let cp = ConvCriticalPath::new(
            shape.h as u64,
            shape.w as u64,
            shape.c_in as u64,
            shape.k as u64,
            shape.c_out as u64,
            shape.stride as u64,
            shape.pad as u64,
        );

        let conv = ConvLayer::new(&cfg, shape);
        let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
        let stats = conv
            .run_timing_only(&mut npu, 0)
            .expect("sized config runs");
        rows.push(vec![
            label.to_owned(),
            format!("{}M", cp.ops / 1_000_000),
            cp.udm_cycles.to_string(),
            cp.sdm_cycles(96_000).to_string(),
            stats.cycles.to_string(),
            format!("(paper {paper_bw})"),
            mb(cp.data_bytes),
        ]);
    }

    let mut out = String::new();
    out.push_str("Table I: critical-path analysis of LSTM, GRU, and CNN\n");
    out.push_str("(UDM/SDM with unit-latency FUs; SDM and BW at 96,000 MACs)\n\n");
    out.push_str(&render_table(
        &["model", "ops", "UDM", "SDM", "BW NPU", "", "data"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_report_contains_every_benchmark() {
        let report = table5_report();
        for bench in table5_suite() {
            assert!(report.contains(&bench.name()), "missing {}", bench.name());
        }
        assert!(report.contains("headline:"));
    }

    #[test]
    fn table1_report_has_rnn_and_cnn_rows() {
        let report = table1_report();
        assert!(report.contains("LSTM 2000x2000"));
        assert!(report.contains("GRU 2800x2800"));
        assert!(report.contains("CNN In:28x28x128 K:128x3x3"));
        assert!(report.contains("CNN In:56x56x64 K:256x1x1"));
    }
}
