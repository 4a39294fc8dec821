//! Shared harness machinery for regenerating the paper's tables and
//! figures.
//!
//! Each table/figure is a `bw-bench <subcommand>` (`table1`, `table5`,
//! `fig7`, …; `bw-bench help` lists them); this library holds the code
//! they share with the golden tests and the ledger: running a DeepBench
//! point on a simulated BW_S10, computing the matching SDM bound, and
//! plain-text table formatting.
//!
//! ## Quickstart
//!
//! ```
//! use bw_bench::{run_bw_s10, sdm_latency_ms};
//! use bw_models::{RnnBenchmark, RnnKind};
//!
//! let bench = RnnBenchmark::new(RnnKind::Lstm, 256, 10);
//! let result = run_bw_s10(&bench);
//! assert!(result.cycles > 0);
//! // The structural-dataflow-model bound is a lower bound on BW latency.
//! assert!(sdm_latency_ms(&bench) < result.latency_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bw_core::{ExecMode, Npu, NpuConfig, RunStats};
use bw_dataflow::RnnCriticalPath;
use bw_models::{Rnn, RnnBenchmark, RnnDims, RnnKind};

pub mod reports;

/// The simulated BW result for one DeepBench benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct BwRnnResult {
    /// The benchmark.
    pub bench: RnnBenchmark,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Latency in milliseconds at the configured clock.
    pub latency_ms: f64,
    /// Effective TFLOPS on true model operations.
    pub tflops: f64,
    /// Effective utilization as a percentage of peak.
    pub utilization_pct: f64,
    /// The raw run statistics.
    pub stats: RunStats,
}

/// A BW_S10-shaped configuration with the MRF/VRF sized for the given
/// model footprint (the paper deploys a per-model synthesis-specialized
/// instance; the datapath is held at the Table III BW_S10 shape and only
/// the memories scale — see `EXPERIMENTS.md`).
pub fn bw_s10_sized(mrf_entries: u32) -> NpuConfig {
    let base = NpuConfig::bw_s10();
    NpuConfig::builder()
        .name("BW_S10")
        .native_dim(base.native_dim())
        .lanes(base.lanes())
        .tile_engines(base.tile_engines())
        .mfus(base.mfus())
        .mrf_entries(mrf_entries.max(base.mrf_entries()))
        .vrf_entries(4096)
        .clock_mhz(base.clock_hz() / 1e6)
        .matrix_format(base.matrix_format())
        .timing(*base.timing())
        .build()
        .expect("BW_S10-shaped configuration is valid")
}

/// A recurrent cell planned on BW_S10, and the BW_S10-shaped
/// configuration sized for its weights ([`bw_s10_sized`]): the Table V
/// set-up every harness runs.
pub fn bw_s10_rnn(kind: RnnKind, dims: RnnDims) -> (NpuConfig, Rnn) {
    let rnn = Rnn::new(kind, &NpuConfig::bw_s10(), dims);
    (bw_s10_sized(rnn.mrf_entries_required()), rnn)
}

/// Runs one DeepBench RNN benchmark on the simulated BW_S10 in
/// timing-only mode and reports the paper's Table V metrics.
///
/// # Panics
///
/// Panics if the simulation fails — harness configurations are sized to
/// make that a bug, not a runtime condition.
pub fn run_bw_s10(bench: &RnnBenchmark) -> BwRnnResult {
    let (cfg, rnn) = bw_s10_rnn(bench.kind, bench.dims());
    let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
    let stats = rnn
        .run_timing_only(&mut npu, bench.timesteps)
        .expect("sized configuration runs");
    let ops = bench.ops();
    BwRnnResult {
        bench: *bench,
        cycles: stats.cycles,
        latency_ms: stats.latency_ms(),
        tflops: stats.effective_tflops(ops),
        utilization_pct: stats.effective_utilization(ops) * 100.0,
        stats,
    }
}

/// Runs a set of DeepBench benchmarks across worker threads (one per
/// available core) and returns the results in `benches` order.
///
/// # Panics
///
/// Panics if a worker thread panics (i.e. a benchmark fails to simulate).
pub fn run_suite(benches: &[RnnBenchmark]) -> Vec<BwRnnResult> {
    let results: std::sync::Mutex<Vec<Option<BwRnnResult>>> =
        std::sync::Mutex::new(vec![None; benches.len()]);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(benches.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= benches.len() {
                    break;
                }
                let result = run_bw_s10(&benches[i]);
                results.lock().unwrap()[i] = Some(result);
            });
        }
    });

    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|p| p.expect("every index filled"))
        .collect()
}

/// The SDM latency (ms) for a DeepBench benchmark at BW_S10's clock and
/// MAC budget — the "SDM" rows of Table V.
pub fn sdm_latency_ms(bench: &RnnBenchmark) -> f64 {
    let cp = RnnCriticalPath::new(bench.kind, bench.hidden as u64, bench.hidden as u64);
    let cycles = cp.sdm_cycles(u64::from(bench.timesteps), 96_000);
    cycles as f64 / 250e6 * 1e3
}

/// Renders a plain-text table: a header row plus data rows, columns padded
/// to their widest cell.
pub(crate) fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            let width = widths[i];
            out.push_str(&format!("{cell:>width$}"));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_models::table5_suite;

    #[test]
    fn bw_s10_sized_keeps_datapath_shape() {
        let cfg = bw_s10_sized(2000);
        assert_eq!(cfg.mac_count(), 96_000);
        assert_eq!(cfg.mrf_entries(), 2000);
        assert_eq!(cfg.peak_tflops(), 48.0);
        // Never shrinks below the Table III size.
        assert_eq!(bw_s10_sized(10).mrf_entries(), 306);
    }

    #[test]
    fn run_bw_s10_reproduces_table5_shape() {
        // Spot-check the headline row: the big GRU must land within ~2x of
        // the paper's 1.987 ms / 35.9 TFLOPS at batch 1.
        let bench = RnnBenchmark::new(RnnKind::Gru, 2816, 750);
        let r = run_bw_s10(&bench);
        assert!(
            (1.0..4.0).contains(&r.latency_ms),
            "latency {} ms",
            r.latency_ms
        );
        assert!(r.tflops > 20.0, "tflops {}", r.tflops);
        assert!(r.utilization_pct > 40.0, "util {}%", r.utilization_pct);
    }

    #[test]
    fn utilization_rises_with_hidden_dimension() {
        let small = run_bw_s10(&RnnBenchmark::new(RnnKind::Lstm, 256, 10));
        let large = run_bw_s10(&RnnBenchmark::new(RnnKind::Lstm, 2048, 10));
        assert!(large.utilization_pct > 10.0 * small.utilization_pct);
    }

    #[test]
    fn sdm_bounds_below_bw_everywhere() {
        for bench in table5_suite() {
            let sdm = sdm_latency_ms(&bench);
            let bw = run_bw_s10(&bench).latency_ms;
            assert!(
                sdm < bw,
                "{}: SDM {sdm:.4} ms must lower-bound BW {bw:.4} ms",
                bench.name()
            );
        }
    }

    #[test]
    fn render_table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "123456".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("123456"));
    }
}
