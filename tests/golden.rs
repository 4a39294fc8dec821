//! Golden snapshot tests: the paper-table reports must match the
//! checked-in fixtures byte for byte.
//!
//! The fixtures under `tests/golden/` are the exact stdout of
//! `bw-bench table1`, `table5`, and `fig7`. Any change to the cycle
//! model, the BFP kernels, or the table formatting shows up here as a
//! reviewable fixture diff — regenerate with e.g.
//! `cargo run --release -p bw-bench -- table5 > tests/golden/table5.txt`.

use brainwave::core::ChainTrace;
use brainwave::prelude::*;
use bw_bench::reports;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn table1_matches_golden() {
    assert_eq!(reports::table1_report(), fixture("table1.txt"));
}

#[test]
fn table5_matches_golden() {
    assert_eq!(reports::table5_report(), fixture("table5.txt"));
}

#[test]
fn fig7_matches_golden() {
    assert_eq!(reports::fig7_report(), fixture("fig7.txt"));
}

#[test]
fn reports_are_deterministic_across_runs() {
    // The parallel suite must not introduce ordering nondeterminism.
    assert_eq!(reports::table5_report(), reports::table5_report());
}

// ---------------------------------------------------------------------------
// Per-chain schedule goldens. `tests/golden/chains_{lstm,gru}.txt` were
// written from `Npu::take_trace` at the commit *before* the scheduler moved
// into `bw_core`'s `sched::Timeline`, so they pin every chain's
// dispatch/dependency/start/occupancy/completion — not only run totals —
// independently of the code they now check. Both execution modes must
// reproduce them byte for byte.
// ---------------------------------------------------------------------------

fn chain_config() -> NpuConfig {
    NpuConfig::builder()
        .native_dim(16)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(128)
        .vrf_entries(256)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .expect("valid golden configuration")
}

/// Renders one run: the full `RunStats`, then one line per chain.
fn render_chains(stats: &RunStats, trace: &[ChainTrace]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "cycles={} chains={} instructions={} mvm_macs={} mfu_element_ops={} \
         mvm_busy_cycles={} pipeline_busy_cycles={} dep_stall_cycles={} \
         resource_stall_cycles={} net_vectors_in={} net_vectors_out={} \
         peak_flops_per_cycle={} clock_hz={}\n\
         kind dispatched_at dep_ready_at start occupancy completion\n",
        stats.cycles,
        stats.chains,
        stats.instructions,
        stats.mvm_macs,
        stats.mfu_element_ops,
        stats.mvm_busy_cycles,
        stats.pipeline_busy_cycles,
        stats.dep_stall_cycles,
        stats.resource_stall_cycles,
        stats.net_vectors_in,
        stats.net_vectors_out,
        stats.peak_flops_per_cycle,
        stats.clock_hz,
    );
    for t in trace {
        writeln!(
            out,
            "{:?} {} {} {} {} {}",
            t.kind, t.dispatched_at, t.dep_ready_at, t.start, t.occupancy, t.completion
        )
        .expect("writing to a String");
    }
    out
}

fn traced(mode: ExecMode, run: impl Fn(&mut Npu) -> RunStats) -> String {
    let mut npu = Npu::with_mode(chain_config(), mode);
    npu.set_trace(true);
    let stats = run(&mut npu);
    render_chains(&stats, &npu.take_trace())
}

#[test]
fn lstm_chain_schedule_matches_golden_in_both_modes() {
    let lstm = Lstm::new(&chain_config(), RnnDims::square(48));
    for mode in [ExecMode::Full, ExecMode::TimingOnly] {
        let got = traced(mode, |npu| lstm.run_timing_only(npu, 3).expect("lstm runs"));
        assert_eq!(got, fixture("chains_lstm.txt"), "{mode:?}");
    }
}

#[test]
fn gru_chain_schedule_matches_golden_in_both_modes() {
    let gru = Gru::new(&chain_config(), RnnDims::square(40));
    for mode in [ExecMode::Full, ExecMode::TimingOnly] {
        let got = traced(mode, |npu| gru.run_timing_only(npu, 4).expect("gru runs"));
        assert_eq!(got, fixture("chains_gru.txt"), "{mode:?}");
    }
}
