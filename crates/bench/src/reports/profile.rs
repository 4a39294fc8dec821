//! The `profile` subcommand's run: one DeepBench RNN on BW_S10, traced,
//! and its bottleneck report.

use bw_core::{ExecMode, Npu, SpanRecord, TraceSummary};
use bw_models::RnnBenchmark;
use bw_trace::json::Writer;

use crate::bw_s10_rnn;

/// One traced run of a DeepBench RNN and what `bw-bench profile` reports.
pub struct Profile {
    /// The bottleneck report: one JSON object, no trailing newline.
    pub report: String,
    /// Every span the run recorded, for the Perfetto export.
    pub spans: Vec<SpanRecord>,
    /// The configuration's clock, which places the spans in time.
    pub clock_hz: f64,
}

/// Runs `bench` on the simulated BW_S10 in timing-only mode, traced — the
/// harness of [`crate::run_bw_s10`] — and builds its bottleneck report from
/// the chain-trace rollup. `mode` names the run in the report (`quick` or
/// `full`).
///
/// # Panics
///
/// If the sized configuration cannot run the benchmark.
pub fn profile(bench: &RnnBenchmark, mode: &str) -> Profile {
    let (cfg, rnn) = bw_s10_rnn(bench.kind, bench.dims());
    let clock_hz = cfg.clock_hz();
    let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
    npu.set_trace(true);
    let stats = rnn
        .run_timing_only(&mut npu, bench.timesteps)
        .expect("sized configuration runs");
    let (chain_trace, spans) = (npu.take_trace(), npu.take_spans());

    let summary = TraceSummary::from_trace(&chain_trace);
    let ops = bench.ops();
    let mut w = Writer::new();
    w.begin_object().key("bench").string("profile");
    w.key("model").string(&bench.name());
    w.key("mode").string(mode);
    w.key("cycles").uint(stats.cycles);
    w.key("latency_ms").fixed(stats.latency_ms(), 6);
    w.key("tflops").fixed(stats.effective_tflops(ops), 3);
    w.key("utilization_pct")
        .fixed(stats.effective_utilization(ops) * 100.0, 2);
    w.key("end_cycle").uint(summary.end_cycle);
    w.key("worst_dep_stall");
    match summary.worst_dep_stall {
        Some((idx, cycles)) => {
            w.begin_object().key("trace_index").uint(idx as u64);
            w.key("exposed_cycles").uint(cycles).end_object()
        }
        None => w.null(),
    };
    w.key("span_count").uint(spans.len() as u64);
    w.key("kinds").begin_object();
    for (name, k) in &summary.kinds {
        w.key(name).begin_object();
        w.key("chains").uint(k.chains);
        w.key("busy_cycles").uint(k.busy_cycles);
        w.key("resource_wait_cycles").uint(k.resource_wait_cycles);
        w.key("dep_wait_cycles").uint(k.dep_wait_cycles);
        w.key("occupancy").fixed(summary.occupancy(name), 4);
        w.end_object();
    }
    w.end_object().end_object();
    Profile {
        report: w.finish(),
        spans,
        clock_hz,
    }
}
