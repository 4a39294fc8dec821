//! Deep-dive profiler: runs one DeepBench RNN on the simulated BW_S10
//! with full tracing and emits both a Perfetto-loadable Chrome trace and
//! a bottleneck report built on the chain-trace rollup.
//!
//! Flags:
//! - `--kind K`        lstm | gru (default lstm)
//! - `--hidden N`      hidden dimension (default 1024; 256 with --quick)
//! - `--steps N`       timesteps (default 25; 5 with --quick)
//! - `--quick`         CI smoke mode: small model, few steps
//! - `--trace-out P`   also write the Chrome trace JSON to `P`
//! - `--report-out P`  also write the bottleneck report to `P`
//! - `--validate`      re-parse the emitted trace and exit 1 unless it
//!   holds at least one complete span
//!
//! The report goes to stdout; no file is written unless asked for. Open
//! the trace at <https://ui.perfetto.dev> (or `chrome://tracing`): one
//! process per NPU, with lanes for the pipeline, MVM/MFU streams, and
//! exposed stalls.

use std::process::ExitCode;

use bw_bench::bw_s10_rnn;
use bw_core::{ExecMode, KernelMode, Npu, SpanKind, TraceSummary};
use bw_models::{RnnBenchmark, RnnKind};
use bw_trace::json::Writer;
use bw_trace::{chrome_trace_json, spans_to_chrome, validate_chrome_trace};

use crate::cli::{Args, Gate};

fn write_file(gate: &mut Gate, path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => gate.fail(format!("write {path}: {e}")),
    }
}

pub fn run(args: &Args) -> ExitCode {
    let quick = args.has("--quick");
    let kind = match args.get::<String>("--kind").as_deref() {
        None | Some("lstm") => RnnKind::Lstm,
        Some("gru") => RnnKind::Gru,
        Some(k) => args.usage_error(&format!("unknown kind `{k}`")),
    };
    let hidden = args
        .get("--hidden")
        .unwrap_or(if quick { 256 } else { 1024 });
    let steps = args.get("--steps").unwrap_or(if quick { 5 } else { 25 });
    let bench = RnnBenchmark::new(kind, hidden, steps);
    eprintln!("profiling {} on BW_S10 (timing-only, traced)", bench.name());

    // Same harness as `run_bw_s10`, traced: the chain records feed the
    // bottleneck rollup and the spans the Perfetto export.
    let (clock_hz, stats, chain_trace, spans) = {
        let (cfg, rnn) = bw_s10_rnn(bench.kind, bench.dims());
        let clock_hz = cfg.clock_hz();
        let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
        npu.set_kernel_mode(KernelMode::Fast);
        npu.set_trace(true);
        let stats = rnn
            .run_timing_only(&mut npu, bench.timesteps)
            .expect("sized configuration runs");
        (clock_hz, stats, npu.take_trace(), npu.take_spans())
    };

    let mut gate = Gate::default();

    // Perfetto trace.
    let events = spans_to_chrome(&spans, clock_hz, 0.0);
    let doc = chrome_trace_json(&events);
    if let Some(path) = args.get::<String>("--trace-out") {
        write_file(&mut gate, &path, &doc);
        eprintln!("{} spans; open at https://ui.perfetto.dev", spans.len());
    }

    // Bottleneck report.
    let summary = TraceSummary::from_trace(&chain_trace);
    let ops = bench.ops();
    let mut w = Writer::new();
    w.begin_object().key("bench").string("profile");
    w.key("model").string(&bench.name());
    w.key("mode").string(if quick { "quick" } else { "full" });
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
    let report = w.finish();
    println!("{report}");
    if let Some(path) = args.get::<String>("--report-out") {
        write_file(&mut gate, &path, &report);
    }

    if args.has("--validate") {
        let runs = spans.iter().filter(|s| s.kind == SpanKind::Run).count();
        match validate_chrome_trace(&doc) {
            Ok(complete) => {
                gate.check(complete > 0 && runs > 0, || {
                    format!("expected at least one complete span ({complete}) and one run span ({runs})")
                });
                eprintln!("validated: {complete} complete spans, {runs} run spans");
            }
            Err(e) => gate.fail(format!("emitted trace does not validate: {e}")),
        }
    }
    gate.finish()
}
