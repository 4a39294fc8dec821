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

use bw_bench::reports::{profile, Profile};
use bw_core::SpanKind;
use bw_models::{RnnBenchmark, RnnKind};
use bw_trace::{chrome_trace_json, spans_to_chrome, validate_chrome_trace};

use crate::cli::{Args, Gate};

fn write_file(gate: &mut Gate, path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => gate.fail(format!("write {path}: {e}")),
    }
}

pub(crate) fn run(args: &Args) -> ExitCode {
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
    let Profile {
        report,
        spans,
        clock_hz,
    } = profile(&bench, if quick { "quick" } else { "full" });

    let mut gate = Gate::default();

    // Perfetto trace.
    let events = spans_to_chrome(&spans, clock_hz, 0.0);
    let doc = chrome_trace_json(&events);
    if let Some(path) = args.get::<String>("--trace-out") {
        write_file(&mut gate, &path, &doc);
        eprintln!("{} spans; open at https://ui.perfetto.dev", spans.len());
    }

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
