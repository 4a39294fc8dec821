//! One run: set-up, trials of fixed op counts, the run-level estimate,
//! and for a traced run the span trace and every layer's session.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::host::{canary_ns, peak_rss_mib, process_cpu_ns, CANARY_REFERENCE_NS};
use crate::layers::{probe_layers, Metrics, PER_LAYER};
use crate::span::Tracer;
use crate::trial::{
    at_reference, end_to_end, Phase, Sizes, Timed, Trial, END_TO_END, QUIET_SHARE,
    REPORTED_QUANTILE,
};
use crate::workload::{build, Workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is estimated from them as a trial
/// metric is from the trials.
const SETUPS: usize = 9;
/// A run has at least this many trials, whatever `--seconds` says.
const MIN_TRIALS: usize = 20;
/// A traced run measures the selected workload for at most this long,
/// alternating untraced and traced trials: enough for the layer medians,
/// and the spans still fit in memory.
const TRACED_BUDGET: Duration = Duration::from_secs(8);
/// Traced trials of each other layer's session in a traced run.
const SESSION_TRIALS: usize = 25;
/// Spans written to the Chrome trace; all of them are kept in memory and
/// enter the layer metrics.
const EXPORTED_SPANS: usize = 50_000;

/// What a run prints as its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Violated checks; empty when the run is correct.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The contract's result object, on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs trials until the next would overrun `budget` (at least
/// `MIN_TRIALS`), `tracers` taking turns, one trial each, with a canary
/// reading before the first trial and after every trial.
fn run_trials(w: &mut dyn Workload, budget: Duration, tracers: &mut [&mut Tracer]) -> Vec<Trial> {
    let mut trials: Vec<Trial> = Vec::new();
    let t0 = Instant::now();
    let mut before = canary_ns();
    loop {
        let per_trial = t0.elapsed().div_f64(trials.len().max(1) as f64);
        if trials.len() >= MIN_TRIALS && t0.elapsed() + per_trial > budget {
            break;
        }
        let tracer = &mut *tracers[trials.len() % tracers.len()];
        let mut trial = w.trial(tracer);
        let after = canary_ns();
        trial.canary_ns = [before, after];
        before = after;
        trials.push(trial);
    }
    trials
}

fn tally(trials: &[Trial]) -> (u64, u64) {
    let phases = || trials.iter().flat_map(Trial::phases);
    (
        phases().map(|p| p.attempted).sum(),
        phases().map(|p| p.failed).sum(),
    )
}

fn print_sizes(sizes: Sizes) {
    println!(
        "# trial sizes: unloaded_ops={} loaded_ops={} window={} warmup_ops={}",
        sizes.unloaded_ops, sizes.loaded_ops, sizes.window, sizes.warmup_ops
    );
}

/// Best canary reading beside a trial and worst ÷ best.
fn print_canaries(trials: &[Trial]) -> (f64, f64) {
    let canaries: Vec<u64> = trials.iter().map(|t| t.canary_ns[1]).collect();
    let best = canaries.iter().copied().min().unwrap_or(0) as f64;
    let worst = canaries.iter().copied().max().unwrap_or(0) as f64;
    let spread = worst / best.max(1.0);
    println!(
        "host canary: best {:.2} ms, median {:.2} ms, worst/best {spread:.2} over {} readings; reference {:.2} ms",
        best / 1e6,
        crate::stats::median_u64(&canaries) / 1e6,
        canaries.len(),
        CANARY_REFERENCE_NS / 1e6
    );
    (best, spread)
}

/// How one per-phase quantity is spread over a run's phases: what the
/// quiet set was picked from.
fn print_spread(label: &str, unit: &str, mut values: Vec<f64>) {
    values.sort_by(f64::total_cmp);
    let at = |p: f64| values[((values.len() - 1) as f64 * p).round() as usize];
    println!(
        "{label:<22} {unit:>6}  best {:>11.3}  p10 {:>11.3}  p25 {:>11.3}  median {:>11.3}  worst {:>11.3}",
        at(0.0),
        at(0.1),
        at(0.25),
        at(0.5),
        at(1.0)
    );
}

/// Per phase kind: how time per op is spread over the run's phases
/// before any scaling — wall time for the unloaded phases, whose
/// latencies are wall times, and CPU time for the loaded ones — and the
/// ops attempted, correct and failed.
fn print_phases(trials: &[Trial]) {
    println!(
        "trials: {} (reported: percentile {:.0} of the scaled times of the {:.0} % beside the fastest canary readings)",
        trials.len(),
        100.0 * REPORTED_QUANTILE,
        100.0 * QUIET_SHARE
    );
    let unloaded: Vec<&Phase> = trials.iter().filter_map(|t| t.unloaded.as_ref()).collect();
    let loaded: Vec<&Phase> = trials.iter().map(|t| &t.loaded).collect();
    print_kind("unloaded wall", &unloaded, |p| p.wall_ns);
    print_kind("loaded cpu", &loaded, |p| p.cpu_ns);
}

fn print_kind(label: &str, phases: &[&Phase], time: fn(&Phase) -> u64) {
    if phases.is_empty() {
        return;
    }
    let us_per_op = |p: &&Phase| time(p) as f64 / 1e3 / p.attempted.max(1) as f64;
    print_spread(
        &format!("{label} per op"),
        "us",
        phases.iter().map(us_per_op).collect(),
    );
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    println!(
        "ops {label}: attempted {attempted} correct {} failed {failed}",
        attempted - failed
    );
}

/// The untraced run: the only source of end-to-end metrics.
pub fn run_untraced(workload: &str, seed: u64, seconds: u64) -> Outcome {
    // Each set-up is timed between two canary readings, as a trial is,
    // and in CPU time of all threads, as a loaded phase is: compiling,
    // pinning, spawning and warming up keep the one CPU busy.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut slot: Option<Box<dyn Workload>> = None;
    let mut before = canary_ns();
    for _ in 0..SETUPS {
        // Tear the previous one down first: its threads and sockets are
        // not part of the next set-up.
        drop(slot.take());
        let cpu0 = process_cpu_ns();
        slot = Some(build(workload, seed));
        let ns = (process_cpu_ns() - cpu0) as f64;
        let after = canary_ns();
        setups.push(Timed {
            canary_ns: [before, after],
            ns,
        });
        before = after;
    }
    let mut w = slot.expect("at least one set-up");
    print_sizes(w.sizes());
    println!(
        "# set-ups: {:.4?} s",
        setups.iter().map(|t| t.ns / 1e9).collect::<Vec<_>>()
    );

    let budget = Duration::from_secs(seconds);
    let trials = run_trials(&mut *w, budget, &mut [&mut Tracer::new(false)]);
    let errors = w.finish();
    let from_trials = end_to_end(&trials);
    drop(w);

    print_phases(&trials);
    print_canaries(&trials);
    let (attempted, failed) = tally(&trials);
    let metrics = END_TO_END
        .iter()
        .map(|(name, unit, _)| {
            let value = match *name {
                "setup_s" => at_reference(&setups) / 1e9,
                "peak_rss_mb" => peak_rss_mib(),
                name => {
                    from_trials
                        .iter()
                        .find(|(n, _)| *n == name)
                        .expect("a metric from trials")
                        .1
                }
            };
            println!("{name:<20} {value:>16.4} {unit}");
            (*name, value, *unit)
        })
        .collect();
    Outcome {
        attempted,
        failed,
        errors,
        metrics,
    }
}

/// `<target dir>/ledger`, next to the profile directory the binary runs
/// from, so that the trace lands inside the checkout and under a path
/// `.gitignore` names.
fn trace_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let target = exe
        .ancestors()
        .nth(2)
        .expect("binary sits in <target>/<profile>/");
    target.join("ledger")
}

/// Writes the first spans as a Chrome trace and validates what was
/// written.
fn export_trace(workload: &str, tracer: &Tracer) -> Result<(), String> {
    let events = tracer.chrome_events(EXPORTED_SPANS);
    let json = bw_trace::chrome_trace_json(&events);
    let complete = bw_trace::validate_chrome_trace(&json)?;
    if complete != events.len() {
        return Err(format!(
            "Chrome trace holds {complete} of {} spans",
            events.len()
        ));
    }
    let dir = trace_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} of {} spans written to {}",
        events.len(),
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn print_self_times(tracer: &Tracer) {
    let mut names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "{:<24} {:>9} {:>14} {:>14}",
        "span", "count", "median_us", "self_median_us"
    );
    for name in names {
        let (d, s) = (tracer.durations_ns(name), tracer.self_times_ns(name));
        println!(
            "{:<24} {:>9} {:>14.3} {:>14.3}",
            name,
            d.len(),
            crate::stats::median_u64(&d) / 1e3,
            crate::stats::median_u64(&s) / 1e3
        );
    }
}

/// The traced run: the selected workload, untraced and traced trials
/// taking turns, then a short traced session of every other layer, with
/// the workload-free probes first — every per-layer metric, from one
/// command.
pub fn run_traced(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let mut out = Metrics::default();
    let probes = probe_layers(seed, &mut out);

    let mut w = build(workload, seed);
    print_sizes(w.sizes());
    let mut tracer = Tracer::new(true);
    let budget = Duration::from_secs(seconds).min(TRACED_BUDGET);
    let trials = run_trials(&mut *w, budget, &mut [&mut Tracer::new(false), &mut tracer]);
    let plain: Vec<Trial> = trials.iter().step_by(2).cloned().collect();
    let traced: Vec<Trial> = trials.iter().skip(1).step_by(2).cloned().collect();
    let (mut attempted, mut failed) = tally(&trials);

    let (canary_best, canary_spread) = print_canaries(&trials);
    out.put("host.canary_ns", canary_best);
    out.put("host.canary_spread", canary_spread);
    let ops_per_s = |trials: &[Trial]| end_to_end(trials)[0].1;
    out.put(
        "trace_overhead_pct",
        100.0 * (1.0 - ops_per_s(&traced) / ops_per_s(&plain)),
    );
    out.put("trials", traced.len() as f64);
    out.put("ops_per_trial", w.sizes().ops_per_trial() as f64);
    let counts = w.op_counts();
    out.put("core.cycles_per_op", counts.cycles as f64);
    out.put("core.chains_per_op", counts.chains as f64);
    out.put("core.instructions_per_op", counts.instructions as f64);
    out.put("core.mvm_macs_per_op", counts.mvm_macs as f64);
    out.put("core.mvm_busy_cycles_per_op", counts.mvm_busy_cycles as f64);
    out.put(
        "core.dep_stall_cycles_per_op",
        counts.dep_stall_cycles as f64,
    );
    out.put(
        "core.resource_stall_cycles_per_op",
        counts.resource_stall_cycles as f64,
    );

    w.layer_metrics(&traced, &tracer, &probes, &mut out);
    let mut errors = w.finish();
    drop(w);
    print_self_times(&tracer);
    if let Err(e) = export_trace(workload, &tracer) {
        errors.push(format!("Chrome trace: {e}"));
    }
    drop(tracer);

    for other in WORKLOADS.iter().filter(|o| **o != workload) {
        let mut session = build(other, seed);
        let mut spans = Tracer::new(true);
        let trials: Vec<Trial> = (0..SESSION_TRIALS)
            .map(|_| session.trial(&mut spans))
            .collect();
        let (a, f) = tally(&trials);
        attempted += a;
        failed += f;
        session.layer_metrics(&trials, &spans, &probes, &mut out);
        errors.extend(
            session
                .finish()
                .into_iter()
                .map(|e| format!("{other}: {e}")),
        );
    }

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = out
                .get(name)
                .unwrap_or_else(|| panic!("{name} was not measured"));
            println!("{name:<36} {value:>16.4} {unit}");
            (*name, value, *unit)
        })
        .collect();
    Outcome {
        attempted,
        failed,
        errors,
        metrics,
    }
}
