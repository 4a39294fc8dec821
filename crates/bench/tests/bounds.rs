//! Golden containment: the static cycle-bound analysis must bracket the
//! cycle-level simulator on the Table V / Figure 7 DeepBench suite.
//!
//! The bound is a data-free replay of the scheduler recurrence, so with
//! staged inputs (which is how `run_timing_only` drives the NPU) the
//! window collapses to the exact measured count — containment here is an
//! equality-strength check, not a loose envelope.

use bw_bench::bw_s10_rnn;
use bw_core::{cycle_bounds, CycleBounds, ExecMode, Npu, RunStats};
use bw_models::{table5_suite, RnnBenchmark, RnnKind};

/// Runs one benchmark point at `steps` timesteps and returns the static
/// bound alongside the simulator's measurement.
fn bound_and_measure(bench: &RnnBenchmark, steps: u32) -> (CycleBounds, RunStats) {
    let (cfg, rnn) = bw_s10_rnn(bench.kind, bench.dims());
    let b = cycle_bounds(&rnn.program(steps), &cfg, &rnn.analysis_options(steps))
        .expect("a clean kernel has a provable bound");
    let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
    let stats = rnn
        .run_timing_only(&mut npu, steps)
        .expect("sized configuration runs");
    (b, stats)
}

#[test]
fn static_bounds_bracket_the_simulator_across_the_golden_suite() {
    // Every (kind, hidden) point of the Table V / Fig 7 suite, with the
    // timestep counts capped so the debug-profile test stays fast; the
    // bound replays the same per-step recurrence, so containment at a
    // few steps exercises exactly what containment at 1500 would.
    for bench in table5_suite() {
        let steps = bench.timesteps.min(3);
        let (b, stats) = bound_and_measure(&bench, steps);
        assert!(
            b.lower <= stats.cycles && stats.cycles <= b.upper,
            "{}: bound [{}, {}] must contain measured {}",
            bench.name(),
            b.lower,
            b.upper,
            stats.cycles
        );
    }
}

#[test]
fn bounds_stay_exact_at_depth() {
    // One point at a realistic timestep count: the replay must not drift
    // from the simulator as state accumulates across hundreds of steps.
    let bench = RnnBenchmark::new(RnnKind::Lstm, 256, 150);
    let (b, stats) = bound_and_measure(&bench, bench.timesteps);
    assert!(
        b.contains(stats.cycles),
        "bound [{}, {}] must contain measured {}",
        b.lower,
        b.upper,
        stats.cycles
    );
    // Inputs are staged before the run, so the window is exact.
    assert_eq!(b.lower, stats.cycles);
    assert_eq!(b.upper, stats.cycles);
}
