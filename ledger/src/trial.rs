//! What one trial measures and how a run's end-to-end metrics are
//! computed from its trials.

use crate::host::slowdown;
use crate::stats::{percentile, Better};

/// Fixed op counts of one trial. A trial is never bounded by time: a slow
/// phase of the host then stretches a trial instead of shrinking the
/// work it measured. Trials are short — tens of milliseconds — so that
/// the canary readings on either side of one say what the host was doing
/// during it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Closed-loop ops with one in flight. `0` for the single-threaded
    /// simulator workloads, whose only phase is `loaded`.
    pub unloaded_ops: usize,
    /// Closed-loop ops with `window` in flight from the harness thread.
    pub loaded_ops: usize,
    pub window: usize,
    /// Ops run before the first trial, not measured.
    pub warmup_ops: usize,
}

impl Sizes {
    pub fn ops_per_trial(self) -> usize {
        self.unloaded_ops + self.loaded_ops
    }
}

/// Where a serving op's time went, as the reply reports it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpDetail {
    /// The latency the server measured, submit to completion.
    pub reported_ns: u64,
    pub queue_wait_ns: u64,
    pub service_ns: u64,
    pub network_ns: u64,
}

/// One closed-loop phase of one trial.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    /// Refused, failed, late or wrong-output ops.
    pub failed: u64,
    pub wall_ns: u64,
    /// CPU time of every thread of the process over the phase. On the
    /// one CPU of a run, which a closed loop keeps busy from start to
    /// end, this is the phase's wall time less what the hypervisor took.
    pub cpu_ns: u64,
    /// Simulated NPU cycles the phase's ops retired.
    pub sim_cycles: u64,
    /// Median and 90th percentile of the caller-observed latency of the
    /// phase's correct ops.
    pub lat_p50_ns: u64,
    pub lat_p90_ns: u64,
    /// Each correct op's latency and detail. Kept only in a traced trial:
    /// an untraced run holds a few numbers per phase, so that its peak
    /// RSS is the program's and not the harness's.
    pub lat_ns: Vec<u64>,
    pub detail: Vec<OpDetail>,
}

impl Phase {
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Correct ops per second of [`Phase::cpu_ns`].
    pub fn ops_per_s(&self) -> f64 {
        self.correct() as f64 / (self.cpu_ns.max(1) as f64 / 1e9)
    }

    /// Records the percentiles of `lat_ns` and, if `keep`, the samples.
    pub fn set_latencies(&mut self, mut lat_ns: Vec<u64>, keep: bool) {
        if keep {
            self.lat_ns.clone_from(&lat_ns);
        }
        lat_ns.sort_unstable();
        self.lat_p50_ns = percentile(&lat_ns, 0.5) as u64;
        self.lat_p90_ns = percentile(&lat_ns, 0.9) as u64;
    }

    /// The kept samples, ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        v
    }
}

#[derive(Clone, Debug, Default)]
pub struct Trial {
    /// `None` for the simulator workloads: their `loaded` phase is one op
    /// at a time and supplies the latencies too.
    pub unloaded: Option<Phase>,
    pub loaded: Phase,
    /// The canary's time just before and just after the trial; the run
    /// fills it in.
    pub canary_ns: [u64; 2],
}

impl Trial {
    /// The phase the latency metrics are read from.
    pub fn latency_phase(&self) -> &Phase {
        self.unloaded.as_ref().unwrap_or(&self.loaded)
    }

    pub fn phases(&self) -> impl Iterator<Item = &Phase> {
        self.unloaded.iter().chain(std::iter::once(&self.loaded))
    }
}

/// Share of a run's samples that count as undisturbed.
pub const QUIET_SHARE: f64 = 0.5;
/// The quantile of the quiet set's scaled times that is reported.
pub const REPORTED_QUANTILE: f64 = 0.05;

/// Something timed between two canary readings: a phase of a trial, one
/// of its latency percentiles, a set-up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    pub canary_ns: [u64; 2],
    pub ns: f64,
}

/// The quiet set: the ⌈`QUIET_SHARE`·n⌉ of `samples` whose slower canary
/// reading is the lowest, lowest first. They are chosen by what the host
/// did beside them, not by their own times.
pub fn quiet(samples: &[Timed]) -> Vec<Timed> {
    let mut by_canary = samples.to_vec();
    by_canary.sort_by_key(|t| t.canary_ns[0].max(t.canary_ns[1]));
    by_canary.truncate((samples.len() as f64 * QUIET_SHARE).ceil() as usize);
    by_canary
}

/// What `samples` say the timed thing takes on an undisturbed core of the
/// reference host class: each time of the quiet set divided by the
/// [`slowdown`] its canary readings stand for, and of those the
/// `REPORTED_QUANTILE` (nearest rank). `0.0` without samples.
///
/// Two kinds of disturbance are taken out in two ways. A neighbour that
/// keeps the core busy for tens of seconds slows the canary and the
/// program down together, and the division undoes it. The hypervisor
/// taking the vCPU away, and bursts shorter than a trial, hit a trial
/// and not the readings beside it, always adding time: a low quantile
/// does not see them until nineteen in twenty of the quiet set are hit,
/// where the median moved by 20 % in a run in which half were.
pub fn at_reference(samples: &[Timed]) -> f64 {
    let mut scaled: Vec<f64> = quiet(samples)
        .iter()
        .map(|t| t.ns / slowdown(t.canary_ns))
        .collect();
    scaled.sort_by(f64::total_cmp);
    let rank = (REPORTED_QUANTILE * scaled.len() as f64).ceil() as usize;
    scaled.get(rank.max(1) - 1).copied().unwrap_or_default()
}

/// `(name, unit, better)` of the end-to-end metrics, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("setup_s", "s", Better::Lower),
    ("ops_per_s", "1/s", Better::Higher),
    ("lat_p50_us", "us", Better::Lower),
    ("lat_p90_us", "us", Better::Lower),
    ("sim_mcycles_per_s", "Mcycles/s", Better::Higher),
    ("peak_rss_mb", "MiB", Better::Lower),
];

/// The four end-to-end metrics that come from trials, by name.
///
/// `ops_per_s` is one over [`at_reference`] of the loaded phases' CPU
/// time per correct op — the phases' wall time where no CPU is taken
/// away, see [`Phase::cpu_ns`]. The two latencies are [`at_reference`] of
/// the latency phases' percentiles. `sim_mcycles_per_s` is `ops_per_s`
/// times the simulated cycles per correct op.
pub fn end_to_end(trials: &[Trial]) -> Vec<(&'static str, f64)> {
    let timed = |f: &dyn Fn(&Trial) -> Option<f64>| -> Vec<Timed> {
        trials
            .iter()
            .filter_map(|t| {
                Some(Timed {
                    canary_ns: t.canary_ns,
                    ns: f(t)?,
                })
            })
            .collect()
    };
    let per_op = |t: &Trial| {
        (t.loaded.correct() > 0).then(|| t.loaded.cpu_ns as f64 / t.loaded.correct() as f64)
    };
    let op_ns = at_reference(&timed(&per_op));
    let ops_per_s = if op_ns > 0.0 { 1e9 / op_ns } else { 0.0 };
    let sum = |f: fn(&Phase) -> u64| trials.iter().map(|t| f(&t.loaded)).sum::<u64>() as f64;
    let cycles_per_op = sum(|p| p.sim_cycles) / sum(Phase::correct).max(1.0);
    let latency = |f: fn(&Phase) -> u64| {
        at_reference(&timed(&|t| {
            let phase = t.latency_phase();
            (phase.correct() > 0).then(|| f(phase) as f64)
        })) / 1e3
    };
    vec![
        ("ops_per_s", ops_per_s),
        ("lat_p50_us", latency(|p| p.lat_p50_ns)),
        ("lat_p90_us", latency(|p| p.lat_p90_ns)),
        ("sim_mcycles_per_s", cycles_per_op * ops_per_s / 1e6),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF: u64 = crate::host::CANARY_REFERENCE_NS as u64;

    /// A trial beside canary readings of `canary`, whose loaded phase ran
    /// `ops` ops in `wall_ms` and whose ten unloaded ops took `lat_us` each.
    fn trial(canary: u64, ops: u64, wall_ms: u64, lat_us: u64) -> Trial {
        let mut unloaded = Phase {
            attempted: 10,
            wall_ns: 10 * lat_us * 1_000,
            ..Phase::default()
        };
        unloaded.set_latencies(vec![lat_us * 1_000; 10], false);
        Trial {
            unloaded: Some(unloaded),
            loaded: Phase {
                attempted: ops,
                wall_ns: wall_ms * 1_000_000,
                cpu_ns: wall_ms * 1_000_000,
                sim_cycles: ops * 500,
                ..Phase::default()
            },
            canary_ns: [canary; 2],
        }
    }

    fn timed(canary: u64, ns: f64) -> Timed {
        Timed {
            canary_ns: [canary; 2],
            ns,
        }
    }

    fn get(metrics: &[(&str, f64)], name: &str) -> f64 {
        metrics.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn quiet_set_is_the_half_beside_the_fastest_canaries() {
        let samples: Vec<Timed> = (0..40).map(|i| timed(REF + 40 - i, 1.0)).collect();
        let canaries: Vec<u64> = quiet(&samples)
            .iter()
            .map(|t| t.canary_ns[0] - REF)
            .collect();
        assert_eq!(canaries, (1..=20).collect::<Vec<u64>>());
        assert_eq!(quiet(&samples[..3]).len(), 2);
        assert!(quiet(&[]).is_empty());
        // One slow reading of the two disqualifies a sample.
        let mut all = vec![Timed {
            canary_ns: [REF, 2 * REF],
            ns: 1.0,
        }];
        all.extend((0..3).map(|_| timed(REF + 1, 1.0)));
        assert!(quiet(&all).iter().all(|t| t.canary_ns[1] == REF + 1));
    }

    #[test]
    fn at_reference_reports_a_low_quantile_of_the_quiet_set() {
        // Forty samples beside a quiet canary, 100..139, and forty faster
        // ones beside a slow canary, which are not chosen.
        let mut samples: Vec<Timed> = (0..40).map(|i| timed(REF, 100.0 + i as f64)).collect();
        samples.extend((0..40).map(|_| timed(2 * REF, 50.0)));
        // Rank ⌈0.05 · 40⌉ = 2.
        assert_eq!(at_reference(&samples), 101.0);
        assert_eq!(at_reference(&[timed(REF, 7.0)]), 7.0);
        assert_eq!(at_reference(&[]), 0.0);
    }

    #[test]
    fn hits_on_nine_in_ten_do_not_move_the_result() {
        let clean: Vec<Timed> = (0..100).map(|_| timed(REF, 100.0)).collect();
        let mut hit = clean.clone();
        for t in hit.iter_mut().enumerate().filter(|(i, _)| i % 10 != 0) {
            t.1.ns *= 1.3;
        }
        assert_eq!(at_reference(&clean), at_reference(&hit));
    }

    #[test]
    fn metrics_come_from_the_quiet_set() {
        // Half of the trials ran beside a quiet canary.
        let trials: Vec<Trial> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    trial(REF, 1000, 100, 20)
                } else {
                    trial(REF * 3 / 2, 1000, 140, 15)
                }
            })
            .collect();
        let m = end_to_end(&trials);
        assert!((get(&m, "ops_per_s") - 10_000.0).abs() < 1e-6);
        assert!((get(&m, "sim_mcycles_per_s") - 5.0).abs() < 1e-9);
        assert_eq!(get(&m, "lat_p50_us"), 20.0);
        assert_eq!(get(&m, "lat_p90_us"), 20.0);
    }

    #[test]
    fn a_run_on_a_slowed_host_reads_as_on_the_reference_core() {
        let quiet_run: Vec<Trial> = (0..200).map(|_| trial(REF, 1000, 100, 20)).collect();
        // The whole run beside a busy neighbour: every time longer by the
        // slowdown its canary readings stand for.
        let by = slowdown([REF * 7 / 5; 2]);
        let stretch = |ns: u64| (ns as f64 * by).round() as u64;
        let slowed_run: Vec<Trial> = quiet_run
            .iter()
            .map(|t| {
                let mut t = t.clone();
                t.canary_ns = [REF * 7 / 5; 2];
                t.loaded.cpu_ns = stretch(t.loaded.cpu_ns);
                let unloaded = t.unloaded.as_mut().unwrap();
                unloaded.set_latencies(vec![stretch(20_000); 10], false);
                t
            })
            .collect();
        for ((name, a), (_, b)) in end_to_end(&quiet_run).iter().zip(end_to_end(&slowed_run)) {
            // The slowed times are rounded to whole nanoseconds.
            assert!((a - b).abs() < 1e-4 * a, "{name}: {a} against {b}");
        }
    }

    #[test]
    fn failed_ops_do_not_count_as_throughput() {
        let mut t = trial(REF, 1000, 100, 20);
        t.loaded.failed = 100;
        let m = end_to_end(&[t]);
        assert!((get(&m, "ops_per_s") - 9_000.0).abs() < 1e-6);
        // A trial without a correct op is no sample.
        let mut none = trial(REF, 1000, 100, 20);
        none.loaded.failed = 1000;
        assert_eq!(get(&end_to_end(&[none]), "ops_per_s"), 0.0);
    }

    #[test]
    fn simulator_trials_supply_latencies_from_their_only_phase() {
        let mut loaded = Phase {
            attempted: 1,
            wall_ns: 33_000_000,
            ..Phase::default()
        };
        loaded.set_latencies(vec![33_000_000], false);
        assert!(loaded.lat_ns.is_empty());
        let t = Trial {
            unloaded: None,
            loaded,
            canary_ns: [REF; 2],
        };
        let m = end_to_end(&[t]);
        assert_eq!(get(&m, "lat_p50_us"), 33_000.0);
        assert_eq!(get(&m, "lat_p90_us"), 33_000.0);
    }
}
