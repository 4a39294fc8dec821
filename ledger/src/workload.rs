//! The workload interface and the two single-threaded simulator
//! workloads. The serving workloads are in [`crate::serving`].

use std::time::Instant;

use bw_bench::{bw_s10_sized, run_bw_s10};
use bw_core::{ExecMode, KernelMode, Npu, NpuConfig, RunStats};
use bw_models::{table5_suite, Gru, Lstm, LstmWeights, RnnBenchmark, RnnDims, RnnKind};

use crate::host::{process_cpu_ns, thread_cpu_ns};
use crate::layers::{Metrics, Probes};
use crate::pool::input_pool;
use crate::serving;
use crate::span::Tracer;
use crate::stats::median_u64;
use crate::trial::{Phase, Sizes, Trial};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "sim-timing",
    "sim-functional",
    "serve-inproc",
    "serve-tcp",
    "serve-sharded",
];

/// Exact simulator counts of one op; they repeat on every run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub cycles: u64,
    pub chains: u64,
    pub instructions: u64,
    pub mvm_macs: u64,
    pub mvm_busy_cycles: u64,
    pub dep_stall_cycles: u64,
    pub resource_stall_cycles: u64,
}

impl OpCounts {
    pub fn add(&mut self, s: &RunStats) {
        self.cycles += s.cycles;
        self.chains += s.chains;
        self.instructions += s.instructions;
        self.mvm_macs += s.mvm_macs;
        self.mvm_busy_cycles += s.mvm_busy_cycles;
        self.dep_stall_cycles += s.dep_stall_cycles;
        self.resource_stall_cycles += s.resource_stall_cycles;
    }
}

/// A workload that has been set up from a seed and warmed up.
pub trait Workload {
    fn sizes(&self) -> Sizes;

    /// Runs one trial of the fixed op counts, checking every output.
    fn trial(&mut self, tracer: &mut Tracer) -> Trial;

    /// The simulator's counts for one op, executed on the harness thread.
    fn op_counts(&mut self) -> OpCounts;

    /// Checks that hold over the whole run; one message per violation.
    fn finish(&mut self) -> Vec<String>;

    /// The per-layer metrics this workload's layer owns, from traced
    /// trials and their spans.
    fn layer_metrics(
        &mut self,
        trials: &[Trial],
        tracer: &Tracer,
        probes: &Probes,
        out: &mut Metrics,
    );
}

/// Sets up `name` from `seed`, including its warm-up ops.
///
/// # Panics
///
/// Panics on a name that is not in [`WORKLOADS`]; `main` checks it first.
pub fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "sim-timing" => Box::new(SimTiming::setup()),
        "sim-functional" => Box::new(SimFunctional::setup(seed)),
        "serve-inproc" => serving::inproc(seed),
        "serve-tcp" => serving::tcp(seed),
        "serve-sharded" => serving::sharded(seed),
        other => panic!("unknown workload {other}"),
    }
}

/// Runs `ops` ops one at a time as a trial's only phase. `op` returns the
/// simulated cycles it retired, or `None` if its check failed. An op's
/// latency is the CPU time this thread spent on it: the op computes from
/// start to end, so that is its wall time on a host that takes no CPU
/// away, which this one does.
fn serial_phase(
    ops: usize,
    first_op: &mut u64,
    traced: bool,
    mut op: impl FnMut(u64) -> Option<u64>,
) -> Trial {
    let mut phase = Phase::default();
    let mut lat_ns = Vec::with_capacity(ops);
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    for _ in 0..ops {
        let started = thread_cpu_ns();
        let outcome = op(*first_op);
        let lat = thread_cpu_ns() - started;
        *first_op += 1;
        phase.attempted += 1;
        match outcome {
            Some(cycles) => {
                phase.sim_cycles += cycles;
                lat_ns.push(lat);
            }
            None => phase.failed += 1,
        }
    }
    phase.wall_ns = t0.elapsed().as_nanos() as u64;
    phase.cpu_ns = process_cpu_ns() - cpu0;
    phase.set_latencies(lat_ns, traced);
    Trial {
        unloaded: None,
        loaded: phase,
        canary_ns: [0; 2],
    }
}

/// Per-op sums of the spans called `name`, given `per_op` such spans in
/// every op; the median over ops, in nanoseconds.
fn median_per_op_ns(tracer: &Tracer, name: &str, per_op: usize) -> f64 {
    let sums: Vec<u64> = tracer
        .durations_ns(name)
        .chunks(per_op)
        .map(|c| c.iter().sum())
        .collect();
    median_u64(&sums)
}

/// Simulated cycles of one pass over Table V (`BENCH_simulator.json`).
pub const TABLE5_CYCLES: u64 = 2_571_339;

/// `sim-timing`: one op is a pass over the eleven DeepBench points of
/// Table V in timing-only mode. The scheduler, the HDD and the
/// scoreboards do all the work and the BFP kernels none.
pub struct SimTiming {
    suite: Vec<RnnBenchmark>,
    sizes: Sizes,
    next_op: u64,
}

/// One op (≈33 ms undisturbed) is one trial.
const SIM_TIMING_SIZES: Sizes = Sizes {
    unloaded_ops: 0,
    loaded_ops: 1,
    window: 1,
    warmup_ops: 2,
};

impl SimTiming {
    /// Timing-only runs take no data, so the seed changes nothing here:
    /// the points run in table order on every run.
    fn setup() -> SimTiming {
        let w = SimTiming {
            suite: table5_suite(),
            sizes: SIM_TIMING_SIZES,
            next_op: 0,
        };
        for _ in 0..w.sizes.warmup_ops {
            w.pass(&mut Tracer::new(false), 0);
        }
        w
    }

    /// One pass; traced, it repeats `run_bw_s10`'s steps with a span
    /// around each public call.
    fn pass(&self, tracer: &mut Tracer, op: u64) -> OpCounts {
        let mut counts = OpCounts::default();
        for bench in &self.suite {
            let stats = if tracer.is_on() {
                tracer.span("run_bw_s10", op, |t| traced_point(bench, t, op))
            } else {
                run_bw_s10(bench).stats
            };
            counts.add(&stats);
        }
        counts
    }
}

fn traced_point(bench: &RnnBenchmark, t: &mut Tracer, op: u64) -> RunStats {
    macro_rules! point {
        ($model:ident) => {{
            let cfg = bw_s10_sized(
                $model::new(&NpuConfig::bw_s10(), bench.dims()).mrf_entries_required(),
            );
            let model = $model::new(&cfg, bench.dims());
            let mut npu = t.span("Npu::with_mode", op, |_| {
                Npu::with_mode(cfg, ExecMode::TimingOnly)
            });
            t.span("prepare_timing_only", op, |_| {
                model.prepare_timing_only(&mut npu)
            })
            .expect("sized configuration holds the model");
            npu.push_input_zeros(model.grid_x() as usize * bench.timesteps as usize);
            let program = t.span("program", op, |_| model.program(bench.timesteps));
            t.span("Npu::run", op, |_| npu.run(&program))
                .expect("sized configuration runs")
        }};
    }
    match bench.kind {
        RnnKind::Gru => point!(Gru),
        RnnKind::Lstm => point!(Lstm),
    }
}

impl Workload for SimTiming {
    fn sizes(&self) -> Sizes {
        self.sizes
    }

    fn trial(&mut self, tracer: &mut Tracer) -> Trial {
        let mut next_op = self.next_op;
        let trial = serial_phase(self.sizes.loaded_ops, &mut next_op, tracer.is_on(), |op| {
            let cycles = self.pass(tracer, op).cycles;
            (cycles == TABLE5_CYCLES).then_some(cycles)
        });
        self.next_op = next_op;
        trial
    }

    fn op_counts(&mut self) -> OpCounts {
        self.pass(&mut Tracer::new(false), 0)
    }

    fn finish(&mut self) -> Vec<String> {
        let cycles = self.op_counts().cycles;
        if cycles == TABLE5_CYCLES {
            Vec::new()
        } else {
            vec![format!(
                "Table V pass simulated {cycles} cycles, expected {TABLE5_CYCLES}"
            )]
        }
    }

    fn layer_metrics(&mut self, _: &[Trial], tracer: &Tracer, _: &Probes, out: &mut Metrics) {
        let points = self.suite.len();
        let counts = self.op_counts();
        let run_ns = median_per_op_ns(tracer, "Npu::run", points);
        out.put(
            "core.timing_host_ns_per_cycle",
            run_ns / counts.cycles as f64,
        );
        out.put(
            "core.timing_host_ns_per_chain",
            run_ns / counts.chains as f64,
        );
        out.put(
            "core.npu_new_us",
            median_per_op_ns(tracer, "Npu::with_mode", points) / 1e3,
        );
        out.put(
            "core.prepare_us",
            median_per_op_ns(tracer, "prepare_timing_only", points) / 1e3,
        );
        out.put(
            "models.program_build_us",
            median_per_op_ns(tracer, "program", points) / 1e3,
        );
    }
}

/// `sim-functional`: one op resets and runs an LSTM (h = 512, 10 steps)
/// in full functional mode on a BW_S10-shaped NPU. The weights are
/// ≈20 MiB of i32 mantissas at native dimension 400 — beyond L2 — and
/// the BFP MAC kernel dominates.
pub struct SimFunctional {
    lstm: Lstm,
    npu: Npu,
    /// Disjoint windows of `STEPS` pool vectors; op `k` runs window
    /// `k mod windows`.
    windows: Vec<Vec<Vec<f32>>>,
    /// The outputs of each window's first run; every later run of the
    /// window must repeat them bit for bit.
    expected: Vec<Option<Vec<Vec<f32>>>>,
    counts: OpCounts,
    reference_op_ns: u64,
    sizes: Sizes,
    next_op: u64,
    errors: Vec<String>,
}

const FUNCTIONAL_HIDDEN: usize = 512;
const FUNCTIONAL_STEPS: usize = 10;
const FUNCTIONAL_WEIGHT_SEED: u64 = 7;
/// One op (≈21 ms undisturbed) is one trial.
const SIM_FUNCTIONAL_SIZES: Sizes = Sizes {
    unloaded_ops: 0,
    loaded_ops: 1,
    window: 1,
    warmup_ops: 2,
};

fn bit_identical(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

impl SimFunctional {
    fn setup(seed: u64) -> SimFunctional {
        let dims = RnnDims::square(FUNCTIONAL_HIDDEN);
        let cfg = bw_s10_sized(Lstm::new(&NpuConfig::bw_s10(), dims).mrf_entries_required());
        let lstm = Lstm::new(&cfg, dims);
        let mut npu = Npu::with_mode(cfg, ExecMode::Full);
        lstm.load_weights(&mut npu, &LstmWeights::random(dims, FUNCTIONAL_WEIGHT_SEED))
            .expect("sized configuration holds the weights");
        let windows: Vec<Vec<Vec<f32>>> = input_pool(seed, FUNCTIONAL_HIDDEN)
            .chunks_exact(FUNCTIONAL_STEPS)
            .map(<[Vec<f32>]>::to_vec)
            .collect();
        let mut w = SimFunctional {
            lstm,
            npu,
            expected: vec![None; windows.len()],
            windows,
            counts: OpCounts::default(),
            reference_op_ns: 0,
            sizes: SIM_FUNCTIONAL_SIZES,
            next_op: 0,
            errors: Vec::new(),
        };
        for _ in 0..w.sizes.warmup_ops {
            let stats = w
                .checked_op(0, &mut Tracer::new(false), 0)
                .expect("the first run sets what is expected");
            w.counts = OpCounts::default();
            w.counts.add(&stats);
        }
        // The reference kernels must agree with the fast ones bit for bit.
        w.npu.set_kernel_mode(KernelMode::Reference);
        let started = Instant::now();
        let reference = w.checked_op(0, &mut Tracer::new(false), 0);
        w.reference_op_ns = started.elapsed().as_nanos() as u64;
        w.npu.set_kernel_mode(KernelMode::Fast);
        if reference.is_none() {
            w.errors
                .push("KernelMode::Reference and KernelMode::Fast disagree".to_owned());
        }
        w
    }

    /// Runs window `k` and checks it: outputs bit-identical to the
    /// window's first run, cycle count equal to every other op's.
    fn checked_op(&mut self, k: usize, tracer: &mut Tracer, op: u64) -> Option<RunStats> {
        let (outputs, stats) = tracer.span("op", op, |t| self.run_window(k, t, op));
        let expected = self.expected[k].get_or_insert_with(|| outputs.clone());
        let same_cycles = self.counts.cycles == 0 || stats.cycles == self.counts.cycles;
        (bit_identical(&outputs, expected) && same_cycles).then_some(stats)
    }

    fn run_window(&mut self, k: usize, tracer: &mut Tracer, op: u64) -> (Vec<Vec<f32>>, RunStats) {
        let (lstm, npu, inputs) = (&self.lstm, &mut self.npu, &self.windows[k]);
        tracer
            .span("Lstm::reset_state", op, |_| lstm.reset_state(npu))
            .expect("state fits the register files");
        tracer
            .span("Lstm::run", op, |_| lstm.run(npu, inputs))
            .expect("functional run succeeds")
    }
}

impl Workload for SimFunctional {
    fn sizes(&self) -> Sizes {
        self.sizes
    }

    fn trial(&mut self, tracer: &mut Tracer) -> Trial {
        let mut next_op = self.next_op;
        let trial = serial_phase(self.sizes.loaded_ops, &mut next_op, tracer.is_on(), |op| {
            let k = op as usize % self.windows.len();
            self.checked_op(k, tracer, op).map(|stats| stats.cycles)
        });
        self.next_op = next_op;
        trial
    }

    fn op_counts(&mut self) -> OpCounts {
        self.counts
    }

    fn finish(&mut self) -> Vec<String> {
        self.errors.clone()
    }

    fn layer_metrics(&mut self, _: &[Trial], tracer: &Tracer, probes: &Probes, out: &mut Metrics) {
        let run_ns = median_u64(&tracer.durations_ns("Lstm::run"));
        let op_ns = median_u64(&tracer.durations_ns("op"));
        let macs = self.counts.mvm_macs as f64;
        out.put(
            "core.full_host_ns_per_cycle",
            run_ns / self.counts.cycles as f64,
        );
        out.put("core.full_host_ns_per_mac", run_ns / macs);
        out.put(
            "core.kernel_share_pct",
            100.0 * probes.mv_mul_ns_per_mac * macs / op_ns,
        );
        out.put("core.reference_ratio", self.reference_op_ns as f64 / op_ns);
    }
}
