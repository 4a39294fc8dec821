//! The scaffold the two chaos gates (`fleet`, `monitor`) share: one demo
//! model and pool shape, the service-time probe that sizes offered load,
//! closed-loop caller threads, the accounting-identity check, and the
//! run driver that wraps three fault scenarios (load step, worker kill,
//! link degradation) in one JSON report and one [`Gate`].
//!
//! A chaos run is a correctness gate, not a measurement: it exits 1 if
//! the system under test failed to absorb a fault, and the numbers in
//! its report describe that one run on that one host.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bw_fleet::FleetConfig;
use bw_serve::demo::{demo_input, mlp_artifact};
use bw_serve::{Client, NetworkModel, PreloadModel, Routing, Server, ServerBuilder};
use bw_trace::json::Writer;

use crate::cli::{Args, Gate};

pub const MODEL: &str = "chaos-mlp";
const WIDTHS: &[usize] = &[64, 256, 64];
const SEED: u64 = 11;
pub const DEADLINE: Duration = Duration::from_secs(5);

/// The network most scenarios start on.
pub fn healthy_net() -> NetworkModel {
    NetworkModel::with_hop(5e-6).bandwidth(10e9)
}

/// A fleet controller that repairs and repacks but never autoscales
/// (both depth triggers unreachable); scenarios override what they test.
pub const NO_AUTOSCALE: FleetConfig = FleetConfig {
    min_replicas: 1,
    max_replicas: 4,
    scale_up_depth: usize::MAX,
    scale_down_idle_ticks: u32::MAX,
    cooldown_ticks: 1,
    tick: Duration::from_millis(5),
};

/// The `i`-th request's input (a cycle of 32 distinct vectors).
pub fn input(i: u64) -> Vec<f32> {
    demo_input(WIDTHS[0], i % 32)
}

/// The scenario pool: `workers` workers over `net`, the model pinned on
/// `homes`, least-outstanding routing, and a non-free preload (8 GB/s
/// fill plus `preload_setup_s`) so controller reactions pay modeled time.
pub fn pool(
    workers: usize,
    queue_cap: usize,
    homes: Vec<usize>,
    net: NetworkModel,
    preload_setup_s: f64,
) -> ServerBuilder {
    Server::builder()
        .model(mlp_artifact(MODEL, WIDTHS, SEED))
        .replicas(workers)
        .queue_cap(queue_cap)
        .policy(Routing::LeastOutstanding)
        .network(net)
        .preload(
            PreloadModel::free()
                .fill_bandwidth(8e9)
                .setup(preload_setup_s),
        )
        .pin_on(MODEL, homes)
}

/// Warm batch-1 service seconds on a private replica (sizes offered
/// rates and latency objectives relative to real pool capacity).
fn probe_service_s() -> f64 {
    let artifact = mlp_artifact(MODEL, WIDTHS, SEED);
    let mut pinned = artifact.pin().expect("demo artifact pins");
    let input = input(0);
    let _ = pinned.infer(&input).expect("warm-up inference");
    let t0 = Instant::now();
    let probes = 40;
    for _ in 0..probes {
        let _ = pinned.infer(&input).expect("probe inference");
    }
    t0.elapsed().as_secs_f64() / f64::from(probes)
}

/// Closed-loop caller threads: each runs `body(client, i)` back to back
/// (sleeping `pace` in between) with `i` counting up from the thread's
/// index, until stopped.
pub struct Callers {
    stop: Arc<AtomicBool>,
    joins: Vec<thread::JoinHandle<()>>,
}

impl Callers {
    pub fn spawn(
        server: &Arc<Server>,
        threads: usize,
        pace: Duration,
        body: impl Fn(&Client, u64) + Clone + Send + 'static,
    ) -> Callers {
        let stop = Arc::new(AtomicBool::new(false));
        let joins = (0..threads as u64)
            .map(|t| {
                let server = Arc::clone(server);
                let stop = Arc::clone(&stop);
                let body = body.clone();
                thread::spawn(move || {
                    let client = server.client();
                    let mut i = t;
                    while !stop.load(Ordering::Acquire) {
                        body(&client, i);
                        i += 1;
                        if !pace.is_zero() {
                            thread::sleep(pace);
                        }
                    }
                })
            })
            .collect();
        Callers { stop, joins }
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        for j in self.joins {
            j.join().expect("caller thread");
        }
    }
}

/// What a scenario works with: the run mode, the probed service time,
/// the gate its checks go to, and the report it appends its object to.
pub struct Chaos {
    pub quick: bool,
    pub service_s: f64,
    pub gate: Gate,
    pub json: Writer,
}

impl Chaos {
    /// `completed + shed + failed == submitted` on every model row.
    pub fn check_identity(&mut self, server: &Server, scenario: &str) {
        for m in server.metrics().models {
            self.gate.check(m.accounted() == m.submitted, || {
                format!("{scenario}: accounting identity broken for {}", m.model)
            });
        }
    }
}

/// Runs a chaos gate: probes the service time, opens the report
/// (`bench`, `mode`, `service_time_s`), runs each scenario inside one
/// element of `scenarios`, prints the report on stdout and exits by the
/// gate.
pub fn run(bench: &str, args: &Args, scenarios: &[fn(&mut Chaos)]) -> ExitCode {
    let quick = args.has("--quick");
    let service_s = probe_service_s();
    eprintln!("measured service time: {:.1} µs/inference", service_s * 1e6);
    let mut cx = Chaos {
        quick,
        service_s,
        gate: Gate::default(),
        json: Writer::new(),
    };
    cx.json.begin_object().key("bench").string(bench);
    cx.json
        .key("mode")
        .string(if quick { "quick" } else { "full" });
    cx.json.key("service_time_s").fixed(service_s, 9);
    cx.json.key("scenarios").begin_array();
    for scenario in scenarios {
        cx.json.begin_object();
        scenario(&mut cx);
        cx.json.end_object();
    }
    cx.json.end_array().end_object();
    println!("{}", cx.json.finish());
    cx.gate.finish()
}
