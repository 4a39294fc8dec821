//! Fleet chaos gate: a live `bw-serve` pool under a `bw-fleet`
//! controller, hit with the three faults the controller exists to
//! absorb — a load step, a worker kill, and a link degradation — while
//! traffic keeps flowing.
//!
//! Each scenario observes the pool in fixed windows (latency percentiles
//! or shed/replica counts per window) so the fault, the controller's
//! reaction, and the recovery are all visible in the JSON report on
//! stdout, and gates that the controller restored the pool without
//! human intervention:
//!
//! - **load-step** — an open-loop [`LoadSchedule`] steps from under to
//!   over single-replica capacity; the controller must grow the replica
//!   set until shedding stops.
//! - **worker-kill** — one of two pinned replicas dies mid-run; the
//!   controller must re-pin (paying the weight-preload cost) and tail
//!   latency must come back.
//! - **link-degradation** — the sole replica's link slows 25×; the
//!   controller must repack the model onto a healthy worker.
//!
//! Every scenario also checks the accounting identity
//! `completed + shed + failed == submitted` on the server's own metrics.
//! Exit 1 lists every check that failed.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bw_fleet::{FleetConfig, FleetController};
use bw_serve::{run_loadgen, ArrivalProcess, LoadSchedule, LoadgenConfig, NetworkModel, Server};
use bw_system::LatencySummary;
use bw_trace::json::Writer;

use super::chaos::{self, Callers, Chaos, DEADLINE, MODEL};
use crate::cli::Args;

/// Boots the fleet scenarios' pool: 32-deep queues and a 200 µs preload
/// setup.
fn boot(workers: usize, homes: Vec<usize>, net: NetworkModel) -> Arc<Server> {
    let pool = chaos::pool(workers, 32, homes, net, 200e-6);
    Arc::new(pool.spawn().expect("server spawns"))
}

/// One observation window of a closed-loop scenario: the latencies of
/// the requests that started in it, and how many failed.
struct Window {
    latency: LatencySummary,
    errors: u64,
}

/// Drives `threads` closed-loop callers for `windows` windows of
/// `window_ms`, invoking `fault` at the start of window `fault_at`, and
/// returns per-window latency/error stats (a request counts in the
/// window it started in).
fn closed_loop(
    server: &Arc<Server>,
    threads: usize,
    windows: usize,
    window_ms: u64,
    fault_at: usize,
    fault: impl FnOnce(&Server),
) -> Vec<Window> {
    let epoch = Arc::new(AtomicUsize::new(0));
    let lats: Arc<Vec<Mutex<Vec<f64>>>> =
        Arc::new((0..windows).map(|_| Mutex::new(Vec::new())).collect());
    let errs: Arc<Vec<AtomicU64>> = Arc::new((0..windows).map(|_| AtomicU64::new(0)).collect());

    let callers = {
        let (epoch, lats, errs) = (Arc::clone(&epoch), Arc::clone(&lats), Arc::clone(&errs));
        Callers::spawn(server, threads, Duration::ZERO, move |client, i| {
            let w = epoch.load(Ordering::Acquire);
            if w >= lats.len() {
                return;
            }
            let t0 = Instant::now();
            match client.call(MODEL, &chaos::input(i), DEADLINE) {
                Ok(_) => lats[w]
                    .lock()
                    .expect("no caller panics holding the lock")
                    .push(t0.elapsed().as_secs_f64()),
                Err(_) => {
                    errs[w].fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    let mut fault = Some(fault);
    for w in 0..windows {
        if w == fault_at {
            if let Some(f) = fault.take() {
                f(server);
            }
        }
        thread::sleep(Duration::from_millis(window_ms));
        epoch.store(w + 1, Ordering::Release);
    }
    callers.stop();

    (0..windows)
        .map(|w| {
            let l = lats[w].lock().expect("callers joined");
            Window {
                latency: LatencySummary::from_unsorted(&l),
                errors: errs[w].load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// The worst window p99 in a range — conservative and monotone under
/// recovery.
fn worst_p99_us(windows: &[Window]) -> f64 {
    windows
        .iter()
        .map(|w| w.latency.p99_s * 1e6)
        .fold(0.0, f64::max)
}

/// What both closed-loop fault scenarios report: the tail before, during
/// and after the fault, whether it came back, and every window.
fn write_recovery(json: &mut Writer, stats: &[Window], fault_at: usize) -> (f64, f64, bool) {
    let before = worst_p99_us(&stats[..fault_at]);
    let during = worst_p99_us(&stats[fault_at..fault_at + 2]);
    let after = worst_p99_us(&stats[stats.len() - 3..]);
    let recovered = after <= (10.0 * before).max(5000.0);
    json.key("p99_before_us").fixed(before, 1);
    json.key("p99_during_us").fixed(during, 1);
    json.key("p99_after_us").fixed(after, 1);
    json.key("recovered").bool(recovered);
    json.key("windows").begin_array();
    for (i, w) in stats.iter().enumerate() {
        json.begin_object().key("window").uint(i as u64);
        json.key("completed").uint(w.latency.count as u64);
        json.key("errors").uint(w.errors);
        json.key("p50_us").fixed(w.latency.p50_s * 1e6, 1);
        json.key("p99_us").fixed(w.latency.p99_s * 1e6, 1);
        json.end_object();
    }
    json.end_array();
    (before, after, recovered)
}

/// Scenario 1: open-loop load step against one replica of a four-worker
/// pool; the controller must scale out until shedding stops.
fn load_step(cx: &mut Chaos) {
    let server = boot(4, vec![0], chaos::healthy_net());
    let single_capacity = 1.0 / cx.service_s;
    let (low_s, high_s) = if cx.quick { (0.3, 0.9) } else { (0.6, 1.8) };
    let schedule = LoadSchedule::constant(0.4 * single_capacity, low_s)
        .then_step(2.2 * single_capacity, high_s);

    let cfg = FleetConfig {
        scale_up_depth: 2,
        cooldown_ticks: 2,
        ..chaos::NO_AUTOSCALE
    };
    let handle = FleetController::new(Arc::clone(&server), cfg).run();

    let loadgen = {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            run_loadgen(
                &server.client(),
                &LoadgenConfig {
                    model: MODEL.to_owned(),
                    arrivals: ArrivalProcess::Poisson { rate_per_s: 1.0 },
                    requests: 0,
                    deadline: DEADLINE,
                    seed: 23,
                    schedule: Some(schedule),
                },
            )
        })
    };

    // Sample replica count and shed/completed deltas while load flows.
    let window_ms = if cx.quick { 60 } else { 120 };
    let mut samples = Vec::new();
    let (mut last_shed, mut last_done) = (0u64, 0u64);
    while !loadgen.is_finished() {
        thread::sleep(Duration::from_millis(window_ms));
        let m = server.metrics().models.remove(0);
        samples.push((
            server.pinned_workers(MODEL).len(),
            m.shed - last_shed,
            m.completed - last_done,
        ));
        last_shed = m.shed;
        last_done = m.completed;
    }
    let report = loadgen.join().expect("loadgen thread");
    handle.stop();

    let settled = report.completed + report.shed + report.failed + report.rejected;
    cx.gate.check(settled == report.offered as u64, || {
        format!("load-step: loadgen accounting must cover every offered request: {report:?}")
    });
    cx.check_identity(&server, "load-step");
    let replicas_peak = samples.iter().map(|s| s.0).max().unwrap_or(0);
    let tail_shed: u64 = samples.iter().rev().take(2).map(|s| s.1).sum();
    let scaled = cx.gate.check(replicas_peak >= 2, || {
        format!("load-step: controller never scaled out (peak {replicas_peak})")
    });
    let quiet = cx.gate.check(tail_shed == 0, || {
        format!("load-step: still shedding after the controller reacted ({tail_shed})")
    });
    eprintln!(
        "load-step: offered {} completed {} shed {} | replicas 1 -> {replicas_peak}, tail shed {tail_shed}",
        report.offered, report.completed, report.shed
    );

    let json = &mut cx.json;
    json.key("name").string("load-step");
    json.key("single_replica_capacity_rps")
        .fixed(single_capacity, 1);
    json.key("replicas_peak").uint(replicas_peak as u64);
    json.key("tail_shed").uint(tail_shed);
    json.key("recovered").bool(scaled && quiet);
    json.key("loadgen").raw(&report.to_json());
    json.key("windows").begin_array();
    for (i, &(replicas, shed, done)) in samples.iter().enumerate() {
        json.begin_object().key("window").uint(i as u64);
        json.key("replicas").uint(replicas as u64);
        json.key("shed").uint(shed);
        json.key("completed").uint(done).end_object();
    }
    json.end_array();
}

/// Scenario 2: kill one of two pinned replicas mid-run; the controller
/// must re-pin a replacement and the tail must recover.
fn worker_kill(cx: &mut Chaos) {
    let server = boot(3, vec![0, 1], chaos::healthy_net());
    // Autoscaling stays off so the scenario isolates repair: only the
    // kill can change the replica set.
    let cfg = FleetConfig {
        min_replicas: 2,
        max_replicas: 3,
        ..chaos::NO_AUTOSCALE
    };
    let handle = FleetController::new(Arc::clone(&server), cfg).run();

    let (windows, fault_at) = (9, 3);
    let window_ms = if cx.quick { 60 } else { 120 };
    let mut killed = false;
    let stats = closed_loop(&server, 4, windows, window_ms, fault_at, |s| {
        killed = s.kill_worker(0);
    });
    let repairs = handle.metrics().repairs.load(Ordering::Relaxed);
    handle.stop();

    cx.gate.check(killed, || {
        "worker-kill: worker 0 should die on request".to_owned()
    });
    cx.check_identity(&server, "worker-kill");
    cx.gate.check(repairs >= 1, || {
        "worker-kill: controller never repaired".to_owned()
    });
    let pinned = server.pinned_workers(MODEL).len();
    cx.gate.check(pinned == 2, || {
        format!("worker-kill: replica floor not restored ({pinned} pinned)")
    });
    let errors_after: u64 = stats[windows - 3..].iter().map(|w| w.errors).sum();
    cx.gate.check(errors_after == 0, || {
        format!("worker-kill: still failing after repair ({errors_after} errors)")
    });

    cx.json.key("name").string("worker-kill");
    cx.json.key("errors_after").uint(errors_after);
    cx.json.key("repairs").uint(repairs);
    let (before, after, recovered) = write_recovery(&mut cx.json, &stats, fault_at);
    cx.gate.check(recovered, || {
        format!("worker-kill: p99 never recovered ({before:.0} us -> {after:.0} us)")
    });
    eprintln!("worker-kill: p99 {before:.0} us -> {after:.0} us, {repairs} repair(s)");
}

/// Scenario 3: the sole replica's link degrades 25×; the controller must
/// repack the model onto a healthy worker and the tail must recover.
fn link_degradation(cx: &mut Chaos) {
    let net = NetworkModel::with_hop(20e-6).bandwidth(1e9);
    let server = boot(3, vec![0], net);
    // Autoscaling stays off here too, so the final placement is exactly
    // one healthy worker.
    let cfg = FleetConfig {
        max_replicas: 3,
        ..chaos::NO_AUTOSCALE
    };
    let handle = FleetController::new(Arc::clone(&server), cfg).run();

    let (windows, fault_at) = (9, 3);
    let window_ms = if cx.quick { 60 } else { 120 };
    let stats = closed_loop(&server, 3, windows, window_ms, fault_at, move |s| {
        s.set_network(net.degrade_link(0, 25.0));
    });
    let repairs = handle.metrics().repairs.load(Ordering::Relaxed);
    handle.stop();

    cx.check_identity(&server, "link-degradation");
    cx.gate.check(repairs >= 1, || {
        "link-degradation: controller never repacked".to_owned()
    });
    let pinned = server.pinned_workers(MODEL);
    cx.gate
        .check(pinned.len() == 1 && !pinned.contains(&0), || {
            format!("link-degradation: replica still on the degraded link ({pinned:?})")
        });

    cx.json.key("name").string("link-degradation");
    cx.json.key("repairs").uint(repairs);
    cx.json.key("final_placement").begin_array();
    for &w in &pinned {
        cx.json.uint(w as u64);
    }
    cx.json.end_array();
    let (before, after, recovered) = write_recovery(&mut cx.json, &stats, fault_at);
    cx.gate.check(recovered, || {
        format!("link-degradation: p99 never recovered ({before:.0} us -> {after:.0} us)")
    });
    eprintln!("link-degradation: p99 {before:.0} us -> {after:.0} us, repacked to {pinned:?}");
}

pub fn run(args: &Args) -> ExitCode {
    chaos::run("fleet", args, &[load_step, worker_kill, link_degradation])
}
