//! Observability chaos gate: a live `bw-serve` pool watched by a
//! `bw-obs` monitor while three faults are injected, gating that the
//! alerting pipeline is both *sensitive* (every fault fires its alert
//! within 10 scrape intervals) and *quiet* (zero transitions before the
//! fault, every alert cleared after recovery).
//!
//! - **load-step** — offered load steps from a gentle paced trickle to
//!   back-to-back 64-deep submit bursts against an 8-deep queue; the
//!   overflow sheds and burns the availability budget. The fleet
//!   controller consumes the monitor's firing alerts as a scale signal
//!   (`alert_signals` must tick) and grows the replica set.
//! - **worker-kill** — the sole replica dies; admitted requests fail
//!   until the controller re-pins, a hard availability burn.
//! - **link-degradation** — the replica's link slows ~120×, pushing
//!   every completion past the latency objective; the tail-sampling
//!   flight recorder must retain a complete span tree for *exactly* the
//!   requests the client saw breach.
//!
//! The JSON report goes to stdout; exit 1 lists every check that failed.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bw_fleet::{FleetConfig, FleetController};
use bw_obs::{AlertEvent, BurnRule, Monitor, MonitorConfig, SloKind, SloSpec, Transition};
use bw_serve::{FlightOutcome, NetworkModel, Server, ServerBuilder};

use super::chaos::{self, Callers, Chaos, DEADLINE, MODEL};
use crate::cli::Args;

const SCRAPE: Duration = Duration::from_millis(10);
/// The headline gate: a fault's first alert must fire within this many
/// scrape intervals of injection.
const FIRE_WITHIN: u64 = 10;

/// Spawns a scenario's pool and the monitor watching it against one
/// availability-and-latency objective.
fn watch(pool: ServerBuilder, objective: Duration) -> (Arc<Server>, Monitor) {
    let server = Arc::new(pool.spawn().expect("server spawns"));
    let monitor = Monitor::new(
        &server,
        vec![SloSpec::new(MODEL, 0.99, objective, 0.95)],
        MonitorConfig {
            interval: SCRAPE,
            rules: BurnRule::default_rules(),
        },
    );
    (server, monitor)
}

/// Two paced callers holding at most 2 requests in flight: clean
/// background traffic that cannot shed by itself.
fn trickle(server: &Arc<Server>) -> Callers {
    Callers::spawn(server, 2, Duration::from_millis(1), |client, i| {
        let _ = client.call(MODEL, &chaos::input(i), DEADLINE);
    })
}

/// Blocks until the monitor has taken at least `n` scrapes.
fn wait_scrapes(monitor: &Monitor, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while monitor.scrapes() < n {
        assert!(Instant::now() < deadline, "monitor stopped scraping");
        thread::sleep(SCRAPE / 2);
    }
}

/// Polls until no alert is firing. The slow rule's 60-scrape window
/// must fully drain after traffic stops, so the budget is generous.
fn wait_all_clear(cx: &mut Chaos, monitor: &Monitor, scenario: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !monitor.firing().is_empty() && Instant::now() < deadline {
        thread::sleep(SCRAPE);
    }
    cx.gate.check(monitor.firing().is_empty(), || {
        format!("{scenario}: alerts never cleared: {:?}", monitor.firing())
    });
}

/// The shared gates — quiet before the fault, the expected objective's
/// alert fired within [`FIRE_WITHIN`] scrapes of it, and everything
/// cleared afterwards — and the report keys that record them.
fn gate_events(
    cx: &mut Chaos,
    scenario: &str,
    events: &[AlertEvent],
    fault_scrape: u64,
    expected: SloKind,
) {
    let early = events.iter().filter(|e| e.scrape < fault_scrape).count();
    cx.gate.check(early == 0, || {
        format!("{scenario}: steady-state false positive before the fault: {events:?}")
    });
    let count = |t: Transition| events.iter().filter(|e| e.transition == t).count();
    let (fires, clears) = (count(Transition::Fire), count(Transition::Clear));
    cx.gate.check(fires == clears, || {
        format!("{scenario}: a fired alert never cleared ({fires} fires, {clears} clears)")
    });
    let first_fire = events
        .iter()
        .filter(|e| e.transition == Transition::Fire && e.alert.slo == expected)
        .map(|e| e.scrape)
        .min();
    let on_time = first_fire.is_some_and(|f| f <= fault_scrape + FIRE_WITHIN);
    cx.gate.check(on_time, || {
        format!(
            "{scenario}: no {expected:?} alert within {FIRE_WITHIN} scrapes \
             (fault at scrape {fault_scrape}, first fire {first_fire:?})"
        )
    });
    eprintln!(
        "{scenario}: fault@{fault_scrape} fire@{}, {} events",
        first_fire.map_or("never".to_owned(), |f| f.to_string()),
        events.len()
    );

    let json = &mut cx.json;
    json.key("name").string(scenario);
    json.key("fault_scrape").uint(fault_scrape);
    json.key("first_fire_scrape");
    match first_fire {
        Some(f) => json.uint(f),
        None => json.null(),
    };
    json.key("false_positives_before_fault").uint(early as u64);
    json.key("all_cleared").bool(fires == clears);
    json.key("events").begin_array();
    for e in events {
        json.begin_object().key("scrape").uint(e.scrape);
        json.key("slo").string(e.alert.slo.label());
        json.key("window").string(e.alert.speed.label());
        json.key("transition").string(e.transition.label());
        json.key("burn").fixed(e.burn, 3).end_object();
    }
    json.end_array();
}

/// Scenario 1: load step. Shedding burns availability; the controller,
/// fed by the monitor's alert source, must scale out.
///
/// The step is a run of back-to-back 64-deep submit bursts: even after
/// the controller scales to all 4 workers (4 × 9 in-flight slots), a
/// burst overflows the queues, so shedding is deterministic rather than
/// a race between arrival rate and a contended single-core scheduler.
fn load_step(cx: &mut Chaos) {
    let pool = chaos::pool(4, 8, vec![0], chaos::healthy_net(), 2e-3);
    let (server, monitor) = watch(pool, Duration::from_secs(1));
    let mon_handle = monitor.run();

    // Depth pressure is deliberately inert: the step must actually
    // overflow the queue and shed, so the only scale drivers are shed
    // deltas and the monitor's firing alert. With a finite depth
    // threshold the controller pre-empts the overflow and the
    // availability burn never happens.
    let cfg = FleetConfig {
        cooldown_ticks: 2,
        tick: SCRAPE,
        ..chaos::NO_AUTOSCALE
    };
    let ctl =
        FleetController::new(Arc::clone(&server), cfg).with_alert_source(monitor.alert_source());
    let fleet_metrics = ctl.metrics();
    let fleet_handle = ctl.run();

    // Clean phase: shedding is structurally impossible, so any pre-fault
    // transition is a genuine false positive. The trickle keeps running
    // through the whole scenario so the burn windows slide over fresh
    // clean traffic during recovery.
    let callers = trickle(&server);
    wait_scrapes(&monitor, 8);
    let fault_scrape = monitor.scrapes();

    // The step: bursts of 64 back-to-back submits overflow the queue on
    // every round, whatever the replica count.
    let step_scrapes = if cx.quick { 15 } else { 25 };
    let client = server.client();
    let (mut offered, mut shed) = (0u64, 0u64);
    while monitor.scrapes() < fault_scrape + step_scrapes {
        let mut pending = Vec::with_capacity(64);
        for i in 0..64u64 {
            offered += 1;
            match client.submit(MODEL, &chaos::input(i), DEADLINE) {
                Ok(p) => pending.push(p),
                Err(e) if e.is_shed() => shed += 1,
                Err(e) => cx
                    .gate
                    .fail(format!("load-step: unexpected submit error: {e}")),
            }
        }
        for p in pending {
            let _ = p.wait();
        }
    }
    cx.gate
        .check(shed > 0, || "load-step: the step never shed".to_owned());

    // The step is over; the paced trickle drains the burn windows and
    // every alert must clear.
    wait_all_clear(cx, &monitor, "load-step");
    callers.stop();
    fleet_handle.stop();
    mon_handle.stop();
    cx.check_identity(&server, "load-step");

    let alert_signals = fleet_metrics.alert_signals.load(Ordering::Relaxed);
    let replicas = server.pinned_workers(MODEL).len();
    cx.gate.check(alert_signals >= 1, || {
        "load-step: the controller never consumed a firing alert".to_owned()
    });
    cx.gate.check(replicas >= 2, || {
        format!("load-step: controller never scaled out (replicas {replicas})")
    });
    eprintln!("load-step: {alert_signals} alert signals, replicas 1 -> {replicas}");

    let events = monitor.events();
    gate_events(
        cx,
        "load-step",
        &events,
        fault_scrape,
        SloKind::Availability,
    );
    cx.json.key("alert_signals").uint(alert_signals);
    cx.json.key("replicas_final").uint(replicas as u64);
    cx.json.key("step_offered").uint(offered);
    cx.json.key("step_shed").uint(shed);
}

/// Scenario 2: the sole replica dies. Admitted requests fail until the
/// controller re-pins; a hard availability burn that must page fast.
fn worker_kill(cx: &mut Chaos) {
    let pool = chaos::pool(3, 64, vec![0], chaos::healthy_net(), 5e-3);
    let (server, monitor) = watch(pool, Duration::from_secs(1));
    let mon_handle = monitor.run();
    let cfg = FleetConfig {
        max_replicas: 3,
        tick: SCRAPE,
        ..chaos::NO_AUTOSCALE
    };
    let fleet_handle = FleetController::new(Arc::clone(&server), cfg).run();

    let callers = trickle(&server);
    wait_scrapes(&monitor, 8);
    let fault_scrape = monitor.scrapes();
    let killed = server.kill_worker(0);
    cx.gate.check(killed, || {
        "worker-kill: worker 0 should die on request".to_owned()
    });

    // Let the failure burst, the repair, and the recovery all happen
    // under traffic.
    let recover = if cx.quick { 20 } else { 40 };
    wait_scrapes(&monitor, fault_scrape + recover);
    callers.stop();
    wait_all_clear(cx, &monitor, "worker-kill");
    fleet_handle.stop();
    mon_handle.stop();
    cx.check_identity(&server, "worker-kill");

    let failed = server.metrics().models.remove(0).failed;
    cx.gate.check(failed > 0, || {
        "worker-kill: the kill never failed a request".to_owned()
    });
    let repaired = server.pinned_workers(MODEL);
    cx.gate
        .check(!repaired.is_empty() && !repaired.contains(&0), || {
            format!("worker-kill: replica not re-pinned off the dead worker ({repaired:?})")
        });
    eprintln!("worker-kill: {failed} failed, re-pinned to {repaired:?}");

    let events = monitor.events();
    gate_events(
        cx,
        "worker-kill",
        &events,
        fault_scrape,
        SloKind::Availability,
    );
    cx.json.key("failed").uint(failed);
    cx.json.key("repinned_to").begin_array();
    for &w in &repaired {
        cx.json.uint(w as u64);
    }
    cx.json.end_array();
}

/// Scenario 3: the replica's link slows ~120×, so every completion
/// breaches the latency objective. The latency alert must fire, and the
/// flight recorder must hold a complete span tree for exactly the
/// requests the client saw breach.
fn link_degradation(cx: &mut Chaos) {
    let net = NetworkModel::with_hop(20e-6).bandwidth(10e9);
    let objective = Duration::from_secs_f64((10.0 * cx.service_s).max(2e-3));
    let pool = chaos::pool(3, 64, vec![0], net, 2e-3).flight_recorder(objective, 4096);
    let (server, monitor) = watch(pool, objective);
    let mon_handle = monitor.run();

    // One paced caller counting the breaches it observes first-hand
    // (the server's own latency, the same quantity the recorder gates
    // on).
    let breaches = Arc::new(AtomicU64::new(0));
    let caller = {
        let breaches = Arc::clone(&breaches);
        Callers::spawn(&server, 1, Duration::from_millis(2), move |client, i| {
            if let Ok(resp) = client.call(MODEL, &chaos::input(i), DEADLINE) {
                if resp.latency > objective {
                    breaches.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    wait_scrapes(&monitor, 8);
    let fault_scrape = monitor.scrapes();
    server.set_network(net.degrade_link(0, 120.0));

    // Hold the fault across several fast windows, then heal the link.
    let fault_scrapes = if cx.quick { 20 } else { 35 };
    wait_scrapes(&monitor, fault_scrape + fault_scrapes);
    server.set_network(net);
    wait_scrapes(&monitor, monitor.scrapes() + 10);

    caller.stop();
    wait_all_clear(cx, &monitor, "link-degradation");
    mon_handle.stop();
    cx.check_identity(&server, "link-degradation");

    let breaches = breaches.load(Ordering::Relaxed);
    cx.gate.check(breaches > 0, || {
        "link-degradation: the client never saw a breach".to_owned()
    });

    // Flight-recorder completeness: one LatencyBreach record per
    // client-observed breach, each carrying the full span tree.
    let records = server.take_flight_records();
    let breach_records: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.outcome, FlightOutcome::LatencyBreach { .. }))
        .collect();
    cx.gate.check(breach_records.len() as u64 == breaches, || {
        format!(
            "link-degradation: recorder retained {} breaches, the client saw {breaches}",
            breach_records.len()
        )
    });
    let complete = breach_records.iter().all(|r| {
        let spans = &r.trace.spans;
        spans.iter().any(|s| s.kind == bw_core::SpanKind::Run)
            && spans.iter().all(|s| s.trace_id == r.trace.request_id)
    });
    cx.gate.check(complete, || {
        "link-degradation: a retained span tree lacks its run envelope or crosses requests"
            .to_owned()
    });
    eprintln!(
        "link-degradation: {breaches} breaches, {} flight records",
        breach_records.len()
    );

    let events = monitor.events();
    gate_events(
        cx,
        "link-degradation",
        &events,
        fault_scrape,
        SloKind::Latency,
    );
    let json = &mut cx.json;
    json.key("latency_objective_us")
        .fixed(objective.as_secs_f64() * 1e6, 1);
    json.key("client_breaches").uint(breaches);
    json.key("flight_records").uint(breach_records.len() as u64);
    json.key("flight_complete").bool(complete);
}

pub fn run(args: &Args) -> ExitCode {
    chaos::run("obs", args, &[load_step, worker_kill, link_degradation])
}
