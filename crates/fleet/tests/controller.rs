//! Control-loop behavior: scale up under pressure, repair after loss,
//! repack off sick links, scale down when idle, scale on a live
//! monitor's pages — all observable in the decision stream, the server's
//! residency, and the fleet exposition.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bw_fleet::{FleetConfig, FleetController, FleetDecision};
use bw_serve::demo::{demo_input, mlp_artifact, sharded_mlp};
use bw_serve::{Client, NetworkModel, PreloadModel, Server};

const DEADLINE: Duration = Duration::from_secs(5);

fn boot(workers: usize, queue_cap: usize, homes: Vec<usize>) -> Arc<Server> {
    Arc::new(
        Server::builder()
            .model(mlp_artifact("ctl", &[16, 32, 8], 17))
            .replicas(workers)
            .queue_cap(queue_cap)
            .pin_on("ctl", homes)
            .spawn()
            .unwrap(),
    )
}

fn eager() -> FleetConfig {
    FleetConfig {
        cooldown_ticks: 0,
        scale_down_idle_ticks: 2,
        ..FleetConfig::default()
    }
}

/// Submits a concurrent burst of 64 and waits it out; returns how many
/// were shed at admission, the only way a submit may fail here.
fn burst(client: &Client) -> usize {
    let mut shed = 0;
    let mut pending = Vec::new();
    for i in 0..64 {
        match client.submit("ctl", &demo_input(16, i), DEADLINE) {
            Ok(p) => pending.push(p),
            Err(e) => {
                assert!(e.is_shed(), "unexpected submit error: {e}");
                shed += 1;
            }
        }
    }
    for p in pending {
        let _ = p.wait();
    }
    shed
}

#[test]
fn shedding_triggers_a_scale_up() {
    let server = boot(3, 1, vec![0]);
    // A concurrent burst against a one-deep queue sheds; the controller
    // must react.
    assert!(burst(&server.client()) > 0, "burst did not shed");

    let mut ctl = FleetController::new(Arc::clone(&server), eager());
    let decisions = ctl.step();
    assert!(
        decisions
            .iter()
            .any(|d| matches!(d, FleetDecision::ScaleUp { model, .. } if model == "ctl")),
        "expected a scale-up, got {decisions:?}"
    );
    assert_eq!(server.pinned_workers("ctl").len(), 2);
    assert_eq!(ctl.metrics().scale_ups.load(Ordering::Relaxed), 1);
}

#[test]
fn worker_death_triggers_a_repair() {
    let server = boot(3, 32, vec![0]);
    let client = server.client();
    client.call("ctl", &demo_input(16, 0), DEADLINE).unwrap();

    assert!(server.kill_worker(0));
    assert!(server.pinned_workers("ctl").is_empty());

    let mut ctl = FleetController::new(Arc::clone(&server), eager());
    let decisions = ctl.step();
    let repaired = decisions.iter().find_map(|d| match d {
        FleetDecision::Repair { model, worker, .. } if model == "ctl" => Some(*worker),
        _ => None,
    });
    let worker = repaired.expect("controller must re-pin the lost model");
    assert!(worker == 1 || worker == 2);
    assert_eq!(server.pinned_workers("ctl"), vec![worker]);
    assert_eq!(ctl.metrics().repairs.load(Ordering::Relaxed), 1);

    // The pool serves again without human intervention.
    let resp = client.call("ctl", &demo_input(16, 1), DEADLINE).unwrap();
    assert_eq!(resp.output.len(), 8);
    let m = server.metrics().models.remove(0);
    assert_eq!(m.completed + m.shed + m.failed, m.submitted);
}

#[test]
fn whole_models_are_managed_by_what_they_are_not_by_their_name() {
    // A whole model whose name contains `#` is managed; a shard group's
    // members, whose names do too, are not.
    let server = Arc::new(
        Server::builder()
            .model(mlp_artifact("ranker#v2", &[16, 32, 8], 17))
            .sharded_model(sharded_mlp("big", &[16, 64, 8], 5, 600))
            .replicas(3)
            .pin_on("ranker#v2", vec![0])
            .spawn()
            .unwrap(),
    );
    // Worker 0 held `ranker#v2` and one of shard 0's two owners.
    assert!(server.kill_worker(0));
    let cfg = FleetConfig {
        min_replicas: 2,
        ..eager()
    };
    let mut ctl = FleetController::new(Arc::clone(&server), cfg);
    let decisions = ctl.step();
    for d in &decisions {
        let (FleetDecision::ScaleUp { model, .. }
        | FleetDecision::ScaleDown { model, .. }
        | FleetDecision::Repair { model, .. }) = d;
        assert_eq!(model, "ranker#v2", "{decisions:?}");
    }
    assert_eq!(server.pinned_workers("ranker#v2"), vec![1, 2]);
    assert_eq!(server.pinned_workers("big#g0s0"), vec![2]);
    assert_eq!(ctl.metrics().apply_failures.load(Ordering::Relaxed), 0);
}

#[test]
fn degraded_link_triggers_a_repack() {
    let server = boot(3, 32, vec![0]);
    server.set_network(NetworkModel::ideal().degrade_link(0, 10.0));

    let mut ctl = FleetController::new(Arc::clone(&server), eager());
    let decisions = ctl.step();
    assert!(
        decisions
            .iter()
            .any(|d| matches!(d, FleetDecision::Repair { .. })),
        "expected a repack pin, got {decisions:?}"
    );
    assert!(
        decisions
            .iter()
            .any(|d| matches!(d, FleetDecision::ScaleDown { worker, .. } if *worker == 0)),
        "expected the degraded host vacated, got {decisions:?}"
    );
    let pinned = server.pinned_workers("ctl");
    assert_eq!(pinned.len(), 1);
    assert_ne!(pinned[0], 0, "replica must leave the degraded link");
}

#[test]
fn sustained_idle_scales_down_to_the_floor() {
    let server = boot(3, 32, vec![0, 1, 2]);
    let mut ctl = FleetController::new(Arc::clone(&server), eager());
    // Two idle ticks per release, one replica at a time, never below one.
    for _ in 0..12 {
        ctl.step();
    }
    assert_eq!(server.pinned_workers("ctl").len(), 1);
    assert_eq!(ctl.metrics().scale_downs.load(Ordering::Relaxed), 2);
    let more = ctl.step();
    assert!(more.is_empty(), "floor reached; got {more:?}");
}

#[test]
fn a_firing_alert_scales_up_without_queue_pressure() {
    use bw_obs::{Alert, AlertSpeed, SloKind};

    // No traffic at all: no shedding, empty queues — only the alert
    // source says anything is wrong.
    let server = boot(3, 32, vec![0]);
    let mut ctl = FleetController::new(Arc::clone(&server), eager()).with_alert_source(|| {
        vec![Alert {
            model: "ctl".into(),
            slo: SloKind::Latency,
            speed: AlertSpeed::Fast,
        }]
    });
    let decisions = ctl.step();
    assert!(
        decisions
            .iter()
            .any(|d| matches!(d, FleetDecision::ScaleUp { model, .. } if model == "ctl")),
        "a firing alert alone must scale up, got {decisions:?}"
    );
    assert_eq!(server.pinned_workers("ctl").len(), 2);
    assert!(ctl.metrics().alert_signals.load(Ordering::Relaxed) >= 1);

    // An alert for a model this controller does not manage is inert.
    let server = boot(3, 32, vec![0]);
    let mut ctl = FleetController::new(Arc::clone(&server), eager()).with_alert_source(|| {
        vec![Alert {
            model: "someone-else".into(),
            slo: SloKind::Availability,
            speed: AlertSpeed::Slow,
        }]
    });
    assert!(ctl.step().is_empty());
    assert_eq!(server.pinned_workers("ctl").len(), 1);
    assert_eq!(ctl.metrics().alert_signals.load(Ordering::Relaxed), 0);
}

/// A real `Monitor`'s firing alerts drive the controller, one scrape and
/// one tick at a time: a shed burst pages and scales up, a kill's
/// failures page too, and clean traffic clears every page.
#[test]
fn a_live_monitor_feeds_the_controller_through_a_burst_and_a_kill() {
    use bw_obs::{AlertEvent, Monitor, MonitorConfig, SloKind, SloSpec, Transition};

    // The burst's sheds are scripted, not raced: while it runs, the one
    // home of `ctl` is stalled, preloading a model 64 times its size for
    // `STALL` (the preload is priced by fill bandwidth, so a `ctl` pin
    // costs 1/64 of that), and every submit after the first finds the
    // one-deep queue full.
    const STALL: Duration = Duration::from_millis(100);
    let stall = mlp_artifact("stall", &[256, 256], 1);
    let fill = stall.mrf_fill_bytes() as f64 / STALL.as_secs_f64();
    let server = Arc::new(
        Server::builder()
            .model(mlp_artifact("ctl", &[16, 32, 8], 17))
            .replicas(3)
            .queue_cap(1)
            .pin_on("ctl", vec![0])
            .preload(PreloadModel::free().fill_bandwidth(fill))
            .spawn()
            .unwrap(),
    );
    let client = server.client();
    let spec = SloSpec::new("ctl", 0.99, Duration::from_secs(1), 0.95);
    let monitor = Monitor::new(&server, vec![spec], MonitorConfig::default());
    // Queue depth and idleness never move the replica set here.
    let cfg = FleetConfig {
        scale_up_depth: usize::MAX,
        scale_down_idle_ticks: u32::MAX,
        ..eager()
    };
    let mut ctl =
        FleetController::new(Arc::clone(&server), cfg).with_alert_source(monitor.alert_source());
    let pages = |events: &[AlertEvent]| {
        events
            .iter()
            .any(|e| e.transition == Transition::Fire && e.alert.slo == SloKind::Availability)
    };
    // One successful call, then one scrape.
    let clean = |i: u64| {
        client.call("ctl", &demo_input(16, i), DEADLINE).unwrap();
        monitor.scrape()
    };
    // The fast rule's 5-scrape window ages the fault out well within 10.
    let clear = |from: u64| {
        let cleared = (from..from + 10).any(|i| {
            clean(i);
            monitor.firing().is_empty()
        });
        assert!(cleared, "alerts never cleared: {:?}", monitor.firing());
    };

    for i in 0..8 {
        assert!(clean(i).is_empty(), "clean scrapes must not alert");
        assert!(ctl.step().is_empty());
    }

    // Registered only now, so that no step before repairs it onto a
    // worker. The worker meters the preload on its link as it takes the
    // pin and falls asleep; the pin returns once it wakes.
    server.register_model(stall).unwrap();
    let before = server.metrics().link_transfers[0];
    let stalled = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.pin_model("stall", 0).map(|_| ()))
    };
    let start = Instant::now();
    while server.metrics().link_transfers[0] == before {
        assert!(start.elapsed() < DEADLINE, "the stall's pin never queued");
        thread::yield_now();
    }
    assert!(burst(&client) > 0, "burst did not shed");
    stalled.join().unwrap().unwrap();
    let events = monitor.scrape();
    assert!(pages(&events), "shedding must page: {events:?}");
    let decisions = ctl.step();
    assert!(
        decisions
            .iter()
            .any(|d| matches!(d, FleetDecision::ScaleUp { .. })),
        "expected a scale-up, got {decisions:?}"
    );
    assert!(ctl.metrics().alert_signals.load(Ordering::Relaxed) >= 1);
    let replicas = server.pinned_workers("ctl");
    assert_eq!(replicas.len(), 2);
    clear(100);

    for &w in &replicas {
        assert!(server.kill_worker(w));
    }
    for i in 0..8 {
        assert!(client.call("ctl", &demo_input(16, i), DEADLINE).is_err());
    }
    let events = monitor.scrape();
    assert!(pages(&events), "failures must page: {events:?}");
    assert!(server.metrics().models[0].failed > 0);
    let decisions = ctl.step();
    assert!(
        decisions
            .iter()
            .any(|d| matches!(d, FleetDecision::Repair { .. })),
        "expected a repair, got {decisions:?}"
    );
    let repaired = server.pinned_workers("ctl");
    assert!(repaired.len() == 1 && !replicas.contains(&repaired[0]));
    clear(200);

    let events = monitor.events();
    let count = |t: Transition| events.iter().filter(|e| e.transition == t).count();
    assert_eq!(
        count(Transition::Fire),
        count(Transition::Clear),
        "{events:?}"
    );
    let m = server.metrics().models.remove(0);
    assert_eq!(m.accounted(), m.submitted);
}

#[test]
fn stopping_the_loop_does_not_wait_out_the_tick() {
    let server = boot(3, 32, vec![0]);
    let cfg = FleetConfig {
        tick: Duration::from_secs(30),
        ..eager()
    };
    let handle = FleetController::new(Arc::clone(&server), cfg).run();
    let metrics = handle.metrics();
    // The first tick is immediate; the loop then waits its 30 s.
    while metrics.ticks.load(Ordering::Relaxed) == 0 {
        thread::yield_now();
    }
    let started = Instant::now();
    handle.stop();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
    assert_eq!(metrics.ticks.load(Ordering::Relaxed), 1);
}

#[test]
fn background_loop_repairs_and_exposes_metrics() {
    let server = boot(3, 32, vec![0]);
    let cfg = FleetConfig {
        tick: Duration::from_millis(5),
        scale_down_idle_ticks: u32::MAX,
        ..eager()
    };
    let handle = FleetController::new(Arc::clone(&server), cfg).run();

    assert!(server.kill_worker(0));
    let deadline = Instant::now() + DEADLINE;
    while server.pinned_workers("ctl").is_empty() {
        assert!(
            Instant::now() < deadline,
            "controller never repaired the model"
        );
        // Poll once per controller tick.
        thread::sleep(Duration::from_millis(5));
    }
    let client = server.client();
    client.call("ctl", &demo_input(16, 3), DEADLINE).unwrap();

    let metrics = handle.metrics();
    handle.stop();
    assert!(metrics.ticks.load(Ordering::Relaxed) > 0);
    assert_eq!(metrics.repairs.load(Ordering::Relaxed), 1);

    let text = metrics.prometheus();
    bw_trace::validate_exposition(&text).expect("fleet exposition is valid");
    assert!(text.contains("bw_fleet_repairs_total 1"));
    // Composes with the server exposition by concatenation.
    let combined = format!("{}{}", server.prometheus(), text);
    bw_trace::validate_exposition(&combined).expect("combined exposition is valid");

    let spans = metrics.take_spans();
    assert!(!spans.is_empty(), "control ops must leave spans");
    let events = bw_trace::spans_to_chrome(&spans, bw_fleet::FLEET_SPAN_CLOCK_HZ, 0.0);
    let json = bw_trace::chrome_trace_json(&events);
    bw_trace::validate_chrome_trace(&json).expect("fleet spans render to a chrome trace");
}
