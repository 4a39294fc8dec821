//! Live-monitor behavior against a real server: scrapes feed the
//! engine, an induced outage fires and clears the fast availability
//! alert, resolved alerts become chrome spans, the background loop stops
//! without waiting out its interval, and the Prometheus output validates
//! and installs onto the server's endpoint.

use std::time::{Duration, Instant};

use bw_obs::{Monitor, MonitorConfig, SloKind, SloSpec, Transition};
use bw_serve::demo::{demo_input, mlp_artifact};
use bw_serve::Server;

fn spec() -> SloSpec {
    SloSpec::new("live", 0.99, Duration::from_millis(50), 0.95)
}

fn boot(queue_cap: usize) -> Server {
    Server::builder()
        .model(mlp_artifact("live", &[16, 32, 8], 3))
        .replicas(2)
        .queue_cap(queue_cap)
        .pin_on("live", vec![0])
        .spawn()
        .unwrap()
}

#[test]
fn an_induced_outage_fires_clears_and_leaves_a_span() {
    let server = boot(1);
    let client = server.client();
    let monitor = Monitor::new(&server, vec![spec()], MonitorConfig::default());

    // A clean baseline longer than the fast window: no alerts.
    for i in 0..8 {
        client
            .call("live", &demo_input(16, i), Duration::from_secs(5))
            .unwrap();
        assert!(monitor.scrape().is_empty(), "clean scrapes must not alert");
    }

    // Outage: a concurrent burst against a one-deep queue sheds most of
    // its requests, burning availability budget hard.
    let mut pending = Vec::new();
    let mut shed = 0;
    for i in 0..64 {
        match client.submit("live", &demo_input(16, i), Duration::from_secs(5)) {
            Ok(p) => pending.push(p),
            Err(_) => shed += 1,
        }
    }
    for p in pending {
        let _ = p.wait();
    }
    assert!(shed > 0, "burst did not shed; tighten the queue");

    let events = monitor.scrape();
    let fired: Vec<_> = events
        .iter()
        .filter(|e| e.transition == Transition::Fire && e.alert.slo == SloKind::Availability)
        .collect();
    assert!(
        !fired.is_empty(),
        "shedding must fire availability: {events:?}"
    );
    assert!(!monitor.firing().is_empty());

    // With traffic stopped the counters freeze, the window burn drops
    // to zero, and every alert clears within the slow window.
    let mut cleared = false;
    for _ in 0..70 {
        monitor.scrape();
        if monitor.firing().is_empty() {
            cleared = true;
            break;
        }
    }
    assert!(cleared, "alerts must clear after recovery");

    // Each resolved alert left one fire→clear span that renders to a
    // valid chrome trace on the slo lane.
    let spans = monitor.take_spans();
    assert!(!spans.is_empty(), "resolved alerts must leave spans");
    assert!(spans.iter().all(|s| s.kind == bw_core::SpanKind::SloAlert));
    let chrome = bw_trace::spans_to_chrome(&spans, 1e9, 0.0);
    let json = bw_trace::chrome_trace_json(&chrome);
    bw_trace::validate_chrome_trace(&json).expect("slo spans render");
    assert!(json.contains("slo-alert"));
    assert!(monitor.take_spans().is_empty(), "spans drain once");
}

#[test]
fn the_background_loop_scrapes_until_stopped() {
    let server = boot(32);
    let monitor = Monitor::new(
        &server,
        vec![spec()],
        MonitorConfig {
            interval: Duration::from_millis(2),
            ..MonitorConfig::default()
        },
    );
    let handle = monitor.run();
    let deadline = Instant::now() + Duration::from_secs(5);
    while monitor.scrapes() < 5 {
        assert!(Instant::now() < deadline, "loop never scraped");
        // Poll once per scrape interval.
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.stop();
    let settled = monitor.scrapes();
    // A window of five intervals, in which a running loop would scrape.
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(monitor.scrapes(), settled, "loop kept scraping after stop");
}

#[test]
fn stopping_the_loop_does_not_wait_out_the_interval() {
    let server = boot(32);
    let monitor = Monitor::new(
        &server,
        vec![spec()],
        MonitorConfig {
            interval: Duration::from_secs(30),
            ..MonitorConfig::default()
        },
    );
    let handle = monitor.run();
    // The first scrape is immediate; the loop then waits its 30 s.
    while monitor.scrapes() == 0 {
        std::thread::yield_now();
    }
    let started = Instant::now();
    handle.stop();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
    assert_eq!(monitor.scrapes(), 1);
}

#[test]
fn prometheus_output_validates_and_installs_on_the_server() {
    let server = boot(32);
    let client = server.client();
    let monitor = Monitor::new(&server, vec![spec()], MonitorConfig::default());
    monitor.install_exposition(&server);

    for i in 0..4 {
        client
            .call("live", &demo_input(16, i), Duration::from_secs(5))
            .unwrap();
        monitor.scrape();
    }

    let own = monitor.prometheus();
    bw_trace::validate_exposition(&own).expect("monitor exposition is valid");
    assert!(own.contains("bw_obs_scrapes_total 4"));
    assert!(own.contains("bw_slo_error_budget_remaining{model=\"live\",slo=\"availability\"} 1"));
    assert!(own.contains("bw_alert_firing{model=\"live\",slo=\"latency\",window=\"fast\"} 0"));

    // The server's endpoint now carries both its own and the SLO
    // families in one valid document.
    let combined = server.prometheus();
    bw_trace::validate_exposition(&combined).expect("combined exposition is valid");
    assert!(combined.contains("bw_requests_submitted_total"));
    assert!(combined.contains("bw_slo_burn_rate"));
}
