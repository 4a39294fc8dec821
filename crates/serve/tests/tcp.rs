//! TCP front-end round trips: the wire protocol against a live server.

use std::time::Duration;

use bw_serve::demo::{demo_input, mlp_artifact};
use bw_serve::{BatchConfig, ServeError, Server, TcpClient, TcpFrontend, TcpFrontendConfig};

const DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn tcp_round_trip_matches_in_process_result() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 32, 8], 7))
        .replicas(2)
        .spawn()
        .unwrap();
    let expected = server
        .client()
        .call("mlp", &demo_input(16, 5), DEADLINE)
        .unwrap()
        .output;

    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(frontend.addr()).unwrap();
    let resp = client.call("mlp", &demo_input(16, 5), DEADLINE).unwrap();
    assert_eq!(resp.output, expected);
    assert!(resp.latency > Duration::ZERO);

    // Errors travel the wire as explicit error frames.
    let err = client
        .call("nope", &demo_input(16, 0), DEADLINE)
        .unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "got {err}");

    // A name longer than the wire's 16-bit length is refused before any
    // frame is sent, so the connection stays usable.
    let long = "m".repeat(70_000);
    let err = client
        .call(&long, &demo_input(16, 0), DEADLINE)
        .unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "got {err}");

    // Metrics are fetchable over the same connection.
    let text = client.prometheus().unwrap();
    assert!(text.contains("bw_requests_completed_total{model=\"mlp\"} 2"));

    frontend.shutdown();
}

#[test]
fn concurrent_tcp_clients_are_isolated() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 8], 3))
        .replicas(2)
        .spawn()
        .unwrap();
    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let addr = frontend.addr();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(addr).unwrap();
                let mut outputs = Vec::new();
                for j in 0..5 {
                    let resp = client
                        .call("mlp", &demo_input(16, i * 100 + j), DEADLINE)
                        .unwrap();
                    outputs.push(resp.output);
                }
                outputs
            })
        })
        .collect();
    for h in handles {
        let outputs = h.join().unwrap();
        assert_eq!(outputs.len(), 5);
        assert!(outputs.iter().all(|o| o.len() == 8));
    }
    let m = server.metrics();
    assert_eq!(m.models[0].completed, 20);
}

#[test]
fn sla_rejections_cross_the_wire_typed() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 32, 8], 7))
        .replicas(1)
        .spawn()
        .unwrap();
    let bound = server
        .client()
        .static_bound_us("mlp")
        .expect("mlp has a provable bound");

    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(frontend.addr()).unwrap();

    // A deadline below the static lower bound comes back as the typed
    // SLA frame, not a stringly error — remote clients see the same
    // structured rejection local ones do.
    let err = client
        .call("mlp", &demo_input(16, 1), Duration::from_micros(0))
        .unwrap_err();
    match err {
        ServeError::SlaUnmeetable {
            ref model,
            bound_us,
            budget_us,
        } => {
            assert_eq!(model, "mlp");
            assert_eq!(bound_us, bound);
            assert_eq!(budget_us, 0);
        }
        other => panic!("expected a typed SLA rejection over TCP, got {other}"),
    }

    // The connection survives the rejection and still serves work.
    let resp = client.call("mlp", &demo_input(16, 1), DEADLINE).unwrap();
    assert_eq!(resp.output.len(), 8);
    let m = server.metrics();
    assert_eq!(m.models[0].submitted, 1, "the rejection was never admitted");

    frontend.shutdown();
}

/// Nothing ticks, so shutdown itself has to wake a loop that is blocked
/// in its poll on an idle connection.
#[test]
fn shutdown_wakes_a_loop_blocked_on_an_idle_connection() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 8], 3))
        .spawn()
        .unwrap();
    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(frontend.addr()).unwrap();
    // A served request proves a loop owns the connection.
    client.call("mlp", &demo_input(16, 0), DEADLINE).unwrap();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        frontend.shutdown();
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung behind a blocked event loop");
    stopper.join().unwrap();

    // The loops are gone and took the idle connection with them.
    let err = client
        .call("mlp", &demo_input(16, 0), DEADLINE)
        .unwrap_err();
    assert!(matches!(err, ServeError::Disconnected), "got {err}");
}

/// A lone request cannot fill a `max_batch: 8` window: its reply exists
/// only because a dispatcher timed the hold out, and reaches the socket
/// only because that dispatcher woke the event loop.
#[test]
fn a_window_flushed_by_hold_expiry_still_replies_over_tcp() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 8], 3))
        .spawn()
        .unwrap();
    let hold = Duration::from_millis(20);
    let frontend = TcpFrontend::bind_with(
        &server,
        "127.0.0.1:0",
        TcpFrontendConfig {
            event_loops: 1,
            batch: BatchConfig {
                max_batch: 8,
                max_hold: hold,
                slack_fraction: 1.0,
                dispatchers: 1,
            },
        },
    )
    .unwrap();
    let mut client = TcpClient::connect(frontend.addr()).unwrap();

    let sent = std::time::Instant::now();
    let resp = client.call("mlp", &demo_input(16, 2), DEADLINE).unwrap();
    assert_eq!(resp.output.len(), 8);
    assert!(sent.elapsed() >= hold, "the window flushed before its hold");
    let m = &server.metrics().models[0];
    assert_eq!((m.completed, m.batches, m.batched_requests), (1, 1, 1));

    frontend.shutdown();
}
