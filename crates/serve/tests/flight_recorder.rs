//! Tail sampling: the one trace log keeps the full span tree of exactly
//! the requests that failed or breached the latency objective, bounded at
//! 256 traces, alongside the head-sampled ones — each request at most
//! once.

use std::time::Duration;

use bw_core::SpanKind;
use bw_serve::demo::{demo_input, mlp_artifact};
use bw_serve::Server;

const DEADLINE: Duration = Duration::from_secs(5);

fn boot(objective: Duration, queue_cap: usize) -> Server {
    Server::builder()
        .model(mlp_artifact("fr", &[16, 32, 8], 9))
        .replicas(2)
        .queue_cap(queue_cap)
        .tail_sample(objective)
        .spawn()
        .unwrap()
}

#[test]
fn every_breaching_request_keeps_its_full_span_tree() {
    // A zero latency objective: every completion breaches.
    let server = boot(Duration::ZERO, 32);
    let client = server.client();
    let mut responses = Vec::new();
    for i in 0..10 {
        responses.push(client.call("fr", &demo_input(16, i), DEADLINE).unwrap());
    }

    let traces = server.take_traces();
    assert_eq!(traces.len(), 10, "every breach must be kept");
    for (trace, resp) in traces.iter().zip(&responses) {
        assert_eq!(trace.request_id, resp.request_id);
        assert_eq!(trace.latency, resp.latency);
        assert!(trace.latency > Duration::ZERO);
        assert_eq!(trace.error, None);
        assert_eq!(trace.worker, Some(resp.worker));
        // The span tree is complete: a run envelope plus chain spans,
        // all stamped with the request's own trace id.
        assert!(!trace.spans.is_empty(), "empty span tree kept");
        assert!(trace.spans.iter().any(|s| s.kind == SpanKind::Run));
        assert!(trace.spans.iter().all(|s| s.trace_id == trace.request_id));
    }
    assert!(server.take_traces().is_empty(), "traces drain once");
}

#[test]
fn requests_within_the_objective_are_not_retained() {
    let server = boot(Duration::from_secs(100), 32);
    let client = server.client();
    for i in 0..10 {
        client.call("fr", &demo_input(16, i), DEADLINE).unwrap();
    }
    assert!(
        server.take_traces().is_empty(),
        "healthy requests must not be kept"
    );
}

#[test]
fn the_ring_is_bounded_and_keeps_the_most_recent() {
    const CAP: usize = 256;
    let server = boot(Duration::ZERO, 32);
    let client = server.client();
    let mut ids = Vec::new();
    for i in 0..CAP as u64 + 8 {
        let p = client.submit("fr", &demo_input(16, i), DEADLINE).unwrap();
        ids.push(p.request_id());
        p.wait().unwrap();
    }
    let traces = server.take_traces();
    assert_eq!(traces.len(), CAP, "the log must be bounded");
    let kept: Vec<_> = traces.iter().map(|t| t.request_id).collect();
    assert_eq!(kept, ids[8..], "oldest traces must be evicted first");
}

#[test]
fn failures_are_recorded_but_shed_is_not() {
    // Kill every worker: admitted requests fail with NoReplica.
    let server = boot(Duration::from_secs(100), 32);
    let client = server.client();
    for w in 0..server.worker_count() {
        server.kill_worker(w);
    }
    let err = client.call("fr", &demo_input(16, 0), DEADLINE).unwrap_err();
    let traces = server.take_traces();
    assert_eq!(traces.len(), 1, "a failed request must be kept");
    assert_eq!(traces[0].error.as_deref(), Some(err.to_string().as_str()));
    assert_eq!(traces[0].worker, None, "no attempt was accepted");

    // Shed requests never entered the system: admission control is an
    // outcome, not a serving failure, so they leave no trace.
    let server = boot(Duration::from_secs(100), 1);
    let client = server.client();
    let mut pending = Vec::new();
    let mut shed = 0;
    for i in 0..64 {
        match client.submit("fr", &demo_input(16, i), DEADLINE) {
            Ok(p) => pending.push(p),
            Err(_) => shed += 1,
        }
    }
    for p in pending {
        let _ = p.wait();
    }
    assert!(shed > 0, "burst did not shed; tighten the queue");
    assert!(
        server.take_traces().iter().all(|t| t.error.is_none()),
        "shed requests must not leave failure traces"
    );
}

#[test]
fn head_sampling_semantics_are_unchanged() {
    // Head and tail sampling keep the union of what each selects, each
    // request once: with a zero objective every request breaches, so six
    // requests leave six traces, the three even ids not twice.
    let boot_both = |objective| {
        Server::builder()
            .model(mlp_artifact("fr", &[16, 32, 8], 9))
            .replicas(2)
            .queue_cap(32)
            .trace_sample(2)
            .tail_sample(objective)
            .spawn()
            .unwrap()
    };
    let server = boot_both(Duration::ZERO);
    let client = server.client();
    let mut ids = Vec::new();
    for i in 0..6 {
        ids.push(
            client
                .call("fr", &demo_input(16, i), DEADLINE)
                .unwrap()
                .request_id,
        );
    }
    let kept: Vec<_> = server.take_traces().iter().map(|t| t.request_id).collect();
    assert_eq!(kept, ids, "the union, each request once");

    // Within a 100 s objective only head sampling keeps anything: the
    // three even ids.
    let server = boot_both(Duration::from_secs(100));
    let client = server.client();
    for i in 0..6 {
        client.call("fr", &demo_input(16, i), DEADLINE).unwrap();
    }
    let traces = server.take_traces();
    assert_eq!(traces.len(), 3, "every second request is head-sampled");
    assert!(traces.iter().all(|t| t.request_id % 2 == 0));
    assert!(traces
        .iter()
        .all(|t| t.error.is_none() && !t.spans.is_empty()));
}
