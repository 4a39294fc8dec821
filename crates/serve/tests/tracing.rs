//! End-to-end tracing: one served request must be traceable from the TCP
//! client down to the NPU chains — attribution on the response, counters
//! in the metrics snapshot, a Prometheus exposition that validates, and a
//! Perfetto span tree — all reconciling with the accelerator's own
//! `RunStats`.

use std::time::Duration;

use bw_core::SpanKind;
use bw_serve::demo::{demo_input, mlp_artifact};
use bw_serve::{Server, TcpClient, TcpFrontend};
use bw_trace::{chrome_trace_json, spans_to_chrome, validate_chrome_trace, validate_exposition};

#[test]
fn one_request_traces_end_to_end() {
    let artifact = mlp_artifact("mlp", &[16, 32, 8], 7);
    // Reference run on a locally pinned instance: the served request must
    // attribute exactly these counters (same firmware, same input).
    let (_, want) = artifact
        .pin()
        .unwrap()
        .infer_with_stats(&demo_input(16, 0))
        .unwrap();
    assert!(want.cycles > 0 && want.mvm_macs > 0);

    let server = Server::builder()
        .model(artifact)
        .replicas(1)
        .trace_sample(1)
        .spawn()
        .unwrap();
    let client = server.client();
    let resp = client
        .call("mlp", &demo_input(16, 0), Duration::from_secs(10))
        .unwrap();

    // 1. The response's attribution carries the NPU counters.
    let a = resp.attribution;
    assert_eq!(a.npu_cycles, want.cycles);
    assert_eq!(a.npu_macs, want.mvm_macs);
    assert_eq!(a.dep_stall_cycles, want.dep_stall_cycles);
    assert_eq!(a.resource_stall_cycles, want.resource_stall_cycles);
    assert!(a.service > Duration::ZERO);
    // Queue wait + service cannot exceed the end-to-end latency by more
    // than scheduling noise; they are measured inside it.
    assert!(a.queue_wait + a.service <= resp.latency + Duration::from_millis(5));

    // 2. The metrics snapshot attributes the same counters per model.
    let snap = client.metrics();
    let m = &snap.models[0];
    assert_eq!(m.npu_cycles, want.cycles);
    assert_eq!(m.npu_macs, want.mvm_macs);
    assert_eq!(m.npu_dep_stall_cycles, want.dep_stall_cycles);
    assert_eq!(m.npu_resource_stall_cycles, want.resource_stall_cycles);
    assert_eq!(m.queue_wait.count(), 1);
    assert_eq!(m.service.count(), 1);

    // 3. The Prometheus exposition validates and shows the counters.
    let prom = server.prometheus();
    validate_exposition(&prom).expect("valid exposition");
    assert!(prom.contains(&format!(
        "bw_npu_cycles_total{{model=\"mlp\"}} {}",
        want.cycles
    )));
    assert!(prom.contains(&format!(
        "bw_npu_macs_total{{model=\"mlp\"}} {}",
        want.mvm_macs
    )));
    assert!(prom.contains("bw_request_queue_wait_seconds_count{model=\"mlp\"} 1"));
    assert!(prom.contains("bw_request_service_seconds_count{model=\"mlp\"} 1"));

    // 4. The sampled trace's span tree reconciles with the stats and
    //    exports to a valid Perfetto document.
    let traces = server.take_traces();
    assert_eq!(traces.len(), 1);
    let t = &traces[0];
    assert_eq!(t.request_id, resp.request_id);
    assert_eq!(t.trace_id, resp.request_id);
    assert_eq!(t.model, "mlp");
    assert_eq!(t.worker, Some(resp.worker));
    assert_eq!(t.latency, resp.latency);
    assert_eq!(t.error, None);
    assert_eq!(t.attribution, a);
    assert!(t.spans.iter().all(|s| s.trace_id == resp.request_id));
    let run_cycles: u64 = t
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Run)
        .map(|s| s.cycles())
        .sum();
    assert_eq!(run_cycles, t.stats.cycles);
    assert_eq!(t.stats.cycles, want.cycles);
    let chain_count = t
        .spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Chain(_)))
        .count() as u64;
    assert_eq!(chain_count, t.stats.chains);

    let events = spans_to_chrome(&t.spans, 250e6, 0.0);
    let doc = chrome_trace_json(&events);
    let complete = validate_chrome_trace(&doc).expect("valid chrome trace");
    assert!(complete as u64 > t.stats.chains);

    // Draining empties the log.
    assert!(server.take_traces().is_empty());
}

#[test]
fn attribution_flows_over_the_tcp_wire() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 32, 8], 7))
        .replicas(1)
        .spawn()
        .unwrap();
    let frontend = TcpFrontend::bind(&server, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(frontend.addr()).unwrap();

    let resp = client
        .call("mlp", &demo_input(16, 0), Duration::from_secs(10))
        .unwrap();
    assert!(resp.attribution.npu_cycles > 0);
    assert!(resp.attribution.npu_macs > 0);
    assert!(resp.attribution.service > Duration::ZERO);

    // The Prometheus endpoint round-trips the wire and validates.
    let prom = client.prometheus().unwrap();
    let samples = validate_exposition(&prom).expect("valid exposition over tcp");
    assert!(samples > 0);
    assert!(prom.contains("bw_requests_completed_total{model=\"mlp\"} 1"));
    assert!(prom.contains(&format!(
        "bw_npu_cycles_total{{model=\"mlp\"}} {}",
        resp.attribution.npu_cycles
    )));
}

#[test]
fn tracing_disabled_collects_nothing_but_still_attributes() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 32, 8], 7))
        .replicas(1)
        .spawn()
        .unwrap();
    let client = server.client();
    let resp = client
        .call("mlp", &demo_input(16, 0), Duration::from_secs(10))
        .unwrap();
    // Counters still attribute with sampling off...
    assert!(resp.attribution.npu_cycles > 0);
    assert!(client.metrics().models[0].npu_cycles > 0);
    // ...but no span traces are collected.
    assert!(server.take_traces().is_empty());
}
