//! Scale-out acceptance tests: network-partitioned models served across
//! cooperating workers (§II-A's spatially distributed hardware
//! microservices).
//!
//! The scenarios: a model whose weights genuinely overflow one device's
//! MRF serves across shard workers bit-identically to a single-device
//! reference; a shard-owning worker killed mid-run never hangs or
//! double-counts a request; a non-ideal network shifts measured latency
//! and shows up in the per-link counters.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bw_bfp::BfpFormat;
use bw_core::NpuConfig;
use bw_gir::{LowerOptions, ModelArtifact, ShardedArtifact};
use bw_serve::demo::{demo_input, mlp_graph};
use bw_serve::{ModelSnapshot, NetworkModel, ServeError, Server};

const DEADLINE: Duration = Duration::from_secs(10);
const WIDTHS: &[usize] = &[64, 256, 32];
const SEED: u64 = 11;
/// Per-worker weight budget: splits the 256x64 hidden layer in two.
const BUDGET: u64 = 8192;

/// A deliberately small device: 64 MRF tiles = 16,384 weights, less than
/// the demo model's 24,576 — the unsharded model cannot pin.
fn small_config() -> NpuConfig {
    NpuConfig::builder()
        .name("BW_SMALL")
        .native_dim(16)
        .lanes(4)
        .tile_engines(2)
        .mrf_entries(64)
        .vrf_entries(512)
        .clock_mhz(250.0)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .unwrap()
}

/// The same device with an MRF big enough to hold the whole model — the
/// single-device reference. MRF capacity does not affect numerics, so
/// outputs must match the sharded pool bit for bit.
fn big_config() -> NpuConfig {
    NpuConfig::builder()
        .name("BW_BIG")
        .native_dim(16)
        .lanes(4)
        .tile_engines(2)
        .mrf_entries(2048)
        .vrf_entries(512)
        .clock_mhz(250.0)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .unwrap()
}

fn sharded() -> ShardedArtifact {
    ShardedArtifact::compile(
        "big",
        &mlp_graph(WIDTHS, SEED),
        BUDGET,
        &small_config(),
        &LowerOptions::default(),
    )
    .unwrap()
}

/// Single-device ground truth on the big-MRF device.
fn reference_output(input: &[f32]) -> Vec<f32> {
    ModelArtifact::compile(
        "ref",
        &mlp_graph(WIDTHS, SEED),
        1 << 24,
        &big_config(),
        &LowerOptions::default(),
    )
    .unwrap()
    .pin()
    .unwrap()
    .infer(input)
    .unwrap()
}

#[test]
fn oversized_model_serves_sharded_bit_identical_to_single_device() {
    // The premise: this model genuinely does not fit one small device —
    // the toolflow linter rejects the unsharded build for MRF overflow.
    assert!(
        ModelArtifact::compile(
            "whole",
            &mlp_graph(WIDTHS, SEED),
            1 << 24,
            &small_config(),
            &LowerOptions::default(),
        )
        .is_err(),
        "the unsharded model must overflow the small device's MRF"
    );

    let artifact = sharded();
    assert!(artifact.is_sharded());
    assert!(artifact.max_width() >= 2, "at least two shard workers");

    let server = Server::builder()
        .sharded_model(artifact)
        .replicas(4)
        .spawn()
        .unwrap();
    let client = server.client();
    assert_eq!(client.input_dim_of("big"), Some(WIDTHS[0]));
    assert!(client.model_names().contains(&"big".to_owned()));

    let input = demo_input(WIDTHS[0], 3);
    let expected = reference_output(&input);
    for _ in 0..4 {
        let resp = client.call("big", &input, DEADLINE).unwrap();
        assert_eq!(
            resp.output, expected,
            "sharded serving must be bit-identical to single-device"
        );
    }

    // The group row accounts like a single model; member rows exist and
    // hold their own identity.
    let m = server.metrics();
    let group = m.models.iter().find(|r| r.model == "big").unwrap();
    assert_eq!(group.submitted, 4);
    assert_eq!(group.completed, 4);
    assert_eq!(group.shed + group.failed, 0);
    for member in ["big#g0s0", "big#g0s1"] {
        let row = m
            .models
            .iter()
            .find(|r| r.model == member)
            .unwrap_or_else(|| panic!("member row {member} missing"));
        assert_eq!(row.completed, 4, "{member}");
        assert_eq!(row.completed + row.shed + row.failed, row.submitted);
    }

    // Per-shard series surface in the exposition.
    let prom = server.prometheus();
    assert!(prom.contains("bw_requests_completed_total{model=\"big\"} 4"));
    assert!(prom.contains("bw_requests_completed_total{model=\"big#g0s0\"} 4"));
}

/// A host op between two accelerated layers needs two devices: the model
/// compiles as two segments, and serving it chains them exactly.
#[test]
fn a_host_hop_serves_as_its_chained_segments() {
    let model = "input 16\ndense 16 tanh seed=1\ncpu softmax\ndense 8 seed=2\noutput\n";
    let graph = bw_gir::parse_model(model).unwrap();
    let sharded = ShardedArtifact::compile(
        "hop",
        &graph,
        BUDGET,
        &small_config(),
        &LowerOptions::default(),
    )
    .unwrap();
    assert_eq!((sharded.segments().len(), sharded.max_width()), (2, 1));

    let input = demo_input(16, 5);
    let mut chained = input.clone();
    for segment in sharded.segments() {
        for member in segment.members() {
            chained = member.pin().unwrap().infer(&chained).unwrap();
        }
    }
    let server = Server::builder()
        .sharded_model(sharded)
        .replicas(2)
        .spawn()
        .unwrap();
    let got = server.client().call("hop", &input, DEADLINE).unwrap();
    assert_eq!(got.output, chained);
}

#[test]
fn sharded_group_needs_one_worker_per_shard() {
    let err = Server::builder()
        .sharded_model(sharded())
        .replicas(1)
        .spawn()
        .map(|_| ())
        .unwrap_err();
    assert!(
        err.to_string().contains("shard"),
        "1 replica cannot host a 2-wide segment: {err}"
    );
}

/// Satellite: kill a shard-owning worker mid-run. Every group request
/// either completes via re-dispatch onto the shard's other owner or
/// fails with an explicit error — never a hang, never a double count.
#[test]
fn killed_shard_owner_mid_run_loses_no_request() {
    let server = Arc::new(
        Server::builder()
            .sharded_model(sharded())
            .replicas(4) // two owners per shard: failover capacity
            .queue_cap(8)
            .max_retries(2)
            .spawn()
            .unwrap(),
    );
    let client = server.client();
    let input = demo_input(WIDTHS[0], 5);
    let expected = reference_output(&input);

    let total: u64 = 24;
    let killer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            // Kill mid-run, once a group request has been served. Worker 0
            // owns shard 0 of the wide segment (0 % 2 == 0).
            let give_up = Instant::now() + DEADLINE;
            let served = |r: &ModelSnapshot| r.model == "big" && r.completed > 0;
            while !server.metrics().models.iter().any(served) {
                assert!(Instant::now() < give_up, "no request was served");
                std::thread::yield_now();
            }
            assert!(server.kill_worker(0));
        })
    };

    let outcomes: Vec<_> = (0..total)
        .map(|_| {
            let client = client.clone();
            let input = input.clone();
            std::thread::spawn(move || client.call("big", &input, DEADLINE))
        })
        .collect();

    let mut completed = 0u64;
    let mut errored = 0u64;
    for h in outcomes {
        // A hung request would hang this join; the deadline bounds it.
        match h.join().expect("request threads must not panic") {
            Ok(resp) => {
                completed += 1;
                assert_eq!(resp.output, expected, "failover must not change bits");
            }
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        ServeError::Shed { .. }
                            | ServeError::DeadlineExceeded { .. }
                            | ServeError::WorkerFault { .. }
                            | ServeError::NoReplica { .. }
                    ),
                    "unclassified failure: {e}"
                );
                errored += 1;
            }
        }
    }
    killer.join().unwrap();
    assert_eq!(completed + errored, total);
    assert!(completed > 0, "the surviving shard owners must absorb load");

    let m = server.metrics();
    let group = m.models.iter().find(|r| r.model == "big").unwrap();
    assert_eq!(group.submitted, total);
    assert_eq!(
        group.completed + group.shed + group.failed,
        group.submitted,
        "group row must account for every admitted request: {group:?}"
    );
    assert_eq!(group.completed, completed);
    // Member rows hold their own identity too (nothing in flight now).
    for row in &m.models {
        assert_eq!(
            row.completed + row.shed + row.failed,
            row.submitted,
            "row {} leaks requests",
            row.model
        );
    }
    assert!(!m.workers_alive[0], "worker 0 stays dead");
}

#[test]
fn network_hops_are_charged_and_metered() {
    let input = demo_input(WIDTHS[0], 7);
    let expected = reference_output(&input);

    // 2 ms per hop: a 2-segment group pays at least two scatter/gather
    // rounds of it, and the charge must show up in measured latency.
    let hop = 2e-3;
    let server = Server::builder()
        .sharded_model(sharded())
        .replicas(4)
        .network(NetworkModel::with_hop(hop))
        .spawn()
        .unwrap();
    let client = server.client();
    let resp = client.call("big", &input, DEADLINE).unwrap();
    assert_eq!(resp.output, expected, "the network must not change bits");
    let net = resp.attribution.network.as_secs_f64();
    assert!(
        net >= 2.0 * 2.0 * hop,
        "two segments x (scatter + gather) x {hop}s hop, got {net}s"
    );
    assert!(
        resp.latency.as_secs_f64() >= net,
        "modeled network time is part of measured latency"
    );

    // Per-link counters saw the legs.
    let m = server.metrics();
    let transfers: u64 = m.link_transfers.iter().sum();
    assert!(transfers >= 6, "3 shard attempts x 2 legs, got {transfers}");
    assert!(m.link_bytes.iter().sum::<u64>() > 0);
    assert!(m.link_busy_s.iter().sum::<f64>() > 0.0);
    let group = m.models.iter().find(|r| r.model == "big").unwrap();
    assert!(group.network.summary().mean_s >= 2.0 * 2.0 * hop);

    let prom = server.prometheus();
    assert!(prom.contains("bw_link_transfers_total"));
    assert!(prom.contains("bw_request_network_seconds_count{model=\"big\"} 1"));
}

#[test]
fn down_link_routes_around_the_worker() {
    // Worker 1's link is down: its shard falls to worker 3 (3 % 2 == 1).
    let input = demo_input(WIDTHS[0], 9);
    let expected = reference_output(&input);
    let server = Server::builder()
        .sharded_model(sharded())
        .replicas(4)
        .network(NetworkModel::ideal().fail_link(1))
        .spawn()
        .unwrap();
    let resp = server.client().call("big", &input, DEADLINE).unwrap();
    assert_eq!(resp.output, expected);
    let m = server.metrics();
    let group = m.models.iter().find(|r| r.model == "big").unwrap();
    assert_eq!((group.completed, group.failed), (1, 0));
}
