//! The dynamic control plane: runtime pin/unpin/drain, runtime model
//! registration and the name rules it shares with the builder, live
//! network swaps, and the preload cost model.

use std::time::Duration;

use bw_serve::demo::{demo_input, mlp_artifact, sharded_mlp};
use bw_serve::{
    NetworkModel, PinError, PreloadModel, RegistryError, Server, ServerBuilder, ShardedArtifact,
    SpawnError,
};

const DEADLINE: Duration = Duration::from_secs(5);

/// A 64x16 layer over a 600-weight budget: members `big#g0s0`,
/// `big#g0s1` (one 2-wide segment) and `big#seg0` (the 8x64 tail).
fn big() -> ShardedArtifact {
    sharded_mlp("big", &[16, 64, 8], 5, 600)
}

#[test]
fn duplicate_names_are_refused_at_spawn_and_at_runtime() {
    let m = |name: &str| mlp_artifact(name, &[16, 8], 1);
    let b = Server::builder;
    let table: [(&str, ServerBuilder, &str); 4] = [
        ("two whole models", b().model(m("m")).model(m("m")), "m"),
        (
            "group name taken",
            b().model(m("big")).sharded_model(big()),
            "big",
        ),
        (
            "member name taken",
            b().model(m("big#g0s1")).sharded_model(big()),
            "big#g0s1",
        ),
        (
            "group twice",
            b().sharded_model(big()).sharded_model(big()),
            "big",
        ),
    ];
    for (case, builder, name) in table {
        match builder.replicas(2).spawn() {
            Err(SpawnError::Registry(RegistryError::Duplicate(n))) => assert_eq!(n, name, "{case}"),
            Err(e) => panic!("{case}: expected a duplicate `{name}`, got {e}"),
            Ok(_) => panic!("{case}: spawned with a duplicate `{name}`"),
        }
    }

    let server = b()
        .sharded_model(big())
        .model(m("m"))
        .replicas(2)
        .spawn()
        .unwrap();
    for name in ["m", "big", "big#g0s0", "big#seg0"] {
        let err = Err(RegistryError::Duplicate(name.into()));
        assert_eq!(server.register_model(m(name)), err, "{name}");
    }
    // Rows: slots in registration order, then the group.
    let names = server.client().model_names();
    assert_eq!(names, ["big#g0s0", "big#g0s1", "big#seg0", "m", "big"]);
}

#[test]
fn group_and_member_names_refuse_the_pin_control_plane() {
    let server = Server::builder()
        .sharded_model(big())
        .model(mlp_artifact("solo", &[16, 8], 1))
        .replicas(2)
        .spawn()
        .unwrap();
    // Worker 1 owns shard 1, not shard 0: a pin would put both shards of
    // the segment on one worker.
    for name in ["big", "big#g0s0", "big#seg0"] {
        assert!(
            matches!(server.pin_model(name, 1), Err(PinError::GroupName(n)) if n == name),
            "{name}"
        );
        assert!(
            matches!(server.unpin_model(name, 0), Err(PinError::GroupName(n)) if n == name),
            "{name}"
        );
        assert_eq!(server.preload_cost(name, 1), None, "{name}");
    }
    assert_eq!(server.pinned_workers("big#g0s0"), vec![0]);
    assert!(server.preload_cost("solo", 1).is_some());
}

#[test]
fn pin_unpin_round_trip_updates_residency() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 24, 8], 3))
        .replicas(2)
        .pin_on("mlp", vec![0])
        .spawn()
        .unwrap();
    assert_eq!(server.pinned_workers("mlp"), vec![0]);

    let client = server.client();
    let baseline = client.call("mlp", &demo_input(16, 1), DEADLINE).unwrap();

    let preload = server.pin_model("mlp", 1).unwrap();
    assert_eq!(preload, Duration::ZERO, "default preload model is free");
    assert_eq!(server.pinned_workers("mlp"), vec![0, 1]);
    let snap = server.metrics();
    assert!(snap.worker_models[1].iter().any(|r| r.model == "mlp"));
    let prom = server.prometheus();
    assert!(prom.contains("bw_worker_model_pinned{worker=\"1\",model=\"mlp\"} 1"));

    server.unpin_model("mlp", 0).unwrap();
    assert_eq!(server.pinned_workers("mlp"), vec![1]);
    let snap = server.metrics();
    assert!(snap.worker_models[0].is_empty());

    // The surviving replica answers bit-identically.
    let resp = client.call("mlp", &demo_input(16, 1), DEADLINE).unwrap();
    assert_eq!(resp.output, baseline.output);
}

#[test]
fn control_plane_refusals() {
    let server = Server::builder()
        .model(mlp_artifact("solo", &[16, 8], 5))
        .replicas(2)
        .pin_on("solo", vec![0])
        .spawn()
        .unwrap();

    match server.unpin_model("solo", 0) {
        Err(PinError::LastReplica { model }) => assert_eq!(model, "solo"),
        other => panic!("expected LastReplica, got {other:?}"),
    }
    match server.pin_model("solo", 0) {
        Err(PinError::AlreadyPinned { model, worker }) => {
            assert_eq!((model.as_str(), worker), ("solo", 0));
        }
        other => panic!("expected AlreadyPinned, got {other:?}"),
    }
    match server.unpin_model("solo", 1) {
        Err(PinError::NotPinned { model, worker }) => {
            assert_eq!((model.as_str(), worker), ("solo", 1));
        }
        other => panic!("expected NotPinned, got {other:?}"),
    }
    assert!(matches!(
        server.pin_model("ghost", 0),
        Err(PinError::UnknownModel(_))
    ));
    assert!(matches!(
        server.pin_model("solo", 99),
        Err(PinError::UnknownWorker(99))
    ));
    assert!(matches!(
        server.drain_worker(99),
        Err(PinError::UnknownWorker(99))
    ));

    // A dead worker refuses pins.
    assert!(server.kill_worker(1));
    match server.pin_model("solo", 1) {
        Err(PinError::WorkerDead(1)) => {}
        other => panic!("expected WorkerDead, got {other:?}"),
    }
}

#[test]
fn drain_worker_is_a_completion_barrier() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 32, 8], 7))
        .replicas(1)
        .queue_cap(64)
        .spawn()
        .unwrap();
    let client = server.client();

    let pending: Vec<_> = (0..32)
        .map(|i| client.submit("mlp", &demo_input(16, i), DEADLINE).unwrap())
        .collect();
    server.drain_worker(0).unwrap();
    // Everything submitted before the barrier has been answered.
    assert_eq!(server.metrics().queue_depths[0], 0);
    for p in pending {
        p.wait().unwrap();
    }
    let m = server.metrics().models.remove(0);
    assert_eq!(m.completed, 32);
    assert_eq!(m.completed + m.shed + m.failed, m.submitted);
}

#[test]
fn register_model_at_runtime_and_serve_it() {
    let server = Server::builder()
        .model(mlp_artifact("resident", &[16, 8], 2))
        .replicas(2)
        .spawn()
        .unwrap();
    let client = server.client();

    let slot = server
        .register_model(mlp_artifact("late", &[16, 24, 8], 11))
        .unwrap();
    assert_eq!(slot, 1);
    // Registered but not yet pinned anywhere: admission sheds it.
    assert!(server.pinned_workers("late").is_empty());
    assert!(client.call("late", &demo_input(16, 0), DEADLINE).is_err());

    server.pin_model("late", 1).unwrap();
    let resp = client.call("late", &demo_input(16, 0), DEADLINE).unwrap();
    assert_eq!(resp.output.len(), 8);

    let snap = server.metrics();
    let row = snap.models.iter().find(|m| m.model == "late").unwrap();
    assert_eq!(row.completed, 1);
    assert_eq!(row.completed + row.shed + row.failed, row.submitted);
    // The resident model is untouched by the runtime registration.
    let resp = client
        .call("resident", &demo_input(16, 4), DEADLINE)
        .unwrap();
    assert_eq!(resp.output.len(), 8);
}

#[test]
fn set_network_routes_around_a_downed_link() {
    let server = Server::builder()
        .model(mlp_artifact("mlp", &[16, 24, 8], 9))
        .replicas(2)
        .spawn()
        .unwrap();
    let client = server.client();
    let baseline = client.call("mlp", &demo_input(16, 2), DEADLINE).unwrap();

    server.set_network(NetworkModel::ideal().fail_link(0));
    assert!(!server.network().link_up(0));
    for i in 0..8 {
        let resp = client.call("mlp", &demo_input(16, 2), DEADLINE).unwrap();
        assert_eq!(resp.output, baseline.output, "request {i}");
    }
    let snap = server.metrics();
    // Worker 0 is unreachable: everything after the fault ran on 1.
    assert_eq!(snap.worker_processed[0], 1);
    assert_eq!(snap.worker_processed[1], 8);

    server.set_network(NetworkModel::ideal());
    assert!(server.network().link_up(0));
    let m = server.metrics().models.remove(0);
    assert_eq!(m.completed + m.shed + m.failed, m.submitted);
}

#[test]
fn preload_charges_the_destination_link() {
    let artifact = mlp_artifact("mlp", &[16, 32, 8], 7);
    let weight_bytes = artifact.mrf_fill_bytes();
    assert!(weight_bytes > 0);
    let net = NetworkModel::with_hop(5e-6).bandwidth(1e9);
    let preload_model = PreloadModel::free().fill_bandwidth(4e9).setup(20e-6);
    let expect_s = preload_model.preload_s(weight_bytes as usize, &net, 1);

    let server = Server::builder()
        .model(artifact)
        .replicas(2)
        .pin_on("mlp", vec![0])
        .network(net)
        .preload(preload_model)
        .spawn()
        .unwrap();

    let quoted = server.preload_cost("mlp", 1).unwrap();
    assert!((quoted.as_secs_f64() - expect_s).abs() < 1e-9);

    let before = server.metrics();
    let paid = server.pin_model("mlp", 1).unwrap();
    assert!((paid.as_secs_f64() - expect_s).abs() < 1e-9);
    let after = server.metrics();
    assert_eq!(after.link_transfers[1], before.link_transfers[1] + 1);
    assert_eq!(after.link_bytes[1], before.link_bytes[1] + weight_bytes);
    assert!(after.link_busy_s[1] > before.link_busy_s[1]);

    // A degraded destination link makes the same preload honestly slower.
    server.unpin_model("mlp", 0).unwrap();
    server.set_network(
        NetworkModel::with_hop(5e-6)
            .bandwidth(1e9)
            .degrade_link(0, 8.0),
    );
    let degraded = server.preload_cost("mlp", 0).unwrap();
    assert!(degraded > quoted, "{degraded:?} vs {quoted:?}");
}
