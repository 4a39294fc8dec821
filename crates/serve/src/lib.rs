//! # bw-serve: hardware microservices over simulated NPUs
//!
//! The Brainwave paper's deployment story (§II-A) is not "a DNN on an
//! accelerator" but "DNNs as *hardware microservices*": models are
//! compiled once, pinned onto FPGA instances, published behind a router,
//! and served batch-1 under millisecond SLOs. The rest of this workspace
//! builds the device (`bw-core`), the toolflow (`bw-gir`), and the
//! analytical serving model (`bw-system`); this crate builds the serving
//! *runtime* that drives real simulated NPUs:
//!
//! - [`ServerBuilder`] — registers the published catalog of compiled
//!   [`ModelArtifact`](bw_gir::ModelArtifact)s (firmware + BFP weights,
//!   via `bw-gir`);
//! - workers — each pins every registered model onto its own `bw-core`
//!   NPUs (fast kernels), its device, and serves a bounded queue, one
//!   batch-1 inference at a time, on its own thread or on the thread
//!   waiting for the request when the device is idle;
//! - a router — the two policies of `bw_system::Routing` (round-robin
//!   / least-outstanding), applied to live queues;
//! - a request lifecycle — deadlines, retry-with-failover onto replicas
//!   on timeout or injected worker fault, and load shedding when every
//!   replica's queue is full;
//! - scale-out — a model too large for one device registers as a shard
//!   group ([`ServerBuilder::sharded_model`] over
//!   [`bw_gir::ShardedArtifact`]): shards pin on disjoint worker sets
//!   and a scatter/gather coordinator serves the group name
//!   bit-identically to single-device execution, charging every
//!   transfer leg against a configurable [`NetworkModel`];
//! - [`MetricsSnapshot`] — per-model counters and log-bucketed latency
//!   histograms (p50/p99/p99.9) with the accounting identity
//!   `completed + shed + failed == submitted`, plus per-link network
//!   counters;
//! - one bounded log of [`RequestTrace`] span trees
//!   ([`Server::take_traces`]): head sampling
//!   ([`ServerBuilder::trace_sample`]) keeps one request in `n`, tail
//!   sampling ([`ServerBuilder::tail_sample`]) every request that failed
//!   or breached a latency objective, so a p99.9 outlier can be
//!   diagnosed after the fact;
//! - a TCP front end ([`TcpFrontend`] / [`TcpClient`]) speaking a
//!   length-prefixed binary protocol ([`WireRequest`] / [`WireResponse`]);
//! - an open-loop load generator ([`run_loadgen`]) replaying
//!   `bw_system::ArrivalProcess` traffic against the live pool.
//!
//! ## Quickstart
//!
//! ```
//! use std::time::Duration;
//! use bw_serve::demo::{demo_input, mlp_artifact};
//! use bw_serve::Server;
//!
//! let server = Server::builder()
//!     .model(mlp_artifact("mlp", &[16, 32, 8], 7))
//!     .replicas(2)
//!     .spawn()
//!     .unwrap();
//! let client = server.client();
//! let resp = client
//!     .call("mlp", &demo_input(16, 0), Duration::from_secs(5))
//!     .unwrap();
//! assert_eq!(resp.output.len(), 8);
//! let m = client.metrics();
//! assert_eq!(m.models[0].completed, 1);
//! ```

mod batch;
pub mod demo;
mod loadgen;
mod metrics;
mod reply_slot;
mod request;
mod router;
mod server;
mod tcp;
mod wire;
mod worker;

pub use batch::{BatchConfig, Batcher};
pub use metrics::{Histogram, MetricsSnapshot, ModelResidency, ModelSnapshot};
pub use request::{Attribution, RequestTrace, Response, ServeError};
pub use server::{
    BatchItem, Client, Pending, PinError, RegistryError, Server, ServerBuilder, SpawnError,
};
pub use tcp::{TcpClient, TcpFrontend, TcpFrontendConfig};
pub use wire::{read_frame, try_extract_frame, write_frame, WireError, WireRequest, WireResponse};

pub use bw_gir::ShardedArtifact;
pub use bw_system::{ArrivalProcess, NetworkModel, PreloadModel, Routing};

pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};

/// Unit tests of the catalog's registration rules: slot numbering,
/// shard-group publication and duplicate names. The same rules are
/// checked at the API surface in `tests/dynamic.rs`.
#[cfg(test)]
mod registry {
    mod tests {
        use crate::demo::{demo_config, mlp_artifact, mlp_graph};
        use crate::server::{Catalog, Plan};
        use crate::{RegistryError, ShardedArtifact};
        use bw_gir::{LowerOptions, ModelArtifact};

        fn add(catalog: &mut Catalog, artifact: ModelArtifact) -> Result<usize, RegistryError> {
            let plan = Plan::for_model(&artifact);
            catalog.add_model(artifact, plan)
        }

        fn names(catalog: &Catalog) -> Vec<&str> {
            catalog.plans().map(|p| p.name.as_str()).collect()
        }

        #[test]
        fn register_lookup_round_trip() {
            let mut catalog = Catalog::default();
            assert_eq!(add(&mut catalog, mlp_artifact("a", &[8, 8], 0)), Ok(0));
            assert_eq!(add(&mut catalog, mlp_artifact("b", &[8, 4], 1)), Ok(1));
            assert_eq!(catalog.artifacts.len(), 2);
            assert_eq!(catalog.slot_of("b"), Some(1));
            assert_eq!(
                catalog.artifacts[catalog.slot_of("a").unwrap()].output_dim(),
                8
            );
            assert!(catalog.slot_of("c").is_none());
            assert_eq!(names(&catalog), ["a", "b"]);
        }

        #[test]
        fn sharded_registration_publishes_group_and_members() {
            let graph = mlp_graph(&[16, 64, 8], 5);
            // 64x16=1024 params over a 600 budget -> 2 shards; the 8x64=512
            // tail layer fits whole -> one trailing Single segment.
            let sharded = ShardedArtifact::compile(
                "big",
                &graph,
                600,
                &demo_config(),
                &LowerOptions::default(),
            )
            .unwrap();
            assert!(sharded.is_sharded());
            let mut catalog = Catalog::default();
            add(&mut catalog, mlp_artifact("plain", &[8, 8], 0)).unwrap();
            catalog.add_group(&sharded).unwrap();
            // Members are ordinary slots with their shard names, in segment
            // order; the group name is not a slot.
            let slots = ["big#g0s0", "big#g0s1", "big#seg0", "big"].map(|n| catalog.slot_of(n));
            assert_eq!(slots, [Some(1), Some(2), Some(3), None]);
            assert_eq!(catalog.member_of(0), None);
            assert_eq!(catalog.member_of(2), Some((1, 2)));
            assert_eq!(catalog.member_of(3), Some((0, 1)));
            assert_eq!(catalog.artifacts[3].output_dim(), 8);
            // Metrics rows: slots in registration order, then the group,
            // whose plan runs one stage per segment, one leg per member.
            assert_eq!(
                names(&catalog),
                ["plain", "big#g0s0", "big#g0s1", "big#seg0", "big"]
            );
            let group = catalog.plans().last().unwrap();
            assert_eq!(group.input_dim, 16);
            let widths: Vec<usize> = group.stages.iter().map(Vec::len).collect();
            assert_eq!(widths, [2, 1]);
            // Re-registering collides on the group name and publishes nothing.
            assert_eq!(
                catalog.add_group(&sharded),
                Err(RegistryError::Duplicate("big".into()))
            );
            assert_eq!(catalog.artifacts.len(), 4);
        }

        #[test]
        fn duplicate_names_are_rejected() {
            let mut catalog = Catalog::default();
            add(&mut catalog, mlp_artifact("m", &[8, 8], 0)).unwrap();
            assert_eq!(
                add(&mut catalog, mlp_artifact("m", &[8, 4], 1)),
                Err(RegistryError::Duplicate("m".into()))
            );
            assert_eq!(catalog.artifacts.len(), 1);
        }
    }
}
