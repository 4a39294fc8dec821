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
//! - [`ModelRegistry`] — the published catalog of compiled
//!   [`ModelArtifact`]s (firmware + BFP weights, via `bw-gir`);
//! - worker threads — each pins every registered model onto its own
//!   `bw-core` NPUs (fast kernels) and drains a bounded queue, one
//!   batch-1 inference at a time;
//! - a router — the three policies of `bw_system::Routing` (round-robin
//!   / random / least-outstanding), applied to live queues;
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
//! - a tail-sampling flight recorder
//!   ([`ServerBuilder::flight_recorder`]) — a bounded ring of full
//!   [`RequestTrace`] span trees retained only for requests that
//!   breached the latency objective or failed, so a p99.9 outlier can
//!   be diagnosed after the fact without head-sampling every request
//!   into the trace log;
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
mod metrics;
mod registry;
mod request;
mod router;
mod server;
mod tcp;
mod wire;
mod worker;

pub mod loadgen;

pub use batch::{BatchConfig, Batcher};
pub use metrics::{Histogram, LinkMetrics, MetricsSnapshot, ModelResidency, ModelSnapshot};
pub use registry::{GroupSegment, ModelRegistry, RegistryError, ShardGroup};
pub use request::{
    Attribution, FlightOutcome, FlightRecord, RequestId, RequestTrace, Response, ServeError,
};
pub use server::{
    BatchItem, Client, FlightRecorderConfig, Pending, PinError, Server, ServerBuilder,
    ServerConfig, SpawnError,
};
pub use tcp::{TcpClient, TcpFrontend, TcpFrontendConfig};
pub use wire::{read_frame, try_extract_frame, write_frame, WireError, WireRequest, WireResponse};

pub use bw_gir::{ModelArtifact, PinnedModel, ShardedArtifact};
pub use bw_system::{ArrivalProcess, LatencySummary, NetworkModel, PreloadModel, Routing};

pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
