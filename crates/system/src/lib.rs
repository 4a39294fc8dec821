//! Datacenter-scale serving simulation for the Brainwave system (paper
//! §I–§II).
//!
//! Stands in for the production datacenter (see `DESIGN.md`): requests
//! stream over the network to hardware microservices backed by NPUs; the
//! contrast between per-request service (the BW discipline) and batching
//! queues (the GPU discipline) is the paper's motivating latency argument.
//!
//! * [`ArrivalProcess`] — Poisson or deterministic request streams;
//! * [`Microservice`] / [`ServiceModel`] — a pool of devices behind a
//!   network hop, serving per-request or in formed batches;
//! * [`NetworkModel`] — the datacenter-network cost model (per-hop
//!   latency, bandwidth, link fault injection and degradation), shared
//!   with the live scatter/gather runtime in `bw-serve`;
//! * [`PreloadModel`] — the weight-preload cost model: what pinning a
//!   model's MRF image onto a worker costs in simulated time, used by
//!   the `bw-fleet` controller;
//! * [`simulate`] — event-driven simulation of one microservice with
//!   percentile latency and utilization reporting;
//! * [`Routing`] — the client-side routing policies of a disaggregated
//!   instance pool (§II-A), implemented by the live pool in `bw-serve`;
//! * [`LatencySummary`] — the shared latency-statistics
//!   vocabulary, reused by the live serving runtime (`bw-serve`) so
//!   analytical predictions and measured latencies compare directly.
//!
//! # Example
//!
//! ```
//! use bw_system::{simulate, ArrivalProcess, Microservice, ServiceModel};
//!
//! // A BW NPU serving a 2 ms model, one request at a time.
//! let service = Microservice {
//!     service: ServiceModel::PerRequest { seconds: 2e-3 },
//!     servers: 1,
//!     network_hop_s: 10e-6,
//! };
//! let arrivals = ArrivalProcess::Poisson { rate_per_s: 100.0 }.generate(1000, 42);
//! let report = simulate(&arrivals, &service);
//! assert!(report.latency.p99_s < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod net;
mod pool;
mod preload;
mod sim;
mod summary;

pub use net::NetworkModel;
pub use pool::Routing;
pub use preload::PreloadModel;
pub use sim::{simulate, ArrivalProcess, Microservice, ServiceModel, ServingReport};
pub use summary::LatencySummary;
