//! # bw-fleet: autoscaling, placement, and live migration for the pool
//!
//! `bw-serve` runs one pool of workers serving pinned models; this crate
//! is the layer above it — the part of the Brainwave deployment story
//! (§II-A) where the *datacenter* keeps hardware microservices healthy
//! without a human in the loop:
//!
//! - [`FleetController`] — a control loop over
//!   [`Server::metrics`](bw_serve::Server::metrics) and the live
//!   [`NetworkModel`](bw_serve::NetworkModel): scales replica counts up
//!   under queue pressure or shedding, back down when idle, re-pins
//!   replicas lost to worker death or link faults, and repacks replicas
//!   off degraded links, placing each new replica on the least-loaded
//!   candidate (healthy link, then shallowest queue, then fewest resident
//!   models);
//! - [`migrate`] — live migration of a pinned model between workers via
//!   dual-pin → cutover → drain, with zero dropped requests and
//!   bit-identical responses;
//! - [`FleetMetrics`] — `bw_fleet_*` Prometheus counters plus
//!   `fleet-op` spans on their own Chrome-trace lane for every control
//!   action.
//!
//! Spinning up a replica is not free: the server charges each pin a
//! simulated weight-preload delay from the artifact's MRF fill size and
//! the pool's [`PreloadModel`](bw_serve::PreloadModel), and every
//! [`FleetDecision`] that pins carries the preload it paid.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use bw_fleet::{migrate, FleetConfig, FleetController, FleetMetrics};
//! use bw_serve::demo::mlp_artifact;
//! use bw_serve::Server;
//!
//! let server = Arc::new(
//!     Server::builder()
//!         .model(mlp_artifact("mlp", &[16, 32, 8], 7))
//!         .replicas(3)
//!         .pin_on("mlp", vec![0])
//!         .spawn()
//!         .unwrap(),
//! );
//!
//! // Move the model off worker 0 with zero dropped requests.
//! let fm = FleetMetrics::new();
//! let report = migrate(&server, "mlp", 0, 2, &fm).unwrap();
//! assert_eq!((report.from, report.to), (0, 2));
//! assert_eq!(server.pinned_workers("mlp"), vec![2]);
//!
//! // And let the controller keep the pool healthy from here.
//! let mut ctl = FleetController::new(Arc::clone(&server), FleetConfig::default());
//! ctl.step();
//! ```

mod controller;
mod metrics;
mod migrate;
mod policy;

pub use controller::{FleetConfig, FleetController, FleetDecision, FleetHandle};
pub use metrics::{FleetMetrics, FLEET_SPAN_CLOCK_HZ};
pub use migrate::{migrate, MigrationReport};
