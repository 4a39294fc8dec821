//! # bw-obs: SLO monitoring for the Brainwave serving fleet
//!
//! `bw-serve` counts what happened and `bw-fleet` reacts to queue
//! pressure; this crate decides *whether the service is keeping its
//! promises* and says so in the shapes operators expect:
//!
//! * `series` — fixed-capacity time series over cumulative counters:
//!   windowed deltas with an explicit insufficient-data guard, so no
//!   rule ever evaluates a partial window.
//! * `slo` — declarative [`SloSpec`]s (availability + a latency
//!   objective at a quantile) and multi-window [`BurnRule`]s: a fast
//!   high-threshold rule that pages within a few scrapes of an outage
//!   and a slow low-threshold rule that catches sustained low-grade
//!   burns.
//! * `engine` — the pure, clock-free [`SloEngine`]: cumulative
//!   [`ModelObservation`]s in, typed fire/clear [`AlertEvent`]s out,
//!   with lifetime error-budget accounting. Window math uses
//!   `Histogram::diff` snapshot deltas, so windowed latency quantiles
//!   cost nothing at record time.
//! * `monitor` — the live [`Monitor`]: a scrape loop over a
//!   `bw-serve` server that feeds the engine, renders `bw_slo_*` /
//!   `bw_alert_*` Prometheus series (installable onto the server's own
//!   wire scrape endpoint), emits fire→clear chrome spans, and exposes
//!   firing alerts as a scale signal for the fleet controller. Its
//!   background loop is a [`Ticker`], which the fleet controller's loop
//!   shares: stopping one returns at once, not after an interval.
//!
//! The engine is deliberately deterministic so alert behaviour is
//! testable to the exact scrape:
//!
//! ```
//! use std::time::Duration;
//! use bw_obs::{BurnRule, ModelObservation, SloEngine, SloSpec, Transition};
//! use bw_serve::Histogram;
//!
//! let spec = SloSpec::new("resnet", 0.99, Duration::from_millis(10), 0.95);
//! let mut engine = SloEngine::new(vec![spec], BurnRule::default_rules());
//!
//! let obs = |submitted: u64, shed: u64| ModelObservation {
//!     model: "resnet".into(),
//!     submitted,
//!     completed: submitted - shed,
//!     shed,
//!     failed: 0,
//!     latency: Histogram::default(),
//! };
//!
//! // Five clean scrapes, then an outage sheds half the traffic: the
//! // fast rule (5-scrape window, burn >= 8) fires on the next scrape.
//! for i in 0..6 {
//!     assert!(engine.observe(&[obs(100 * (i + 1), 0)]).is_empty());
//! }
//! let events = engine.observe(&[obs(700, 50)]);
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].transition, Transition::Fire);
//! assert_eq!(events[0].scrape, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod engine;
mod monitor;
mod series;
mod slo;
mod ticker;

pub use alert::{Alert, AlertEvent, AlertSpeed, SloKind, Transition};
pub use engine::{ModelObservation, SloEngine};
pub use monitor::{Monitor, MonitorConfig};
pub use slo::{BurnRule, SloSpec};
pub use ticker::Ticker;
