//! # bw-trace: observability exporters for the Brainwave stack
//!
//! `bw-core` records structured [`SpanRecord`](bw_core::SpanRecord)s
//! ([`Npu::set_trace`](bw_core::Npu::set_trace)) and `bw-serve`
//! attributes them to requests; this crate turns both into the two
//! industry-standard wire formats a performance engineer actually
//! opens:
//!
//! * [`chrome`] — Chrome trace-event JSON, loadable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`, for single-run
//!   deep dives: one row per device and span lane, chain/stream/stall
//!   spans as complete (`"ph":"X"`) events on a microsecond timeline.
//! * [`prom`] — Prometheus text exposition (version 0.0.4): counters,
//!   gauges, and histograms with `_bucket`/`_sum`/`_count` series, as
//!   served by `bw-serve`'s TCP front end.
//!
//! Both modules also ship *validators* ([`chrome::validate_chrome_trace`],
//! [`prom::validate_exposition`]) built on the dependency-free [`json`]
//! parser, so CI can assert that emitted artifacts actually parse — the
//! workspace carries no external JSON or metrics dependency.
//!
//! ## Quickstart
//!
//! ```
//! use bw_core::{SpanKind, SpanRecord};
//! use bw_trace::{chrome_trace_json, spans_to_chrome, validate_chrome_trace};
//!
//! let spans = vec![SpanRecord {
//!     trace_id: 7,
//!     device: 0,
//!     kind: SpanKind::Run,
//!     chain: 0,
//!     start_cycle: 0,
//!     end_cycle: 1_000,
//! }];
//! // 250 MHz: 1000 cycles -> a 4 µs span on the Perfetto timeline.
//! let events = spans_to_chrome(&spans, 250e6, 0.0);
//! let json = chrome_trace_json(&events);
//! assert!(validate_chrome_trace(&json).unwrap() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod prom;

pub use chrome::{chrome_trace_json, spans_to_chrome, validate_chrome_trace, ChromeEvent};
pub use prom::{validate_exposition, Exposition, Family};
