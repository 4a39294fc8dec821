//! Critical-path methodology for latency-aware NPU design (paper §III).
//!
//! Real-time NPUs must be judged against what the dataflow itself permits,
//! not against throughput-oriented metrics that batching can inflate. This
//! crate provides the paper's two reference machines:
//!
//! * **UDM** — the Unconstrained Dataflow Machine, with infinite
//!   unit-latency functional units: a model's UDM latency is the critical
//!   path of its dataflow graph, the lower bound on single-request latency.
//! * **SDM** — the Structurally-constrained Dataflow Machine, with the same
//!   number of MACs as a target accelerator: the lowest latency any
//!   implementation with those resources could reach.
//!
//! The closed-form characterizations for LSTM/GRU/CNN
//! ([`RnnCriticalPath`], [`ConvCriticalPath`]) regenerate Table I,
//! Figure 2, and the SDM rows of Table V at full scale. The crate's tests
//! check them at small sizes against an explicit operation-level dataflow
//! graph (the `graph` and `cells` modules, built only under test).
//!
//! # Example
//!
//! ```
//! use bw_dataflow::RnnCriticalPath;
//!
//! // Table I: a 2000-dim LSTM needs 19 cycles on the UDM and ~352 on a
//! // 96,000-MAC SDM.
//! let cp = RnnCriticalPath::lstm(2000, 2000);
//! assert_eq!(cp.udm_step_cycles, 19);
//! assert_eq!(cp.sdm_cycles(1, 96_000), 353);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
#[cfg(test)]
mod cells;
#[cfg(test)]
mod graph;

pub use analysis::{ConvCriticalPath, RnnCriticalPath};
