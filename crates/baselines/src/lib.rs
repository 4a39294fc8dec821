//! GPU baselines for the Brainwave comparison experiments.
//!
//! The paper's baselines are *published* measurements: the DeepBench Titan
//! Xp results quoted in Table V and the P40/TensorRT points of Table VI.
//! With no GPU in this environment, this crate reproduces the paper's own
//! methodology (see `DESIGN.md`):
//!
//! * [`table5_titan_xp`] / [`titan_xp_point`] — the Table V Titan Xp rows
//!   as a typed dataset, with internal-consistency tests (reported TFLOPS
//!   vs. latency vs. utilization);
//! * [`GpuBatchModel`] — an analytic batch-scaling model anchored at the
//!   measured batch-1 points, used to extend Figure 8 to batch 2/4/32;
//! * [`P40_BATCH1`] / [`P40_BATCH16`] / [`BW_CNN_A10_BATCH1`] — the
//!   Table VI CNN serving points.
//!
//! # Example
//!
//! ```
//! use bw_baselines::{table5_titan_xp, GpuBatchModel, TITAN_XP};
//!
//! let gru2816 = table5_titan_xp()[0];
//! let model = GpuBatchModel::from_point(&gru2816, TITAN_XP.peak_tflops);
//! assert!(model.utilization(4) < 0.135); // §VII-B3: "under 13%" at batch 4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gpu_model;
mod p40;
mod titan_xp;

pub use gpu_model::GpuBatchModel;
pub use p40::{CnnServingPoint, BW_CNN_A10_BATCH1, P40_BATCH1, P40_BATCH16};
pub use titan_xp::{table5_titan_xp, titan_xp_point, TitanXp, TitanXpPoint, TITAN_XP};
