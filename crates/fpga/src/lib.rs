//! FPGA substrate: device catalog, analytic resource estimation, and
//! synthesis specialization (paper §VI–§VII-A).
//!
//! This crate stands in for the Quartus toolchain and physical FPGAs (see
//! the substitution table in `DESIGN.md`). It provides:
//!
//! * [`Device`] — the Stratix V D5, Arria 10 1150, and Stratix 10 280
//!   resource envelopes;
//! * [`ResourceEstimate`] — an interpretable area model (ALMs/M20Ks/DSPs as
//!   functions of MAC count, mantissa width, and MRF size) fitted to the
//!   three post-fit data points of Table III;
//! * [`specialize`] — the synthesis-specialization search: pick native
//!   dimension, lanes, tiles, and precision to maximize *effective* peak
//!   throughput (raw peak × padding efficiency) for a target model;
//! * [`gflops_per_watt`] — the §VII-B4 power-efficiency estimate.
//!
//! # Example
//!
//! ```
//! use bw_fpga::{Device, ResourceEstimate};
//! use bw_core::NpuConfig;
//!
//! let est = ResourceEstimate::for_config(&NpuConfig::bw_s10(), &Device::stratix_10_280());
//! assert!(est.fits(&Device::stratix_10_280()));
//! assert_eq!(est.peak_tflops, 48.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod estimate;
mod specialize;

pub use device::Device;
pub use estimate::{gflops_per_watt, ResourceEstimate};
pub use specialize::{specialize, ModelRequirements, SpecializedDesign};
