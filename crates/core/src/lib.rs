//! The Brainwave NPU: the paper's primary contribution, reproduced in
//! software.
//!
//! This crate implements the architecture (§IV) and microarchitecture (§V)
//! of the Project Brainwave neural processing unit as a functionally
//! executing, cycle-level simulator:
//!
//! * [`isa`] — the single-threaded mega-SIMD instruction set: compound
//!   matrix-vector and vector-vector operations on fixed-size native
//!   vectors, explicit instruction chaining, scalar tiling registers, a
//!   firmware-style [`isa::ProgramBuilder`], and a disassembler.
//! * [`NpuConfig`] — the synthesis-specialization parameter set (§VI):
//!   native dimension, lanes, tile engines, MFUs, precision, clock; with
//!   the Table III instances `BW_S5`, `BW_A10`, `BW_S10` built in.
//! * [`Npu`] — the processor: a matrix-vector multiplier scaled across tile
//!   engines, dot-product engines and lanes; crossbar-connected
//!   multifunction units; banked matrix/vector register files; network
//!   queues and DRAM; and hierarchical decode and dispatch. Programs
//!   execute functionally (block floating point matrix math, float16
//!   secondary operations) while a calibrated cycle model tracks latency,
//!   utilization and stalls ([`RunStats`]).
//! * [`sched`] — the scheduler's timing recurrence, stated once: the
//!   data-free timeline both [`Npu::run`] (in either [`ExecMode`]) and
//!   [`cycle_bounds`] are made of.
//! * [`analysis`] — a static dataflow linter over firmware: capacity,
//!   VRF liveness, MRF hazard, network-queue balance, and chain-shape
//!   passes emitting `BW0xx` diagnostics that gate deployment.
//!
//! # Quickstart
//!
//! ```
//! use bw_core::{Npu, NpuConfig};
//! use bw_core::isa::{MemId, ProgramBuilder};
//!
//! // A tiny 1-tile NPU and a program that ReLUs a vector from the network.
//! let cfg = NpuConfig::builder()
//!     .native_dim(4)
//!     .lanes(2)
//!     .tile_engines(1)
//!     .build()?;
//! let mut npu = Npu::new(cfg);
//! npu.push_input(vec![1.0, -2.0, 3.0, -4.0])?;
//!
//! let mut b = ProgramBuilder::new();
//! b.set_rows(1).set_cols(1);
//! b.v_rd(MemId::NetQ, 0).v_relu().v_wr(MemId::NetQ, 0).end_chain()?;
//!
//! let stats = npu.run(&b.build())?;
//! assert_eq!(npu.pop_output().unwrap(), vec![1.0, 0.0, 3.0, 0.0]);
//! assert!(stats.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod config;
mod hdd;
pub mod isa;
mod mem;
mod mfu;
mod mvm;
mod npu;
pub mod sched;
mod stats;
mod trace;
mod trace_report;

pub use analysis::capacity::ValidateError;
pub use analysis::{
    analyze, analyze_artifact, analyze_with, artifact_cycle_bounds, check_names, cycle_bounds,
    AnalysisOptions, AnalysisReport, ArtifactStage, ArtifactUnit, ArtifactView, CycleBounds,
    DiagCode, Diagnostic, PreloadedRange, Severity,
};
pub use config::{ConfigError, NpuConfig, NpuConfigBuilder, TimingParams};
pub use hdd::{DispatchLevel, HddExpansion};
pub use npu::{ChainKind, ChainTrace, ExecMode, KernelMode, Npu, Schedule, SimError};
pub use stats::RunStats;
pub use trace::{SpanKind, SpanRecord, TraceId};
pub use trace_report::{KindSummary, TraceSummary};
