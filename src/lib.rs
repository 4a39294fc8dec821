//! # brainwave
//!
//! A software reproduction of *A Configurable Cloud-Scale DNN Processor for
//! Real-Time AI* (the Project Brainwave NPU, ISCA 2018): a functionally
//! executing, cycle-level simulator of the BW NPU together with every
//! substrate the paper depends on, and a benchmark harness that regenerates
//! each of the paper's tables and figures.
//!
//! This crate is the facade: it re-exports the workspace's crates under
//! stable module names. The pieces:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `bw-core` | the NPU: mega-SIMD ISA, chains, cycle-level simulator, HDD |
//! | [`bfp`] | `bw-bfp` | block floating point + software float16 |
//! | [`models`] | `bw-models` | LSTM/GRU/CNN firmware, DeepBench + ResNet-50 workloads |
//! | [`gir`] | `bw-gir` | graph IR, fusion, multi-FPGA partitioning, lowering |
//! | [`dataflow`] | `bw-dataflow` | UDM/SDM critical-path methodology |
//! | [`fpga`] | `bw-fpga` | device catalog, area model, synthesis specialization |
//! | [`baselines`] | `bw-baselines` | Titan Xp / P40 published datasets + GPU batch model |
//! | [`system`] | `bw-system` | datacenter serving simulation |
//! | [`serve`] | `bw-serve` | hardware-microservices serving runtime over live NPUs |
//! | [`fleet`] | `bw-fleet` | autoscaling, placement, and live-migration control loop |
//! | [`obs`] | `bw-obs` | SLO burn-rate monitoring over the serving pool |
//! | [`trace`] | `bw-trace` | Perfetto trace-event + Prometheus exposition exporters |
//!
//! ## Quickstart
//!
//! ```
//! use brainwave::bfp::BfpFormat;
//! use brainwave::core::{Npu, NpuConfig};
//! use brainwave::models::{Lstm, LstmWeights, RnnDims};
//!
//! // A small LSTM on a small NPU, end to end.
//! let cfg = NpuConfig::builder()
//!     .native_dim(8).lanes(4).tile_engines(2)
//!     .matrix_format(BfpFormat::BFP_1S_5E_5M)
//!     .build()?;
//! let dims = RnnDims::square(8);
//! let lstm = Lstm::new(&cfg, dims);
//! let mut npu = Npu::new(cfg);
//! lstm.load_weights(&mut npu, &LstmWeights::random(dims, 42))?;
//! let (outputs, stats) = lstm.run(&mut npu, &[vec![0.1; 8], vec![0.2; 8]])?;
//! assert_eq!(outputs.len(), 2);
//! println!("2 steps in {} cycles", stats.cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for a runnable scenario and the `bw-bench` subcommands
//! (`crates/bench/src/main.rs`) for the table/figure regeneration harnesses
//! (`EXPERIMENTS.md` maps each to the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bw_baselines as baselines;
pub use bw_bfp as bfp;
pub use bw_core as core;
pub use bw_dataflow as dataflow;
pub use bw_fleet as fleet;
pub use bw_fpga as fpga;
pub use bw_gir as gir;
pub use bw_models as models;
pub use bw_obs as obs;
pub use bw_serve as serve;
pub use bw_system as system;
pub use bw_trace as trace;
