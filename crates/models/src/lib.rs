//! Model zoo for the Brainwave NPU reproduction.
//!
//! Provides three layers of functionality:
//!
//! * [`mod@reference`] — plain `f32` golden models (LSTM/GRU cells, 2-D
//!   convolution) that tests validate the NPU against;
//! * firmware generators ([`Rnn`], [`ConvLayer`]) that emit BW
//!   ISA programs, plan MRF/VRF layouts, pin weights, and drive end-to-end
//!   runs. [`Rnn`] is one skeleton for both recurrent cells, picked by
//!   [`RnnKind`]: a cell is a VRF layout, the chains of one step, and its
//!   recurrent-state slots. [`Lstm`] and [`Gru`] are `Rnn`s of a fixed
//!   kind;
//! * workload definitions: the DeepBench RNN inference suite of Table V
//!   ([`deepbench`]) and the ResNet-50 featurizer of Table VI ([`resnet`]).
//!
//! # Example
//!
//! ```
//! use bw_core::{ExecMode, Npu, NpuConfig};
//! use bw_models::{Rnn, RnnDims, RnnKind};
//!
//! // Time the paper's largest GRU on BW_S10 (timing-only: no weights).
//! let cfg = NpuConfig::builder()
//!     .native_dim(400).lanes(40).tile_engines(6)
//!     .mrf_entries(1024).clock_mhz(250.0)
//!     .build()?;
//! let gru = Rnn::new(RnnKind::Gru, &cfg, RnnDims::square(2816));
//! let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
//! let stats = gru.run_timing_only(&mut npu, 10)?;
//! println!("{} cycles/step", stats.cycles / 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
mod cnn;
pub mod deepbench;
mod gru;
mod lstm;
pub mod reference;
pub mod resnet;
mod rnn;

pub use cnn::{ConvLayer, ConvShape};
pub use deepbench::{table5_suite, RnnBenchmark, RnnKind};
pub use gru::Gru;
pub use lstm::Lstm;
pub use rnn::{GruWeights, LstmWeights, Rnn, RnnDims, RnnWeights};
