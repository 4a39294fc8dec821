//! The Brainwave compiler toolflow (paper §II-B).
//!
//! Pre-trained models enter as a graph intermediate representation, are
//! fused and partitioned under accelerator memory constraints, and lower to
//! BW NPU ISA binaries plus CPU sub-graphs executed by a federated runtime:
//!
//! * [`GirGraph`] / [`GirOp`] — the IR, with eager shape validation and a
//!   host golden-model evaluator;
//! * [`fuse`] — absorbs `BiasAdd`/`Activation` nodes into their producing
//!   `MatMul`, mirroring the NPU's fused instruction chains;
//! * [`partition`] — splits the pipeline across accelerators under a
//!   per-device on-chip weight budget, grouping unsupported operations into
//!   CPU segments;
//! * [`ModelArtifact`] / [`PinnedModel`] — lowers a one-device model to an
//!   ISA binary gated on the firmware linter, the pin-able unit a serving
//!   runtime (`bw-serve`) publishes as a hardware microservice, and a live
//!   instance of it: the one way a compiled model runs, its binary on one
//!   NPU and its CPU stages on the host;
//! * [`split_oversized_stages`] / [`ShardedArtifact`] — a model over one
//!   device, as one segment per device (row shards of a layer too large
//!   for one, §II-A's spatial distribution), each pinned on its own
//!   worker.
//!
//! # Example
//!
//! ```
//! use bw_gir::{ActFn, GirGraph, GirOp, LowerOptions, ModelArtifact};
//! use bw_core::NpuConfig;
//!
//! let mut g = GirGraph::new();
//! let x = g.add(GirOp::Input { dim: 4 }, &[])?;
//! let m = g.add(GirOp::MatMul { rows: 4, cols: 4, weights: vec![0.1; 16] }, &[x])?;
//! let a = g.add(GirOp::Activation(ActFn::Relu), &[m])?;
//! g.add(GirOp::Output, &[a])?;
//!
//! let cfg = NpuConfig::builder()
//!     .native_dim(4).lanes(2).tile_engines(1)
//!     .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
//!     .build()?;
//! let artifact = ModelArtifact::compile("relu", &g, 1 << 20, &cfg, &LowerOptions::default())?;
//! let y = artifact.pin()?.infer(&[1.0, 1.0, 1.0, 1.0])?;
//! assert_eq!(y.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod ir;
mod lower;
mod model_text;
mod pipeline;
mod shard;
mod split;

pub use artifact::{ArtifactError, ModelArtifact, PinnedModel};
pub use ir::{ActFn, GirError, GirGraph, GirNode, GirNodeId, GirOp};
pub use lower::{AcceleratorBinary, DeployError, LowerOptions};
pub use model_text::{parse_model, ModelParseError};
pub use pipeline::{fuse, partition, PartitionError, PartitionPlan, Pipeline, Placement, Stage};
pub use shard::{ShardSegment, ShardedArtifact};
pub use split::{shard_outputs_concat, split_oversized_stages, SplitError, SplitReport};
