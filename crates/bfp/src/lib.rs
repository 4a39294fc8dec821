//! Narrow-precision numerics for the Brainwave NPU reproduction.
//!
//! The Brainwave NPU (ISCA 2018, §VI) runs its matrix-vector datapath in a
//! *block floating point* (BFP) format: a group of values — one native
//! vector's worth — shares a single 5-bit exponent, while each element keeps
//! its own sign and a narrow (2–5 bit) mantissa. Secondary operations
//! (point-wise vector arithmetic and activation functions in the MFUs)
//! execute as float16.
//!
//! This crate implements both numeric systems from scratch:
//!
//! * [`F16`] — software IEEE 754 binary16 with correct round-to-nearest-even
//!   conversions, used by the multifunction units.
//! * [`BfpFormat`], [`BfpBlock`], [`BfpMatrix`] — shared-exponent block
//!   quantization, the integer dot-product semantics the MVM datapath uses,
//!   and dequantization.
//! * [`ErrorStats`] — quantization-error instrumentation used by the
//!   narrow-precision accuracy experiments.
//!
//! # Storage layouts and kernels
//!
//! Mantissas are stored in the narrowest lane the format allows, and the
//! [`BfpFormat`] alone decides which: one `i8` per element when it has at
//! most 7 mantissa bits (magnitudes ≤ 127: every format the paper deploys),
//! one `i32` per element otherwise. There is no switch for it anywhere else.
//!
//! The dot-product hot path ([`BfpMatrix::mv_mul_into`],
//! [`BfpMatrix::mv_mul_acc`], [`BfpBlock::dot`]) multiplies `i8` rows by the
//! input vector's mantissas, which [`BfpBlock`] keeps widened to `i16` from
//! the moment it is quantized, and sums the products in `i32` per exponent
//! chunk — a loop compilers turn into packed 16-bit multiply-adds. That one
//! loop is compiled twice, for the baseline target and (on x86-64) for AVX2,
//! and each call takes the AVX2 copy when the CPU has it; that call is the
//! crate's only `unsafe`. Wide or mixed-layout operands run the reference
//! loop of [`BfpBlock::dot_naive`] / [`BfpMatrix::mv_mul_naive`]:
//! element-by-element 64-bit sums over either layout, the oracle all of the
//! above is tested bit-for-bit against.
//!
//! # Example
//!
//! ```
//! use bw_bfp::{BfpFormat, BfpBlock};
//!
//! let fmt = BfpFormat::BFP_1S_5E_2M; // the BW_S10 format from the paper
//! let xs = [0.5_f32, -1.25, 3.0, 0.125];
//! let block = BfpBlock::quantize(&xs, fmt);
//! let back = block.dequantize();
//! assert_eq!(back.len(), xs.len());
//! // 2-bit mantissas are coarse, but the largest element is well preserved.
//! assert!((back[2] - 3.0).abs() < 0.5);
//! ```

// One `#[allow]`ed call, in `kernel::narrow_rows`, into the AVX2 copy of
// the MAC loop after detecting the feature.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod error;
mod f16;
mod format;
mod kernel;
mod matrix;

pub use block::{BfpBlock, DotError, Rounding};
pub use error::ErrorStats;
pub use f16::{round_to_f16, F16};
pub use format::{BfpFormat, FormatError};
pub use matrix::{BfpMatrix, BfpRowRef, MatrixShapeError};
