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
//!   conversions, and the element loops the multifunction units run over
//!   `f32` slices in binary16 ([`Simd::f16_binary`],
//!   [`Simd::f16_activation`]).
//! * [`BfpFormat`], [`BfpBlock`], [`BfpMatrix`] — shared-exponent block
//!   quantization, the integer dot-product semantics the MVM datapath uses,
//!   and dequantization.
//! * [`ErrorStats`] — quantization-error instrumentation used by the
//!   narrow-precision accuracy experiments.
//!
//! # Storage layouts and kernels
//!
//! Mantissas are stored in the narrowest layout the format allows, and the
//! [`BfpFormat`] alone decides which: two per byte when it has at most 3
//! mantissa bits (the paper's production 1s.5e.2m — the width the paper
//! stores), one `i8` each up to 7 bits (1s.5e.5m), one `i32` each beyond.
//! There is no switch for it anywhere else. The `kernel` module's doc is
//! the one statement of the layouts and their kernels.
//!
//! The dot-product hot path ([`BfpMatrix::mv_mul_into`],
//! [`BfpMatrix::mv_mul_acc_row`], [`BfpBlock::dot`]) has a vector kernel for
//! each of the first two layouts, taken when the matrix and the input vector
//! share it: packed rows against the vector's mantissas as zero-padded `i8`
//! with each chunk's sum (unsigned × signed byte multiply-adds), and `i8`
//! rows against the vector's mantissas widened to `i16` (16-bit
//! multiply-adds). [`BfpBlock`] keeps either form from the moment it is
//! quantized. Each kernel has a portable body and, on x86-64, an AVX2 one —
//! eight `i8` rows, or four packed ones, to one load of the vector — that
//! is taken when the CPU has it; `mv_mul_acc_row` checks a grid row of
//! tiles and detects the CPU once for all of them. Wide or mixed-layout
//! operands run the reference
//! loop of [`BfpMatrix::mv_mul_naive`]:
//! element-by-element 64-bit sums over any layout, the oracle all of the
//! above is tested bit-for-bit against.
//!
//! # Unsafe code
//!
//! The MAC kernels (the `kernel` module) and the binary16 element loops
//! (the `lanes` module, AVX2 + F16C) each pair a portable body with a
//! `std::arch` one, and the quantizer's rounding loops (the `block`
//! module) are one body compiled twice, once for AVX2; the loops and the
//! narrow quantizer take theirs from a [`Simd`] detected once. The crate's
//! only `unsafe` is theirs: calling a `#[target_feature]` body once the
//! feature is detected, and unaligned vector loads and stores; each use
//! states why it holds. Under miri and off x86-64 only the portable bodies
//! exist.
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

// `#[allow]`ed in `kernel`, `lanes` and `block` only (crate doc, "Unsafe code").
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod error;
mod f16;
mod format;
mod kernel;
mod lanes;
mod matrix;

pub use block::{BfpBlock, DotError, Rounding};
pub use error::ErrorStats;
pub use f16::{round_to_f16, F16};
pub use format::{BfpFormat, FormatError};
pub use lanes::{F16Activation, F16BinaryOp, Simd};
pub use matrix::{BfpMatrix, MatrixShapeError};
