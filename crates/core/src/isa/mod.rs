//! The Brainwave NPU instruction set architecture (§IV).
//!
//! The ISA is single-threaded SIMD: every instruction operates on `N`-length
//! native vectors or `N × N` native matrices, where `N` is fixed per NPU
//! instance. Programs are sequences of *instruction chains* — dependent
//! instructions that pass values directly from one operation to the next
//! without named intermediate storage (§IV-C, "Instruction Chaining") — plus
//! scalar control register writes that scale subsequent chains to tiled
//! multiples of the native dimension ("Mega-SIMD execution").
//!
//! The module provides:
//!
//! * [`Opcode`] / [`Instruction`] — the operations of Table II;
//! * [`Chain`] — a validated instruction chain;
//! * [`Program`] / [`Segment`] — the unit of execution the control processor
//!   streams to the top-level scheduler, with iteration counts modelling the
//!   Nios streaming "T iterations of N static instructions" (§V-C);
//! * [`ProgramBuilder`] — a firmware-authoring API mirroring the C macro
//!   style of the paper's LSTM kernel listing;
//! * a disassembler (`Display` impls), the text goldens and the linter's
//!   anchored diagnostics print through.
//!
//! Firmware reaches a device as a [`Program`] value; it has no byte or
//! assembly-text form.

mod builder;
mod chain;
mod instruction;
mod program;

pub use builder::{BuilderError, ProgramBuilder};
pub use chain::{Chain, ChainError};
pub use instruction::{Instruction, MemId, Opcode, ScalarReg};
pub use program::{Item, Program, Segment};
