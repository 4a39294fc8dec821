//! Hierarchical decode and dispatch (§V-C, Figure 6).
//!
//! A single compound instruction leaving the control processor is expanded
//! level by level — top-level scheduler, second-level schedulers, per-engine
//! decoders — until it becomes primitive control signals fanned out across
//! the data plane. This module computes that expansion for any instruction,
//! which both documents the control hierarchy and regenerates the Figure 6
//! narrative ("a single compound matrix-vector instruction will end up
//! producing over 10,000 primitive operations"; the largest GRU dispatches
//! "over 7 million operations" from one instruction).

use crate::config::NpuConfig;
use crate::isa::{Instruction, Opcode};

/// One level of the decode/dispatch hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DispatchLevel {
    /// Name of the hardware stage (e.g. `"tile engine decoders"`).
    pub stage: &'static str,
    /// Number of parallel units at this level.
    pub units: u64,
    /// Number of operations/control messages this level emits downstream
    /// for the analyzed instruction.
    pub dispatched: u64,
}

/// The full expansion of one compound instruction through the HDD tree.
///
/// # Example
///
/// ```
/// use bw_core::{HddExpansion, NpuConfig};
/// use bw_core::isa::Instruction;
///
/// // The paper's largest GRU: one mv_mul over an 8x8 tile grid of
/// // 400-element native tiles dispatches > 7M operations (§IV-C).
/// let cfg = NpuConfig::bw_s10();
/// let exp = HddExpansion::expand(&cfg, &Instruction::MvMul { mrf_index: 0 }, 8, 8);
/// assert!(exp.primitive_ops > 7_000_000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HddExpansion {
    /// The instruction's opcode.
    pub opcode: Opcode,
    /// Expansion levels from the control processor downward.
    pub levels: Vec<DispatchLevel>,
    /// Total primitive arithmetic operations dispatched into the data plane
    /// (MACs count as two operations, multiply and add, matching the
    /// paper's FLOP accounting).
    pub primitive_ops: u64,
}

/// Number of first-level decoders fed by the top-level scheduler (§V-C:
/// "dispatches to 6 decoders and 4 second-level schedulers").
pub(crate) const TOP_LEVEL_DECODERS: u64 = 6;
/// Number of second-level schedulers.
pub(crate) const SECOND_LEVEL_SCHEDULERS: u64 = 4;
/// Decoders fed by the second-level schedulers ("an additional 41
/// decoders").
pub(crate) const SECOND_LEVEL_DECODERS: u64 = 41;

impl HddExpansion {
    /// Expands one instruction under the given tiling registers.
    pub fn expand(config: &NpuConfig, instruction: &Instruction, rows: u32, cols: u32) -> Self {
        let opcode = instruction.opcode();
        let nd = u64::from(config.native_dim());
        let engines = u64::from(config.tile_engines());
        let lanes = u64::from(config.lanes());
        let tiles = u64::from(rows) * u64::from(cols);

        let mut levels = vec![DispatchLevel {
            stage: "control processor",
            units: 1,
            dispatched: 1,
        }];

        match opcode {
            Opcode::MvMul => {
                levels.push(DispatchLevel {
                    stage: "top-level scheduler",
                    units: 1,
                    dispatched: TOP_LEVEL_DECODERS + SECOND_LEVEL_SCHEDULERS,
                });
                levels.push(DispatchLevel {
                    stage: "second-level MVM scheduler (R x C expansion)",
                    units: SECOND_LEVEL_SCHEDULERS,
                    dispatched: tiles,
                });
                levels.push(DispatchLevel {
                    stage: "tile-engine / VRF / accumulation decoders",
                    units: SECOND_LEVEL_DECODERS,
                    dispatched: tiles.max(engines),
                });
                levels.push(DispatchLevel {
                    stage: "dot-product engines",
                    units: engines * nd,
                    dispatched: tiles * nd,
                });
                levels.push(DispatchLevel {
                    stage: "multiply-accumulate lanes",
                    units: config.mac_count(),
                    dispatched: tiles * nd * nd,
                });
                HddExpansion {
                    opcode,
                    levels,
                    primitive_ops: 2 * tiles * nd * nd,
                }
            }
            op if op.is_mfu_op() => {
                let width = u64::from(rows);
                levels.push(DispatchLevel {
                    stage: "top-level scheduler",
                    units: 1,
                    dispatched: u64::from(config.mfus()),
                });
                levels.push(DispatchLevel {
                    stage: "MFU decoders",
                    units: u64::from(config.mfus()) * 3,
                    dispatched: width,
                });
                levels.push(DispatchLevel {
                    stage: "vector lanes",
                    units: lanes,
                    dispatched: width * nd,
                });
                HddExpansion {
                    opcode,
                    levels,
                    primitive_ops: width * nd,
                }
            }
            Opcode::VRd | Opcode::VWr => {
                let width = u64::from(if opcode == Opcode::VRd { cols } else { rows });
                levels.push(DispatchLevel {
                    stage: "top-level scheduler",
                    units: 1,
                    dispatched: 1,
                });
                levels.push(DispatchLevel {
                    stage: "vector arbitration network",
                    units: 1,
                    dispatched: width,
                });
                levels.push(DispatchLevel {
                    stage: "register file ports",
                    units: lanes,
                    dispatched: width * nd,
                });
                HddExpansion {
                    opcode,
                    levels,
                    primitive_ops: 0,
                }
            }
            Opcode::MRd | Opcode::MWr => {
                let tiles = u64::from(rows) * u64::from(cols);
                levels.push(DispatchLevel {
                    stage: "top-level scheduler",
                    units: 1,
                    dispatched: tiles,
                });
                levels.push(DispatchLevel {
                    stage: "MRF bank write ports",
                    units: engines,
                    dispatched: tiles * nd,
                });
                HddExpansion {
                    opcode,
                    levels,
                    primitive_ops: 0,
                }
            }
            _ => HddExpansion {
                opcode,
                levels,
                primitive_ops: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::MemId;

    /// Primitive data-plane messages emitted per compound instruction.
    fn fanout(e: &HddExpansion) -> u64 {
        e.levels.last().map_or(0, |l| l.dispatched)
    }

    #[test]
    fn single_native_mv_mul_exceeds_10k_primitives() {
        // §V-C: "a single compound matrix-vector instruction will end up
        // producing over 10,000 primitive operations" — true already for
        // one native tile on BW_S10 (400x400 = 160k MACs).
        let cfg = NpuConfig::bw_s10();
        let e = HddExpansion::expand(&cfg, &Instruction::MvMul { mrf_index: 0 }, 1, 1);
        assert!(e.primitive_ops > 10_000, "{}", e.primitive_ops);
    }

    #[test]
    fn largest_gru_instruction_dispatches_7m_ops() {
        let cfg = NpuConfig::bw_s10();
        let e = HddExpansion::expand(&cfg, &Instruction::MvMul { mrf_index: 0 }, 8, 8);
        // 2 * 64 tiles * 400^2 = 20.48M; the paper quotes "over 7 million".
        assert!(e.primitive_ops > 7_000_000);
        assert_eq!(fanout(&e), 64 * 400 * 400);
    }

    #[test]
    fn expansion_levels_grow_monotonically_for_mv_mul() {
        let cfg = NpuConfig::bw_s10();
        let e = HddExpansion::expand(&cfg, &Instruction::MvMul { mrf_index: 0 }, 4, 5);
        let dispatched: Vec<u64> = e.levels.iter().map(|l| l.dispatched).collect();
        for w in dispatched.windows(2).skip(1) {
            assert!(w[1] >= w[0], "levels {dispatched:?}");
        }
    }

    #[test]
    fn mfu_op_expansion() {
        let cfg = NpuConfig::bw_s10();
        let e = HddExpansion::expand(&cfg, &Instruction::VvAdd { index: 0 }, 4, 5);
        assert_eq!(e.primitive_ops, 4 * 400);
    }

    #[test]
    fn reads_and_writes_dispatch_no_arithmetic() {
        let cfg = NpuConfig::bw_s10();
        let rd = HddExpansion::expand(
            &cfg,
            &Instruction::VRd {
                mem: MemId::InitialVrf,
                index: 0,
            },
            4,
            5,
        );
        assert_eq!(rd.primitive_ops, 0);
        assert_eq!(fanout(&rd), 5 * 400); // cols entries
        let wr = HddExpansion::expand(
            &cfg,
            &Instruction::VWr {
                mem: MemId::InitialVrf,
                index: 0,
            },
            4,
            5,
        );
        assert_eq!(fanout(&wr), 4 * 400); // rows entries
    }

    #[test]
    fn decoder_counts_match_paper() {
        assert_eq!(TOP_LEVEL_DECODERS, 6);
        assert_eq!(SECOND_LEVEL_SCHEDULERS, 4);
        assert_eq!(SECOND_LEVEL_DECODERS, 41);
    }
}
