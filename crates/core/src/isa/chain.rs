//! Validated instruction chains.

use std::fmt;

use super::instruction::{Instruction, MemId, Opcode};

/// A validated instruction chain (§IV-C).
///
/// Chains are the unit of dataflow in the BW NPU ISA: values pass implicitly
/// from each instruction to the next, so the microarchitecture can pipeline
/// the whole chain without dependency checking or multi-ported register
/// files. Construction enforces the ISA's structural rules:
///
/// * a chain begins with `v_rd` or `m_rd` — the only instructions that
///   produce a chain output without consuming one;
/// * a *matrix chain* is exactly `m_rd` → `m_wr`, moving tiles between the
///   network/DRAM and the MRF/DRAM;
/// * a *vector chain* contains at most one `mv_mul`, placed before any MFU
///   operation (the MVM sits at the head of the physical pipeline), and
///   terminates with one or more `v_wr`s (multiple `v_wr`s multicast the
///   final value);
/// * `s_wr` and `end_chain` never appear inside a chain.
///
/// Per-configuration limits (MFU count, register file bounds) are checked
/// when a [`Program`] is loaded onto an NPU, not here.
///
/// [`Program`]: crate::isa::Program
///
/// # Example
///
/// ```
/// use bw_core::isa::{Chain, Instruction, MemId};
///
/// let chain = Chain::new(vec![
///     Instruction::VRd { mem: MemId::InitialVrf, index: 0 },
///     Instruction::MvMul { mrf_index: 0 },
///     Instruction::VvAdd { index: 0 },
///     Instruction::VSigm,
///     Instruction::VWr { mem: MemId::AddSubVrf(0), index: 1 },
/// ])?;
/// assert_eq!(chain.len(), 5);
/// # Ok::<(), bw_core::isa::ChainError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Chain {
    instructions: Vec<Instruction>,
    /// Decoded once, by [`Chain::new`]: add/sub, multiply and activation
    /// operation counts, and whether an `mv_mul` is present.
    mfu_counts: [usize; 3],
    has_mv_mul: bool,
}

/// Error produced when a sequence of instructions violates the chain rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// The chain held no instructions.
    Empty,
    /// The first instruction was not `v_rd` or `m_rd`.
    BadHead(Opcode),
    /// A matrix chain was not exactly `m_rd` → `m_wr`.
    MalformedMatrixChain,
    /// The memory operand is not legal for this opcode (e.g. `m_rd` from a
    /// VRF).
    IllegalMemory {
        /// The offending opcode.
        opcode: Opcode,
        /// The illegal memory target.
        mem: MemId,
    },
    /// A second `mv_mul` appeared, or an `mv_mul` after an MFU operation.
    MisplacedMvMul,
    /// A `v_rd` appeared after the head of the chain.
    MidChainRead,
    /// An instruction followed a `v_wr` that was not another `v_wr`.
    OpAfterWrite(Opcode),
    /// A vector chain did not terminate with at least one `v_wr`.
    MissingWrite,
    /// `s_wr` or `end_chain` appeared inside a chain.
    ControlInsideChain(Opcode),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Empty => write!(f, "chain is empty"),
            ChainError::BadHead(op) => {
                write!(f, "chain must begin with v_rd or m_rd, found {op}")
            }
            ChainError::MalformedMatrixChain => {
                write!(f, "matrix chain must be exactly m_rd followed by m_wr")
            }
            ChainError::IllegalMemory { opcode, mem } => {
                write!(f, "{opcode} may not target {mem}")
            }
            ChainError::MisplacedMvMul => write!(
                f,
                "mv_mul must appear at most once, before any MFU operation"
            ),
            ChainError::MidChainRead => write!(f, "v_rd may only begin a chain"),
            ChainError::OpAfterWrite(op) => {
                write!(f, "only further v_wr may follow a v_wr, found {op}")
            }
            ChainError::MissingWrite => {
                write!(f, "vector chain must terminate with at least one v_wr")
            }
            ChainError::ControlInsideChain(op) => {
                write!(f, "{op} is not permitted inside a chain")
            }
        }
    }
}

impl std::error::Error for ChainError {}

impl Chain {
    /// Validates and constructs a chain.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] describing the first rule violated.
    pub fn new(instructions: Vec<Instruction>) -> Result<Self, ChainError> {
        let Some(head) = instructions.first() else {
            return Err(ChainError::Empty);
        };
        let (mfu_counts, has_mv_mul) = match head {
            Instruction::MRd { mem, .. } => {
                if !mem.matrix_readable() {
                    return Err(ChainError::IllegalMemory {
                        opcode: Opcode::MRd,
                        mem: *mem,
                    });
                }
                // Matrix chains are exactly two instructions.
                if instructions.len() != 2 {
                    return Err(ChainError::MalformedMatrixChain);
                }
                match &instructions[1] {
                    Instruction::MWr { mem, .. } => {
                        if !mem.matrix_writable() {
                            return Err(ChainError::IllegalMemory {
                                opcode: Opcode::MWr,
                                mem: *mem,
                            });
                        }
                    }
                    _ => return Err(ChainError::MalformedMatrixChain),
                }
                ([0; 3], false)
            }
            Instruction::VRd { mem, .. } => {
                if !mem.vector_readable() {
                    return Err(ChainError::IllegalMemory {
                        opcode: Opcode::VRd,
                        mem: *mem,
                    });
                }
                Self::validate_vector_tail(&instructions[1..])?
            }
            other => return Err(ChainError::BadHead(other.opcode())),
        };
        Ok(Chain {
            instructions,
            mfu_counts,
            has_mv_mul,
        })
    }

    /// Checks a vector chain's tail and counts its MFU operations by kind
    /// (add/sub, multiply, activation) and its `mv_mul`.
    fn validate_vector_tail(tail: &[Instruction]) -> Result<([usize; 3], bool), ChainError> {
        let mut mfu_counts = [0; 3];
        let mut seen_mv_mul = false;
        let mut seen_mfu_op = false;
        let mut seen_write = false;
        for instr in tail {
            let op = instr.opcode();
            if seen_write && op != Opcode::VWr {
                return Err(ChainError::OpAfterWrite(op));
            }
            match instr {
                Instruction::VRd { .. } => return Err(ChainError::MidChainRead),
                Instruction::MRd { .. } | Instruction::MWr { .. } => {
                    return Err(ChainError::MalformedMatrixChain)
                }
                Instruction::MvMul { .. } => {
                    if seen_mv_mul || seen_mfu_op {
                        return Err(ChainError::MisplacedMvMul);
                    }
                    seen_mv_mul = true;
                }
                Instruction::VWr { mem, .. } => {
                    if !mem.vector_writable() {
                        return Err(ChainError::IllegalMemory {
                            opcode: Opcode::VWr,
                            mem: *mem,
                        });
                    }
                    seen_write = true;
                }
                Instruction::SWr { .. } | Instruction::EndChain => {
                    return Err(ChainError::ControlInsideChain(op))
                }
                _ if op.is_mfu_op() => {
                    seen_mfu_op = true;
                    let kind = match op {
                        Opcode::VvMul => 1,
                        _ if op.is_activation() => 2,
                        _ => 0,
                    };
                    mfu_counts[kind] += 1;
                }
                _ => unreachable!("all instruction variants handled"),
            }
        }
        if !seen_write {
            return Err(ChainError::MissingWrite);
        }
        Ok((mfu_counts, seen_mv_mul))
    }

    /// The validated instruction sequence.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Chains are never empty; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if this is a matrix movement chain (`m_rd` → `m_wr`).
    pub(crate) fn is_matrix_chain(&self) -> bool {
        matches!(self.instructions[0], Instruction::MRd { .. })
    }

    /// Returns `true` if the chain contains an `mv_mul`.
    #[inline]
    pub(crate) fn has_mv_mul(&self) -> bool {
        self.has_mv_mul
    }

    /// Native vectors a vector chain reads at its head and carries from its
    /// `mv_mul` on, under tiling registers `rows` and `cols`: an `mv_mul`
    /// reads `cols` and emits `rows`; a chain without one is `rows` wide
    /// throughout. A matrix chain moves `rows·cols` tiles, saturating at
    /// `u32::MAX`.
    #[inline]
    pub fn widths(&self, rows: u32, cols: u32) -> (u32, u32) {
        if self.is_matrix_chain() {
            let tiles = rows.saturating_mul(cols);
            return (tiles, tiles);
        }
        (if self.has_mv_mul { cols } else { rows }, rows)
    }

    /// Number of MFU add/sub/max operations.
    #[inline]
    pub(crate) fn addsub_ops(&self) -> usize {
        self.mfu_counts[0]
    }

    /// Number of MFU Hadamard-product operations.
    #[inline]
    pub(crate) fn multiply_ops(&self) -> usize {
        self.mfu_counts[1]
    }

    /// Number of MFU activation operations.
    #[inline]
    pub(crate) fn activation_ops(&self) -> usize {
        self.mfu_counts[2]
    }

    /// Total MFU operations of any kind.
    pub(crate) fn mfu_ops(&self) -> usize {
        self.mfu_counts.iter().sum()
    }

    /// The multicast `v_wr` destinations of a vector chain (empty for matrix
    /// chains).
    pub(crate) fn write_targets(&self) -> impl Iterator<Item = (MemId, u32)> + '_ {
        self.instructions.iter().filter_map(|i| match i {
            Instruction::VWr { mem, index } => Some((*mem, *index)),
            _ => None,
        })
    }
}

impl fmt::Display for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, instr) in self.instructions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  {instr};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrd(index: u32) -> Instruction {
        Instruction::VRd {
            mem: MemId::InitialVrf,
            index,
        }
    }

    fn vwr(index: u32) -> Instruction {
        Instruction::VWr {
            mem: MemId::InitialVrf,
            index,
        }
    }

    #[test]
    fn minimal_copy_chain() {
        let c = Chain::new(vec![vrd(0), vwr(1)]).unwrap();
        assert_eq!(c.len(), 2);
        assert!(!c.has_mv_mul());
        assert!(!c.is_matrix_chain());
    }

    #[test]
    fn empty_chain_rejected() {
        assert_eq!(Chain::new(vec![]), Err(ChainError::Empty));
    }

    #[test]
    fn bad_head_rejected() {
        assert_eq!(
            Chain::new(vec![Instruction::VSigm, vwr(0)]),
            Err(ChainError::BadHead(Opcode::VSigm))
        );
        assert_eq!(
            Chain::new(vec![Instruction::MvMul { mrf_index: 0 }, vwr(0)]),
            Err(ChainError::BadHead(Opcode::MvMul))
        );
    }

    #[test]
    fn matrix_chain_rules() {
        let ok = Chain::new(vec![
            Instruction::MRd {
                mem: MemId::Dram,
                index: 0,
            },
            Instruction::MWr {
                mem: MemId::MatrixRf,
                index: 3,
            },
        ])
        .unwrap();
        assert!(ok.is_matrix_chain());

        // m_rd from a VRF is illegal.
        assert_eq!(
            Chain::new(vec![
                Instruction::MRd {
                    mem: MemId::InitialVrf,
                    index: 0
                },
                Instruction::MWr {
                    mem: MemId::MatrixRf,
                    index: 0
                },
            ]),
            Err(ChainError::IllegalMemory {
                opcode: Opcode::MRd,
                mem: MemId::InitialVrf
            })
        );
        // m_wr to NetQ is illegal (matrices are never sent out).
        assert_eq!(
            Chain::new(vec![
                Instruction::MRd {
                    mem: MemId::Dram,
                    index: 0
                },
                Instruction::MWr {
                    mem: MemId::NetQ,
                    index: 0
                },
            ]),
            Err(ChainError::IllegalMemory {
                opcode: Opcode::MWr,
                mem: MemId::NetQ
            })
        );
        // A third instruction breaks the two-instruction form.
        assert_eq!(
            Chain::new(vec![
                Instruction::MRd {
                    mem: MemId::Dram,
                    index: 0
                },
                Instruction::MWr {
                    mem: MemId::MatrixRf,
                    index: 0
                },
                Instruction::MWr {
                    mem: MemId::Dram,
                    index: 0
                },
            ]),
            Err(ChainError::MalformedMatrixChain)
        );
    }

    #[test]
    fn mv_mul_placement() {
        // mv_mul after an MFU op is illegal.
        assert_eq!(
            Chain::new(vec![
                vrd(0),
                Instruction::VSigm,
                Instruction::MvMul { mrf_index: 0 },
                vwr(0),
            ]),
            Err(ChainError::MisplacedMvMul)
        );
        // Two mv_muls are illegal.
        assert_eq!(
            Chain::new(vec![
                vrd(0),
                Instruction::MvMul { mrf_index: 0 },
                Instruction::MvMul { mrf_index: 1 },
                vwr(0),
            ]),
            Err(ChainError::MisplacedMvMul)
        );
    }

    #[test]
    fn mid_chain_read_rejected() {
        assert_eq!(
            Chain::new(vec![vrd(0), vrd(1), vwr(0)]),
            Err(ChainError::MidChainRead)
        );
    }

    #[test]
    fn writes_terminate_chain() {
        assert_eq!(
            Chain::new(vec![vrd(0), vwr(0), Instruction::VSigm]),
            Err(ChainError::OpAfterWrite(Opcode::VSigm))
        );
        // Multicast is fine.
        let c = Chain::new(vec![
            vrd(0),
            Instruction::VTanh,
            vwr(1),
            Instruction::VWr {
                mem: MemId::NetQ,
                index: 0,
            },
        ])
        .unwrap();
        assert_eq!(c.write_targets().count(), 2);
    }

    #[test]
    fn missing_write_rejected() {
        assert_eq!(
            Chain::new(vec![vrd(0), Instruction::VSigm]),
            Err(ChainError::MissingWrite)
        );
    }

    #[test]
    fn control_inside_chain_rejected() {
        assert_eq!(
            Chain::new(vec![
                vrd(0),
                Instruction::SWr {
                    reg: super::super::instruction::ScalarReg::Rows,
                    value: 2
                },
                vwr(0),
            ]),
            Err(ChainError::ControlInsideChain(Opcode::SWr))
        );
        assert_eq!(
            Chain::new(vec![vrd(0), Instruction::EndChain, vwr(0)]),
            Err(ChainError::ControlInsideChain(Opcode::EndChain))
        );
    }

    #[test]
    fn lstm_gate_chain_op_counts() {
        // v_rd; mv_mul; vv_add; v_sigm; vv_mul; v_wr — the paper's f-gate.
        let c = Chain::new(vec![
            vrd(0),
            Instruction::MvMul { mrf_index: 0 },
            Instruction::VvAdd { index: 0 },
            Instruction::VSigm,
            Instruction::VvMul { index: 0 },
            vwr(2),
        ])
        .unwrap();
        assert!(c.has_mv_mul());
        assert_eq!(c.addsub_ops(), 1);
        assert_eq!(c.multiply_ops(), 1);
        assert_eq!(c.activation_ops(), 1);
        assert_eq!(c.mfu_ops(), 3);
        assert_eq!(c.widths(2, 3), (3, 2), "cols in, rows out");

        // Counts by kind, not by opcode; none for a matrix chain.
        let c = Chain::new(vec![
            vrd(0),
            Instruction::VvMax { index: 0 },
            Instruction::VRelu,
            Instruction::VvBSubA { index: 1 },
            Instruction::VTanh,
            vwr(2),
        ])
        .unwrap();
        let counts = |c: &Chain| {
            let kinds = (c.addsub_ops(), c.multiply_ops(), c.activation_ops());
            (c.has_mv_mul(), kinds, c.mfu_ops())
        };
        assert_eq!(counts(&c), (false, (2, 0, 2), 4));
        assert_eq!(c.widths(2, 3), (2, 2), "rows throughout");
        let m = Chain::new(vec![
            Instruction::MRd {
                mem: MemId::NetQ,
                index: 0,
            },
            Instruction::MWr {
                mem: MemId::MatrixRf,
                index: 0,
            },
        ])
        .unwrap();
        assert_eq!(counts(&m), (false, (0, 0, 0), 0));
        assert_eq!(m.widths(2, 3), (6, 6), "rows·cols tiles");
        assert_eq!(m.widths(1 << 16, 1 << 16), (u32::MAX, u32::MAX));
    }

    #[test]
    fn display_renders_each_instruction() {
        let c = Chain::new(vec![vrd(3), vwr(4)]).unwrap();
        let s = c.to_string();
        assert!(s.contains("v_rd(InitialVrf, 3);"));
        assert!(s.contains("v_wr(InitialVrf, 4);"));
    }
}
