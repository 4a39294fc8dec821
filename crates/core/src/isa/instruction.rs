//! Instructions, opcodes, memory identifiers, and scalar control registers
//! (the contents of Table II).

use std::fmt;

/// Identifies a memory target of a read or write instruction.
///
/// Vector register files are tightly coupled to specific function units
/// (§IV-C): `InitialVrf` feeds the head of the pipeline, each MFU's add/sub
/// unit owns an `AddSubVrf`, and each multiply unit owns a `MultiplyVrf`.
/// The index selects the owning MFU (0-based); the paper's two-MFU designs
/// have `AddSubVrf(0)`, `AddSubVrf(1)`, etc.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemId {
    /// The vector register file at the pipeline head.
    InitialVrf,
    /// The add/subtract-unit register file of the given MFU.
    AddSubVrf(u8),
    /// The multiply-unit register file of the given MFU.
    MultiplyVrf(u8),
    /// The matrix register file distributed across the tile engines.
    MatrixRf,
    /// The network input/output queue.
    NetQ,
    /// Off-chip DRAM.
    Dram,
}

impl MemId {
    /// Returns `true` for the vector register files (not NetQ/DRAM/MRF).
    pub(crate) fn is_vrf(self) -> bool {
        matches!(
            self,
            MemId::InitialVrf | MemId::AddSubVrf(_) | MemId::MultiplyVrf(_)
        )
    }

    /// Returns `true` if a `v_rd` may source from this memory.
    pub(crate) fn vector_readable(self) -> bool {
        self.is_vrf() || matches!(self, MemId::NetQ | MemId::Dram)
    }

    /// Returns `true` if a `v_wr` may sink to this memory.
    pub(crate) fn vector_writable(self) -> bool {
        self.is_vrf() || matches!(self, MemId::NetQ | MemId::Dram)
    }

    /// Returns `true` if an `m_rd` may source matrices from this memory
    /// (Table II: NetQ or DRAM only).
    pub(crate) fn matrix_readable(self) -> bool {
        matches!(self, MemId::NetQ | MemId::Dram)
    }

    /// Returns `true` if an `m_wr` may sink matrices to this memory
    /// (Table II: MatrixRf or DRAM only).
    pub(crate) fn matrix_writable(self) -> bool {
        matches!(self, MemId::MatrixRf | MemId::Dram)
    }
}

impl fmt::Display for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemId::InitialVrf => write!(f, "InitialVrf"),
            MemId::AddSubVrf(i) => write!(f, "AddSubVrf{i}"),
            MemId::MultiplyVrf(i) => write!(f, "MultiplyVrf{i}"),
            MemId::MatrixRf => write!(f, "MatrixRf"),
            MemId::NetQ => write!(f, "NetQ"),
            MemId::Dram => write!(f, "DRAM"),
        }
    }
}

/// Scalar control registers written by `s_wr` (§IV-C, "Mega-SIMD
/// execution").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarReg {
    /// Row tiling factor: an `mv_mul` treats `rows × cols` consecutive MRF
    /// entries as a tiled matrix producing `rows` native output vectors.
    Rows,
    /// Column tiling factor: an `mv_mul` consumes `cols` native input
    /// vectors.
    Cols,
}

impl fmt::Display for ScalarReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarReg::Rows => write!(f, "rows"),
            ScalarReg::Cols => write!(f, "cols"),
        }
    }
}

/// The operation class of an [`Instruction`], matching the `Name` column of
/// Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// `v_rd` — vector read.
    VRd,
    /// `v_wr` — vector write.
    VWr,
    /// `m_rd` — matrix read.
    MRd,
    /// `m_wr` — matrix write.
    MWr,
    /// `mv_mul` — matrix-vector multiply.
    MvMul,
    /// `vv_add` — point-wise vector addition.
    VvAdd,
    /// `vv_a_sub_b` — point-wise subtraction, chain input is the minuend.
    VvASubB,
    /// `vv_b_sub_a` — point-wise subtraction, chain input is the subtrahend.
    VvBSubA,
    /// `vv_max` — point-wise maximum.
    VvMax,
    /// `vv_mul` — Hadamard (point-wise) product.
    VvMul,
    /// `v_relu` — point-wise rectified linear unit.
    VRelu,
    /// `v_sigm` — point-wise logistic sigmoid.
    VSigm,
    /// `v_tanh` — point-wise hyperbolic tangent.
    VTanh,
    /// `s_wr` — scalar control register write.
    SWr,
    /// `end_chain` — chain delimiter.
    EndChain,
}

impl Opcode {
    /// The ISA mnemonic, exactly as printed in Table II.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::VRd => "v_rd",
            Opcode::VWr => "v_wr",
            Opcode::MRd => "m_rd",
            Opcode::MWr => "m_wr",
            Opcode::MvMul => "mv_mul",
            Opcode::VvAdd => "vv_add",
            Opcode::VvASubB => "vv_a_sub_b",
            Opcode::VvBSubA => "vv_b_sub_a",
            Opcode::VvMax => "vv_max",
            Opcode::VvMul => "vv_mul",
            Opcode::VRelu => "v_relu",
            Opcode::VSigm => "v_sigm",
            Opcode::VTanh => "v_tanh",
            Opcode::SWr => "s_wr",
            Opcode::EndChain => "end_chain",
        }
    }

    /// Returns `true` for the MFU add/subtract/max family (operand from an
    /// `AddSubVrf`).
    pub(crate) fn is_addsub(self) -> bool {
        matches!(
            self,
            Opcode::VvAdd | Opcode::VvASubB | Opcode::VvBSubA | Opcode::VvMax
        )
    }

    /// Returns `true` for the unary activation operations.
    pub(crate) fn is_activation(self) -> bool {
        matches!(self, Opcode::VRelu | Opcode::VSigm | Opcode::VTanh)
    }

    /// Returns `true` for any operation executed by a multifunction unit.
    pub(crate) fn is_mfu_op(self) -> bool {
        self.is_addsub() || self.is_activation() || self == Opcode::VvMul
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One BW NPU instruction: an opcode plus its explicit operands. The
/// implicit chain input/output (the `IN`/`OUT` columns of Table II) is
/// positional — it flows from the previous instruction in the [`Chain`].
///
/// [`Chain`]: crate::isa::Chain
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `v_rd mem, index` — read native vector(s); begins a vector chain.
    /// The index is ignored for `NetQ` sources (queues pop in order).
    VRd {
        /// Source memory.
        mem: MemId,
        /// Entry index within the source (ignored for NetQ).
        index: u32,
    },
    /// `v_wr mem, index` — write the chain value; terminates a vector chain
    /// (possibly multicast via consecutive `v_wr`s).
    VWr {
        /// Destination memory.
        mem: MemId,
        /// Entry index within the destination (ignored for NetQ).
        index: u32,
    },
    /// `m_rd mem, index` — read native matrix tile(s); begins a matrix
    /// chain.
    MRd {
        /// Source memory (NetQ or DRAM only).
        mem: MemId,
        /// Entry index within the source (ignored for NetQ).
        index: u32,
    },
    /// `m_wr mem, index` — write matrix tile(s); terminates a matrix chain.
    MWr {
        /// Destination memory (MatrixRf or DRAM only).
        mem: MemId,
        /// Entry index within the destination.
        index: u32,
    },
    /// `mv_mul mrf_index` — multiply the chain vector by the tiled matrix at
    /// `mrf_index`, honouring the `rows`/`cols` control registers.
    MvMul {
        /// First MRF entry of the `rows × cols` tile grid.
        mrf_index: u32,
    },
    /// `vv_add vrf_index` — add the `AddSubVrf` operand point-wise.
    VvAdd {
        /// Operand entry in the owning MFU's AddSubVrf.
        index: u32,
    },
    /// `vv_a_sub_b vrf_index` — chain value minus the VRF operand.
    VvASubB {
        /// Operand entry in the owning MFU's AddSubVrf.
        index: u32,
    },
    /// `vv_b_sub_a vrf_index` — VRF operand minus the chain value.
    VvBSubA {
        /// Operand entry in the owning MFU's AddSubVrf.
        index: u32,
    },
    /// `vv_max vrf_index` — point-wise maximum with the VRF operand.
    VvMax {
        /// Operand entry in the owning MFU's AddSubVrf.
        index: u32,
    },
    /// `vv_mul vrf_index` — Hadamard product with the `MultiplyVrf` operand.
    VvMul {
        /// Operand entry in the owning MFU's MultiplyVrf.
        index: u32,
    },
    /// `v_relu` — point-wise ReLU.
    VRelu,
    /// `v_sigm` — point-wise sigmoid.
    VSigm,
    /// `v_tanh` — point-wise hyperbolic tangent.
    VTanh,
    /// `s_wr reg, value` — write a scalar control register.
    SWr {
        /// Destination control register.
        reg: ScalarReg,
        /// New value (must be non-zero for tiling registers).
        value: u32,
    },
    /// `end_chain` — terminates the current chain.
    EndChain,
}

impl Instruction {
    /// The instruction's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Instruction::VRd { .. } => Opcode::VRd,
            Instruction::VWr { .. } => Opcode::VWr,
            Instruction::MRd { .. } => Opcode::MRd,
            Instruction::MWr { .. } => Opcode::MWr,
            Instruction::MvMul { .. } => Opcode::MvMul,
            Instruction::VvAdd { .. } => Opcode::VvAdd,
            Instruction::VvASubB { .. } => Opcode::VvASubB,
            Instruction::VvBSubA { .. } => Opcode::VvBSubA,
            Instruction::VvMax { .. } => Opcode::VvMax,
            Instruction::VvMul { .. } => Opcode::VvMul,
            Instruction::VRelu => Opcode::VRelu,
            Instruction::VSigm => Opcode::VSigm,
            Instruction::VTanh => Opcode::VTanh,
            Instruction::SWr { .. } => Opcode::SWr,
            Instruction::EndChain => Opcode::EndChain,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::VRd { mem, index } | Instruction::MRd { mem, index } => {
                if *mem == MemId::NetQ {
                    write!(f, "{}({mem})", self.opcode())
                } else {
                    write!(f, "{}({mem}, {index})", self.opcode())
                }
            }
            Instruction::VWr { mem, index } | Instruction::MWr { mem, index } => {
                if *mem == MemId::NetQ {
                    write!(f, "{}({mem})", self.opcode())
                } else {
                    write!(f, "{}({mem}, {index})", self.opcode())
                }
            }
            Instruction::MvMul { mrf_index } => write!(f, "mv_mul({mrf_index})"),
            Instruction::VvAdd { index }
            | Instruction::VvASubB { index }
            | Instruction::VvBSubA { index }
            | Instruction::VvMax { index }
            | Instruction::VvMul { index } => write!(f, "{}({index})", self.opcode()),
            Instruction::VRelu | Instruction::VSigm | Instruction::VTanh => {
                write!(f, "{}()", self.opcode())
            }
            Instruction::SWr { reg, value } => write!(f, "s_wr({reg}, {value})"),
            Instruction::EndChain => write!(f, "end_chain"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_id_permissions_match_table2() {
        assert!(MemId::NetQ.matrix_readable());
        assert!(MemId::Dram.matrix_readable());
        assert!(!MemId::MatrixRf.matrix_readable());
        assert!(!MemId::InitialVrf.matrix_readable());

        assert!(MemId::MatrixRf.matrix_writable());
        assert!(MemId::Dram.matrix_writable());
        assert!(!MemId::NetQ.matrix_writable());

        assert!(MemId::InitialVrf.vector_readable());
        assert!(MemId::AddSubVrf(1).vector_readable());
        assert!(MemId::NetQ.vector_readable());
        assert!(!MemId::MatrixRf.vector_readable());
        assert!(!MemId::MatrixRf.vector_writable());
    }

    #[test]
    fn opcode_classification() {
        assert!(Opcode::VvAdd.is_addsub());
        assert!(Opcode::VvMax.is_addsub());
        assert!(!Opcode::VvMul.is_addsub());
        assert!(Opcode::VSigm.is_activation());
        assert!(Opcode::VvMul.is_mfu_op());
        assert!(!Opcode::MvMul.is_mfu_op());
        assert!(!Opcode::VRd.is_mfu_op());
    }

    #[test]
    fn mnemonics_match_table2() {
        assert_eq!(Opcode::VvASubB.mnemonic(), "vv_a_sub_b");
        assert_eq!(Opcode::VvBSubA.mnemonic(), "vv_b_sub_a");
        assert_eq!(Opcode::MvMul.mnemonic(), "mv_mul");
        assert_eq!(Opcode::EndChain.mnemonic(), "end_chain");
    }

    #[test]
    fn display_formats() {
        let i = Instruction::VRd {
            mem: MemId::InitialVrf,
            index: 7,
        };
        assert_eq!(i.to_string(), "v_rd(InitialVrf, 7)");
        let n = Instruction::VRd {
            mem: MemId::NetQ,
            index: 0,
        };
        assert_eq!(n.to_string(), "v_rd(NetQ)");
        assert_eq!(Instruction::VSigm.to_string(), "v_sigm()");
        assert_eq!(
            Instruction::SWr {
                reg: ScalarReg::Rows,
                value: 4
            }
            .to_string(),
            "s_wr(rows, 4)"
        );
    }

    #[test]
    fn opcode_round_trip_through_instruction() {
        let instrs = [
            Instruction::VRelu,
            Instruction::VvMul { index: 3 },
            Instruction::MWr {
                mem: MemId::MatrixRf,
                index: 9,
            },
            Instruction::EndChain,
        ];
        let expected = [Opcode::VRelu, Opcode::VvMul, Opcode::MWr, Opcode::EndChain];
        for (i, op) in instrs.iter().zip(expected) {
            assert_eq!(i.opcode(), op);
        }
    }
}
