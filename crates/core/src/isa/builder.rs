//! Firmware-authoring builder mirroring the paper's C-macro style.

use std::fmt;

use super::chain::{Chain, ChainError};
use super::instruction::{Instruction, MemId, ScalarReg};
use super::program::{Item, Program, Segment};

/// Builds [`Program`]s with an API that reads like the paper's firmware
/// listing (§IV-C): each ISA mnemonic is a method, `end_chain` validates and
/// commits the pending chain, and `begin_loop`/`end_loop` express the
/// time-step loop the Nios streams repeatedly.
///
/// # Example
///
/// The f-gate fragment of the paper's LSTM kernel:
///
/// ```
/// use bw_core::isa::{ProgramBuilder, MemId};
///
/// const IVRF_XT: u32 = 0;
/// const MRF_WF: u32 = 0;
/// const ASVRF_BF: u32 = 0;
/// const ASVRF_XWF: u32 = 1;
///
/// let mut b = ProgramBuilder::new();
/// b.set_rows(4).set_cols(4);
/// b.begin_loop(25)?;
/// // xWf = xt * Wf + bf
/// b.v_rd(MemId::InitialVrf, IVRF_XT)
///     .mv_mul(MRF_WF)
///     .vv_add(ASVRF_BF)
///     .v_wr(MemId::AddSubVrf(0), ASVRF_XWF)
///     .end_chain()?;
/// b.end_loop()?;
/// let program = b.build();
/// assert_eq!(program.chain_count(), 25);
/// # Ok::<(), bw_core::isa::BuilderError>(())
/// ```
///
/// The builder writes into two buffers it reserves once — the open
/// segment's items and the pending chain's instructions — and commits each
/// chain and each segment as a copy of its exact size, so generating a
/// program whose chains and segments fit them reallocates nothing.
#[derive(Debug)]
pub struct ProgramBuilder {
    segments: Vec<Segment>,
    /// Items of the open segment: the loop's while inside a `begin_loop`,
    /// else those accumulated outside any loop.
    items: Vec<Item>,
    /// `Some(iterations)` while inside a `begin_loop`.
    in_loop: Option<u32>,
    /// Instructions of the chain currently being written.
    pending: Vec<Instruction>,
}

/// What the builder's buffers hold before they grow: more than a
/// recurrent cell's time step writes (eight instructions in its longest
/// chain, at most fourteen items a sequence, so four batched sequences).
const RESERVED_ITEMS: usize = 64;
const RESERVED_INSTRUCTIONS: usize = 16;

impl Default for ProgramBuilder {
    fn default() -> Self {
        ProgramBuilder {
            segments: Vec::new(),
            items: Vec::with_capacity(RESERVED_ITEMS),
            in_loop: None,
            pending: Vec::with_capacity(RESERVED_INSTRUCTIONS),
        }
    }
}

/// Error produced while building a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuilderError {
    /// The pending chain violated the ISA chain rules.
    Chain(
        /// The underlying chain validation failure, as a string to keep this
        /// type serializable.
        String,
    ),
    /// `end_loop` without a matching `begin_loop`.
    NotInLoop,
    /// `begin_loop` while already inside a loop (the ISA's control processor
    /// streams flat iteration, not nested loops).
    NestedLoop,
    /// `begin_loop`/`end_loop` while a chain was still open.
    LoopInsideChain,
    /// A loop with zero iterations.
    ZeroIterations,
}

impl From<ChainError> for BuilderError {
    fn from(e: ChainError) -> Self {
        BuilderError::Chain(e.to_string())
    }
}

impl fmt::Display for BuilderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuilderError::Chain(e) => write!(f, "invalid chain: {e}"),
            BuilderError::NotInLoop => write!(f, "end_loop without begin_loop"),
            BuilderError::NestedLoop => write!(f, "loops cannot nest"),
            BuilderError::LoopInsideChain => {
                write!(f, "loop boundaries may not cross an open chain")
            }
            BuilderError::ZeroIterations => write!(f, "loop must iterate at least once"),
        }
    }
}

impl std::error::Error for BuilderError {}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Commits the open segment's items, at their exact size.
    fn commit(&mut self, iterations: u32) {
        self.segments.push(Segment {
            items: self.items.drain(..).collect(),
            iterations,
        });
    }

    fn flush_top(&mut self) {
        if !self.items.is_empty() {
            self.commit(1);
        }
    }

    /// Writes the `rows` tiling register (`s_wr rows, n`).
    pub fn set_rows(&mut self, rows: u32) -> &mut Self {
        self.items.push(Item::SetReg {
            reg: ScalarReg::Rows,
            value: rows,
        });
        self
    }

    /// Writes the `cols` tiling register (`s_wr cols, n`).
    pub fn set_cols(&mut self, cols: u32) -> &mut Self {
        self.items.push(Item::SetReg {
            reg: ScalarReg::Cols,
            value: cols,
        });
        self
    }

    /// Opens a loop streamed `iterations` times.
    ///
    /// # Errors
    ///
    /// Returns [`BuilderError`] if already inside a loop, a chain is open,
    /// or `iterations` is zero.
    pub fn begin_loop(&mut self, iterations: u32) -> Result<&mut Self, BuilderError> {
        if self.in_loop.is_some() {
            return Err(BuilderError::NestedLoop);
        }
        if !self.pending.is_empty() {
            return Err(BuilderError::LoopInsideChain);
        }
        if iterations == 0 {
            return Err(BuilderError::ZeroIterations);
        }
        self.flush_top();
        self.in_loop = Some(iterations);
        Ok(self)
    }

    /// Closes the current loop.
    ///
    /// # Errors
    ///
    /// Returns [`BuilderError`] if no loop is open or a chain is open.
    pub fn end_loop(&mut self) -> Result<&mut Self, BuilderError> {
        if !self.pending.is_empty() {
            return Err(BuilderError::LoopInsideChain);
        }
        let iterations = self.in_loop.take().ok_or(BuilderError::NotInLoop)?;
        self.commit(iterations);
        Ok(self)
    }

    /// Appends `v_rd mem, index` to the pending chain.
    pub fn v_rd(&mut self, mem: MemId, index: u32) -> &mut Self {
        self.pending.push(Instruction::VRd { mem, index });
        self
    }

    /// Appends `v_wr mem, index`.
    pub fn v_wr(&mut self, mem: MemId, index: u32) -> &mut Self {
        self.pending.push(Instruction::VWr { mem, index });
        self
    }

    /// Appends `m_rd mem, index`.
    pub fn m_rd(&mut self, mem: MemId, index: u32) -> &mut Self {
        self.pending.push(Instruction::MRd { mem, index });
        self
    }

    /// Appends `m_wr mem, index`.
    pub fn m_wr(&mut self, mem: MemId, index: u32) -> &mut Self {
        self.pending.push(Instruction::MWr { mem, index });
        self
    }

    /// Appends `mv_mul mrf_index`.
    pub fn mv_mul(&mut self, mrf_index: u32) -> &mut Self {
        self.pending.push(Instruction::MvMul { mrf_index });
        self
    }

    /// Appends `vv_add index`.
    pub fn vv_add(&mut self, index: u32) -> &mut Self {
        self.pending.push(Instruction::VvAdd { index });
        self
    }

    /// Appends `vv_a_sub_b index`.
    pub fn vv_a_sub_b(&mut self, index: u32) -> &mut Self {
        self.pending.push(Instruction::VvASubB { index });
        self
    }

    /// Appends `vv_b_sub_a index`.
    pub fn vv_b_sub_a(&mut self, index: u32) -> &mut Self {
        self.pending.push(Instruction::VvBSubA { index });
        self
    }

    /// Appends `vv_max index`.
    pub fn vv_max(&mut self, index: u32) -> &mut Self {
        self.pending.push(Instruction::VvMax { index });
        self
    }

    /// Appends `vv_mul index`.
    pub fn vv_mul(&mut self, index: u32) -> &mut Self {
        self.pending.push(Instruction::VvMul { index });
        self
    }

    /// Appends `v_relu`.
    pub fn v_relu(&mut self) -> &mut Self {
        self.pending.push(Instruction::VRelu);
        self
    }

    /// Appends `v_sigm`.
    pub fn v_sigm(&mut self) -> &mut Self {
        self.pending.push(Instruction::VSigm);
        self
    }

    /// Appends `v_tanh`.
    pub fn v_tanh(&mut self) -> &mut Self {
        self.pending.push(Instruction::VTanh);
        self
    }

    /// Validates and commits the pending chain (`end_chain`).
    ///
    /// # Errors
    ///
    /// Returns [`BuilderError::Chain`] if the pending instructions violate
    /// the chain rules; the pending buffer is cleared either way.
    pub fn end_chain(&mut self) -> Result<&mut Self, BuilderError> {
        let chain = Chain::new(self.pending.to_vec());
        self.pending.clear();
        self.items.push(Item::Chain(chain?));
        Ok(self)
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if a chain or loop is still open — both indicate firmware
    /// generator bugs rather than runtime conditions.
    pub fn build(mut self) -> Program {
        assert!(
            self.pending.is_empty(),
            "program finished with an unterminated chain"
        );
        assert!(
            self.in_loop.is_none(),
            "program finished with an unterminated loop"
        );
        self.flush_top();
        Program {
            segments: self.segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_paper_style_firmware() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.begin_loop(3).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .vv_add(0)
            .v_sigm()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        let p = b.build();
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.segments[0].iterations, 1); // the s_wr prologue
        assert_eq!(p.segments[1].iterations, 3);
        assert_eq!(p.chain_count(), 6);
    }

    #[test]
    fn invalid_chain_surfaces_error_and_clears() {
        let mut b = ProgramBuilder::new();
        let err = b.v_sigm().end_chain().unwrap_err();
        assert!(matches!(err, BuilderError::Chain(_)));
        // Builder remains usable.
        b.v_rd(MemId::InitialVrf, 0)
            .v_wr(MemId::InitialVrf, 1)
            .end_chain()
            .unwrap();
        assert_eq!(b.build().chain_count(), 1);
    }

    #[test]
    fn loop_discipline() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.end_loop().unwrap_err(), BuilderError::NotInLoop);
        b.begin_loop(2).unwrap();
        assert_eq!(b.begin_loop(2).unwrap_err(), BuilderError::NestedLoop);
        b.end_loop().unwrap();
        assert_eq!(b.begin_loop(0).unwrap_err(), BuilderError::ZeroIterations);
    }

    #[test]
    fn loop_boundary_cannot_cross_open_chain() {
        let mut b = ProgramBuilder::new();
        b.v_rd(MemId::InitialVrf, 0);
        assert_eq!(b.begin_loop(2).unwrap_err(), BuilderError::LoopInsideChain);
    }

    #[test]
    #[should_panic(expected = "unterminated chain")]
    fn build_panics_on_open_chain() {
        let mut b = ProgramBuilder::new();
        b.v_rd(MemId::InitialVrf, 0);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "unterminated loop")]
    fn build_panics_on_open_loop() {
        let mut b = ProgramBuilder::new();
        b.begin_loop(2).unwrap();
        let _ = b.build();
    }

    #[test]
    fn all_mnemonics_append() {
        let mut b = ProgramBuilder::new();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .vv_add(0)
            .vv_a_sub_b(1)
            .vv_mul(2)
            .v_relu()
            .v_tanh()
            .v_sigm()
            .vv_max(3)
            .vv_b_sub_a(4)
            .v_wr(MemId::Dram, 5)
            .end_chain()
            .unwrap();
        let p = b.build();
        assert!(matches!(&p.segments[0].items[..], [Item::Chain(c)] if c.len() == 11));
    }

    #[test]
    fn matrix_move_via_builder() {
        let mut b = ProgramBuilder::new();
        b.m_rd(MemId::Dram, 0)
            .m_wr(MemId::MatrixRf, 4)
            .end_chain()
            .unwrap();
        let p = b.build();
        assert_eq!(p.chain_count(), 1);
    }
}
