//! Programs: what the scalar control processor streams to the NPU.

use std::fmt;

use super::chain::Chain;
use super::instruction::ScalarReg;

/// One element of a program: either a scalar control register write or a
/// complete instruction chain.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// `s_wr reg, value` executed by the top-level scheduler.
    SetReg {
        /// Destination control register.
        reg: ScalarReg,
        /// New value.
        value: u32,
    },
    /// A validated instruction chain.
    Chain(Chain),
}

/// A group of items repeated a fixed number of iterations.
///
/// This models the control processor streaming "T iterations of N static
/// instructions into the top-level scheduler" (§V-C): an RNN time-step loop
/// becomes one segment whose `iterations` equals the step count. Register
/// file indices are static across iterations; per-iteration inputs arrive
/// through the network queue, which pops in order.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// The static item sequence of one iteration.
    pub items: Vec<Item>,
    /// How many times the sequence is streamed (≥ 1 to have any effect).
    pub iterations: u32,
}

/// A complete BW NPU program: an ordered list of [`Segment`]s.
///
/// # Example
///
/// ```
/// use bw_core::isa::{Program, ProgramBuilder, MemId};
///
/// let mut b = ProgramBuilder::new();
/// b.set_rows(1).set_cols(1);
/// b.v_rd(MemId::NetQ, 0).v_relu().v_wr(MemId::NetQ, 0).end_chain()?;
/// let program: Program = b.build();
/// assert_eq!(program.chain_count(), 1);
/// # Ok::<(), bw_core::isa::BuilderError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// The segments, executed in order.
    pub segments: Vec<Segment>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Total chains across all segments, counting iterations.
    pub fn chain_count(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| {
                s.items
                    .iter()
                    .filter(|i| matches!(i, Item::Chain(_)))
                    .count() as u64
                    * u64::from(s.iterations)
            })
            .sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (si, seg) in self.segments.iter().enumerate() {
            writeln!(f, "segment {si} (x{}):", seg.iterations)?;
            for item in &seg.items {
                match item {
                    Item::SetReg { reg, value } => writeln!(f, "  s_wr({reg}, {value});")?,
                    Item::Chain(c) => {
                        writeln!(f, "{c}")?;
                        writeln!(f, "  end_chain;")?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::instruction::{Instruction, MemId};
    use super::*;

    fn copy_chain() -> Chain {
        Chain::new(vec![
            Instruction::VRd {
                mem: MemId::InitialVrf,
                index: 0,
            },
            Instruction::VWr {
                mem: MemId::InitialVrf,
                index: 1,
            },
        ])
        .unwrap()
    }

    #[test]
    fn counts_respect_iterations() {
        let p = Program {
            segments: vec![Segment {
                items: vec![
                    Item::SetReg {
                        reg: ScalarReg::Rows,
                        value: 2,
                    },
                    Item::Chain(copy_chain()),
                ],
                iterations: 10,
            }],
        };
        assert_eq!(p.chain_count(), 10);
    }

    #[test]
    fn empty_program() {
        let p = Program::new();
        assert_eq!(p.chain_count(), 0);
        assert!(p.segments.is_empty());
    }

    #[test]
    fn display_includes_segment_header_and_delimiters() {
        let p = Program {
            segments: vec![Segment {
                items: vec![Item::Chain(copy_chain())],
                iterations: 3,
            }],
        };
        let s = p.to_string();
        assert!(s.contains("segment 0 (x3):"));
        assert!(s.contains("end_chain;"));
    }
}
