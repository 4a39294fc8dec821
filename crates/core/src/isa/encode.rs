//! Binary encoding of programs — the executable format the toolflow
//! packages and deploys to NPU instances (§II-B).

use super::chain::Chain;
use super::instruction::{Instruction, MemId, ScalarReg};
use super::program::{Item, Program, Segment};

/// Error produced when decoding a malformed program binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic header was missing or the version unsupported.
    BadHeader,
    /// The buffer ended mid-structure.
    Truncated,
    /// An unknown tag byte was encountered.
    BadTag(u8),
    /// A decoded chain failed ISA validation.
    InvalidChain(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "missing or unsupported program header"),
            DecodeError::Truncated => write!(f, "program binary is truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            DecodeError::InvalidChain(e) => write!(f, "decoded chain failed validation: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const MAGIC: &[u8; 4] = b"BWNP";
const VERSION: u8 = 1;

const TAG_SET_REG: u8 = 0;
const TAG_CHAIN: u8 = 1;

fn put_mem(buf: &mut Vec<u8>, mem: MemId) {
    buf.extend_from_slice(&match mem {
        MemId::InitialVrf => [0, 0],
        MemId::AddSubVrf(i) => [1, i],
        MemId::MultiplyVrf(i) => [2, i],
        MemId::MatrixRf => [3, 0],
        MemId::NetQ => [4, 0],
        MemId::Dram => [5, 0],
    });
}

/// Splits the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    Ok(take::<1>(buf)?[0])
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    Ok(u32::from_be_bytes(take(buf)?))
}

fn get_mem(buf: &mut &[u8]) -> Result<MemId, DecodeError> {
    let [tag, sub] = take(buf)?;
    match tag {
        0 => Ok(MemId::InitialVrf),
        1 => Ok(MemId::AddSubVrf(sub)),
        2 => Ok(MemId::MultiplyVrf(sub)),
        3 => Ok(MemId::MatrixRf),
        4 => Ok(MemId::NetQ),
        5 => Ok(MemId::Dram),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn get_reg(buf: &mut &[u8]) -> Result<ScalarReg, DecodeError> {
    match get_u8(buf)? {
        0 => Ok(ScalarReg::Rows),
        1 => Ok(ScalarReg::Cols),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn put_reg(buf: &mut Vec<u8>, reg: ScalarReg, value: u32) {
    buf.push(match reg {
        ScalarReg::Rows => 0,
        ScalarReg::Cols => 1,
    });
    buf.extend_from_slice(&value.to_be_bytes());
}

fn put_instruction(buf: &mut Vec<u8>, instr: &Instruction) {
    let (op, mem, operand) = match *instr {
        Instruction::VRd { mem, index } => (0, Some(mem), Some(index)),
        Instruction::VWr { mem, index } => (1, Some(mem), Some(index)),
        Instruction::MRd { mem, index } => (2, Some(mem), Some(index)),
        Instruction::MWr { mem, index } => (3, Some(mem), Some(index)),
        Instruction::MvMul { mrf_index } => (4, None, Some(mrf_index)),
        Instruction::VvAdd { index } => (5, None, Some(index)),
        Instruction::VvASubB { index } => (6, None, Some(index)),
        Instruction::VvBSubA { index } => (7, None, Some(index)),
        Instruction::VvMax { index } => (8, None, Some(index)),
        Instruction::VvMul { index } => (9, None, Some(index)),
        Instruction::VRelu => (10, None, None),
        Instruction::VSigm => (11, None, None),
        Instruction::VTanh => (12, None, None),
        Instruction::SWr { reg, value } => {
            buf.push(13);
            put_reg(buf, reg, value);
            return;
        }
        Instruction::EndChain => (14, None, None),
    };
    buf.push(op);
    if let Some(mem) = mem {
        put_mem(buf, mem);
    }
    if let Some(operand) = operand {
        buf.extend_from_slice(&operand.to_be_bytes());
    }
}

fn get_instruction(buf: &mut &[u8]) -> Result<Instruction, DecodeError> {
    let op = get_u8(buf)?;
    Ok(match op {
        0 => Instruction::VRd {
            mem: get_mem(buf)?,
            index: get_u32(buf)?,
        },
        1 => Instruction::VWr {
            mem: get_mem(buf)?,
            index: get_u32(buf)?,
        },
        2 => Instruction::MRd {
            mem: get_mem(buf)?,
            index: get_u32(buf)?,
        },
        3 => Instruction::MWr {
            mem: get_mem(buf)?,
            index: get_u32(buf)?,
        },
        4 => Instruction::MvMul {
            mrf_index: get_u32(buf)?,
        },
        5 => Instruction::VvAdd {
            index: get_u32(buf)?,
        },
        6 => Instruction::VvASubB {
            index: get_u32(buf)?,
        },
        7 => Instruction::VvBSubA {
            index: get_u32(buf)?,
        },
        8 => Instruction::VvMax {
            index: get_u32(buf)?,
        },
        9 => Instruction::VvMul {
            index: get_u32(buf)?,
        },
        10 => Instruction::VRelu,
        11 => Instruction::VSigm,
        12 => Instruction::VTanh,
        13 => Instruction::SWr {
            reg: get_reg(buf)?,
            value: get_u32(buf)?,
        },
        14 => Instruction::EndChain,
        t => return Err(DecodeError::BadTag(t)),
    })
}

impl Program {
    /// Serializes the program to its executable binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        buf.extend_from_slice(&(self.segments.len() as u32).to_be_bytes());
        for seg in &self.segments {
            buf.extend_from_slice(&seg.iterations.to_be_bytes());
            buf.extend_from_slice(&(seg.items.len() as u32).to_be_bytes());
            for item in &seg.items {
                match item {
                    Item::SetReg { reg, value } => {
                        buf.push(TAG_SET_REG);
                        put_reg(&mut buf, *reg, *value);
                    }
                    Item::Chain(chain) => {
                        buf.push(TAG_CHAIN);
                        buf.extend_from_slice(&(chain.len() as u16).to_be_bytes());
                        for instr in chain.instructions() {
                            put_instruction(&mut buf, instr);
                        }
                    }
                }
            }
        }
        buf
    }

    /// Deserializes a program binary, re-validating every chain.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the header is unrecognized, the buffer
    /// is truncated, a tag byte is unknown, or a decoded chain violates the
    /// ISA rules.
    pub fn decode(mut buf: &[u8]) -> Result<Program, DecodeError> {
        if take(&mut buf) != Ok(*MAGIC) || take(&mut buf) != Ok([VERSION]) {
            return Err(DecodeError::BadHeader);
        }
        let n_segments = get_u32(&mut buf)?;
        let mut segments = Vec::with_capacity(n_segments.min(4096) as usize);
        for _ in 0..n_segments {
            let iterations = get_u32(&mut buf)?;
            let n_items = get_u32(&mut buf)?;
            let mut items = Vec::with_capacity(n_items.min(65536) as usize);
            for _ in 0..n_items {
                match get_u8(&mut buf)? {
                    TAG_SET_REG => items.push(Item::SetReg {
                        reg: get_reg(&mut buf)?,
                        value: get_u32(&mut buf)?,
                    }),
                    TAG_CHAIN => {
                        let n = u16::from_be_bytes(take(&mut buf)?);
                        let mut instrs = Vec::with_capacity(usize::from(n));
                        for _ in 0..n {
                            instrs.push(get_instruction(&mut buf)?);
                        }
                        let chain = Chain::new(instrs)
                            .map_err(|e| DecodeError::InvalidChain(e.to_string()))?;
                        items.push(Item::Chain(chain));
                    }
                    t => return Err(DecodeError::BadTag(t)),
                }
            }
            segments.push(Segment { items, iterations });
        }
        Ok(Program { segments })
    }
}

#[cfg(test)]
mod tests {
    use super::super::builder::ProgramBuilder;
    use super::*;

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.set_rows(4).set_cols(5);
        b.m_rd(MemId::Dram, 7)
            .m_wr(MemId::MatrixRf, 3)
            .end_chain()
            .unwrap();
        b.begin_loop(25).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(3)
            .vv_add(1)
            .v_sigm()
            .vv_mul(2)
            .v_tanh()
            .vv_max(9)
            .vv_a_sub_b(11)
            .vv_b_sub_a(12)
            .v_relu()
            .v_wr(MemId::AddSubVrf(1), 5)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        b.build()
    }

    #[test]
    fn round_trip_preserves_program() {
        let p = sample_program();
        let bytes = p.encode();
        let q = Program::decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn header_validation() {
        assert_eq!(Program::decode(b""), Err(DecodeError::BadHeader));
        assert_eq!(Program::decode(b"NOPE\x01"), Err(DecodeError::BadHeader));
        assert_eq!(Program::decode(b"BWNP\x63"), Err(DecodeError::BadHeader));
    }

    /// The deployed binary format, byte for byte.
    const SAMPLE_BINARY: &str = concat!(
        "42574e50010000000200000001000000030000000000040001000000050100020205000000000703",
        "0300000000030000001900000002010002000400000000000100000000000001000c000000000000",
        "00040000000305000000010b09000000020c0800000009060000000b070000000c0a010101000000",
        "0501040000000000",
    );

    #[test]
    fn encoding_is_pinned() {
        let hex: String = sample_program()
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, SAMPLE_BINARY);
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_program().encode();
        for cut in 0..bytes.len() {
            let want = if cut < 5 {
                DecodeError::BadHeader
            } else {
                DecodeError::Truncated
            };
            assert_eq!(Program::decode(&bytes[..cut]), Err(want), "cut at {cut}");
        }
        // Any one corrupted byte is rejected or decodes to a program that
        // round-trips; none panics.
        for (at, mask) in (0..bytes.len()).flat_map(|at| (1..=255u8).map(move |m| (at, m))) {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            if let Ok(q) = Program::decode(&flipped) {
                assert_eq!(
                    Program::decode(&q.encode()),
                    Ok(q),
                    "byte {at} ^ {mask:#04x}"
                );
            }
        }
    }

    #[test]
    fn corrupt_tag_detected() {
        let mut bytes = sample_program().encode();
        // Corrupt the first item tag (offset: 4 magic + 1 ver + 4 segs +
        // 4 iters + 4 items = 17).
        bytes[17] = 0xEE;
        assert_eq!(Program::decode(&bytes), Err(DecodeError::BadTag(0xEE)));
    }

    #[test]
    fn decoded_chains_are_revalidated() {
        // Hand-craft a binary whose chain is structurally invalid
        // (v_sigm with no read head).
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        buf.extend([0, 0, 0, 1]); // one segment
        buf.extend([0, 0, 0, 1]); // one iteration
        buf.extend([0, 0, 0, 1]); // one item
        buf.extend([TAG_CHAIN, 0, 1]); // of one instruction
        buf.push(11); // v_sigm
        let err = Program::decode(&buf).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidChain(_)));
    }

    #[test]
    fn empty_program_round_trips() {
        let p = Program::new();
        assert_eq!(Program::decode(&p.encode()).unwrap(), p);
    }
}
