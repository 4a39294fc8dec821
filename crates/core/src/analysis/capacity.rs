//! Capacity and structural checks: the toolflow's pre-deployment gate,
//! as [`Program::validate`] and as the [`CapacityPass`] diagnostics.
//!
//! A program that passes [`Program::validate`] against a configuration
//! will not hit capacity or structural faults at run time (network queue
//! underflow is inherently dynamic and is checked during execution). This
//! is the §II-B toolflow's final gate before an executable is "packaged
//! and deployed".

use crate::config::NpuConfig;
use crate::isa::{Chain, Instruction, Item, MemId, Program, ScalarReg};

use super::{walk, AnalysisPass, DiagCode, Diagnostic, PassContext, WalkMode};

/// A static validation failure, with the segment and item it occurred at.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidateError {
    /// Segment index within the program.
    pub segment: usize,
    /// Item index within the segment.
    pub item: usize,
    /// What is wrong.
    pub kind: ValidateErrorKind,
}

/// The kinds of static validation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidateErrorKind {
    /// A tiling register write of zero.
    ZeroRegister(
        /// The register.
        ScalarReg,
    ),
    /// A VRF access `[index, index+width)` exceeds the file's capacity.
    VrfOverflow {
        /// The accessed memory.
        mem: MemId,
        /// First entry.
        index: u32,
        /// Entries accessed.
        width: u32,
        /// Capacity in entries.
        capacity: u32,
    },
    /// An MRF access exceeds capacity.
    MrfOverflow {
        /// First entry.
        index: u32,
        /// Entries accessed (`rows × cols`).
        tiles: u32,
        /// Capacity in entries.
        capacity: u32,
    },
    /// An `AddSubVrf(i)`/`MultiplyVrf(i)` references a missing MFU.
    MissingMfu {
        /// The referenced memory.
        mem: MemId,
        /// MFUs available.
        mfus: u32,
    },
    /// A chain needs more function units of one kind than exist.
    MfuCapacity {
        /// `"add/sub"`, `"multiply"`, or `"activation"`.
        kind: &'static str,
        /// Units used by the chain.
        used: usize,
        /// Units available.
        available: u32,
    },
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "segment {} item {}: {}",
            self.segment, self.item, self.kind
        )
    }
}

impl std::fmt::Display for ValidateErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateErrorKind::ZeroRegister(reg) => write!(f, "register {reg} set to zero"),
            ValidateErrorKind::VrfOverflow {
                mem,
                index,
                width,
                capacity,
            } => write!(
                f,
                "{mem} access [{index}, {index}+{width}) exceeds capacity {capacity}"
            ),
            ValidateErrorKind::MrfOverflow {
                index,
                tiles,
                capacity,
            } => write!(
                f,
                "MRF access [{index}, {index}+{tiles}) exceeds capacity {capacity}"
            ),
            ValidateErrorKind::MissingMfu { mem, mfus } => {
                write!(f, "{mem} does not exist with {mfus} MFUs")
            }
            ValidateErrorKind::MfuCapacity {
                kind,
                used,
                available,
            } => write!(f, "chain uses {used} {kind} units, only {available} exist"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Capacity of the vector register file `mem`, or `None` when the config
/// lacks the MFU hosting it.
///
/// Only meaningful for VRF memories: callers gate on [`MemId::is_vrf`]
/// first (the single source of truth for VRF-ness), which keeps the
/// non-VRF arm unreachable — there is no sentinel capacity for NetQ, DRAM,
/// or the MRF.
fn vrf_capacity(config: &NpuConfig, mem: MemId) -> Option<u32> {
    debug_assert!(mem.is_vrf(), "vrf_capacity is only defined for VRFs");
    match mem {
        MemId::InitialVrf => Some(config.vrf_entries()),
        MemId::AddSubVrf(i) | MemId::MultiplyVrf(i) => {
            (u32::from(i) < config.mfus()).then(|| config.vrf_entries())
        }
        MemId::MatrixRf | MemId::NetQ | MemId::Dram => None,
    }
}

/// MFU operand files are addressed by an 8-bit index; chains with more
/// seen operands than that saturate (the per-kind capacity check has
/// already errored long before 256 MFUs could exist).
fn operand_file(seen: usize) -> u8 {
    u8::try_from(seen).unwrap_or(u8::MAX)
}

fn check_vrf(
    config: &NpuConfig,
    at: (usize, usize),
    mem: MemId,
    index: u32,
    width: u32,
    errors: &mut Vec<ValidateError>,
) {
    if !mem.is_vrf() {
        return;
    }
    let Some(capacity) = vrf_capacity(config, mem) else {
        errors.push(ValidateError {
            segment: at.0,
            item: at.1,
            kind: ValidateErrorKind::MissingMfu {
                mem,
                mfus: config.mfus(),
            },
        });
        return;
    };
    if u64::from(index) + u64::from(width) > u64::from(capacity) {
        errors.push(ValidateError {
            segment: at.0,
            item: at.1,
            kind: ValidateErrorKind::VrfOverflow {
                mem,
                index,
                width,
                capacity,
            },
        });
    }
}

fn check_mrf(
    config: &NpuConfig,
    at: (usize, usize),
    index: u32,
    tiles: u32,
    errors: &mut Vec<ValidateError>,
) {
    let capacity = config.mrf_entries();
    if u64::from(index) + u64::from(tiles) > u64::from(capacity) {
        errors.push(ValidateError {
            segment: at.0,
            item: at.1,
            kind: ValidateErrorKind::MrfOverflow {
                index,
                tiles,
                capacity,
            },
        });
    }
}

fn check_chain(
    config: &NpuConfig,
    at: (usize, usize),
    rows: u32,
    cols: u32,
    chain: &Chain,
    errors: &mut Vec<ValidateError>,
) {
    // MFU unit capacity.
    let mfus = config.mfus();
    for (kind, used) in [
        ("add/sub", chain.addsub_ops()),
        ("multiply", chain.multiply_ops()),
        ("activation", chain.activation_ops()),
    ] {
        if used > mfus as usize {
            errors.push(ValidateError {
                segment: at.0,
                item: at.1,
                kind: ValidateErrorKind::MfuCapacity {
                    kind,
                    used,
                    available: mfus,
                },
            });
        }
    }

    let has_mvm = chain.has_mv_mul();
    let w_in = if has_mvm { cols } else { rows };
    let w_out = rows;
    let mut addsub_seen: usize = 0;
    let mut multiply_seen: usize = 0;
    for instr in chain.instructions() {
        match *instr {
            Instruction::VRd { mem, index } => check_vrf(config, at, mem, index, w_in, errors),
            Instruction::VWr { mem, index } => check_vrf(config, at, mem, index, w_out, errors),
            Instruction::MvMul { mrf_index } => {
                check_mrf(config, at, mrf_index, rows.saturating_mul(cols), errors);
            }
            Instruction::MWr {
                mem: MemId::MatrixRf,
                index,
            } => check_mrf(config, at, index, rows.saturating_mul(cols), errors),
            Instruction::VvAdd { index }
            | Instruction::VvASubB { index }
            | Instruction::VvBSubA { index }
            | Instruction::VvMax { index } => {
                let mem = MemId::AddSubVrf(operand_file(addsub_seen));
                check_vrf(config, at, mem, index, w_out, errors);
                addsub_seen += 1;
            }
            Instruction::VvMul { index } => {
                let mem = MemId::MultiplyVrf(operand_file(multiply_seen));
                check_vrf(config, at, mem, index, w_out, errors);
                multiply_seen += 1;
            }
            _ => {}
        }
    }
}

impl Program {
    /// Statically validates every access of this program against a
    /// configuration, returning all violations (empty = clean).
    ///
    /// Register state is tracked through the stream as the scheduler
    /// would, with one deliberate divergence: a zero register write is
    /// reported and the *previous* value is retained for the rest of the
    /// walk, whereas the scheduler faults and stops at the bad `s_wr`.
    /// Downstream errors computed from the stale value are therefore
    /// hypothetical; the diagnostic pipeline records the divergence as a
    /// BW006 info note (see [`crate::analysis`]).
    ///
    /// [`CapacityPass`] reports the same findings as `BW00x`
    /// diagnostics by calling this method, so the two frontends cannot
    /// disagree. One static iteration per segment suffices because
    /// accesses do not change across iterations.
    pub fn validate(&self, config: &NpuConfig) -> Vec<ValidateError> {
        let mut errors = Vec::new();
        walk(self, WalkMode::Static, |step| {
            let at = (step.segment, step.item);
            match step.item_ref {
                Item::SetReg { reg, value } => {
                    if *value == 0 {
                        errors.push(ValidateError {
                            segment: at.0,
                            item: at.1,
                            kind: ValidateErrorKind::ZeroRegister(*reg),
                        });
                    }
                }
                Item::Chain(chain) => {
                    check_chain(config, at, step.rows, step.cols, chain, &mut errors);
                }
            }
        });
        errors
    }
}

/// BW001–BW006: capacity and structural checks as a diagnostic pass.
///
/// Runs [`Program::validate`], so the two frontends can never disagree;
/// each structured [`ValidateError`] becomes a diagnostic, and every rejected zero register write additionally gets
/// a BW006 info note recording the analyzer/scheduler divergence.
pub struct CapacityPass;

impl AnalysisPass for CapacityPass {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        for err in cx.program.validate(cx.config) {
            let code = match err.kind {
                ValidateErrorKind::ZeroRegister(_) => DiagCode::ZeroRegister,
                ValidateErrorKind::VrfOverflow { .. } => DiagCode::VrfOverflow,
                ValidateErrorKind::MrfOverflow { .. } => DiagCode::MrfOverflow,
                ValidateErrorKind::MissingMfu { .. } => DiagCode::MissingMfu,
                ValidateErrorKind::MfuCapacity { .. } => DiagCode::MfuCapacity,
            };
            let stale = match &err.kind {
                ValidateErrorKind::ZeroRegister(reg) => Some(format!(
                    "analysis continues with the previous {reg} value after the \
                     rejected zero write; the scheduler faults at dispatch instead, \
                     so later diagnostics in this report assume the stale value"
                )),
                _ => None,
            };
            let (segment, item) = (err.segment, err.item);
            out.push(Diagnostic::new(code, segment, item, err.kind.to_string()));
            if let Some(message) = stale {
                out.push(Diagnostic::new(
                    DiagCode::StaleRegister,
                    segment,
                    item,
                    message,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, Severity};
    use crate::isa::ProgramBuilder;

    fn cfg() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mfus(2)
            .mrf_entries(16)
            .vrf_entries(32)
            .build()
            .unwrap()
    }

    #[test]
    fn pass_mirrors_validate_errors() {
        let mut b = ProgramBuilder::new();
        b.set_rows(4);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 30) // 30..34 > 32
            .end_chain()
            .unwrap();
        let p = b.build();
        let errors = p.validate(&cfg());
        let report = analyze(&p, &cfg());
        let caps: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::VrfOverflow)
            .collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(caps.len(), 1);
        assert_eq!(
            (caps[0].segment, caps[0].item),
            (errors[0].segment, errors[0].item)
        );
        assert_eq!(caps[0].severity, Severity::Error);
    }

    #[test]
    fn zero_register_emits_error_and_stale_info() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.set_rows(0);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze(&b.build(), &cfg());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ZeroRegister && d.item == 2));
        let stale: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::StaleRegister)
            .collect();
        assert_eq!(stale.len(), 1);
        assert_eq!((stale[0].segment, stale[0].item), (0, 2));
        assert_eq!(stale[0].severity, Severity::Info);
    }

    #[test]
    fn non_vrf_memories_have_no_capacity() {
        let cfg = cfg();
        assert_eq!(vrf_capacity(&cfg, MemId::InitialVrf), Some(32));
        assert_eq!(vrf_capacity(&cfg, MemId::AddSubVrf(1)), Some(32));
        assert_eq!(vrf_capacity(&cfg, MemId::AddSubVrf(2)), None);
        assert_eq!(vrf_capacity(&cfg, MemId::MultiplyVrf(200)), None);
    }

    #[test]
    fn clean_program_validates() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .vv_add(4)
            .v_sigm()
            .v_wr(MemId::InitialVrf, 8)
            .end_chain()
            .unwrap();
        assert!(b.build().validate(&cfg()).is_empty());
    }

    #[test]
    fn vrf_overflow_detected_with_width() {
        let mut b = ProgramBuilder::new();
        b.set_rows(4); // width-4 writes
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 30) // 30..34 > 32
            .end_chain()
            .unwrap();
        let errors = b.build().validate(&cfg());
        assert_eq!(errors.len(), 1);
        assert!(matches!(
            errors[0].kind,
            ValidateErrorKind::VrfOverflow {
                index: 30,
                width: 4,
                capacity: 32,
                ..
            }
        ));
    }

    #[test]
    fn mrf_overflow_accounts_for_tiling() {
        let mut b = ProgramBuilder::new();
        b.set_rows(4).set_cols(4); // 16 tiles
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(1) // 1..17 > 16
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        let errors = b.build().validate(&cfg());
        assert!(errors.iter().any(|e| matches!(
            e.kind,
            ValidateErrorKind::MrfOverflow {
                index: 1,
                tiles: 16,
                ..
            }
        )));
    }

    #[test]
    fn missing_mfu_file_detected() {
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::AddSubVrf(5), 0)
            .end_chain()
            .unwrap();
        let errors = b.build().validate(&cfg());
        assert!(matches!(
            errors[0].kind,
            ValidateErrorKind::MissingMfu {
                mem: MemId::AddSubVrf(5),
                mfus: 2
            }
        ));
    }

    #[test]
    fn mfu_capacity_detected_statically() {
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::NetQ, 0)
            .v_tanh()
            .v_tanh()
            .v_tanh()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let errors = b.build().validate(&cfg());
        assert!(errors.iter().any(|e| matches!(
            e.kind,
            ValidateErrorKind::MfuCapacity {
                kind: "activation",
                used: 3,
                ..
            }
        )));
    }

    #[test]
    fn zero_register_detected() {
        let mut b = ProgramBuilder::new();
        b.set_rows(0);
        let errors = b.build().validate(&cfg());
        assert_eq!(
            errors[0].kind,
            ValidateErrorKind::ZeroRegister(ScalarReg::Rows)
        );
    }

    #[test]
    fn model_firmware_validates_against_sized_configs() {
        // The LSTM generator's own firmware must validate against a
        // configuration sized by its reported requirements.
        let base = cfg();
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.begin_loop(5).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .vv_add(0)
            .vv_mul(0)
            .v_wr(MemId::MultiplyVrf(1), 4)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        let p = b.build();
        assert!(p.validate(&base).is_empty());
        // Location metadata points at the right item.
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 99)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let errors = b.build().validate(&base);
        assert_eq!((errors[0].segment, errors[0].item), (0, 2));
    }

    #[test]
    fn mfu_capacity_handles_hundreds_of_ops_without_overflow() {
        // Regression: the operand-file counters used to be `u8` and would
        // wrap (panicking in debug builds) on chains with more than 255
        // vector-vector ops of one kind, before the MfuCapacity error was
        // ever reported.
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::NetQ, 0);
        for _ in 0..300 {
            b.vv_add(0);
            b.vv_mul(0);
        }
        b.v_wr(MemId::NetQ, 0).end_chain().unwrap();
        let errors = b.build().validate(&cfg());
        for kind in ["add/sub", "multiply"] {
            assert!(errors.iter().any(|e| matches!(
                e.kind,
                ValidateErrorKind::MfuCapacity {
                    kind: k,
                    used: 300,
                    ..
                } if k == kind
            )));
        }
    }
}
