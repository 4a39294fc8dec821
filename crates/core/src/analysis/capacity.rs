//! Capacity checks: the toolflow's pre-deployment gate, as
//! [`Program::validate`] and as its BW001–BW006 diagnostics.
//!
//! Every check is the timeline's own, called in the timeline's order over
//! the runtime walk, so the gate is the §II-B toolflow's guarantee before
//! an executable is "packaged and deployed": the contract, and why walking
//! a loop body twice is exact, is the scheduler's
//! [Faults](crate::sched#faults).

use crate::config::NpuConfig;
use crate::isa::{Chain, Instruction, Item, MemId, Program};
use crate::npu::SimError;
use crate::sched::{dram_span, mfu_units, mrf_span, reg_write, vrf_span, OperandFiles};

use super::{walk, AnalysisOptions, DiagCode, Diagnostic};

/// A capacity fault the timeline would raise, with the segment and item it
/// raises it at.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidateError {
    /// Segment index within the program.
    pub segment: usize,
    /// Item index within the segment.
    pub item: usize,
    /// The fault.
    pub fault: SimError,
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "segment {} item {}: {}",
            self.segment, self.item, self.fault
        )
    }
}

impl std::error::Error for ValidateError {}

/// Every capacity fault `chain` raises at `rows × cols`, in the order the
/// timeline raises them: the MFU units; then, in instruction order, the
/// head read, the `mv_mul` and the MFU operands; then the write targets.
/// A matrix chain checks its destination, then its source. NetQ pops are
/// skipped: they depend on what the host queued.
fn check_chain(
    config: &NpuConfig,
    rows: u32,
    cols: u32,
    chain: &Chain,
    fault: &mut impl FnMut(SimError),
) {
    // A matrix chain has no MFU operations, so this never faults for one.
    if let Err(e) = mfu_units(config, chain) {
        fault(e);
    }
    let mut check = |span: Option<SimError>| {
        if let Some(e) = span {
            fault(e);
        }
    };
    let tiles = u64::from(rows) * u64::from(cols);
    if chain.is_matrix_chain() {
        for instr in chain.instructions().iter().rev() {
            match *instr {
                Instruction::MWr {
                    mem: MemId::MatrixRf,
                    index,
                } => check(mrf_span(config, index, tiles).err()),
                Instruction::MWr {
                    mem: MemId::Dram,
                    index,
                }
                | Instruction::MRd {
                    mem: MemId::Dram,
                    index,
                } => check(dram_span(index, tiles).err()),
                _ => {}
            }
        }
        return;
    }
    let (w_in, w_out) = chain.widths(rows, cols);
    let mut operands = OperandFiles::default();
    for instr in chain.instructions() {
        match *instr {
            Instruction::VRd { mem, index } => match mem {
                MemId::NetQ => {}
                MemId::Dram => check(dram_span(index, u64::from(w_in)).err()),
                vrf => check(vrf_span(config, vrf, index, w_in).err()),
            },
            Instruction::MvMul { mrf_index } => check(mrf_span(config, mrf_index, tiles).err()),
            Instruction::VvAdd { index }
            | Instruction::VvASubB { index }
            | Instruction::VvBSubA { index }
            | Instruction::VvMax { index }
            | Instruction::VvMul { index } => {
                check(vrf_span(config, operands.next(instr), index, w_out).err());
            }
            _ => {}
        }
    }
    for (mem, index) in chain.write_targets() {
        match mem {
            MemId::NetQ => {}
            MemId::Dram => check(dram_span(index, u64::from(w_out)).err()),
            vrf => check(vrf_span(config, vrf, index, w_out).err()),
        }
    }
}

impl Program {
    /// Every capacity fault the timeline would raise running this program
    /// against a configuration, each located fault once, in the order the
    /// run meets them (empty = clean).
    ///
    /// The walk follows the run: segments that never run are skipped and
    /// loop bodies are walked twice (module docs). One deliberate
    /// divergence: after a zero register write the walk keeps the
    /// *previous* value, where the scheduler faults and stops. Faults
    /// found after one are therefore hypothetical; the diagnostic pipeline
    /// records that as a BW006 info note (see [`crate::analysis`]).
    ///
    /// The linter reports the same faults as `BW00x` diagnostics by
    /// calling this method, so the two frontends cannot disagree.
    pub fn validate(&self, config: &NpuConfig) -> Vec<ValidateError> {
        let mut errors = Vec::new();
        walk(self, |step| {
            let mut located = |fault| {
                let e = ValidateError {
                    segment: step.segment,
                    item: step.item,
                    fault,
                };
                if !errors.contains(&e) {
                    errors.push(e);
                }
            };
            match step.item_ref {
                Item::SetReg { reg, value } => {
                    if let Err(fault) = reg_write(*reg, *value) {
                        located(fault);
                    }
                }
                Item::Chain(chain) => {
                    check_chain(config, step.rows, step.cols, chain, &mut located);
                }
            }
        });
        errors
    }
}

/// BW001–BW006: capacity checks as diagnostics.
///
/// Runs [`Program::validate`], so the two frontends can never disagree;
/// each located fault becomes a diagnostic whose message is the fault's,
/// and every rejected zero register write additionally gets a BW006 info
/// note recording the analyzer/scheduler divergence.
pub(super) fn check(
    program: &Program,
    config: &NpuConfig,
    _: &AnalysisOptions,
    out: &mut Vec<Diagnostic>,
) {
    for err in program.validate(config) {
        let (segment, item) = (err.segment, err.item);
        let code = match err.fault {
            SimError::BadRegValue { .. } => DiagCode::ZeroRegister,
            SimError::VrfIndexOutOfRange { .. } | SimError::DramIndexOutOfRange { .. } => {
                DiagCode::VrfOverflow
            }
            SimError::MrfIndexOutOfRange { .. } => DiagCode::MrfOverflow,
            SimError::BadVrfFileIndex { .. } => DiagCode::MissingMfu,
            SimError::MfuCapacityExceeded { .. } => DiagCode::MfuCapacity,
            _ => unreachable!("validate raises capacity faults only"),
        };
        out.push(Diagnostic::new(code, segment, item, err.fault.to_string()));
        if let SimError::BadRegValue { reg } = err.fault {
            out.push(Diagnostic::new(
                DiagCode::StaleRegister,
                segment,
                item,
                format!(
                    "analysis continues with the previous {reg} value after the \
                     rejected zero write; the scheduler faults at dispatch instead, \
                     so later diagnostics in this report assume the stale value"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, Severity};
    use crate::isa::{ProgramBuilder, ScalarReg};

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
        assert_eq!(caps[0].message, errors[0].fault.to_string());
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
        assert_eq!(vrf_span(&cfg, MemId::InitialVrf, 0, 32), Ok((0, 0..32)));
        assert_eq!(vrf_span(&cfg, MemId::AddSubVrf(1), 0, 32), Ok((2, 0..32)));
        for mem in [
            MemId::AddSubVrf(2),
            MemId::MultiplyVrf(200),
            MemId::MatrixRf,
            MemId::NetQ,
            MemId::Dram,
        ] {
            let fault = SimError::BadVrfFileIndex { mem, mfus: 2 };
            assert_eq!(vrf_span(&cfg, mem, 0, 1), Err(fault));
        }
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
        assert_eq!(
            errors[0].fault,
            SimError::VrfIndexOutOfRange {
                file: "InitialVrf",
                index: 30,
                width: 4,
                capacity: 32,
            }
        );
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
        let fault = SimError::MrfIndexOutOfRange {
            index: 16,
            capacity: 16,
        };
        assert!(errors.iter().any(|e| e.fault == fault), "{errors:?}");
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
        assert_eq!(
            errors[0].fault,
            SimError::BadVrfFileIndex {
                mem: MemId::AddSubVrf(5),
                mfus: 2
            }
        );
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
            e.fault,
            SimError::MfuCapacityExceeded {
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
            errors[0].fault,
            SimError::BadRegValue {
                reg: ScalarReg::Rows
            }
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
        // ever reported. The units are checked first, as the timeline
        // checks them; each missing operand file is then reported once.
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::NetQ, 0);
        for _ in 0..300 {
            b.vv_add(0);
            b.vv_mul(0);
        }
        b.v_wr(MemId::NetQ, 0).end_chain().unwrap();
        let errors = b.build().validate(&cfg());
        assert_eq!(
            errors[0].fault,
            SimError::MfuCapacityExceeded {
                kind: "add/sub",
                used: 300,
                available: 2
            }
        );
        // AddSubVrf and MultiplyVrf 2..=255: one fault each.
        assert_eq!(errors.len(), 1 + 2 * 254, "{:?}", &errors[..3]);
    }
}
