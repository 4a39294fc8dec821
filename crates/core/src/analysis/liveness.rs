//! Def-use and liveness analysis over VRF address ranges.
//!
//! Walks the program in runtime order (looped segments unrolled twice so
//! loop-carried dependences resolve) tracking, per VRF entry, the last
//! write and whether anything read it since. Three findings result:
//!
//! * **BW010** (error) — a read of entries that no program write ever
//!   covers and that are not declared host-preloaded: the chain computes
//!   with power-on zeros.
//! * **BW011** (warning) — a write that is overwritten, or survives to the
//!   end of the program, without ever being read: dead storage traffic.
//! * **BW012** (info) — a read that precedes the entry's first write in
//!   program order (typically loop-carried recurrent state); the first
//!   iteration observes reset contents.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::config::NpuConfig;
use crate::isa::{Chain, Instruction, Item, MemId, Program};
use crate::sched::{vrf_file, OperandFiles};

use super::{format_ranges, walk, AnalysisOptions, DiagCode, Diagnostic};

/// One VRF range touched by a chain, in instruction order.
enum Access {
    Read { mem: MemId, start: u32, width: u32 },
    Write { mem: MemId, start: u32, width: u32 },
}

/// Collects the VRF ranges `chain` touches under the given register state,
/// in pipeline order. MFU operand reads are in the scheduler's files
/// ([`OperandFiles`]); operands addressed to MFUs the config lacks are
/// skipped here (the capacity check already errors on them).
fn chain_accesses(chain: &Chain, rows: u32, cols: u32, mfus: u32) -> Vec<Access> {
    let (w_in, w_out) = chain.widths(rows, cols);
    let mut operands = OperandFiles::default();
    let mut out = Vec::new();
    for instr in chain.instructions() {
        match *instr {
            Instruction::VRd { mem, index } if mem.is_vrf() => out.push(Access::Read {
                mem,
                start: index,
                width: w_in,
            }),
            Instruction::VWr { mem, index } if mem.is_vrf() => out.push(Access::Write {
                mem,
                start: index,
                width: w_out,
            }),
            Instruction::VvAdd { index }
            | Instruction::VvASubB { index }
            | Instruction::VvBSubA { index }
            | Instruction::VvMax { index }
            | Instruction::VvMul { index } => {
                let mem = operands.next(instr);
                if vrf_file(mem, mfus).is_ok() {
                    out.push(Access::Read {
                        mem,
                        start: index,
                        width: w_out,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

struct WriteRec {
    segment: usize,
    item: usize,
    read: bool,
}

/// BW010–BW012: def-use/liveness over VRF address ranges.
pub(super) fn check(
    program: &Program,
    config: &NpuConfig,
    options: &AnalysisOptions,
    out: &mut Vec<Diagnostic>,
) {
    let mfus = config.mfus();
    // Per-entry tracking is clamped to the file capacity: entries past
    // the end of a VRF are the capacity check's BW002 territory, and
    // clamping keeps corrupt (e.g. bit-flipped) programs from inflating
    // the entry sets.
    let cap = config.vrf_entries();
    let clamp = move |start: u32, width: u32| start.min(cap)..start.saturating_add(width).min(cap);

    let preloaded: HashSet<(MemId, u32)> = options
        .preloaded
        .iter()
        .filter(|r| r.mem.is_vrf())
        .flat_map(|r| clamp(r.start, r.len).map(move |e| (r.mem, e)))
        .collect();

    // Phase 0: which entries does the whole program ever read or write?
    let mut ever_read: HashSet<(MemId, u32)> = HashSet::new();
    let mut ever_written: HashSet<(MemId, u32)> = HashSet::new();
    walk(program, |step| {
        if let Item::Chain(chain) = step.item_ref {
            for access in chain_accesses(chain, step.rows, step.cols, mfus) {
                match access {
                    Access::Read { mem, start, width } => {
                        ever_read.extend(clamp(start, width).map(|e| (mem, e)));
                    }
                    Access::Write { mem, start, width } => {
                        ever_written.extend(clamp(start, width).map(|e| (mem, e)));
                    }
                }
            }
        }
    });

    // Phase 1: def-use walk. Findings are grouped per offending site
    // and memory so each diagnostic covers a compact entry range.
    let mut last_write: HashMap<(MemId, u32), WriteRec> = HashMap::new();
    let mut uninit: BTreeMap<(usize, usize, MemId, bool), BTreeSet<u32>> = BTreeMap::new();
    let mut dead: BTreeMap<(usize, usize, MemId), BTreeSet<u32>> = BTreeMap::new();
    walk(program, |step| {
        let Item::Chain(chain) = step.item_ref else {
            return;
        };
        for access in chain_accesses(chain, step.rows, step.cols, mfus) {
            match access {
                Access::Read { mem, start, width } => {
                    for e in clamp(start, width) {
                        if let Some(rec) = last_write.get_mut(&(mem, e)) {
                            rec.read = true;
                        } else if !preloaded.contains(&(mem, e)) && step.unroll == 0 {
                            // Unwritten at the second unrolled copy
                            // implies unwritten at the first, so the
                            // site was already recorded then.
                            let written_later = ever_written.contains(&(mem, e));
                            uninit
                                .entry((step.segment, step.item, mem, written_later))
                                .or_default()
                                .insert(e);
                        }
                    }
                }
                Access::Write { mem, start, width } => {
                    for e in clamp(start, width) {
                        let rec = WriteRec {
                            segment: step.segment,
                            item: step.item,
                            read: false,
                        };
                        if let Some(prev) = last_write.insert((mem, e), rec) {
                            if !prev.read {
                                dead.entry((prev.segment, prev.item, mem))
                                    .or_default()
                                    .insert(e);
                            }
                        }
                    }
                }
            }
        }
    });

    // Final writes that nothing in the whole program ever reads. (A
    // final write to an entry read earlier in the loop body is live
    // state for the next run, not a dead store.)
    for ((mem, e), rec) in &last_write {
        if !rec.read && !ever_read.contains(&(*mem, *e)) {
            dead.entry((rec.segment, rec.item, *mem))
                .or_default()
                .insert(*e);
        }
    }

    for ((segment, item, mem, written_later), entries) in uninit {
        let ranges = format_ranges(entries);
        if written_later {
            out.push(Diagnostic::new(
                DiagCode::ReadBeforeWrite,
                segment,
                item,
                format!(
                    "{mem}{ranges} is read before its first write; the first \
                     iteration observes reset (zero) contents — declare the \
                     range preloaded if the host initializes it"
                ),
            ));
        } else {
            out.push(Diagnostic::new(
                DiagCode::UninitializedRead,
                segment,
                item,
                format!(
                    "{mem}{ranges} is read but never written by the program \
                     and not declared host-preloaded"
                ),
            ));
        }
    }
    for ((segment, item, mem), entries) in dead {
        let ranges = format_ranges(entries);
        out.push(Diagnostic::new(
            DiagCode::DeadStore,
            segment,
            item,
            format!("dead store: {mem}{ranges} written here is never read"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::{analyze_with, AnalysisOptions, DiagCode};
    use crate::config::NpuConfig;
    use crate::isa::{MemId, ProgramBuilder};

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

    fn base_options() -> AnalysisOptions {
        AnalysisOptions::default().with_input_vectors(1_000)
    }

    #[test]
    fn uninitialized_read_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2);
        b.v_rd(MemId::InitialVrf, 4)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), base_options());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::UninitializedRead)
            .expect("BW010 expected");
        assert_eq!((d.segment, d.item), (0, 1));
        assert!(d.message.contains("InitialVrf[4..6]"), "{}", d.message);
    }

    #[test]
    fn preloaded_ranges_suppress_uninitialized_read() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2);
        b.v_rd(MemId::InitialVrf, 4)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(
            &b.build(),
            &cfg(),
            base_options().preload(MemId::InitialVrf, 4, 2),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn overwritten_store_without_read_warns() {
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 7)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 7)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 7)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(&b.build(), &cfg(), base_options());
        let dead: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::DeadStore)
            .collect();
        assert_eq!(dead.len(), 1, "{report}");
        // The first write is the dead one.
        assert_eq!((dead[0].segment, dead[0].item), (0, 1));
    }

    #[test]
    fn loop_carried_read_keeps_store_live() {
        // Writes h at the loop tail, reads it at the loop head: live.
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.begin_loop(4).unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        let report = analyze_with(
            &b.build(),
            &cfg(),
            base_options().preload(MemId::InitialVrf, 0, 1),
        );
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == DiagCode::DeadStore),
            "{report}"
        );
    }

    #[test]
    fn read_before_write_is_an_info() {
        // Recurrent state read at the head, written at the tail, with no
        // declared preload: first iteration sees zeros.
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.begin_loop(4).unwrap();
        b.v_rd(MemId::InitialVrf, 3)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 3)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        let report = analyze_with(&b.build(), &cfg(), base_options());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::ReadBeforeWrite)
            .expect("BW012 expected");
        assert_eq!((d.segment, d.item), (1, 0));
        assert!(
            report.is_clean(),
            "info must not dirty the report: {report}"
        );
    }

    #[test]
    fn operand_reads_track_mfu_file_assignment() {
        // The second add/sub-family op reads AddSubVrf(1); only that file's
        // entries should be flagged.
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::NetQ, 0)
            .vv_add(2)
            .vv_max(9)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(
            &b.build(),
            &cfg(),
            base_options().preload(MemId::AddSubVrf(0), 2, 1),
        );
        let uninit: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::UninitializedRead)
            .collect();
        assert_eq!(uninit.len(), 1, "{report}");
        assert!(
            uninit[0].message.contains("AddSubVrf1[9..10]"),
            "{}",
            uninit[0].message
        );
    }
}
