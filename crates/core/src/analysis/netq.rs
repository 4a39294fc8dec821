//! Conservative static network-queue balance checking.
//!
//! The input queue is host-fed: the program only pops from it, so a purely
//! static pass cannot prove underflow without knowing how much the host
//! pushes per run. [`super::AnalysisOptions`] declares those budgets; with
//! one declared, this pass accounts pushes and pops per segment across
//! loop iterations in closed form and reports the first item whose
//! cumulative pops exceed the budget:
//!
//! * **BW030** (error) — input vector pops can underflow the queue.
//! * **BW031** (error) — input matrix-tile pops can underflow the queue.
//! * **BW032** (info) — the program's output vector count differs from the
//!   declared expected count.

use crate::isa::{Instruction, Item, MemId, ScalarReg};

use super::{AnalysisPass, DiagCode, Diagnostic, PassContext};

/// Network-queue traffic of one item under the current register state.
#[derive(Clone, Copy, Default)]
struct Traffic {
    vec_pops: u64,
    mat_pops: u64,
    vec_pushes: u64,
}

/// Whole-run network-queue traffic of a program: the closed-form totals
/// the artifact-level passes compare against peer supply (see
/// [`super::artifact`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TrafficTotals {
    pub(crate) vec_pops: u128,
    pub(crate) mat_pops: u128,
    pub(crate) vec_pushes: u128,
}

/// Totals a program's NetQ traffic across all segments and iterations in
/// closed form: the first two iterations of each segment are walked
/// explicitly (register state stabilizes after one pass), the rest are
/// multiplied out.
pub(crate) fn program_traffic(program: &crate::isa::Program) -> TrafficTotals {
    let mut rows = 1u32;
    let mut cols = 1u32;
    let mut totals = TrafficTotals::default();
    for segment in &program.segments {
        if segment.iterations == 0 {
            continue;
        }
        let explicit = u128::from(segment.iterations.min(2));
        let mut stable = Traffic::default();
        for _ in 0..explicit {
            stable = Traffic::default();
            for item in &segment.items {
                let t = item_traffic(item, &mut rows, &mut cols);
                totals.vec_pops += u128::from(t.vec_pops);
                totals.mat_pops += u128::from(t.mat_pops);
                totals.vec_pushes += u128::from(t.vec_pushes);
                stable.vec_pops += t.vec_pops;
                stable.mat_pops += t.mat_pops;
                stable.vec_pushes += t.vec_pushes;
            }
        }
        let rest = u128::from(segment.iterations) - explicit;
        totals.vec_pops += rest * u128::from(stable.vec_pops);
        totals.mat_pops += rest * u128::from(stable.mat_pops);
        totals.vec_pushes += rest * u128::from(stable.vec_pushes);
    }
    totals
}

/// Mirrors the scheduler's register updates while computing an item's
/// queue traffic: vector reads pop `w_in`, matrix reads pop `rows × cols`
/// tiles, vector writes push `w_out` — each per NetQ-addressed
/// instruction.
fn item_traffic(item: &Item, rows: &mut u32, cols: &mut u32) -> Traffic {
    let mut t = Traffic::default();
    match item {
        Item::SetReg { reg, value } => {
            if *value != 0 {
                match reg {
                    ScalarReg::Rows => *rows = *value,
                    ScalarReg::Cols => *cols = *value,
                }
            }
        }
        Item::Chain(chain) => {
            let (w_in, w_out) = chain.widths(*rows, *cols);
            for instr in chain.instructions() {
                match *instr {
                    Instruction::VRd {
                        mem: MemId::NetQ, ..
                    } => t.vec_pops += u64::from(w_in),
                    Instruction::MRd {
                        mem: MemId::NetQ, ..
                    } => {
                        t.mat_pops += u64::from(*rows) * u64::from(*cols);
                    }
                    Instruction::VWr {
                        mem: MemId::NetQ, ..
                    } => t.vec_pushes += u64::from(w_out),
                    _ => {}
                }
            }
        }
    }
    t
}

/// Running balance of one pop stream against an optional budget.
struct PopStream {
    budget: Option<u64>,
    total: u128,
    flagged: bool,
    code: DiagCode,
    what: &'static str,
}

impl PopStream {
    fn new(budget: Option<u64>, code: DiagCode, what: &'static str) -> Self {
        PopStream {
            budget,
            total: 0,
            flagged: false,
            code,
            what,
        }
    }

    /// Accounts `pops` at `(segment, item)` during `iteration` (1-based),
    /// flagging the first prefix that exceeds the budget.
    fn pop(
        &mut self,
        pops: u64,
        segment: usize,
        item: usize,
        iteration: u128,
        out: &mut Vec<Diagnostic>,
    ) {
        if pops == 0 || self.flagged {
            return;
        }
        self.total += u128::from(pops);
        if let Some(budget) = self.budget {
            if self.total > u128::from(budget) {
                self.flagged = true;
                out.push(Diagnostic::new(
                    self.code,
                    segment,
                    item,
                    format!(
                        "pop of {pops} {what} on iteration {iteration} raises total \
                         consumption to {total}, but the host only provides {budget} \
                         per run — the queue underflows here",
                        what = self.what,
                        total = self.total,
                    ),
                ));
            }
        }
    }

    /// How many more full iterations of `per_iter` pops fit in the budget,
    /// capped at `count`. Flagged or unbudgeted streams never constrain.
    fn fits(&self, per_iter: u64, count: u128) -> u128 {
        if per_iter == 0 || self.flagged {
            return count;
        }
        match self.budget {
            Some(budget) => {
                let headroom = u128::from(budget).saturating_sub(self.total);
                (headroom / u128::from(per_iter)).min(count)
            }
            None => count,
        }
    }

    /// Accounts `count` full iterations of `per_iter` pops at once.
    fn advance(&mut self, per_iter: u64, count: u128) {
        if !self.flagged {
            self.total += count * u128::from(per_iter);
        }
    }
}

/// BW030–BW032: static push/pop accounting for the network queues.
pub struct NetQueuePass;

impl AnalysisPass for NetQueuePass {
    fn name(&self) -> &'static str {
        "netq-balance"
    }

    fn run(&self, cx: &PassContext<'_>, out: &mut Vec<Diagnostic>) {
        let mut rows = 1u32;
        let mut cols = 1u32;
        let mut vectors = PopStream::new(
            cx.options.netq_input_vectors,
            DiagCode::NetUnderflow,
            "input vectors",
        );
        let mut matrices = PopStream::new(
            cx.options.netq_input_matrices,
            DiagCode::NetMatrixUnderflow,
            "input matrix tiles",
        );
        let mut pushed: u128 = 0;
        let mut last_push: Option<(usize, usize)> = None;

        for (si, segment) in cx.program.segments.iter().enumerate() {
            if segment.iterations == 0 {
                continue;
            }
            // Walk the first two iterations explicitly: the first runs
            // under inherited register state, the second under the
            // segment's own (stabilized) state. Later iterations repeat
            // the second exactly, so they are accounted in closed form.
            let explicit = u128::from(segment.iterations.min(2));
            let mut stable = Traffic::default();
            for iteration in 0..explicit {
                stable = Traffic::default();
                for (ii, item) in segment.items.iter().enumerate() {
                    let t = item_traffic(item, &mut rows, &mut cols);
                    vectors.pop(t.vec_pops, si, ii, iteration + 1, out);
                    matrices.pop(t.mat_pops, si, ii, iteration + 1, out);
                    if t.vec_pushes > 0 {
                        pushed += u128::from(t.vec_pushes);
                        last_push = Some((si, ii));
                    }
                    stable.vec_pops += t.vec_pops;
                    stable.mat_pops += t.mat_pops;
                    stable.vec_pushes += t.vec_pushes;
                }
            }
            let rest = u128::from(segment.iterations) - explicit;
            // Both streams advance through the remaining iterations in
            // lockstep (the min of what fits each budget); whenever a
            // stream would underflow, that one iteration is replayed
            // item-by-item under the stabilized register state to find the
            // offending item, then bulk accounting resumes.
            let mut remaining = rest;
            while remaining > 0 {
                let fit = vectors
                    .fits(stable.vec_pops, remaining)
                    .min(matrices.fits(stable.mat_pops, remaining));
                vectors.advance(stable.vec_pops, fit);
                matrices.advance(stable.mat_pops, fit);
                remaining -= fit;
                if remaining == 0 {
                    break;
                }
                let iteration = explicit + (rest - remaining) + 1;
                for (ii, item) in segment.items.iter().enumerate() {
                    let t = item_traffic(item, &mut rows, &mut cols);
                    vectors.pop(t.vec_pops, si, ii, iteration, out);
                    matrices.pop(t.mat_pops, si, ii, iteration, out);
                }
                remaining -= 1;
            }
            pushed += rest * u128::from(stable.vec_pushes);
        }

        if let Some(expected) = cx.options.netq_expected_outputs {
            if pushed != u128::from(expected) {
                let (segment, item) = last_push.unwrap_or((0, 0));
                out.push(Diagnostic::new(
                    DiagCode::NetOutputMismatch,
                    segment,
                    item,
                    format!(
                        "program pushes {pushed} output vectors per run, but the \
                         host expects {expected}"
                    ),
                ));
            }
        }
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

    #[test]
    fn balanced_loop_is_clean() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2);
        b.begin_loop(10).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        let report = analyze_with(
            &b.build(),
            &cfg(),
            AnalysisOptions::default()
                .with_input_vectors(20)
                .with_expected_outputs(20),
        );
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.info_count(), 0, "{report}");
    }

    #[test]
    fn prefix_underflow_reports_iteration_and_item() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2);
        b.begin_loop(100).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.end_loop().unwrap();
        // 2 vectors per iteration, 13 provided: iteration 7 pops past 13.
        let report = analyze_with(
            &b.build(),
            &cfg(),
            AnalysisOptions::default().with_input_vectors(13),
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::NetUnderflow)
            .expect("BW030 expected");
        assert_eq!((d.segment, d.item), (1, 0));
        assert!(d.message.contains("iteration 7"), "{}", d.message);
    }

    #[test]
    fn underflow_in_first_iterations_is_found_explicitly() {
        let mut b = ProgramBuilder::new();
        b.set_rows(4);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(
            &b.build(),
            &cfg(),
            AnalysisOptions::default().with_input_vectors(6),
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::NetUnderflow)
            .expect("BW030 expected");
        // First chain pops 4 of 6; the second item's pop crosses the line.
        assert_eq!((d.segment, d.item), (0, 2));
    }

    #[test]
    fn matrix_pops_are_accounted_in_tiles() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 0)
            .end_chain()
            .unwrap();
        b.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 4)
            .end_chain()
            .unwrap();
        let report = analyze_with(
            &b.build(),
            &cfg(),
            AnalysisOptions::default().with_input_matrices(7),
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::NetMatrixUnderflow)
            .expect("BW031 expected");
        assert_eq!((d.segment, d.item), (0, 3));
    }

    #[test]
    fn output_mismatch_is_an_info() {
        let mut b = ProgramBuilder::new();
        b.set_rows(3);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze_with(
            &b.build(),
            &cfg(),
            AnalysisOptions::default()
                .with_input_vectors(3)
                .with_expected_outputs(4),
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::NetOutputMismatch)
            .expect("BW032 expected");
        assert!(d.message.contains("pushes 3"), "{}", d.message);
        assert!(report.is_clean(), "{report}");
    }
}
