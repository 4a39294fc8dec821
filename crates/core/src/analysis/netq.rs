//! Conservative static network-queue balance checking.
//!
//! The input queue is host-fed: the program only pops from it, so a purely
//! static check cannot prove underflow without knowing how much the host
//! pushes per run. [`super::AnalysisOptions`] declares those budgets; with
//! one declared, [`check`] accounts pushes and pops per segment across
//! loop iterations in closed form and reports the first item whose
//! cumulative pops exceed the budget:
//!
//! * **BW030** (error) — input vector pops can underflow the queue.
//! * **BW031** (error) — input matrix-tile pops can underflow the queue.
//! * **BW032** (info) — the program's output vector count differs from the
//!   declared expected count.
//!
//! The same count, [`count`], totals a whole run for the artifact checks
//! ([`traffic`]).

use crate::config::NpuConfig;
use crate::isa::{Instruction, Item, MemId, Program};

use super::{walk, AnalysisOptions, DiagCode, Diagnostic, Step};

/// Network-queue traffic: of one item at one register state, or summed
/// over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Traffic {
    /// Input vectors popped.
    pub(crate) vec_pops: u128,
    /// Input matrix tiles popped.
    pub(crate) mat_pops: u128,
    /// Output vectors pushed.
    pub(crate) vec_pushes: u128,
}

impl Traffic {
    /// The traffic of the item `step` visits, at the step's `rows × cols`:
    /// vector reads pop `w_in`, matrix reads pop `rows × cols` tiles,
    /// vector writes push `w_out` — each per NetQ-addressed instruction.
    fn at(step: &Step<'_>) -> Traffic {
        let mut t = Traffic::default();
        let Item::Chain(chain) = step.item_ref else {
            return t;
        };
        let (w_in, w_out) = chain.widths(step.rows, step.cols);
        for instr in chain.instructions() {
            match *instr {
                Instruction::VRd {
                    mem: MemId::NetQ, ..
                } => t.vec_pops += u128::from(w_in),
                Instruction::MRd {
                    mem: MemId::NetQ, ..
                } => t.mat_pops += u128::from(step.rows) * u128::from(step.cols),
                Instruction::VWr {
                    mem: MemId::NetQ, ..
                } => t.vec_pushes += u128::from(w_out),
                _ => {}
            }
        }
        t
    }
}

/// The one NetQ count. Hands `visit(segment, iteration, times, items)`
/// each walked iteration in runtime order — a segment's first, then its
/// second (1-based `iteration`, `times` 1) — and, for a loop of more, the
/// remaining `iterations − 2` at once: `iteration` 3, `times` that count.
/// They repeat the second exactly ([`walk`]: its register state is every
/// later iteration's). `items` are the iteration's items that touch the
/// queue, with their index and traffic.
fn count(program: &Program, mut visit: impl FnMut(usize, u128, u128, &[(usize, Traffic)])) {
    let mut items: Vec<(usize, Traffic)> = Vec::new();
    let mut current: Option<(usize, u32)> = None;
    let mut flush = |(segment, unroll): (usize, u32), items: &mut Vec<(usize, Traffic)>| {
        visit(segment, u128::from(unroll) + 1, 1, items);
        let rest = u128::from(program.segments[segment].iterations).saturating_sub(2);
        if unroll == 1 && rest > 0 {
            visit(segment, 3, rest, items);
        }
        items.clear();
    };
    walk(program, |step| {
        let at = (step.segment, step.unroll);
        if current != Some(at) {
            if let Some(done) = current.replace(at) {
                flush(done, &mut items);
            }
        }
        let t = Traffic::at(step);
        if t != Traffic::default() {
            items.push((step.item, t));
        }
    });
    if let Some(done) = current {
        flush(done, &mut items);
    }
}

/// Whole-run network-queue traffic of a program: the totals the artifact
/// checks compare against peer supply (see [`super::artifact`]).
pub(crate) fn traffic(program: &Program) -> Traffic {
    let mut total = Traffic::default();
    count(program, |_, _, times, items| {
        for (_, t) in items {
            total.vec_pops += times * t.vec_pops;
            total.mat_pops += times * t.mat_pops;
            total.vec_pushes += times * t.vec_pushes;
        }
    });
    total
}

/// Running balance of one pop stream against an optional budget (none:
/// the stream is not checked).
struct PopStream {
    budget: Option<u64>,
    total: u128,
    flagged: bool,
    code: DiagCode,
    what: &'static str,
    pops: fn(&Traffic) -> u128,
}

impl PopStream {
    /// Accounts `times` runs of one iteration's `items`, the first of
    /// them iteration `iteration` of `segment`: as many whole runs as fit
    /// the budget at once, then, if one does not, that run item by item
    /// to flag the pop that underflows. A flagged stream stops counting.
    fn run(
        &mut self,
        segment: usize,
        iteration: u128,
        times: u128,
        items: &[(usize, Traffic)],
        out: &mut Vec<Diagnostic>,
    ) {
        let Some(budget) = self.budget else {
            return;
        };
        let per_run: u128 = items.iter().map(|(_, t)| (self.pops)(t)).sum();
        if self.flagged || per_run == 0 {
            return;
        }
        let headroom = u128::from(budget).saturating_sub(self.total);
        let fit = (headroom / per_run).min(times);
        self.total += fit * per_run;
        if fit == times {
            return;
        }
        for (item, t) in items {
            let pops = (self.pops)(t);
            self.total += pops;
            if self.total > u128::from(budget) {
                self.flagged = true;
                out.push(Diagnostic::new(
                    self.code,
                    segment,
                    *item,
                    format!(
                        "pop of {pops} {what} on iteration {iteration} raises total \
                         consumption to {total}, but the host only provides {budget} \
                         per run — the queue underflows here",
                        what = self.what,
                        iteration = iteration + fit,
                        total = self.total,
                    ),
                ));
                return;
            }
        }
    }
}

/// BW030–BW032: static push/pop accounting for the network queues.
pub(super) fn check(
    program: &Program,
    _: &NpuConfig,
    options: &AnalysisOptions,
    out: &mut Vec<Diagnostic>,
) {
    let stream = |budget, code, what, pops| PopStream {
        budget,
        total: 0,
        flagged: false,
        code,
        what,
        pops,
    };
    let mut vectors = stream(
        options.netq_input_vectors,
        DiagCode::NetUnderflow,
        "input vectors",
        |t: &Traffic| t.vec_pops,
    );
    let mut matrices = stream(
        options.netq_input_matrices,
        DiagCode::NetMatrixUnderflow,
        "input matrix tiles",
        |t: &Traffic| t.mat_pops,
    );
    let mut pushed: u128 = 0;
    let mut last_push: Option<(usize, usize)> = None;
    count(program, |segment, iteration, times, items| {
        vectors.run(segment, iteration, times, items, out);
        matrices.run(segment, iteration, times, items, out);
        for (item, t) in items {
            if t.vec_pushes > 0 {
                pushed += times * t.vec_pushes;
                last_push = Some((segment, *item));
            }
        }
    });

    if let Some(expected) = options.netq_expected_outputs {
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
            AnalysisOptions {
                netq_input_matrices: Some(7),
                ..AnalysisOptions::default()
            },
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
