//! Aggregation of execution traces into a bottleneck report.
//!
//! [`ChainTrace`](crate::ChainTrace) records are per-chain; this module
//! rolls them up into the questions a performance engineer asks of the
//! pipeline: where did the cycles go, which resource was the bottleneck,
//! and how much latency did data dependencies expose.

use std::collections::BTreeMap;

use crate::npu::{ChainKind, ChainTrace};

/// Rolled-up statistics for one chain kind.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KindSummary {
    /// Chains of this kind.
    pub chains: u64,
    /// Total cycles the kind occupied its resource.
    pub busy_cycles: u64,
    /// Total cycles chains of this kind started later than their
    /// dependencies alone required (resource/dispatch waits).
    pub resource_wait_cycles: u64,
    /// Total cycles chains of this kind waited on data after dispatch,
    /// `min(dep_ready − dispatched, start − dispatched)` per chain, whether
    /// or not their resource was free by then. So a chain whose data was
    /// ready at cycle 10 and whose resource freed at 20 counts 10 here,
    /// where [`RunStats::dep_stall_cycles`](crate::RunStats::dep_stall_cycles)
    /// counts none: it charges a wait to data only when data is the last
    /// edge.
    pub dep_wait_cycles: u64,
}

/// A whole-trace summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Per-kind rollups, in a stable order.
    pub kinds: BTreeMap<String, KindSummary>,
    /// The last completion cycle in the trace.
    pub end_cycle: u64,
    /// The single chain exposing the most dependence latency, as
    /// `(trace_index, exposed_cycles)`.
    pub worst_dep_stall: Option<(usize, u64)>,
}

impl TraceSummary {
    /// Builds a summary from a trace (empty traces summarize to zeros).
    pub fn from_trace(trace: &[ChainTrace]) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for (i, t) in trace.iter().enumerate() {
            let name = match t.kind {
                ChainKind::Mvm => "mvm",
                ChainKind::Mfu => "mfu",
                ChainKind::Move => "move",
                ChainKind::MatrixMove => "matrix-move",
            };
            let entry = summary.kinds.entry(name.to_owned()).or_default();
            entry.chains += 1;
            entry.busy_cycles += t.occupancy;
            // Start beyond the dependency-implied earliest start is
            // resource/dispatch wait; start attributable to dependencies
            // beyond the dispatch point is dependence-exposed latency.
            entry.resource_wait_cycles +=
                t.start.saturating_sub(t.dep_ready_at.max(t.dispatched_at));
            let dep_exposed = t
                .dep_ready_at
                .saturating_sub(t.dispatched_at)
                .min(t.start - t.dispatched_at.min(t.start));
            entry.dep_wait_cycles += dep_exposed;
            if dep_exposed > 0
                && summary
                    .worst_dep_stall
                    .is_none_or(|(_, worst)| dep_exposed > worst)
            {
                summary.worst_dep_stall = Some((i, dep_exposed));
            }
            summary.end_cycle = summary.end_cycle.max(t.completion);
        }
        summary
    }

    /// Fraction of the run the given kind kept its resource busy.
    pub fn occupancy(&self, kind: &str) -> f64 {
        if self.end_cycle == 0 {
            return 0.0;
        }
        self.kinds
            .get(kind)
            .map(|k| k.busy_cycles as f64 / self.end_cycle as f64)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{MemId, ProgramBuilder};
    use crate::{Npu, NpuConfig};

    fn traced_run() -> (Vec<ChainTrace>, TraceSummary) {
        let cfg = NpuConfig::builder()
            .native_dim(4)
            .lanes(2)
            .tile_engines(2)
            .mrf_entries(16)
            .vrf_entries(32)
            .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap();
        let mut npu = Npu::new(cfg);
        let n = 4;
        let mut ident = vec![0.0f32; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        npu.load_tiled_matrix(0, 1, 1, n, n, &ident).unwrap();
        npu.set_trace(true);
        npu.push_input(vec![1.0; 4]).unwrap();
        let mut b = ProgramBuilder::new();
        b.set_rows(1).set_cols(1);
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::InitialVrf, 0)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 0)
            .mv_mul(0)
            .v_wr(MemId::InitialVrf, 1)
            .end_chain()
            .unwrap();
        b.v_rd(MemId::InitialVrf, 1)
            .v_tanh()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        npu.run(&b.build()).unwrap();
        let trace = npu.take_trace();
        let summary = TraceSummary::from_trace(&trace);
        (trace, summary)
    }

    #[test]
    fn summary_counts_every_kind_once() {
        let (trace, summary) = traced_run();
        assert_eq!(trace.len(), 3);
        assert_eq!(summary.kinds.len(), 3);
        for kind in ["move", "mvm", "mfu"] {
            assert_eq!(summary.kinds[kind].chains, 1, "{kind}");
            assert!(summary.kinds[kind].busy_cycles > 0, "{kind}");
        }
        assert_eq!(
            summary.end_cycle,
            trace.iter().map(|t| t.completion).max().unwrap()
        );
    }

    #[test]
    fn dependence_stalls_are_attributed() {
        let (_, summary) = traced_run();
        // The serial copy -> mv_mul -> tanh program exposes dependence
        // latency at each downstream chain.
        let total_dep: u64 = summary.kinds.values().map(|k| k.dep_wait_cycles).sum();
        assert!(total_dep > 0);
        assert!(summary.worst_dep_stall.is_some());
        let (idx, stall) = summary.worst_dep_stall.unwrap();
        assert!(idx > 0, "the head chain has no dependencies");
        assert!(stall > 0);
    }

    #[test]
    fn occupancy_fractions_are_bounded() {
        let (_, summary) = traced_run();
        for kind in ["move", "mvm", "mfu"] {
            let f = summary.occupancy(kind);
            assert!((0.0..=1.0).contains(&f), "{kind}: {f}");
        }
        assert_eq!(summary.occupancy("nonexistent"), 0.0);
    }

    /// A handcrafted record: dispatched at `dispatch`, dependencies ready
    /// at `dep`, started at `start`, occupying `occ` cycles.
    fn rec(kind: ChainKind, dispatch: u64, dep: u64, start: u64, occ: u64) -> ChainTrace {
        ChainTrace {
            kind,
            dispatched_at: dispatch,
            dep_ready_at: dep,
            start,
            occupancy: occ,
            completion: start + occ,
        }
    }

    #[test]
    fn worst_dep_stall_keeps_the_first_on_ties() {
        // Records 1 and 2 both expose 10 cycles of dependence latency;
        // the strict `>` comparison must keep the earlier index.
        let trace = vec![
            rec(ChainKind::Mvm, 0, 0, 0, 4),
            rec(ChainKind::Mvm, 4, 14, 14, 4),
            rec(ChainKind::Mfu, 18, 28, 28, 4),
            rec(ChainKind::Mfu, 32, 37, 37, 4), // smaller stall: ignored
        ];
        let summary = TraceSummary::from_trace(&trace);
        assert_eq!(summary.worst_dep_stall, Some((1, 10)));
        // A strictly larger stall later does displace the winner.
        let mut bigger = trace;
        bigger.push(rec(ChainKind::Mvm, 41, 60, 60, 4));
        let summary = TraceSummary::from_trace(&bigger);
        assert_eq!(summary.worst_dep_stall, Some((4, 19)));
    }

    #[test]
    fn single_kind_trace_rolls_up_into_one_bucket() {
        let trace = vec![
            rec(ChainKind::Mfu, 0, 0, 0, 8),
            rec(ChainKind::Mfu, 2, 0, 8, 8), // starts late: resource wait
            rec(ChainKind::Mfu, 4, 20, 20, 8),
        ];
        let summary = TraceSummary::from_trace(&trace);
        assert_eq!(summary.kinds.len(), 1);
        let mfu = &summary.kinds["mfu"];
        assert_eq!(mfu.chains, 3);
        assert_eq!(mfu.busy_cycles, 24);
        // Chain 1 started 6 cycles past max(dep, dispatch)=2.
        assert_eq!(mfu.resource_wait_cycles, 6);
        // Chain 2 exposed 16 cycles of dependence latency.
        assert_eq!(mfu.dep_wait_cycles, 16);
        assert_eq!(summary.end_cycle, 28);
        assert!((summary.occupancy("mfu") - 24.0 / 28.0).abs() < 1e-12);
        assert_eq!(summary.occupancy("mvm"), 0.0);
    }

    #[test]
    fn dep_exposure_is_clamped_by_the_actual_start() {
        // dep_ready far beyond start must not attribute more wait than the
        // chain actually experienced (start - dispatch).
        let trace = vec![rec(ChainKind::Mvm, 10, 100, 30, 4)];
        let summary = TraceSummary::from_trace(&trace);
        assert_eq!(summary.kinds["mvm"].dep_wait_cycles, 20);
        assert_eq!(summary.worst_dep_stall, Some((0, 20)));
    }

    #[test]
    fn empty_trace_is_all_zeros() {
        let summary = TraceSummary::from_trace(&[]);
        assert_eq!(summary.end_cycle, 0);
        assert!(summary.kinds.is_empty());
        assert!(summary.worst_dep_stall.is_none());
        assert_eq!(summary.occupancy("mvm"), 0.0);
    }
}
