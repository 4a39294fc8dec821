//! Span records: what an NPU armed with
//! [`Npu::set_trace`](crate::Npu::set_trace) records besides its
//! [`ChainTrace`](crate::ChainTrace)s — chain dispatch to retire, MVM and
//! MFU stream occupancy, stall intervals, batch columns and whole-run
//! envelopes — and what the serving, fleet and observability layers add
//! to the same tree. `set_trace` states the contract.

use crate::npu::ChainKind;

/// A trace identifier. The layer that owns request identity (for example
/// a serving front end) assigns it and stamps it on the spans it gathers;
/// the simulator leaves it 0.
pub type TraceId = u64;

/// What interval of simulated time a span describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole [`Npu::run`](crate::Npu::run): cycle 0 to the last
    /// architecturally visible effect.
    Run,
    /// One chain, from its actual start to result visibility (retire).
    Chain(ChainKind),
    /// The MVM streaming matrix tiles for one chain.
    MvmStream,
    /// The MFU stream occupied by one chain.
    MfuStream,
    /// A chain waiting on data dependencies beyond dispatch and resource
    /// availability.
    DepStall,
    /// A chain waiting for its resource to drain beyond dispatch and
    /// dependency readiness.
    ResourceStall,
    /// A network transfer between cooperating devices (scatter or gather
    /// leg of a sharded model). Emitted by the serving layer, not the
    /// device simulator: `device` is the far end's worker id and the
    /// interval is the modeled transfer time converted to device cycles.
    NetTransfer,
    /// A fleet-control operation (replica preload, migration phase,
    /// controller decision). Emitted by the fleet layer, not the device
    /// simulator: `device` is the worker the operation targets and the
    /// interval is the operation's simulated duration converted at a
    /// nominal clock.
    FleetOp,
    /// An SLO alert's firing interval, fire to clear. Emitted by the
    /// observability layer, not the device simulator: `device` is the
    /// ordinal of the SLO spec the alert belongs to and the interval is
    /// wall time converted at a nominal clock.
    SloAlert,
    /// One column of a multi-column batched run
    /// ([`Npu::run_batch`](crate::Npu::run_batch)): the interval this
    /// column's replay occupied inside the run envelope. `chain` is the
    /// column ordinal (1-based). Only emitted when the batch holds more
    /// than one column.
    BatchColumn,
}

impl SpanKind {
    /// A stable, export-friendly name for the span kind.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Chain(ChainKind::Mvm) => "chain-mvm",
            SpanKind::Chain(ChainKind::Mfu) => "chain-mfu",
            SpanKind::Chain(ChainKind::Move) => "chain-move",
            SpanKind::Chain(ChainKind::MatrixMove) => "chain-matrix-move",
            SpanKind::MvmStream => "mvm-stream",
            SpanKind::MfuStream => "mfu-stream",
            SpanKind::DepStall => "dep-stall",
            SpanKind::ResourceStall => "resource-stall",
            SpanKind::NetTransfer => "net-transfer",
            SpanKind::FleetOp => "fleet-op",
            SpanKind::SloAlert => "slo-alert",
            SpanKind::BatchColumn => "batch-column",
        }
    }

    /// The chrome-trace display lane ("thread" row) a span of this kind
    /// renders into. The assignment is the single source of truth for
    /// every exporter: both kinds of stall share the dedicated stall
    /// lane, and each higher layer (network, fleet, SLO) owns one lane
    /// so its spans never interleave with device activity. New span
    /// kinds must extend this match — it is exhaustive by construction,
    /// and `tests::lanes_cover_every_kind` pins the mapping.
    pub fn lane(self) -> u64 {
        match self {
            SpanKind::Run => 0,
            SpanKind::Chain(_) => 1,
            SpanKind::MvmStream => 2,
            SpanKind::MfuStream => 3,
            SpanKind::DepStall | SpanKind::ResourceStall => 4,
            SpanKind::NetTransfer => 5,
            SpanKind::FleetOp => 6,
            SpanKind::SloAlert => 7,
            SpanKind::BatchColumn => 8,
        }
    }
}

/// One emitted span: a half-open cycle interval `[start_cycle,
/// end_cycle)` on one device, tagged with the trace id and
/// the ordinal of the chain that produced it (0 for [`SpanKind::Run`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanRecord {
    /// The trace identifier (see [`TraceId`]).
    pub trace_id: TraceId,
    /// Device ordinal within the traced deployment.
    pub device: u32,
    /// What the interval describes.
    pub kind: SpanKind,
    /// Ordinal of the emitting chain within its run (1-based; 0 for the
    /// run envelope).
    pub chain: u64,
    /// First cycle of the interval.
    pub start_cycle: u64,
    /// One past the last cycle of the interval.
    pub end_cycle: u64,
}

impl SpanRecord {
    /// The span's length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 7,
            device: 0,
            kind,
            chain: 1,
            start_cycle: start,
            end_cycle: end,
        }
    }

    /// Every kind instance: one per enum variant, one per `ChainKind`.
    /// New variants must be added here or the label/lane pins go stale.
    fn all_kinds() -> [SpanKind; 13] {
        [
            SpanKind::Run,
            SpanKind::Chain(ChainKind::Mvm),
            SpanKind::Chain(ChainKind::Mfu),
            SpanKind::Chain(ChainKind::Move),
            SpanKind::Chain(ChainKind::MatrixMove),
            SpanKind::MvmStream,
            SpanKind::MfuStream,
            SpanKind::DepStall,
            SpanKind::ResourceStall,
            SpanKind::NetTransfer,
            SpanKind::FleetOp,
            SpanKind::SloAlert,
            SpanKind::BatchColumn,
        ]
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let kinds = all_kinds();
        let labels: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn lanes_cover_every_kind() {
        // Pin the full mapping: the two stall kinds share lane 4, every
        // other kind owns its lane, and lanes are dense in 0..=8 so
        // exporters can size their lane tables from the maximum.
        let expected: [(SpanKind, u64); 13] = [
            (SpanKind::Run, 0),
            (SpanKind::Chain(ChainKind::Mvm), 1),
            (SpanKind::Chain(ChainKind::Mfu), 1),
            (SpanKind::Chain(ChainKind::Move), 1),
            (SpanKind::Chain(ChainKind::MatrixMove), 1),
            (SpanKind::MvmStream, 2),
            (SpanKind::MfuStream, 3),
            (SpanKind::DepStall, 4),
            (SpanKind::ResourceStall, 4),
            (SpanKind::NetTransfer, 5),
            (SpanKind::FleetOp, 6),
            (SpanKind::SloAlert, 7),
            (SpanKind::BatchColumn, 8),
        ];
        for (kind, lane) in expected {
            assert_eq!(kind.lane(), lane, "lane drifted for {kind:?}");
        }
        let lanes: std::collections::BTreeSet<u64> = all_kinds().iter().map(|k| k.lane()).collect();
        assert_eq!(lanes, (0..=8).collect());
    }

    #[test]
    fn cycles_saturate_on_inverted_spans() {
        assert_eq!(span(SpanKind::Run, 10, 4).cycles(), 0);
    }
}
