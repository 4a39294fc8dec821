//! Static dataflow analysis of NPU firmware — a linter over [`Program`]s.
//!
//! [`analyze_with`] runs six plain functions over a program, in this
//! order: `capacity::check` (BW001–BW006, the timeline's own checks:
//! [Faults](crate::sched#faults)), `liveness::check` (BW010–BW012),
//! `hazards::check` (BW020–BW022), `netq::check` (BW030–BW032),
//! `shape::check` (BW040–BW043) and `bounds::check` (BW120–BW122). All
//! but the last read the one runtime walk (`walk`: the scheduler's order,
//! with its `rows`/`cols` tiling state alongside); the last runs the
//! timeline itself. Each emits [`Diagnostic`]s identified by a stable
//! `BW0xx` code with a fixed [`Severity`].
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | BW001 | error    | tiling register written with zero |
//! | BW002 | error    | VRF or DRAM access out of range |
//! | BW003 | error    | MRF access out of range |
//! | BW004 | error    | VRF attached to an MFU the config lacks |
//! | BW005 | error    | chain exceeds per-kind MFU capacity |
//! | BW006 | info     | analysis keeps the stale register value after BW001 |
//! | BW010 | error    | read of a VRF range never written nor preloaded |
//! | BW011 | warning  | dead store: VRF write never read |
//! | BW012 | info     | VRF range read before its first write |
//! | BW020 | info     | MRF write-after-read (double-buffer serialization) |
//! | BW021 | warning  | MRF tiles loaded but never read by an `mv_mul` |
//! | BW022 | error    | `mv_mul` reads MRF tiles never loaded nor preloaded |
//! | BW030 | error    | NetQ input vector pops can underflow the queue |
//! | BW031 | error    | NetQ input matrix pops can underflow the queue |
//! | BW032 | info     | NetQ output count differs from the declared count |
//! | BW040 | warning  | `mv_mul` runs with the power-on 1×1 tiling |
//! | BW041 | warning  | redundant identity operation in a chain |
//! | BW042 | warning  | multicast writes to overlapping destinations |
//! | BW043 | warning  | `mv_mul` chain reads and writes overlapping ranges |
//!
//! The `BW1xx` family is *interprocedural*: those diagnostics come from
//! whole-artifact analysis over a pipeline of programs (see [`artifact`]
//! and [`bounds`]) rather than from a single-program walk:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | BW110 | error    | cross-shard NetQ transfer unmatched — scatter/gather deadlock |
//! | BW111 | error    | cross-shard NetQ transfer residue poisons the next request |
//! | BW112 | error    | inter-stage dimension mismatch |
//! | BW113 | error    | shard pops matrix tiles the serving runtime never pushes |
//! | BW114 | warning  | degenerate scatter/gather group of one shard |
//! | BW120 | error    | static cycle lower bound exceeds the declared SLA |
//! | BW121 | warning  | static cycle upper bound exceeds the declared SLA |
//! | BW122 | info     | static cycle bounds meet the declared SLA |
//!
//! Severities gate deployment: the toolflow refuses to lower a model onto a
//! device when the report contains errors (and, optionally, warnings — see
//! `AnalysisReport::is_clean`). Because VRFs and the MRF are host-visible,
//! a purely static check cannot see host preloads (weights, biases, initial
//! recurrent state); [`AnalysisOptions`] lets the firmware generator declare
//! those ranges so that legitimate reads do not trip BW010/BW022.
//!
//! Reports are deterministic: diagnostics are deduplicated and sorted by
//! `(code, unit, segment, item, message)`, so serialized output is
//! byte-stable across runs.

use std::fmt;

use crate::config::NpuConfig;
use crate::isa::{Item, Program, ScalarReg};

pub mod artifact;
pub mod bounds;
pub(crate) mod capacity;
mod hazards;
mod liveness;
mod netq;
mod shape;

pub use artifact::{
    analyze_artifact, artifact_cycle_bounds, ArtifactStage, ArtifactUnit, ArtifactView,
};
pub use bounds::{cycle_bounds, CycleBounds};

/// How serious a diagnostic is. Ordered: `Info < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; never gates deployment.
    Info,
    /// Suspicious but possibly intentional; gates deployment only when
    /// warnings are denied.
    Warning,
    /// A firmware bug that would fault or corrupt results at run time;
    /// always gates deployment.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier for each diagnostic the analyzer can emit.
///
/// The `BW0xx` string form (see [`DiagCode::as_str`]) is the public name
/// used in reports, documentation, and suppression lists; the enum keeps
/// matching in code typo-proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// BW001: a `s_wr` wrote zero to `rows`/`cols`.
    ZeroRegister,
    /// BW002: a vector access runs past the end of a VRF or of DRAM's
    /// address space.
    VrfOverflow,
    /// BW003: a matrix access runs past the end of the MRF.
    MrfOverflow,
    /// BW004: the addressed VRF belongs to an MFU the config lacks.
    MissingMfu,
    /// BW005: a chain uses more ops of one kind than there are MFUs.
    MfuCapacity,
    /// BW006: follow-on to BW001 — analysis continues with the stale
    /// register value, while the scheduler would fault at dispatch.
    StaleRegister,
    /// BW010: a VRF range is read but never written nor declared preloaded.
    UninitializedRead,
    /// BW011: a VRF write is never read before being overwritten or the
    /// program ending.
    DeadStore,
    /// BW012: a VRF range is read before its first write; the first
    /// iteration observes reset (zero) contents.
    ReadBeforeWrite,
    /// BW020: an `m_wr` overwrites MRF tiles a previous `mv_mul` read —
    /// the double-buffered DRAM stream serializes here.
    MrfWriteAfterRead,
    /// BW021: MRF tiles are loaded but never read by any `mv_mul`.
    MrfDeadLoad,
    /// BW022: an `mv_mul` reads MRF tiles never loaded nor preloaded.
    MrfUninitializedRead,
    /// BW030: cumulative NetQ vector pops can exceed the declared input
    /// budget.
    NetUnderflow,
    /// BW031: cumulative NetQ matrix pops can exceed the declared input
    /// budget.
    NetMatrixUnderflow,
    /// BW032: the program's NetQ output count differs from the declared
    /// expected count.
    NetOutputMismatch,
    /// BW040: an `mv_mul` executes while `rows`/`cols` still hold the
    /// power-on 1×1 default.
    DefaultTiling,
    /// BW041: an operation in a chain is an identity on its input.
    RedundantOp,
    /// BW042: two multicast writes in one chain cover overlapping
    /// destination ranges.
    OverlappingMulticast,
    /// BW043: a chain with an `mv_mul` reads and writes overlapping ranges
    /// of the same VRF at different widths (`cols` in, `rows` out).
    AliasedChainIo,
    /// BW110: a cross-shard NetQ pop (or gather wait) has no matching peer
    /// push — the scatter/gather schedule deadlocks.
    ShardPopUnmatched,
    /// BW111: a cross-shard NetQ transfer leaves residue in a queue that
    /// the next request consumes.
    ShardPushExcess,
    /// BW112: a stage member's input width disagrees with the upstream
    /// stage's gathered output width.
    ShardDimMismatch,
    /// BW113: a serving shard pops matrix tiles from its NetQ; the runtime
    /// only scatters vectors.
    ShardMatrixPop,
    /// BW114: a scatter/gather group of exactly one shard.
    ShardDegenerate,
    /// BW120: the static cycle lower bound exceeds the declared SLA (or no
    /// bound is provable at all) — the SLA is unmeetable.
    SlaViolation,
    /// BW121: the static cycle upper bound exceeds the declared SLA while
    /// the lower bound meets it.
    SlaAtRisk,
    /// BW122: the static cycle bounds meet the declared SLA.
    SlaMet,
}

impl DiagCode {
    /// The stable `BW0xx` name of this code.
    pub const fn as_str(self) -> &'static str {
        match self {
            DiagCode::ZeroRegister => "BW001",
            DiagCode::VrfOverflow => "BW002",
            DiagCode::MrfOverflow => "BW003",
            DiagCode::MissingMfu => "BW004",
            DiagCode::MfuCapacity => "BW005",
            DiagCode::StaleRegister => "BW006",
            DiagCode::UninitializedRead => "BW010",
            DiagCode::DeadStore => "BW011",
            DiagCode::ReadBeforeWrite => "BW012",
            DiagCode::MrfWriteAfterRead => "BW020",
            DiagCode::MrfDeadLoad => "BW021",
            DiagCode::MrfUninitializedRead => "BW022",
            DiagCode::NetUnderflow => "BW030",
            DiagCode::NetMatrixUnderflow => "BW031",
            DiagCode::NetOutputMismatch => "BW032",
            DiagCode::DefaultTiling => "BW040",
            DiagCode::RedundantOp => "BW041",
            DiagCode::OverlappingMulticast => "BW042",
            DiagCode::AliasedChainIo => "BW043",
            DiagCode::ShardPopUnmatched => "BW110",
            DiagCode::ShardPushExcess => "BW111",
            DiagCode::ShardDimMismatch => "BW112",
            DiagCode::ShardMatrixPop => "BW113",
            DiagCode::ShardDegenerate => "BW114",
            DiagCode::SlaViolation => "BW120",
            DiagCode::SlaAtRisk => "BW121",
            DiagCode::SlaMet => "BW122",
        }
    }

    /// The fixed severity of this code.
    pub const fn severity(self) -> Severity {
        match self {
            DiagCode::ZeroRegister
            | DiagCode::VrfOverflow
            | DiagCode::MrfOverflow
            | DiagCode::MissingMfu
            | DiagCode::MfuCapacity
            | DiagCode::UninitializedRead
            | DiagCode::MrfUninitializedRead
            | DiagCode::NetUnderflow
            | DiagCode::NetMatrixUnderflow
            | DiagCode::ShardPopUnmatched
            | DiagCode::ShardPushExcess
            | DiagCode::ShardDimMismatch
            | DiagCode::ShardMatrixPop
            | DiagCode::SlaViolation => Severity::Error,
            DiagCode::DeadStore
            | DiagCode::MrfDeadLoad
            | DiagCode::DefaultTiling
            | DiagCode::RedundantOp
            | DiagCode::OverlappingMulticast
            | DiagCode::AliasedChainIo
            | DiagCode::ShardDegenerate
            | DiagCode::SlaAtRisk => Severity::Warning,
            DiagCode::StaleRegister
            | DiagCode::ReadBeforeWrite
            | DiagCode::MrfWriteAfterRead
            | DiagCode::NetOutputMismatch
            | DiagCode::SlaMet => Severity::Info,
        }
    }

    /// A short human title for documentation and report headers.
    pub const fn title(self) -> &'static str {
        match self {
            DiagCode::ZeroRegister => "zero tiling register",
            DiagCode::VrfOverflow => "VRF access out of range",
            DiagCode::MrfOverflow => "MRF access out of range",
            DiagCode::MissingMfu => "missing MFU register file",
            DiagCode::MfuCapacity => "MFU capacity exceeded",
            DiagCode::StaleRegister => "stale register after rejected write",
            DiagCode::UninitializedRead => "uninitialized VRF read",
            DiagCode::DeadStore => "dead store",
            DiagCode::ReadBeforeWrite => "read before first write",
            DiagCode::MrfWriteAfterRead => "MRF write-after-read",
            DiagCode::MrfDeadLoad => "dead matrix load",
            DiagCode::MrfUninitializedRead => "uninitialized MRF read",
            DiagCode::NetUnderflow => "input queue underflow",
            DiagCode::NetMatrixUnderflow => "input matrix queue underflow",
            DiagCode::NetOutputMismatch => "output count mismatch",
            DiagCode::DefaultTiling => "mv_mul with default tiling",
            DiagCode::RedundantOp => "redundant operation",
            DiagCode::OverlappingMulticast => "overlapping multicast",
            DiagCode::AliasedChainIo => "aliased chain read/write",
            DiagCode::ShardPopUnmatched => "cross-shard transfer deadlock",
            DiagCode::ShardPushExcess => "cross-shard transfer residue",
            DiagCode::ShardDimMismatch => "inter-stage dimension mismatch",
            DiagCode::ShardMatrixPop => "matrix pop in a serving shard",
            DiagCode::ShardDegenerate => "degenerate shard group",
            DiagCode::SlaViolation => "SLA unmeetable",
            DiagCode::SlaAtRisk => "SLA at risk",
            DiagCode::SlaMet => "SLA met",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, anchored to the segment and item that produced it.
///
/// Artifact-level findings additionally carry the `unit` (shard or
/// pipeline-segment name) they concern; program-level findings leave it
/// `None` and render exactly as before.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code identifying the kind of finding.
    pub code: DiagCode,
    /// Severity (always `code.severity()`; duplicated for serialization).
    pub severity: Severity,
    /// The artifact unit the finding concerns, for interprocedural
    /// diagnostics. `None` for single-program findings.
    pub unit: Option<String>,
    /// Index of the segment containing the offending item. For artifact
    /// findings this is the pipeline-stage index.
    pub segment: usize,
    /// Index of the item within the segment.
    pub item: usize,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic at `(segment, item)` with the code's severity.
    pub fn new(code: DiagCode, segment: usize, item: usize, message: String) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            unit: None,
            segment,
            item,
            message,
        }
    }

    /// Builds an artifact-level diagnostic anchored to `unit`.
    pub fn for_unit(
        code: DiagCode,
        unit: impl Into<String>,
        segment: usize,
        item: usize,
        message: String,
    ) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            unit: Some(unit.into()),
            segment,
            item,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.unit {
            Some(unit) => write!(
                f,
                "{}[{}] unit {}, segment {}, item {}: {}",
                self.severity, self.code, unit, self.segment, self.item, self.message
            ),
            None => write!(
                f,
                "{}[{}] segment {}, item {}: {}",
                self.severity, self.code, self.segment, self.item, self.message
            ),
        }
    }
}

/// A host-initialized region of on-chip memory.
///
/// `MemId::MatrixRf` ranges are in MRF tile entries; VRF ranges are in
/// native-vector entries of the named file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreloadedRange {
    /// The memory the host initializes.
    pub mem: crate::isa::MemId,
    /// First entry of the initialized range.
    pub start: u32,
    /// Number of entries initialized.
    pub len: u32,
}

/// Facts about the deployment environment that static analysis cannot
/// recover from the program alone.
#[derive(Clone, Debug, Default)]
pub struct AnalysisOptions {
    /// Memory ranges the host initializes before the program runs
    /// (weights, biases, initial recurrent state). Reads from these ranges
    /// are not uninitialized.
    pub preloaded: Vec<PreloadedRange>,
    /// Number of input vectors the host pushes on the network queue per
    /// run, if known. `None` disables BW030.
    pub netq_input_vectors: Option<u64>,
    /// Number of input matrix tiles the host pushes per run, if known.
    /// `None` disables BW031.
    pub netq_input_matrices: Option<u64>,
    /// Number of output vectors the host expects per run, if known.
    /// `None` disables BW032.
    pub netq_expected_outputs: Option<u64>,
    /// Declared service-level agreement in cycles, if any. With an SLA
    /// declared, the static cycle bounds are judged against it
    /// (BW120–BW122); `None` keeps that check silent.
    pub sla_cycles: Option<u64>,
    /// Earliest cycle any NetQ input vector can arrive (relative to the
    /// run start). The default `0` models host-staged inputs.
    pub input_arrival_lo: u64,
    /// Latest cycle any NetQ input vector can arrive. With `lo == hi` the
    /// static cycle bounds are exact.
    pub input_arrival_hi: u64,
}

impl AnalysisOptions {
    /// Declares `[start, start + len)` of `mem` as host-preloaded.
    #[must_use]
    pub fn preload(mut self, mem: crate::isa::MemId, start: u32, len: u32) -> Self {
        self.preloaded.push(PreloadedRange { mem, start, len });
        self
    }

    /// Declares the per-run input vector budget on the network queue.
    #[must_use]
    pub fn with_input_vectors(mut self, count: u64) -> Self {
        self.netq_input_vectors = Some(count);
        self
    }

    /// Declares the per-run output vector count the host expects.
    #[must_use]
    pub fn with_expected_outputs(mut self, count: u64) -> Self {
        self.netq_expected_outputs = Some(count);
        self
    }

    /// Declares a service-level agreement in cycles, enabling the
    /// BW120–BW122 verdicts.
    #[must_use]
    pub fn with_sla_cycles(mut self, cycles: u64) -> Self {
        self.sla_cycles = Some(cycles);
        self
    }

    /// Declares the NetQ input-arrival window in cycles relative to the
    /// run start. The static cycle bounds hold for any arrival schedule
    /// inside `[lo, hi]`.
    #[must_use]
    pub fn with_input_arrival(mut self, lo: u64, hi: u64) -> Self {
        self.input_arrival_lo = lo;
        self.input_arrival_hi = hi.max(lo);
        self
    }
}

/// The collected findings of an analyzer run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// All findings, deduplicated and ordered by
    /// `(code, unit, segment, item, message)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.by_severity(Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.by_severity(Severity::Warning).count()
    }

    /// Number of info-severity findings.
    pub fn info_count(&self) -> usize {
        self.by_severity(Severity::Info).count()
    }

    /// Findings of exactly `severity`.
    pub(crate) fn by_severity(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Whether the report contains any error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the report is free of errors and warnings (infos allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0 && self.warning_count() == 0
    }

    /// Whether the report blocks deployment under the given policy.
    pub fn blocks_deployment(&self, deny_warnings: bool) -> bool {
        self.has_errors() || (deny_warnings && self.warning_count() > 0)
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} info(s)",
            self.error_count(),
            self.warning_count(),
            self.info_count()
        )
    }
}

/// A program check: appends its findings to `out`.
type Check = fn(&Program, &NpuConfig, &AnalysisOptions, &mut Vec<Diagnostic>);

/// The checks [`analyze_with`] runs, in order, by name.
const CHECKS: [(&str, Check); 6] = [
    ("capacity", capacity::check),
    ("vrf-liveness", liveness::check),
    ("mrf-hazards", hazards::check),
    ("netq-balance", netq::check),
    ("chain-shape", shape::check),
    ("cycle-bounds", bounds::check),
];

/// Names of the checks [`analyze_with`] runs, in the order it runs them.
#[must_use]
pub fn check_names() -> [&'static str; 6] {
    CHECKS.map(|(name, _)| name)
}

/// Normalizes raw check output into a deterministic report: sorted by
/// `(code, unit, segment, item, message)` and deduplicated, so identical
/// findings from overlapping checks collapse and serialized reports are
/// byte-stable across runs.
pub(crate) fn finish_report(mut diagnostics: Vec<Diagnostic>) -> AnalysisReport {
    diagnostics.sort_by(|a, b| {
        (a.code, &a.unit, a.segment, a.item, &a.message)
            .cmp(&(b.code, &b.unit, b.segment, b.item, &b.message))
    });
    diagnostics.dedup();
    AnalysisReport { diagnostics }
}

/// Analyzes `program` with default options (no preloads, no queue budgets).
pub fn analyze(program: &Program, config: &NpuConfig) -> AnalysisReport {
    analyze_with(program, config, AnalysisOptions::default())
}

/// Analyzes `program` with explicit deployment facts: runs every check and
/// returns the combined report, deduplicated and deterministically ordered.
pub fn analyze_with(
    program: &Program,
    config: &NpuConfig,
    options: AnalysisOptions,
) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    for (_, check) in CHECKS {
        check(program, config, &options, &mut diagnostics);
    }
    finish_report(diagnostics)
}

// ---------------------------------------------------------------------------
// The one walk every check runs over.

/// One visited item of a linearized walk, with the scheduler's register
/// state at that point.
pub(crate) struct Step<'a> {
    /// Segment index.
    pub segment: usize,
    /// Item index within the segment.
    pub item: usize,
    /// Which unrolled copy of a looped segment this is (0 or 1).
    pub unroll: u32,
    /// `rows` at this item (before the item executes).
    pub rows: u32,
    /// `cols` at this item (before the item executes).
    pub cols: u32,
    /// Whether any tiling register has been explicitly set so far.
    pub tiling_set: bool,
    /// The item itself.
    pub item_ref: &'a Item,
}

/// Linearizes `program` in runtime order: segments with zero iterations
/// are skipped and looped segments are unrolled twice. Twice sees every
/// register state a loop runs in (its second iteration starts where every
/// later one does) and resolves loop-carried def-use chains (a read at the
/// loop head of a write at the loop tail). `rows`/`cols` are tracked
/// exactly as the scheduler would, with one deliberate divergence: a
/// rejected zero write keeps the stale value (the scheduler faults instead;
/// BW001/BW006 record this).
pub(crate) fn walk<'a>(program: &'a Program, mut visit: impl FnMut(&Step<'a>)) {
    let mut rows = 1u32;
    let mut cols = 1u32;
    let mut tiling_set = false;
    for (si, segment) in program.segments.iter().enumerate() {
        for unroll in 0..segment.iterations.min(2) {
            for (ii, item) in segment.items.iter().enumerate() {
                visit(&Step {
                    segment: si,
                    item: ii,
                    unroll,
                    rows,
                    cols,
                    tiling_set,
                    item_ref: item,
                });
                if let Item::SetReg { reg, value } = *item {
                    if value != 0 {
                        tiling_set = true;
                        match reg {
                            ScalarReg::Rows => rows = value,
                            ScalarReg::Cols => cols = value,
                        }
                    }
                }
            }
        }
    }
}

/// Renders sorted entry indices as compact half-open ranges, e.g.
/// `[3..5], [9..10]`.
pub(crate) fn format_ranges(entries: impl IntoIterator<Item = u32>) -> String {
    let mut sorted: Vec<u32> = entries.into_iter().collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let start = sorted[i];
        let mut end = start;
        while i + 1 < sorted.len() && sorted[i + 1] == end + 1 {
            i += 1;
            end = sorted[i];
        }
        parts.push(format!("[{}..{}]", start, end + 1));
        i += 1;
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn codes_are_unique_and_stable() {
        use DiagCode::*;
        // Each code's successor in numeric order, and so every code the
        // analyzer can emit, from the first. No arm is a wildcard: a new
        // code does not compile until it is given its place here.
        let next = |code| match code {
            ZeroRegister => Some(VrfOverflow),
            VrfOverflow => Some(MrfOverflow),
            MrfOverflow => Some(MissingMfu),
            MissingMfu => Some(MfuCapacity),
            MfuCapacity => Some(StaleRegister),
            StaleRegister => Some(UninitializedRead),
            UninitializedRead => Some(DeadStore),
            DeadStore => Some(ReadBeforeWrite),
            ReadBeforeWrite => Some(MrfWriteAfterRead),
            MrfWriteAfterRead => Some(MrfDeadLoad),
            MrfDeadLoad => Some(MrfUninitializedRead),
            MrfUninitializedRead => Some(NetUnderflow),
            NetUnderflow => Some(NetMatrixUnderflow),
            NetMatrixUnderflow => Some(NetOutputMismatch),
            NetOutputMismatch => Some(DefaultTiling),
            DefaultTiling => Some(RedundantOp),
            RedundantOp => Some(OverlappingMulticast),
            OverlappingMulticast => Some(AliasedChainIo),
            AliasedChainIo => Some(ShardPopUnmatched),
            ShardPopUnmatched => Some(ShardPushExcess),
            ShardPushExcess => Some(ShardDimMismatch),
            ShardDimMismatch => Some(ShardMatrixPop),
            ShardMatrixPop => Some(ShardDegenerate),
            ShardDegenerate => Some(SlaViolation),
            SlaViolation => Some(SlaAtRisk),
            SlaAtRisk => Some(SlaMet),
            SlaMet => None,
        };
        let all: Vec<DiagCode> = std::iter::successors(Some(ZeroRegister), |&c| next(c)).collect();
        // The chain follows the declaration order, and the names ascend.
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        let mut names: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "codes ascend: {names:?}"
        );
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate BW0xx code");
        assert!(names.iter().all(|n| n.starts_with("BW") && n.len() == 5));
    }

    #[test]
    fn walker_tracks_registers_and_keeps_stale_on_zero() {
        let mut b = ProgramBuilder::new();
        b.set_rows(3).set_cols(2);
        b.set_rows(0); // rejected: stale 3 retained
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let p = b.build();
        let mut seen = Vec::new();
        walk(&p, |s| {
            seen.push((s.item, s.rows, s.cols, s.tiling_set));
        });
        assert_eq!(seen[0], (0, 1, 1, false)); // before set_rows(3)
        assert_eq!(seen[2], (2, 3, 2, true)); // before set_rows(0)
        assert_eq!(seen[3], (3, 3, 2, true)); // stale rows after zero write
    }

    #[test]
    fn runtime_walk_unrolls_loops_twice() {
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.begin_loop(5).unwrap();
        b.v_rd(MemId::NetQ, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        b.set_rows(2);
        b.end_loop().unwrap();
        let mut p = b.build();
        let mut seen = Vec::new();
        walk(&p, |s| seen.push((s.segment, s.item, s.unroll, s.rows)));
        // set_rows, then the body twice: the second pass at the width the
        // body's own write leaves, as every later iteration runs.
        let body = [(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 2), (1, 1, 1, 2)];
        assert_eq!(seen[0], (0, 0, 0, 1));
        assert_eq!(seen[1..], body);
        // A segment that never runs is never walked.
        p.segments[1].iterations = 0;
        let mut items = 0;
        walk(&p, |_| items += 1);
        assert_eq!(items, 1);
    }

    #[test]
    fn clean_program_analyzes_clean() {
        let mut b = ProgramBuilder::new();
        b.set_rows(2).set_cols(2);
        b.v_rd(MemId::NetQ, 0)
            .mv_mul(0)
            .vv_add(4)
            .v_sigm()
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let options = AnalysisOptions::default()
            .preload(MemId::MatrixRf, 0, 4)
            .preload(MemId::AddSubVrf(0), 4, 2)
            .with_input_vectors(2);
        let report = analyze_with(&b.build(), &cfg(), options);
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn reports_are_deduplicated_and_byte_stable() {
        // Two checks reporting the same finding, plus out-of-order input:
        // the report must collapse duplicates and impose the canonical
        // (code, unit, segment, item, message) order.
        let twice = vec![
            Diagnostic::new(DiagCode::DeadStore, 1, 2, "dead".into()),
            Diagnostic::new(DiagCode::VrfOverflow, 0, 1, "oob".into()),
            Diagnostic::new(DiagCode::VrfOverflow, 0, 1, "oob".into()),
            Diagnostic::for_unit(DiagCode::VrfOverflow, "m#seg0", 0, 0, "oob".into()),
        ];
        let report = finish_report(twice.clone());
        assert_eq!(report.diagnostics.len(), 3, "duplicate collapsed");
        assert_eq!(report.diagnostics[0].code, DiagCode::VrfOverflow);
        assert!(report.diagnostics[0].unit.is_none(), "None sorts first");
        assert_eq!(report.diagnostics[1].unit.as_deref(), Some("m#seg0"));
        assert_eq!(report.diagnostics[2].code, DiagCode::DeadStore);

        // Byte stability: any permutation of the raw findings yields the
        // same report.
        let mut reversed = twice;
        reversed.reverse();
        assert_eq!(report.diagnostics, finish_report(reversed).diagnostics);
    }

    #[test]
    fn format_ranges_merges_contiguous_runs() {
        assert_eq!(format_ranges([3, 4, 9]), "[3..5], [9..10]");
        assert_eq!(format_ranges([7]), "[7..8]");
        assert_eq!(format_ranges([2, 1, 1, 0]), "[0..3]");
    }
}
