//! BW11x — interprocedural, whole-artifact analysis.
//!
//! A sharded deployment is a pipeline of *stages*; each stage is either a
//! single program or a scatter/gather group of shard programs (§II-A's
//! spatially distributed hardware microservices). The single-program
//! linter cannot see cross-shard contracts: a shard that pops more input
//! vectors than its peers scatter blocks forever on its NetQ, and no
//! amount of per-device linting will say so. This module models the
//! artifact as a dataflow graph over each unit's closed-form NetQ totals
//! and proves (or refutes) the scatter/gather transfer contract:
//!
//! * the stages form a chain: stage 0 takes the artifact input, and each
//!   later stage the gathered outputs of the one before it;
//! * for each shard of a stage, the runtime scatters
//!   `ceil(incoming_dim / native_dim)` vectors and gathers the shard's
//!   declared output grid; the program's closed-form pop/push totals must
//!   match exactly, or the artifact deadlocks (BW110) / leaves residue
//!   that poisons the next request (BW111);
//! * inter-stage dimensions must agree (BW112), serving shards must not
//!   pop matrix tiles the runtime never pushes (BW113), and a "sharded"
//!   group of one is flagged as degenerate (BW114);
//! * with an SLA declared, per-unit [`CycleBounds`] compose across the
//!   pipeline — sequential stages add, parallel shards take the max — and
//!   the artifact-level BW12x verdict is emitted against the composed
//!   bound.
//!
//! The shard ownership scheme (`worker w owns shard k of a width-`K`
//! group iff `w % K == k`) never changes which transfers occur, only
//! which worker executes them, so the balance proof is ownership-
//! independent: it quantifies over the transfers themselves.

use super::bounds::{cycle_bounds, sla_verdict, CycleBounds};
use super::netq::traffic;
use super::{AnalysisOptions, AnalysisReport, DiagCode, Diagnostic};
use crate::config::NpuConfig;
use crate::isa::Program;

/// One analyzable unit of an artifact: a single device's program plus the
/// deployment facts its host runtime establishes.
#[derive(Clone, Debug)]
pub struct ArtifactUnit<'a> {
    /// Diagnostic anchor, e.g. `"big#g0s1"`.
    pub name: String,
    /// The unit's firmware.
    pub program: &'a Program,
    /// The NPU config the unit is pinned on.
    pub config: &'a NpuConfig,
    /// Preloads, queue budgets, and bound window for this unit.
    pub options: AnalysisOptions,
    /// Logical input width (elements) the unit consumes per request.
    pub input_dim: usize,
    /// Logical output width (elements) the unit produces per request.
    pub output_dim: usize,
}

impl ArtifactUnit<'_> {
    /// Vectors the runtime scatters to this unit for a `dim`-element
    /// payload: `ceil(dim / native_dim)`, the padded-push contract.
    fn vectors_for(&self, dim: usize) -> u128 {
        let nd = self.config.native_dim() as usize;
        (dim.div_ceil(nd.max(1))) as u128
    }
}

/// One pipeline stage: a single unit, or a scatter/gather shard group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactStage {
    /// One unit runs the whole stage.
    Single(usize),
    /// Shards split the stage; each receives the full scatter input and
    /// their gathered outputs concatenate.
    Sharded(Vec<usize>),
}

impl ArtifactStage {
    /// Member unit indices.
    #[must_use]
    pub fn members(&self) -> &[usize] {
        match self {
            ArtifactStage::Single(u) => std::slice::from_ref(u),
            ArtifactStage::Sharded(us) => us,
        }
    }
}

/// The whole-artifact view [`analyze_artifact`] runs over.
#[derive(Clone, Debug)]
pub struct ArtifactView<'a> {
    name: String,
    input_dim: usize,
    units: Vec<ArtifactUnit<'a>>,
    stages: Vec<ArtifactStage>,
    sla_cycles: Option<u64>,
}

impl<'a> ArtifactView<'a> {
    /// An empty view for the artifact `name` taking `input_dim` elements.
    #[must_use]
    pub fn new(name: impl Into<String>, input_dim: usize) -> ArtifactView<'a> {
        ArtifactView {
            name: name.into(),
            input_dim,
            units: Vec::new(),
            stages: Vec::new(),
            sla_cycles: None,
        }
    }

    /// Registers a unit; returns its index for stage membership.
    pub fn add_unit(&mut self, unit: ArtifactUnit<'a>) -> usize {
        self.units.push(unit);
        self.units.len() - 1
    }

    /// Appends a single-unit stage; returns the stage index.
    pub fn push_single(&mut self, unit: usize) -> usize {
        self.stages.push(ArtifactStage::Single(unit));
        self.stages.len() - 1
    }

    /// Appends a scatter/gather stage over `units`; returns the stage
    /// index.
    pub fn push_sharded(&mut self, units: Vec<usize>) -> usize {
        self.stages.push(ArtifactStage::Sharded(units));
        self.stages.len() - 1
    }

    /// Declares the artifact-level SLA in cycles (of the slowest-clock
    /// member device, when clocks differ).
    #[must_use]
    pub fn with_sla_cycles(mut self, cycles: u64) -> ArtifactView<'a> {
        self.sla_cycles = Some(cycles);
        self
    }

    /// The artifact name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registered units.
    #[must_use]
    pub fn units(&self) -> &[ArtifactUnit<'a>] {
        &self.units
    }

    /// The pipeline stages.
    #[must_use]
    pub fn stages(&self) -> &[ArtifactStage] {
        &self.stages
    }

    /// The declared artifact input width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }
}

/// The element width delivered to each stage: the artifact input to stage
/// 0, and to stage k the gathered output of stage k − 1, its members'
/// outputs concatenated.
fn stage_inputs(view: &ArtifactView<'_>) -> Vec<usize> {
    let gathered = |stage: &ArtifactStage| {
        let members = stage.members().iter().filter_map(|&u| view.units.get(u));
        members.map(|u| u.output_dim).sum()
    };
    let mut dim = view.input_dim;
    view.stages
        .iter()
        .map(|stage| std::mem::replace(&mut dim, gathered(stage)))
        .collect()
}

/// BW110/BW111/BW113/BW114: the cross-shard NetQ balance and
/// scatter/gather deadlock proof.
fn shard_balance(view: &ArtifactView<'_>, inputs: &[usize], out: &mut Vec<Diagnostic>) {
    for (si, stage) in view.stages().iter().enumerate() {
        if let ArtifactStage::Sharded(members) = stage {
            if members.len() == 1 {
                let name = view
                    .units()
                    .get(members[0])
                    .map_or_else(|| view.name().to_owned(), |u| u.name.clone());
                out.push(Diagnostic::for_unit(
                    DiagCode::ShardDegenerate,
                    name,
                    si,
                    0,
                    "scatter/gather group of one shard: the split adds network \
                     hops without dividing any work"
                        .to_owned(),
                ));
            }
        }
        for &ui in stage.members() {
            let Some(unit) = view.units().get(ui) else {
                continue;
            };
            let t = traffic(unit.program);

            if t.mat_pops > 0 {
                out.push(Diagnostic::for_unit(
                    DiagCode::ShardMatrixPop,
                    unit.name.clone(),
                    si,
                    0,
                    format!(
                        "program pops {} matrix tile(s) from its NetQ, but the \
                         serving runtime only scatters vectors — the pop blocks \
                         forever",
                        t.mat_pops
                    ),
                ));
            }

            // Scatter side: what peers push vs what the shard pops.
            let dim = inputs[si];
            let supply = unit.vectors_for(dim);
            if t.vec_pops > supply {
                out.push(Diagnostic::for_unit(
                    DiagCode::ShardPopUnmatched,
                    unit.name.clone(),
                    si,
                    0,
                    format!(
                        "shard pops {} input vector(s) per request but the \
                         scatter of a {dim}-element payload supplies only \
                         {supply} — no peer push matches the excess pop and \
                         the shard deadlocks",
                        t.vec_pops
                    ),
                ));
            } else if t.vec_pops < supply {
                out.push(Diagnostic::for_unit(
                    DiagCode::ShardPushExcess,
                    unit.name.clone(),
                    si,
                    0,
                    format!(
                        "scatter supplies {supply} input vector(s) per request \
                         but the shard pops only {} — the residue is consumed \
                         by the next request and corrupts it",
                        t.vec_pops
                    ),
                ));
            }

            // Gather side: what the shard pushes vs what the runtime
            // collects.
            if let Some(expected) = unit.options.netq_expected_outputs {
                let expected = u128::from(expected);
                if t.vec_pushes < expected {
                    out.push(Diagnostic::for_unit(
                        DiagCode::ShardPopUnmatched,
                        unit.name.clone(),
                        si,
                        0,
                        format!(
                            "gather waits for {expected} output vector(s) but the \
                             shard pushes only {} — the gather blocks forever",
                            t.vec_pushes
                        ),
                    ));
                } else if t.vec_pushes > expected {
                    out.push(Diagnostic::for_unit(
                        DiagCode::ShardPushExcess,
                        unit.name.clone(),
                        si,
                        0,
                        format!(
                            "shard pushes {} output vector(s) but the gather \
                             collects only {expected} — the residue poisons the \
                             next gather",
                            t.vec_pushes
                        ),
                    ));
                }
            }
        }
    }
}

/// BW112: each stage member's input width against what reaches the stage.
fn stage_flow(view: &ArtifactView<'_>, inputs: &[usize], out: &mut Vec<Diagnostic>) {
    for (si, (stage, &dim)) in view.stages().iter().zip(inputs).enumerate() {
        for &ui in stage.members() {
            let Some(unit) = view.units().get(ui) else {
                continue;
            };
            if unit.input_dim != dim {
                out.push(Diagnostic::for_unit(
                    DiagCode::ShardDimMismatch,
                    unit.name.clone(),
                    si,
                    0,
                    format!(
                        "member consumes {}-element inputs but the upstream stage \
                         gathers {dim} elements",
                        unit.input_dim
                    ),
                ));
            }
        }
    }
}

/// Composed static cycle bounds for the whole artifact: sequential stages
/// add, parallel shards take the max (the gather waits for the slowest).
/// `None` when any unit has no provable bound.
#[must_use]
pub fn artifact_cycle_bounds(view: &ArtifactView<'_>) -> Option<CycleBounds> {
    let mut total = CycleBounds { lower: 0, upper: 0 };
    for stage in view.stages() {
        let mut stage_bounds: Option<CycleBounds> = None;
        for &ui in stage.members() {
            let u = view.units.get(ui)?;
            let b = cycle_bounds(u.program, u.config, &u.options)?;
            stage_bounds = Some(match stage_bounds {
                Some(acc) => acc.join_max(&b),
                None => b,
            });
        }
        total = total.then(&stage_bounds?);
    }
    Some(total)
}

/// Runs the artifact checks over `view` — the cross-shard NetQ balance
/// (BW110/BW111/BW113/BW114), the stage widths (BW112) and, with an
/// SLA declared, the composed bound's verdict (BW120–BW122) — and returns
/// the deduplicated, deterministically ordered report.
#[must_use]
pub fn analyze_artifact(view: &ArtifactView<'_>) -> AnalysisReport {
    let inputs = stage_inputs(view);
    let mut diagnostics = Vec::new();
    shard_balance(view, &inputs, &mut diagnostics);
    stage_flow(view, &inputs, &mut diagnostics);
    if let Some(sla) = view.sla_cycles {
        let bounds = artifact_cycle_bounds(view);
        diagnostics.push(sla_verdict(sla, bounds, Some(&view.name), 0));
    }
    super::finish_report(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{MemId, ProgramBuilder};
    use crate::Severity;

    const ND: u32 = 8;

    fn cfg() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(ND)
            .lanes(4)
            .tile_engines(2)
            .mfus(2)
            .mrf_entries(16)
            .vrf_entries(64)
            .build()
            .unwrap()
    }

    /// A shard that pops `pops` input vectors and pushes `pushes` outputs.
    fn shard_program(pops: u32, pushes: u32) -> Program {
        let mut b = ProgramBuilder::new();
        for _ in 0..pops {
            b.set_rows(1);
            b.v_rd(MemId::NetQ, 0)
                .v_wr(MemId::InitialVrf, 0)
                .end_chain()
                .unwrap();
        }
        for _ in 0..pushes {
            b.set_rows(1);
            b.v_rd(MemId::InitialVrf, 0)
                .v_wr(MemId::NetQ, 0)
                .end_chain()
                .unwrap();
        }
        b.build()
    }

    fn options(expected_outputs: u64) -> AnalysisOptions {
        AnalysisOptions::default()
            .preload(MemId::InitialVrf, 0, 64)
            .with_input_vectors(1 << 20)
            .with_expected_outputs(expected_outputs)
    }

    fn unit<'a>(
        name: &str,
        program: &'a Program,
        config: &'a NpuConfig,
        input_dim: usize,
        output_dim: usize,
        expected_outputs: u64,
    ) -> ArtifactUnit<'a> {
        ArtifactUnit {
            name: name.to_owned(),
            program,
            config,
            options: options(expected_outputs),
            input_dim,
            output_dim,
        }
    }

    #[test]
    fn balanced_sharded_artifact_is_clean() {
        let config = cfg();
        // Stage 0: two shards each pop the full 2-vector scatter (16
        // elements) and push one output vector; the gather concatenates
        // to 16 elements. Stage 1: a single tail consuming the 16.
        let shard = shard_program(2, 1);
        let tail = shard_program(2, 2);
        let mut view = ArtifactView::new("m", 16);
        let a = view.add_unit(unit("m#g0s0", &shard, &config, 16, 8, 1));
        let b = view.add_unit(unit("m#g0s1", &shard, &config, 16, 8, 1));
        let c = view.add_unit(unit("m#seg1", &tail, &config, 16, 16, 2));
        view.push_sharded(vec![a, b]);
        view.push_single(c);
        let report = analyze_artifact(&view);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn unmatched_pop_deadlocks_bw110() {
        let config = cfg();
        // Pops 3 vectors but the 16-element scatter supplies 2.
        let greedy = shard_program(3, 1);
        let peer = shard_program(2, 1);
        let mut view = ArtifactView::new("m", 16);
        let a = view.add_unit(unit("m#g0s0", &greedy, &config, 16, 8, 1));
        let b = view.add_unit(unit("m#g0s1", &peer, &config, 16, 8, 1));
        view.push_sharded(vec![a, b]);
        let report = analyze_artifact(&view);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::ShardPopUnmatched)
            .expect("BW110 fires");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.unit.as_deref(), Some("m#g0s0"));
    }

    #[test]
    fn push_residue_and_starved_gather_are_flagged() {
        let config = cfg();
        // Pushes 2 vectors, gather collects 1: residue (BW111).
        let chatty = shard_program(2, 2);
        let mut view = ArtifactView::new("m", 16);
        let a = view.add_unit(unit("m#seg0", &chatty, &config, 16, 8, 1));
        view.push_single(a);
        let report = analyze_artifact(&view);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ShardPushExcess));

        // Pushes 1, gather waits for 2: deadlock (BW110).
        let quiet = shard_program(2, 1);
        let mut view = ArtifactView::new("m", 16);
        let a = view.add_unit(unit("m#seg0", &quiet, &config, 16, 16, 2));
        view.push_single(a);
        let report = analyze_artifact(&view);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ShardPopUnmatched));
    }

    #[test]
    fn dim_mismatch_matrix_pop_and_degenerate_group() {
        let config = cfg();
        // Stage 1 member expects 24-element input but stage 0 gathers 8.
        let head = shard_program(2, 1);
        let tail = shard_program(1, 1);
        let mut view = ArtifactView::new("m", 16);
        let a = view.add_unit(unit("m#seg0", &head, &config, 16, 8, 1));
        let b = view.add_unit(unit("m#seg1", &tail, &config, 24, 8, 1));
        view.push_single(a);
        view.push_sharded(vec![b]); // degenerate group of one
        let report = analyze_artifact(&view);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ShardDimMismatch));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ShardDegenerate));

        // A shard popping matrix tiles from the serving NetQ.
        let mut mb = ProgramBuilder::new();
        mb.set_rows(1).set_cols(1);
        mb.m_rd(MemId::NetQ, 0)
            .m_wr(MemId::MatrixRf, 0)
            .end_chain()
            .unwrap();
        let mat = mb.build();
        let mut view = ArtifactView::new("m", 8);
        let u = view.add_unit(ArtifactUnit {
            name: "m#seg0".into(),
            program: &mat,
            config: &config,
            options: AnalysisOptions {
                netq_input_matrices: Some(1),
                ..AnalysisOptions::default()
            },
            input_dim: 8,
            output_dim: 8,
        });
        view.push_single(u);
        let report = analyze_artifact(&view);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ShardMatrixPop));
    }

    #[test]
    fn artifact_sla_composes_stage_bounds() {
        let config = cfg();
        let shard = shard_program(1, 1);
        let build = |sla: Option<u64>| {
            let mut view = ArtifactView::new("m", 8);
            let a = view.add_unit(unit("m#g0s0", &shard, &config, 8, 4, 1));
            let b = view.add_unit(unit("m#g0s1", &shard, &config, 8, 4, 1));
            let c = view.add_unit(unit("m#seg1", &shard, &config, 8, 8, 1));
            view.push_sharded(vec![a, b]);
            view.push_single(c);
            match sla {
                Some(s) => view.with_sla_cycles(s),
                None => view,
            }
        };

        let bounds = artifact_cycle_bounds(&build(None)).expect("provable");
        assert!(bounds.lower > 0);
        assert_eq!(bounds.lower, bounds.upper, "default window is exact");

        let met = analyze_artifact(&build(Some(bounds.upper)));
        assert!(met.diagnostics.iter().any(|d| d.code == DiagCode::SlaMet));
        assert_eq!(met.error_count(), 0);

        let blown = analyze_artifact(&build(Some(bounds.lower - 1)));
        assert!(blown
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::SlaViolation && d.severity == Severity::Error));

        // No SLA: silent.
        let silent = analyze_artifact(&build(None));
        assert!(!silent
            .diagnostics
            .iter()
            .any(|d| matches!(d.code, DiagCode::SlaMet | DiagCode::SlaAtRisk)));
    }
}
