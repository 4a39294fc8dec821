//! Network-partitioned model artifacts: the compile-side half of serving
//! one model across cooperating workers.
//!
//! §II-A: "large, partitionable problems can be spatially distributed
//! across multiple accelerators" connected by the datacenter network.
//! [`crate::split_oversized_stages`] rewrites an oversized dense stage
//! into row shards; this module packages the rewritten pipeline as a
//! [`ShardedArtifact`] — an ordered list of [`ShardSegment`]s, each a
//! self-contained [`ModelArtifact`] (or a scatter/gather group of them)
//! that a serving runtime pins on a *different* worker. The federated
//! runtime (`bw-serve`) streams the input to every shard of a group,
//! concatenates the row-shard outputs, and forwards the result to the
//! next segment; because row sharding preserves each output row's dot
//! product exactly, the distributed execution is bit-identical to a
//! single device holding the whole model.

use bw_core::{
    analyze_artifact, artifact_cycle_bounds, AnalysisReport, ArtifactUnit, ArtifactView,
    CycleBounds, NpuConfig,
};

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::ir::GirGraph;
use crate::lower::{Deployment, LowerOptions};
use crate::pipeline::{fuse, partition, Pipeline, Stage};
use crate::split::{split_oversized_stages, SplitReport};

/// One stage of a sharded model's serving plan, in pipeline order.
// Segments live in a short Vec built once at compile time; boxing the
// Single payload would buy nothing for the size skew clippy flags.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum ShardSegment {
    /// A contiguous run of stages that fits one worker: pinned and served
    /// like any whole model.
    Single(ModelArtifact),
    /// A row-sharded stage: every member receives the same input
    /// (scatter) and the serving runtime concatenates their outputs in
    /// member order (gather). Members pin on distinct workers.
    Sharded(Vec<ModelArtifact>),
}

impl ShardSegment {
    /// The artifacts of this segment, in execution (shard) order.
    pub fn members(&self) -> Vec<&ModelArtifact> {
        match self {
            ShardSegment::Single(a) => vec![a],
            ShardSegment::Sharded(v) => v.iter().collect(),
        }
    }

    /// Number of cooperating workers this segment needs (1 for a single).
    pub fn width(&self) -> usize {
        match self {
            ShardSegment::Single(_) => 1,
            ShardSegment::Sharded(v) => v.len(),
        }
    }
}

/// A model compiled for distributed serving: the fused pipeline split
/// under a per-worker parameter budget, with every oversized stage row-
/// sharded into a scatter/gather group and every segment packaged as an
/// independently pin-able [`ModelArtifact`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedArtifact {
    name: String,
    input_dim: usize,
    output_dim: usize,
    report: SplitReport,
    segments: Vec<ShardSegment>,
}

impl ShardedArtifact {
    /// Compiles `graph` for distributed serving: fuse, row-shard every
    /// stage over `worker_param_budget`, then compile each segment (a
    /// shard, or a contiguous run of fitting stages) into its own
    /// [`ModelArtifact`] named `{name}#g{group}s{shard}` /
    /// `{name}#seg{index}`.
    ///
    /// A model that fits entirely produces one `Single` segment — the
    /// sharded path degenerates to ordinary serving.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] if fusion, splitting (a single row over
    /// budget), partitioning, or lowering fails.
    pub fn compile(
        name: impl Into<String>,
        graph: &GirGraph,
        worker_param_budget: u64,
        config: &NpuConfig,
        opts: &LowerOptions,
    ) -> Result<ShardedArtifact, ArtifactError> {
        let name = name.into();
        let pipeline = fuse(graph)?;
        let (split, report) = split_oversized_stages(&pipeline, worker_param_budget)?;

        // Stage index -> (group ordinal, shard ordinal) for shard stages.
        let mut shard_of = vec![None; split.stages.len()];
        for (g, group) in report.groups.iter().enumerate() {
            for (s, &stage) in group.iter().enumerate() {
                shard_of[stage] = Some((g, s));
            }
        }

        let mut segments = Vec::new();
        let mut run: Vec<Stage> = Vec::new();
        let mut run_input = split.input_dim;
        let mut cursor_dim = split.input_dim;
        let mut seg_ordinal = 0usize;
        let mut flush =
            |run: &mut Vec<Stage>, run_input: usize, segments: &mut Vec<ShardSegment>| {
                if run.is_empty() {
                    return Ok(());
                }
                let artifact = compile_stages(
                    format!("{name}#seg{seg_ordinal}"),
                    run_input,
                    std::mem::take(run),
                    worker_param_budget,
                    config,
                    opts,
                )?;
                seg_ordinal += 1;
                segments.push(ShardSegment::Single(artifact));
                Ok::<(), ArtifactError>(())
            };

        let mut i = 0;
        while i < split.stages.len() {
            match shard_of[i] {
                None => {
                    if run.is_empty() {
                        run_input = cursor_dim;
                    }
                    cursor_dim = split.stages[i].out_dim();
                    run.push(split.stages[i].clone());
                    i += 1;
                }
                Some((g, _)) => {
                    flush(&mut run, run_input, &mut segments)?;
                    let group = &report.groups[g];
                    let scatter_dim = cursor_dim;
                    let mut members = Vec::with_capacity(group.len());
                    let mut gathered = 0usize;
                    for (s, &stage) in group.iter().enumerate() {
                        gathered += split.stages[stage].out_dim();
                        members.push(compile_stages(
                            format!("{name}#g{g}s{s}"),
                            scatter_dim,
                            vec![split.stages[stage].clone()],
                            worker_param_budget,
                            config,
                            opts,
                        )?);
                    }
                    cursor_dim = gathered;
                    segments.push(ShardSegment::Sharded(members));
                    i += group.len();
                }
            }
        }
        flush(&mut run, run_input, &mut segments)?;

        let artifact = ShardedArtifact {
            name,
            input_dim: split.input_dim,
            output_dim: cursor_dim,
            report,
            segments,
        };
        artifact.gate(opts)?;
        Ok(artifact)
    }

    fn gate(&self, opts: &LowerOptions) -> Result<(), ArtifactError> {
        let report = self.analyze(opts);
        if report.blocks_deployment(opts.deny_warnings) {
            return Err(ArtifactError::Analysis {
                name: self.name.clone(),
                report,
            });
        }
        Ok(())
    }

    /// The published model name clients address.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input dimension one inference consumes.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension one inference produces.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// What the splitter rewrote (empty if the model fit whole).
    pub fn report(&self) -> &SplitReport {
        &self.report
    }

    /// The serving plan, in pipeline order.
    pub fn segments(&self) -> &[ShardSegment] {
        &self.segments
    }

    /// Whether any segment is a scatter/gather group.
    pub fn is_sharded(&self) -> bool {
        self.segments
            .iter()
            .any(|s| matches!(s, ShardSegment::Sharded(_)))
    }

    /// The widest segment: the minimum number of cooperating workers a
    /// pool needs to place every shard on a distinct worker.
    pub fn max_width(&self) -> usize {
        self.segments
            .iter()
            .map(ShardSegment::width)
            .max()
            .unwrap_or(1)
    }

    /// The whole-artifact analysis view over the serving plan: one unit
    /// per accelerator binary, one view stage per pipeline hop, sharded
    /// segments as scatter/gather groups. Host (CPU) stages are pointwise
    /// and relay vectors without changing dimension, so consecutive
    /// binaries chain by the default producer wiring.
    pub(crate) fn analysis_view(&self) -> ArtifactView<'_> {
        let mut view = ArtifactView::new(&self.name, self.input_dim);
        for segment in &self.segments {
            match segment {
                ShardSegment::Single(a) => {
                    let binaries = a.deployment().binaries();
                    for b in binaries {
                        let unit = view.add_unit(ArtifactUnit {
                            name: if binaries.len() == 1 {
                                a.name().to_owned()
                            } else {
                                format!("{}#d{}", a.name(), b.device)
                            },
                            program: &b.program,
                            config: a.config(),
                            options: b.analysis_options(),
                            input_dim: b.input_dim,
                            output_dim: b.output_dim,
                        });
                        view.push_single(unit);
                    }
                }
                ShardSegment::Sharded(members) => {
                    let units: Vec<usize> = members
                        .iter()
                        .filter_map(|m| {
                            let b = m.deployment().binaries().first()?;
                            Some(view.add_unit(ArtifactUnit {
                                name: m.name().to_owned(),
                                program: &b.program,
                                config: m.config(),
                                options: b.analysis_options(),
                                input_dim: b.input_dim,
                                output_dim: b.output_dim,
                            }))
                        })
                        .collect();
                    view.push_sharded(units);
                }
            }
        }
        view
    }

    /// Runs the artifact-level analysis checks (BW11x cross-shard
    /// dataflow, BW12x SLA when `opts.sla_us` is declared) over the
    /// serving plan.
    pub fn analyze(&self, opts: &LowerOptions) -> AnalysisReport {
        let mut view = self.analysis_view();
        let config = self
            .segments
            .first()
            .and_then(|s| s.members().first().map(|a| a.config().clone()));
        if let Some(cycles) = config.and_then(|c| opts.sla_cycles(&c)) {
            view = view.with_sla_cycles(cycles);
        }
        analyze_artifact(&view)
    }

    /// Guaranteed min/max cycle counts for one inference through the full
    /// serving plan (stage bounds add; scatter/gather members take the
    /// max), when provable for every binary.
    pub fn static_bounds(&self) -> Option<CycleBounds> {
        artifact_cycle_bounds(&self.analysis_view())
    }
}

/// Compiles a contiguous stage slice as its own pipeline.
fn compile_stages(
    name: String,
    input_dim: usize,
    stages: Vec<Stage>,
    budget: u64,
    config: &NpuConfig,
    opts: &LowerOptions,
) -> Result<ModelArtifact, ArtifactError> {
    let sub = Pipeline { input_dim, stages };
    let plan = partition(&sub, budget)?;
    let deployment = Deployment::compile_with(&sub, &plan, config, opts)?;
    Ok(ModelArtifact::new(name, config.clone(), deployment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ActFn, GirOp};
    use bw_bfp::BfpFormat;

    /// Packages a hand-assembled serving plan through the gate
    /// [`ShardedArtifact::compile`] uses.
    fn from_segments(
        name: &str,
        input_dim: usize,
        output_dim: usize,
        segments: Vec<ShardSegment>,
    ) -> Result<ShardedArtifact, ArtifactError> {
        let artifact = ShardedArtifact {
            name: name.into(),
            input_dim,
            output_dim,
            report: SplitReport::default(),
            segments,
        };
        artifact.gate(&LowerOptions::default())?;
        Ok(artifact)
    }

    fn config() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mrf_entries(1024)
            .vrf_entries(128)
            .matrix_format(BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    fn mlp(widths: &[usize]) -> GirGraph {
        let mut g = GirGraph::new();
        let mut prev = g.add(GirOp::Input { dim: widths[0] }, &[]).unwrap();
        for (li, w) in widths.windows(2).enumerate() {
            let weights: Vec<f32> = (0..w[0] * w[1])
                .map(|i| (((i + li * 5) % 11) as f32 - 5.0) / 16.0)
                .collect();
            let m = g
                .add(
                    GirOp::MatMul {
                        rows: w[1],
                        cols: w[0],
                        weights,
                    },
                    &[prev],
                )
                .unwrap();
            prev = g.add(GirOp::Activation(ActFn::Tanh), &[m]).unwrap();
        }
        g.add(GirOp::Output, &[prev]).unwrap();
        g
    }

    #[test]
    fn fitting_model_degenerates_to_one_single_segment() {
        let g = mlp(&[8, 16, 8]);
        let sharded =
            ShardedArtifact::compile("m", &g, 1 << 20, &config(), &LowerOptions::default())
                .unwrap();
        assert!(!sharded.is_sharded());
        assert_eq!(sharded.segments().len(), 1);
        assert_eq!(sharded.max_width(), 1);
        assert_eq!((sharded.input_dim(), sharded.output_dim()), (8, 8));
    }

    #[test]
    fn oversized_stage_becomes_a_scatter_gather_group() {
        // 64x16 = 1024 params over a 512 budget -> 2 shards of 32 rows.
        let g = mlp(&[16, 64, 8]);
        let sharded =
            ShardedArtifact::compile("big", &g, 512, &config(), &LowerOptions::default()).unwrap();
        assert!(sharded.is_sharded());
        assert_eq!(sharded.report().splits, vec![(0, 2)]);
        assert_eq!(sharded.max_width(), 2);
        // Segment plan: [group of 2, single tail].
        assert_eq!(sharded.segments().len(), 2);
        match &sharded.segments()[0] {
            ShardSegment::Sharded(members) => {
                assert_eq!(members.len(), 2);
                assert_eq!(members[0].name(), "big#g0s0");
                assert_eq!(members[0].input_dim(), 16);
                assert_eq!(members[0].output_dim(), 32);
            }
            other => panic!("expected a sharded head segment, got {other:?}"),
        }
        match &sharded.segments()[1] {
            ShardSegment::Single(a) => {
                assert_eq!(a.name(), "big#seg0");
                assert_eq!((a.input_dim(), a.output_dim()), (64, 8));
            }
            other => panic!("expected a single tail segment, got {other:?}"),
        }
    }

    #[test]
    fn federated_execution_is_bit_identical_to_single_device() {
        let g = mlp(&[16, 48, 24]);
        let cfg = config();
        // Reference: the whole model on one (big-budget) device pool.
        let reference =
            ModelArtifact::compile("ref", &g, 1 << 20, &cfg, &LowerOptions::default()).unwrap();
        let mut ref_pin = reference.pin().unwrap();

        let sharded =
            ShardedArtifact::compile("big", &g, 400, &cfg, &LowerOptions::default()).unwrap();
        assert!(sharded.is_sharded());

        // Host-side federated run: scatter/gather across pinned members.
        let x: Vec<f32> = (0..16).map(|i| ((i as f32) * 0.37).sin() * 0.5).collect();
        let mut value = x.clone();
        for segment in sharded.segments() {
            match segment {
                ShardSegment::Single(a) => {
                    value = a.pin().unwrap().infer(&value).unwrap();
                }
                ShardSegment::Sharded(members) => {
                    let mut gathered = Vec::new();
                    for m in members {
                        gathered.extend(m.pin().unwrap().infer(&value).unwrap());
                    }
                    value = gathered;
                }
            }
        }
        assert_eq!(value, ref_pin.infer(&x).unwrap(), "bit-identity");
    }

    #[test]
    fn compiled_artifacts_expose_provable_cycle_bounds() {
        let g = mlp(&[16, 64, 8]);
        let sharded =
            ShardedArtifact::compile("big", &g, 512, &config(), &LowerOptions::default()).unwrap();
        let b = sharded.static_bounds().expect("bounds provable");
        assert!(b.lower > 0 && b.lower <= b.upper);
        // Per-member bounds compose into the artifact bound: the artifact
        // lower bound is at least the widest segment's slowest member.
        for segment in sharded.segments() {
            for m in segment.members() {
                assert!(m.static_bounds().expect("member bound").lower <= b.lower);
            }
        }
    }

    #[test]
    fn unmatched_cross_shard_pop_is_rejected_with_bw110() {
        // Compile a shard honestly for 16-element scatters (2 native
        // vectors of pops), then hand-assemble a plan that only scatters
        // 8 elements (1 vector): the second pop has no matching peer push
        // and the shard deadlocks. The analysis gate must prove this
        // statically and refuse the plan.
        let cfg = config();
        let g = mlp(&[16, 32, 8]);
        let member =
            ModelArtifact::compile("lone#g0s0", &g, 1 << 20, &cfg, &LowerOptions::default())
                .unwrap();
        let err = from_segments(
            "lone",
            8,
            8,
            vec![ShardSegment::Sharded(vec![member.clone(), member])],
        )
        .unwrap_err();
        match err {
            ArtifactError::Analysis { name, report } => {
                assert_eq!(name, "lone");
                assert!(report.has_errors());
                assert!(
                    report
                        .diagnostics
                        .iter()
                        .any(|d| d.code == bw_core::DiagCode::ShardPopUnmatched),
                    "expected BW110, got: {report}"
                );
            }
            other => panic!("expected an analysis rejection, got {other:?}"),
        }
    }

    #[test]
    fn well_formed_hand_built_plans_pass_the_gate() {
        let cfg = config();
        let g = mlp(&[16, 32, 8]);
        let whole =
            ModelArtifact::compile("ok#seg0", &g, 1 << 20, &cfg, &LowerOptions::default()).unwrap();
        let artifact = from_segments("ok", 16, 8, vec![ShardSegment::Single(whole)]).unwrap();
        assert!(artifact.analyze(&LowerOptions::default()).is_clean());
        assert!(artifact.static_bounds().is_some());
    }

    #[test]
    fn unmeetable_sla_is_rejected_at_compile_with_bw120() {
        // Pick an SLA every binary meets on its own but the composed
        // pipeline provably cannot: only the artifact-level pass can
        // refuse it.
        let cfg = config();
        let g = mlp(&[16, 64, 8]);
        let relaxed =
            ShardedArtifact::compile("tight", &g, 512, &cfg, &LowerOptions::default()).unwrap();
        let total = relaxed.static_bounds().unwrap();
        let worst_binary = relaxed
            .segments()
            .iter()
            .flat_map(ShardSegment::members)
            .map(|m| m.static_bounds().unwrap().lower)
            .max()
            .unwrap();
        assert!(worst_binary < total.lower, "composition must add cycles");
        let sla_cycles = total.lower - 1;
        let sla_us = (sla_cycles as f64 + 0.5) / cfg.clock_hz() * 1e6;

        let opts = LowerOptions {
            sla_us: Some(sla_us),
            ..LowerOptions::default()
        };
        let err = ShardedArtifact::compile("tight", &g, 512, &cfg, &opts).unwrap_err();
        match err {
            ArtifactError::Analysis { report, .. } => {
                assert!(
                    report
                        .diagnostics
                        .iter()
                        .any(|d| d.code == bw_core::DiagCode::SlaViolation),
                    "expected BW120, got: {report}"
                );
            }
            other => panic!("expected an SLA rejection, got {other:?}"),
        }
    }
}
