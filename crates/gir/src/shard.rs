//! Network-partitioned model artifacts: the compile-side half of serving
//! one model across cooperating workers.
//!
//! §II-A: "large, partitionable problems can be spatially distributed
//! across multiple accelerators" connected by the datacenter network.
//! [`crate::split_oversized_stages`] rewrites an oversized dense stage
//! into row shards; this module packages the rewritten pipeline as a
//! [`ShardedArtifact`] — an ordered list of [`ShardSegment`]s, each a
//! self-contained one-device [`ModelArtifact`] (or a scatter/gather group
//! of them) that a serving runtime pins on a *different* worker. The federated
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
use crate::lower::LowerOptions;
use crate::pipeline::{fuse, partition, Pipeline, Placement, Stage};
use crate::split::{split_oversized_stages, SplitReport};

/// One stage of a sharded model's serving plan, in pipeline order.
// Segments live in a short Vec built once at compile time; boxing the
// Single payload would buy nothing for the size skew clippy flags.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum ShardSegment {
    /// A contiguous run of stages that fits one device: pinned and served
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
/// sharded into a scatter/gather group and every other device packaged as
/// its own `Single` segment. Each member is an independently pin-able
/// one-device [`ModelArtifact`] within the budget.
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
    /// stage over `worker_param_budget` into a scatter/gather group of
    /// [`ModelArtifact`]s named `{name}#g{group}s{shard}`, and partition
    /// the runs of stages between the groups, each device its own `Single`
    /// segment named `{name}#seg{index}` in order. A host stage rides with
    /// the device before it or, heading a run, with the one after.
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

        let lower = |name: String, input_dim: usize, stages: Vec<Stage>| {
            ModelArtifact::lower(name, Pipeline { input_dim, stages }, config, opts)
        };
        let (mut segments, mut seg, mut at, mut dim) = (Vec::new(), 0, 0, split.input_dim);
        let group_heads = report.groups.iter().map(|group| group[0]);
        for (g, end) in group_heads.chain([split.stages.len()]).enumerate() {
            // The run of stages up to group `g`: each device of its
            // partition after the first starts a segment.
            let run = Pipeline {
                input_dim: dim,
                stages: split.stages[at..end].to_vec(),
            };
            let plan = partition(&run, worker_param_budget)?;
            let devices = plan.segments.iter().filter_map(|p| match p {
                Placement::Accelerator { stages } => Some(stages[0]),
                Placement::Cpu { .. } => None,
            });
            let bounds: Vec<usize> = std::iter::once(0)
                .chain(devices.skip(1))
                .chain([run.stages.len()])
                .collect();
            let mut stages = run.stages.into_iter();
            for w in bounds.windows(2).filter(|w| w[0] < w[1]) {
                let piece = stages.by_ref().take(w[1] - w[0]).collect();
                let member = lower(format!("{name}#seg{seg}"), dim, piece)?;
                (seg, dim) = (seg + 1, member.output_dim());
                segments.push(ShardSegment::Single(member));
            }
            let Some(group) = report.groups.get(g) else {
                break;
            };
            let mut members = Vec::with_capacity(group.len());
            for (s, &i) in group.iter().enumerate() {
                let shard = vec![split.stages[i].clone()];
                members.push(lower(format!("{name}#g{g}s{s}"), dim, shard)?);
            }
            dim = members.iter().map(ModelArtifact::output_dim).sum();
            at = end + group.len();
            segments.push(ShardSegment::Sharded(members));
        }

        let artifact = ShardedArtifact {
            name,
            input_dim: split.input_dim,
            output_dim: dim,
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
    /// per member with a binary, one view stage per pipeline hop, sharded
    /// segments as scatter/gather groups. Host (CPU) stages are pointwise
    /// and relay vectors without changing dimension, so consecutive
    /// binaries chain by the default producer wiring.
    pub(crate) fn analysis_view(&self) -> ArtifactView<'_> {
        let mut view = ArtifactView::new(&self.name, self.input_dim);
        for segment in &self.segments {
            let units: Vec<usize> = segment
                .members()
                .into_iter()
                .filter_map(|m| {
                    let b = m.binary()?;
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
            match (segment, units.as_slice()) {
                (ShardSegment::Sharded(_), _) => view.push_sharded(units),
                (ShardSegment::Single(_), &[unit]) => view.push_single(unit),
                (ShardSegment::Single(_), _) => continue,
            };
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
    fn each_device_of_an_over_budget_run_is_its_own_segment() {
        // Four 64x64 layers of 4,096 weights at 8,192 per device: two
        // devices, which one artifact refuses and a sharded one splits.
        let cfg = NpuConfig::builder()
            .native_dim(16)
            .lanes(4)
            .tile_engines(2)
            .mrf_entries(64)
            .vrf_entries(128)
            .matrix_format(BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap();
        let (g, opts) = (mlp(&[64, 64, 64, 64, 64]), LowerOptions::default());
        let refused = ModelArtifact::compile("m", &g, 8192, &cfg, &opts);
        assert!(matches!(
            refused,
            Err(ArtifactError::MultiDevice { devices: 2, .. })
        ));

        let sharded = ShardedArtifact::compile("m", &g, 8192, &cfg, &opts).unwrap();
        let x: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.23).cos() * 0.5).collect();
        let mut value = x.clone();
        for (k, segment) in sharded.segments().iter().enumerate() {
            let ShardSegment::Single(member) = segment else {
                panic!("segment {k} is a group");
            };
            assert_eq!(member.name(), format!("m#seg{k}"));
            assert_eq!(member.binary().map(|b| b.stages.len()), Some(2));
            assert!(member.weight_params() <= 8192);
            value = member.pin().unwrap().infer(&value).unwrap();
        }
        assert_eq!(sharded.segments().len(), 2);
        let whole = ModelArtifact::compile("whole", &g, 1 << 20, &cfg, &opts).unwrap();
        assert_eq!(
            value,
            whole.pin().unwrap().infer(&x).unwrap(),
            "bit-identity"
        );
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
