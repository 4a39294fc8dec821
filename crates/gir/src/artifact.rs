//! Pin-able model artifacts: the unit a serving runtime deploys.
//!
//! §II-A publishes a compiled model as a *hardware microservice*: firmware
//! plus BFP weights pinned onto an NPU, then driven by live requests.
//! [`ModelArtifact`] packages everything that pinning needs — a name, the
//! NPU configuration the firmware was lowered for, the fused stages with
//! their weights and the [`AcceleratorBinary`] they lower to — while
//! [`PinnedModel`] is one live instance: the artifact pinned onto an owned
//! [`Npu`], ready to serve batch-1 inferences.
//!
//! # One compiled model, one device
//!
//! A `ModelArtifact` runs on at most one NPU: its accelerable stages lower
//! to one binary, and its host (CPU) stages run before or after it. A model
//! that needs more devices — weights over the per-device budget, or a host
//! op between two accelerated stages ([`partition`] opens a new device
//! after a host hop) — is refused by [`ModelArtifact::compile`]
//! ([`ArtifactError::MultiDevice`]). It compiles as a
//! [`ShardedArtifact`](crate::ShardedArtifact) instead, one segment per
//! device, each pinned on its own worker and joined over the modeled
//! datacenter network, as the paper spreads a large model "across FPGAs".

use bw_core::{CycleBounds, Npu, NpuConfig, RunStats, Schedule, SimError, SpanRecord};

use crate::ir::{cpu_op_apply, GirError, GirGraph};
use crate::lower::{load, lower, AcceleratorBinary, DeployError, LowerOptions};
use crate::pipeline::{fuse, partition, PartitionError, Pipeline, Placement, Stage};

/// Error produced while packaging a model into an artifact.
#[derive(Clone, Debug, PartialEq)]
pub enum ArtifactError {
    /// The source graph failed fusion/validation.
    Gir(GirError),
    /// The fused pipeline could not be partitioned under the budget.
    Partition(PartitionError),
    /// An oversized stage could not be row-sharded under the budget.
    Split(crate::split::SplitError),
    /// Lowering or deployment failed.
    Deploy(DeployError),
    /// The model needs more than one device, and a [`ModelArtifact`]
    /// runs on one: compile it as a [`ShardedArtifact`](crate::ShardedArtifact).
    MultiDevice {
        /// The model's name.
        name: String,
        /// The devices its partition needs.
        devices: usize,
    },
    /// Whole-artifact static analysis refused the serving plan (BW11x
    /// cross-shard dataflow or BW12x SLA diagnostics).
    Analysis {
        /// The artifact whose plan was refused.
        name: String,
        /// The blocking artifact-level report.
        report: bw_core::AnalysisReport,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Gir(e) => write!(f, "graph error: {e}"),
            ArtifactError::Partition(e) => write!(f, "partition error: {e}"),
            ArtifactError::Split(e) => write!(f, "split error: {e}"),
            ArtifactError::Deploy(e) => write!(f, "deploy error: {e}"),
            ArtifactError::MultiDevice { name, devices } => write!(
                f,
                "`{name}` needs {devices} devices and a compiled model runs on one: \
                 compile it as a `ShardedArtifact`"
            ),
            ArtifactError::Analysis { name, report } => write!(
                f,
                "artifact analysis refused `{name}`: {} error(s), {} warning(s)",
                report.error_count(),
                report.warning_count()
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<GirError> for ArtifactError {
    fn from(e: GirError) -> Self {
        ArtifactError::Gir(e)
    }
}
impl From<PartitionError> for ArtifactError {
    fn from(e: PartitionError) -> Self {
        ArtifactError::Partition(e)
    }
}
impl From<crate::split::SplitError> for ArtifactError {
    fn from(e: crate::split::SplitError) -> Self {
        ArtifactError::Split(e)
    }
}
impl From<DeployError> for ArtifactError {
    fn from(e: DeployError) -> Self {
        ArtifactError::Deploy(e)
    }
}

/// A compiled, self-contained, pin-able model: everything a worker needs
/// to stand up a live NPU-backed instance of a hardware microservice.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelArtifact {
    name: String,
    config: NpuConfig,
    pipeline: Pipeline,
    binary: Option<AcceleratorBinary>,
}

impl ModelArtifact {
    /// Runs the full toolflow — fuse, partition under
    /// `device_param_budget`, lower with the firmware-linter gate — and
    /// packages the result.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] if any toolflow phase rejects the model,
    /// and [`ArtifactError::MultiDevice`] if it needs more than one device.
    pub fn compile(
        name: impl Into<String>,
        graph: &GirGraph,
        device_param_budget: u64,
        config: &NpuConfig,
        opts: &LowerOptions,
    ) -> Result<ModelArtifact, ArtifactError> {
        let name = name.into();
        let pipeline = fuse(graph)?;
        let plan = partition(&pipeline, device_param_budget)?;
        let devices = plan
            .segments
            .iter()
            .filter(|p| matches!(p, Placement::Accelerator { .. }))
            .count();
        if devices > 1 {
            return Err(ArtifactError::MultiDevice { name, devices });
        }
        Ok(ModelArtifact::lower(name, pipeline, config, opts)?)
    }

    /// Lowers `pipeline`, whose accelerable stages must fit one device and
    /// run back to back, and packages it under `name`.
    pub(crate) fn lower(
        name: String,
        pipeline: Pipeline,
        config: &NpuConfig,
        opts: &LowerOptions,
    ) -> Result<ModelArtifact, DeployError> {
        let binary = lower(&name, &pipeline, config, opts)?;
        Ok(ModelArtifact {
            name,
            config: config.clone(),
            pipeline,
            binary,
        })
    }

    /// The artifact's published name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The NPU configuration the firmware was lowered for.
    pub fn config(&self) -> &NpuConfig {
        &self.config
    }

    /// The binary the accelerated stages lower to; `None` when every
    /// stage runs on the host.
    pub fn binary(&self) -> Option<&AcceleratorBinary> {
        self.binary.as_ref()
    }

    /// Weight parameters this artifact pins on its device.
    pub fn weight_params(&self) -> u64 {
        self.pipeline.stages.iter().map(Stage::weight_params).sum()
    }

    /// Guaranteed min/max cycle counts for one inference through this
    /// artifact's binary, when provable. Host stages are not cycle-modeled:
    /// a host-only model is bounded by zero cycles.
    pub fn static_bounds(&self) -> Option<CycleBounds> {
        self.binary
            .as_ref()
            .map_or(Some(CycleBounds { lower: 0, upper: 0 }), |b| {
                b.static_bounds(&self.config)
            })
    }

    /// Input dimension one inference consumes.
    pub fn input_dim(&self) -> usize {
        self.pipeline.input_dim
    }

    /// Output dimension one inference produces.
    pub fn output_dim(&self) -> usize {
        self.pipeline
            .stages
            .last()
            .map_or(self.pipeline.input_dim, Stage::out_dim)
    }

    /// Bytes of matrix-register-file storage this artifact's pinned
    /// weights occupy — the MRF image a replica spin-up must ship and
    /// stream, priced by `bw_system::PreloadModel`.
    pub fn mrf_fill_bytes(&self) -> u64 {
        self.binary
            .as_ref()
            .map_or(0, |b| b.mrf_fill_bytes(&self.config))
    }

    /// Stands up a live instance: instantiates the NPU (fast kernels) and
    /// pins the weights.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if weight loading overflows a register file.
    pub fn pin(&self) -> Result<PinnedModel, DeployError> {
        let device = match &self.binary {
            Some(binary) => {
                let mut npu = Npu::new(self.config.clone());
                load(&mut npu, &self.pipeline)?;
                Some((npu, binary.clone()))
            }
            None => None,
        };
        let host_ops = |stages: &[Stage]| {
            let names = stages.iter().filter_map(|s| match s {
                Stage::Cpu { name, .. } => Some(name.clone()),
                _ => None,
            });
            names.collect()
        };
        let head = self.binary.as_ref().map_or(0, |b| b.stages[0]);
        let (before, after) = self.pipeline.stages.split_at(head);
        Ok(PinnedModel {
            input_dim: self.input_dim(),
            output_dim: self.output_dim(),
            before: host_ops(before),
            device,
            schedules: Vec::new(),
            after: host_ops(after),
        })
    }
}

/// One live instance of a [`ModelArtifact`]: its binary pinned onto one
/// owned NPU, with the host ops to run around it. Not `Sync` by design — a
/// pinned model is a single device serving one request at a time, exactly
/// like the hardware; replicas are separate pins.
///
/// The model schedules once per pin, as the hardware's static schedule
/// does (§V-C). It keeps every [`Schedule`] its binary has computed, keyed
/// by batch size and by the tiling registers and queued arrivals the run
/// starts from, and a run whose device stands where a kept schedule
/// started ([`Npu::can_execute`]) executes that schedule: the data pass
/// alone. Any other run schedules, and its schedule is kept. It keeps at
/// most one schedule per (batch size, start state), so the batch sizes a
/// caller sends bound the cache: a served model keeps one per batch size,
/// from where every run after the first starts, and the first run's, from
/// the reset registers.
#[derive(Clone, Debug)]
pub struct PinnedModel {
    input_dim: usize,
    output_dim: usize,
    /// Host ops run before the binary, in order.
    before: Vec<String>,
    /// The NPU and the binary pinned on it; `None` for a host-only model.
    device: Option<(Npu, AcceleratorBinary)>,
    /// The binary's kept schedules.
    schedules: Vec<Schedule>,
    /// Host ops run after the binary, in order.
    after: Vec<String>,
}

impl PinnedModel {
    /// Runs one batch-1 inference through the pinned device.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on simulator failures.
    pub fn infer(&mut self, input: &[f32]) -> Result<Vec<f32>, DeployError> {
        self.infer_with_stats(input).map(|(y, _)| y)
    }

    /// [`PinnedModel::infer`] returning the accelerator statistics
    /// alongside the output.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on simulator failures.
    pub fn infer_with_stats(&mut self, input: &[f32]) -> Result<(Vec<f32>, RunStats), DeployError> {
        let (mut outputs, stats) = self.run(&[input], false)?;
        Ok((outputs.pop().expect("batch of one"), stats))
    }

    /// Runs a coalesced micro-batch through the pinned device: one
    /// multi-column dispatch, returning per-column outputs in input order
    /// plus the statistics for the whole batch. Outputs are bit-identical
    /// to calling [`PinnedModel::infer_with_stats`] once per input.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on simulator failures.
    pub fn infer_batch(
        &mut self,
        inputs: &[Vec<f32>],
    ) -> Result<(Vec<Vec<f32>>, RunStats), DeployError> {
        self.run(inputs, false)
    }

    /// [`PinnedModel::infer_batch`] with span tracing: arms the device
    /// ([`Npu::set_trace`]) for the duration of the call, then drains its
    /// spans. The device is disarmed again, even when the run fails, so a
    /// traced inference leaves the instance exactly as a plain one does.
    /// The spans come from the timeline, so a traced call schedules afresh
    /// and neither reads nor fills the kept schedules. The spans'
    /// `trace_id` and `device` are left for the caller.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on simulator failures.
    #[allow(clippy::type_complexity)]
    pub fn infer_batch_traced(
        &mut self,
        inputs: &[Vec<f32>],
    ) -> Result<(Vec<Vec<f32>>, RunStats, Vec<SpanRecord>), DeployError> {
        if let Some((npu, _)) = &mut self.device {
            npu.set_trace(true);
        }
        let result = self.run(inputs, true);
        let spans = self.device.as_mut().map_or_else(Vec::new, |(npu, _)| {
            let spans = npu.take_spans();
            npu.set_trace(false);
            spans
        });
        let (outputs, stats) = result?;
        Ok((outputs, stats, spans))
    }

    /// Input dimension one inference consumes.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension one inference produces.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Runs `inputs` through the host ops before the binary, the binary
    /// (on a kept schedule, or a fresh one when `fresh`), then the host
    /// ops after it. Every column's input is pushed before the run, and
    /// the NPU's FIFO queues keep the columns apart: column b pops the
    /// vectors pushed for it, and its outputs drain in the same order.
    fn run(
        &mut self,
        inputs: &[impl AsRef<[f32]>],
        fresh: bool,
    ) -> Result<(Vec<Vec<f32>>, RunStats), DeployError> {
        let copy = || inputs.iter().map(|x| x.as_ref().to_vec()).collect();
        let mut values: Option<Vec<Vec<f32>>> = (!self.before.is_empty()).then(copy);
        if let Some(values) = &mut values {
            host(&self.before, values);
        }
        let mut stats = RunStats::default();
        if let Some((npu, binary)) = &mut self.device {
            let batch = inputs.len();
            for (b, column) in inputs.iter().enumerate() {
                // The host ops' result, where host ops come first.
                npu.push_input_padded(values.as_ref().map_or(column.as_ref(), |v| &v[b]));
            }
            stats = if fresh {
                npu.run_batch(&binary.program, batch)?
            } else {
                // Newest first; `execute` refuses a stale schedule and
                // changes nothing.
                let kept = &mut self.schedules;
                let warm = kept.iter().rev().filter(|s| s.batch() == batch);
                let mut ran = warm.map(|s| npu.execute(s));
                match ran.find(|r| !matches!(r, Err(SimError::StaleSchedule))) {
                    Some(ran) => ran?,
                    None => {
                        kept.push(npu.schedule(&binary.program, batch));
                        npu.execute(kept.last().expect("just kept"))?
                    }
                }
            };
            let mut outputs = Vec::with_capacity(batch);
            for _ in inputs {
                let output = npu
                    .pop_output_concat(binary.output_grid as usize, binary.output_dim)
                    .ok_or(DeployError::Sim(SimError::NetQueueEmpty {
                        requested: binary.output_grid,
                        available: 0,
                    }))?;
                outputs.push(output);
            }
            values = Some(outputs);
        }
        let mut values = values.unwrap_or_else(copy);
        host(&self.after, &mut values);
        Ok((values, stats))
    }
}

/// Applies the host ops `names`, in order, to every column of `values`.
fn host(names: &[String], values: &mut [Vec<f32>]) {
    for name in names {
        for value in values.iter_mut() {
            *value = cpu_op_apply(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ActFn, GirOp};

    fn config() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mrf_entries(256)
            .vrf_entries(128)
            .matrix_format(bw_bfp::BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    fn mlp(widths: &[usize]) -> GirGraph {
        let mut g = GirGraph::new();
        let mut prev = g.add(GirOp::Input { dim: widths[0] }, &[]).unwrap();
        for (li, w) in widths.windows(2).enumerate() {
            let weights: Vec<f32> = (0..w[0] * w[1])
                .map(|i| (((i + li * 3) % 9) as f32 - 4.0) / 16.0)
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
    fn compile_pin_infer_matches_reference() {
        let g = mlp(&[8, 16, 4]);
        let artifact = ModelArtifact::compile(
            "mlp-8-16-4",
            &g,
            1 << 20,
            &config(),
            &LowerOptions::default(),
        )
        .unwrap();
        assert_eq!(artifact.name(), "mlp-8-16-4");
        assert_eq!(artifact.input_dim(), 8);
        assert_eq!(artifact.output_dim(), 4);

        let mut pinned = artifact.pin().unwrap();
        let x: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) / 10.0).collect();
        let y = pinned.infer(&x).unwrap();
        let want = g.evaluate(&x).unwrap();
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn pins_are_independent_replicas() {
        let g = mlp(&[8, 8]);
        let artifact =
            ModelArtifact::compile("mlp", &g, 1 << 20, &config(), &LowerOptions::default())
                .unwrap();
        let mut a = artifact.pin().unwrap();
        let mut b = artifact.pin().unwrap();
        let x = vec![0.25f32; 8];
        assert_eq!(a.infer(&x).unwrap(), b.infer(&x).unwrap());
        // Replicas keep serving identically after divergent histories.
        let _ = a.infer(&[0.9f32; 8]).unwrap();
        assert_eq!(a.infer(&x).unwrap(), b.infer(&x).unwrap());
    }

    #[test]
    fn a_kept_schedule_serves_as_a_fresh_pin_does() {
        let g = mlp(&[16, 16, 16, 16, 16]);
        let artifact =
            ModelArtifact::compile("deep", &g, 1 << 20, &config(), &LowerOptions::default())
                .unwrap();
        let x: Vec<f32> = (0..16).map(|i| (i as f32 - 7.5) / 9.0).collect();
        let batch = vec![x.clone(), vec![0.3; 16], x.clone()];
        let first = artifact.pin().unwrap().infer_with_stats(&x).unwrap();
        let first_batch = artifact.pin().unwrap().infer_batch(&batch).unwrap();

        let mut warm = artifact.pin().unwrap();
        for _ in 0..3 {
            assert_eq!(warm.infer_with_stats(&x).unwrap(), first);
            assert_eq!(warm.infer(&x).unwrap(), first.0);
            assert_eq!(warm.infer_batch(&batch).unwrap(), first_batch);
        }
        // The first call's schedule (from the reset registers) and one per
        // batch size from where every later run starts.
        assert_eq!(warm.schedules.len(), 3);
        // A traced call schedules afresh and leaves the kept ones alone.
        let (outputs, stats, spans) = warm.infer_batch_traced(&batch).unwrap();
        assert_eq!((outputs, stats), first_batch);
        assert!(!spans.is_empty());
        assert_eq!(warm.schedules.len(), 3);
    }

    #[test]
    fn warm_requests_replay_the_first_ones_bits() {
        // Layers of `mv_mul`, `vv_add` of the bias and `v_tanh`, whose
        // step lists the first request's schedules keep.
        let mut g = GirGraph::new();
        let mut prev = g.add(GirOp::Input { dim: 16 }, &[]).unwrap();
        for w in [16, 40, 24, 8].windows(2) {
            let weights = (0..w[0] * w[1])
                .map(|i| ((i % 7) as f32 - 3.0) / 8.0)
                .collect();
            let (rows, cols) = (w[1], w[0]);
            let m = g
                .add(
                    GirOp::MatMul {
                        rows,
                        cols,
                        weights,
                    },
                    &[prev],
                )
                .unwrap();
            let bias = (0..rows).map(|i| (i as f32 - 9.0) / 32.0).collect();
            let b = g.add(GirOp::BiasAdd { bias }, &[m]).unwrap();
            prev = g.add(GirOp::Activation(ActFn::Tanh), &[b]).unwrap();
        }
        g.add(GirOp::Output, &[prev]).unwrap();
        let artifact =
            ModelArtifact::compile("biased", &g, 1 << 20, &config(), &LowerOptions::default())
                .unwrap();
        let mut pinned = artifact.pin().unwrap();
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).sin()).collect();
        let bits = |y: Vec<f32>| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let first = bits(pinned.infer(&x).unwrap());
        for request in 2..=100 {
            let again = bits(pinned.infer(&x).unwrap());
            if request == 2 || request == 100 {
                assert_eq!(again, first, "request {request}");
            }
        }
    }

    /// Asserts that `g` compiles only as a sharded model, naming it.
    fn refused(g: &GirGraph, budget: u64) {
        let err = ModelArtifact::compile("two", g, budget, &config(), &LowerOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            ArtifactError::MultiDevice {
                name: "two".into(),
                devices: 2
            }
        );
        assert!(err.to_string().contains("`ShardedArtifact`"), "{err}");
    }

    #[test]
    fn a_model_needing_two_devices_is_refused() {
        // 4 layers of 16x16 under a 512-param budget -> 2 devices.
        refused(&mlp(&[16, 16, 16, 16, 16]), 512);
    }

    #[test]
    fn a_host_op_between_accelerated_layers_is_refused() {
        let hop = "input 8\ndense 8 tanh seed=1\ncpu softmax\ndense 8 seed=2\noutput\n";
        refused(&crate::parse_model(hop).unwrap(), 1 << 20);
    }

    #[test]
    fn a_host_only_model_compiles_pins_and_matches_the_graph() {
        let g = crate::parse_model("input 6\ncpu softmax\noutput\n").unwrap();
        let artifact =
            ModelArtifact::compile("host", &g, 1 << 20, &config(), &LowerOptions::default())
                .unwrap();
        assert!(artifact.binary().is_none());
        assert_eq!(artifact.mrf_fill_bytes(), 0);
        let x: Vec<f32> = (0..6).map(|i| i as f32 / 3.0).collect();
        let (y, stats) = artifact.pin().unwrap().infer_with_stats(&x).unwrap();
        assert_eq!(y, g.evaluate(&x).unwrap());
        assert_eq!(stats, RunStats::default());
    }
}
