//! Pin-able model artifacts: the unit a serving runtime deploys.
//!
//! §II-A publishes a compiled model as a *hardware microservice*: firmware
//! plus BFP weights pinned onto one or more NPUs, then driven by live
//! requests. [`ModelArtifact`] packages everything that pinning needs — a
//! name, the NPU configuration the firmware was lowered for, and the
//! compiled [`Deployment`] (ISA binaries + weight payloads) — while
//! [`PinnedModel`] is one live instance: the artifact deployed onto a set
//! of owned [`Npu`]s, ready to serve batch-1 inferences.

use bw_core::{Npu, NpuConfig, RunStats, Schedule, SpanRecord};

use crate::ir::{GirError, GirGraph};
use crate::lower::{DeployError, Deployment, LowerOptions};
use crate::pipeline::{fuse, partition, PartitionError};

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
    deployment: Deployment,
}

impl ModelArtifact {
    /// Packages an already-compiled deployment under `name`.
    pub fn new(
        name: impl Into<String>,
        config: NpuConfig,
        deployment: Deployment,
    ) -> ModelArtifact {
        ModelArtifact {
            name: name.into(),
            config,
            deployment,
        }
    }

    /// Runs the full toolflow — fuse, partition under
    /// `device_param_budget`, lower with the firmware-linter gate — and
    /// packages the result.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] if any toolflow phase rejects the model.
    pub fn compile(
        name: impl Into<String>,
        graph: &GirGraph,
        device_param_budget: u64,
        config: &NpuConfig,
        opts: &LowerOptions,
    ) -> Result<ModelArtifact, ArtifactError> {
        let pipeline = fuse(graph)?;
        let plan = partition(&pipeline, device_param_budget)?;
        let deployment = Deployment::compile_with(&pipeline, &plan, config, opts)?;
        Ok(ModelArtifact::new(name, config.clone(), deployment))
    }

    /// The artifact's published name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The NPU configuration the firmware was lowered for.
    pub fn config(&self) -> &NpuConfig {
        &self.config
    }

    /// The compiled deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Guaranteed min/max cycle counts for one inference through this
    /// artifact's accelerator binaries, when provable.
    pub fn static_bounds(&self) -> Option<bw_core::CycleBounds> {
        self.deployment.static_bounds(&self.config)
    }

    /// Input dimension one inference consumes.
    pub fn input_dim(&self) -> usize {
        self.deployment.input_dim()
    }

    /// Output dimension one inference produces.
    pub fn output_dim(&self) -> usize {
        self.deployment.output_dim()
    }

    /// Bytes of matrix-register-file storage this artifact's pinned
    /// weights occupy — the MRF image a replica spin-up must ship and
    /// stream, priced by `bw_system::PreloadModel`.
    pub fn mrf_fill_bytes(&self) -> u64 {
        self.deployment.mrf_fill_bytes(&self.config)
    }

    /// Stands up a live instance: instantiates the NPUs (fast kernels) and
    /// pins the weights.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if weight loading overflows a register file.
    pub fn pin(&self) -> Result<PinnedModel, DeployError> {
        let mut npus: Vec<Npu> = (0..self.deployment.devices_required())
            .map(|_| Npu::new(self.config.clone()))
            .collect();
        self.deployment.deploy(&mut npus)?;
        Ok(PinnedModel {
            deployment: self.deployment.clone(),
            npus,
            schedules: vec![Vec::new(); self.deployment.binaries().len()],
        })
    }
}

/// One live instance of a [`ModelArtifact`]: the deployment pinned onto
/// owned NPUs. Not `Sync` by design — a pinned model is a single device
/// pool serving one request at a time, exactly like the hardware; replicas
/// are separate pins.
///
/// The model schedules once per pin, as the hardware's static schedule
/// does (§V-C). It keeps every [`Schedule`] its accelerator segments have
/// computed, keyed by batch size and by the tiling registers and queued
/// arrivals the run starts from, and a run whose device stands where a
/// kept schedule started ([`Npu::can_execute`]) executes that schedule:
/// the data pass alone. Any other run schedules, and its schedule is
/// kept. A segment keeps at most one schedule per (batch size, start
/// state), so the batch sizes a caller sends bound the cache: a served
/// model keeps one per batch size, from where every run after the first
/// starts, and the first run's, from the reset registers.
#[derive(Clone, Debug)]
pub struct PinnedModel {
    deployment: Deployment,
    npus: Vec<Npu>,
    /// The kept schedules of each accelerator binary, in binary order.
    schedules: Vec<Vec<Schedule>>,
}

impl PinnedModel {
    /// Runs one batch-1 inference through the pinned devices.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on simulator failures.
    pub fn infer(&mut self, input: &[f32]) -> Result<Vec<f32>, DeployError> {
        self.infer_with_stats(input).map(|(y, _)| y)
    }

    /// [`PinnedModel::infer`] returning the accumulated accelerator
    /// statistics alongside the output.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on simulator failures.
    pub fn infer_with_stats(&mut self, input: &[f32]) -> Result<(Vec<f32>, RunStats), DeployError> {
        let (mut outputs, stats) = self.infer_batch(std::slice::from_ref(&input.to_vec()))?;
        Ok((outputs.pop().expect("batch of one"), stats))
    }

    /// Runs a coalesced micro-batch through the pinned devices: one
    /// multi-column dispatch per accelerator segment, returning
    /// per-column outputs in input order plus the accumulated statistics
    /// for the whole batch.
    /// Outputs are bit-identical to calling
    /// [`PinnedModel::infer_with_stats`] once per input.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on simulator failures.
    pub fn infer_batch(
        &mut self,
        inputs: &[Vec<f32>],
    ) -> Result<(Vec<Vec<f32>>, RunStats), DeployError> {
        let schedules = &mut self.schedules;
        self.deployment
            .execute_with(&mut self.npus, inputs, |k, npu, program, batch| {
                let kept = &mut schedules[k];
                let found = kept
                    .iter()
                    .position(|s| s.batch() == batch && npu.can_execute(s));
                let i = found.unwrap_or_else(|| {
                    kept.push(npu.schedule(program, batch));
                    kept.len() - 1
                });
                npu.execute(&kept[i])
            })
    }

    /// [`PinnedModel::infer_batch`] with span tracing: arms every pinned
    /// device ([`Npu::set_trace`]) for the duration of the call, then
    /// drains each device's spans in device order — the order they ran
    /// in, one device per accelerator segment — stamping each with its
    /// device ordinal. Every device is disarmed again, even when the run
    /// fails, so a traced inference leaves the instance exactly as a
    /// plain one does. The spans come from the timeline, so a traced call
    /// schedules afresh and neither reads nor fills the kept schedules.
    /// The spans' `trace_id` is left for the caller.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on simulator failures.
    #[allow(clippy::type_complexity)]
    pub fn infer_batch_traced(
        &mut self,
        inputs: &[Vec<f32>],
    ) -> Result<(Vec<Vec<f32>>, RunStats, Vec<SpanRecord>), DeployError> {
        for npu in &mut self.npus {
            npu.set_trace(true);
        }
        let result = self.deployment.execute_batch(&mut self.npus, inputs);
        let mut spans = Vec::new();
        for (d, npu) in self.npus.iter_mut().enumerate() {
            spans.extend(npu.take_spans().into_iter().map(|mut span| {
                span.device = d as u32;
                span
            }));
            npu.set_trace(false);
        }
        let (outputs, stats) = result?;
        Ok((outputs, stats, spans))
    }

    /// Input dimension one inference consumes.
    pub fn input_dim(&self) -> usize {
        self.deployment.input_dim()
    }

    /// Output dimension one inference produces.
    pub fn output_dim(&self) -> usize {
        self.deployment.output_dim()
    }

    /// Devices this instance occupies.
    pub fn devices(&self) -> usize {
        self.npus.len()
    }

    /// The device clock in Hz (for converting span cycles to wall time).
    pub fn clock_hz(&self) -> f64 {
        self.npus
            .first()
            .map(|n| n.config().clock_hz())
            .unwrap_or(0.0)
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
        // Two devices, so each segment keeps its own schedules.
        let g = mlp(&[16, 16, 16, 16, 16]);
        let artifact =
            ModelArtifact::compile("deep", &g, 512, &config(), &LowerOptions::default()).unwrap();
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
        // Per segment, the first call's schedule (from the reset registers)
        // and one per batch size from where every later run starts.
        let kept: Vec<_> = warm.schedules.iter().map(Vec::len).collect();
        assert_eq!(kept, [3, 3]);
        // A traced call schedules afresh and leaves the kept ones alone.
        let (outputs, stats, spans) = warm.infer_batch_traced(&batch).unwrap();
        assert_eq!((outputs, stats), first_batch);
        assert!(!spans.is_empty());
        assert_eq!(
            warm.schedules.iter().map(Vec::len).collect::<Vec<_>>(),
            kept
        );
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

    #[test]
    fn multi_device_artifact_pins_every_device() {
        // 4 layers of 16x16 under a 512-param budget -> 2 devices.
        let g = mlp(&[16, 16, 16, 16, 16]);
        let artifact =
            ModelArtifact::compile("deep", &g, 512, &config(), &LowerOptions::default()).unwrap();
        assert_eq!(artifact.deployment().devices_required(), 2);
        let pinned = artifact.pin().unwrap();
        assert_eq!(pinned.devices(), 2);
    }
}
