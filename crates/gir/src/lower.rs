//! Lowering partitioned pipelines to BW ISA programs, and the federated
//! execution a [`PinnedModel`](crate::PinnedModel) runs (§II-B).
//!
//! Each accelerator segment becomes one ISA program: a network read, then
//! one chain per dense stage (`mv_mul` + fused `vv_add` + fused
//! activation), ping-ponging intermediate activations between two
//! `InitialVrf` regions, and a final network write. CPU segments execute on
//! the host, mirroring the paper's federated runtime that "executes both
//! the CPU sub-graphs and accelerator sub-graphs".

use bw_core::isa::{MemId, Program, ProgramBuilder};
use bw_core::{
    analyze_with, AnalysisOptions, AnalysisReport, CycleBounds, Npu, NpuConfig, RunStats, SimError,
};

use crate::ir::{cpu_op_apply, ActFn};
use crate::pipeline::{PartitionPlan, Pipeline, Placement, Stage};

/// The compiled binary for one accelerator of the deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct AcceleratorBinary {
    /// Device index within the deployment's NPU pool.
    pub device: usize,
    /// The stage indices this binary executes.
    pub stages: Vec<usize>,
    /// The lowered ISA program.
    pub program: Program,
    /// Input dimension of the first stage.
    pub input_dim: usize,
    /// Output dimension of the last stage.
    pub output_dim: usize,
    /// Native-vector width of the output.
    pub output_grid: u32,
    /// Native-vector width of the input.
    pub input_grid: u32,
    /// MRF entries the binary's weights occupy.
    pub mrf_entries: u32,
    /// `AddSubVrf(0)` entries the binary's biases occupy.
    pub bias_entries: u32,
}

impl AcceleratorBinary {
    /// The deployment facts a pin establishes for this binary, in the
    /// form the static analyzer consumes: pinned weights and biases are
    /// preloaded, and the host pushes one padded input (`input_grid`
    /// vectors) and expects `output_grid` output vectors per inference.
    pub fn analysis_options(&self) -> AnalysisOptions {
        let mut opts = AnalysisOptions::default()
            .with_input_vectors(u64::from(self.input_grid))
            .with_expected_outputs(u64::from(self.output_grid));
        if self.mrf_entries > 0 {
            opts = opts.preload(MemId::MatrixRf, 0, self.mrf_entries);
        }
        if self.bias_entries > 0 {
            opts = opts.preload(MemId::AddSubVrf(0), 0, self.bias_entries);
        }
        opts
    }

    /// Runs the firmware linter on this binary's program under its
    /// deployment facts.
    pub fn lint(&self, config: &NpuConfig) -> AnalysisReport {
        analyze_with(&self.program, config, self.analysis_options())
    }

    /// Runs the linter with the [`LowerOptions`] policy applied: a
    /// declared SLA is converted into a per-binary cycle budget so the
    /// static cycle-bound check (BW120–BW122) participates in the gate.
    pub(crate) fn lint_with(&self, config: &NpuConfig, opts: &LowerOptions) -> AnalysisReport {
        let mut options = self.analysis_options();
        if let Some(cycles) = opts.sla_cycles(config) {
            options = options.with_sla_cycles(cycles);
        }
        analyze_with(&self.program, config, options)
    }

    /// Guaranteed min/max cycle counts for one run of this binary, when
    /// provable.
    pub fn static_bounds(&self, config: &NpuConfig) -> Option<CycleBounds> {
        bw_core::cycle_bounds(&self.program, config, &self.analysis_options())
    }

    /// Bytes of matrix-register-file storage this binary's pinned
    /// weights occupy on `config` — the MRF fill image a preload must
    /// ship and stream (see `bw_system::PreloadModel`).
    pub fn mrf_fill_bytes(&self, config: &NpuConfig) -> u64 {
        let entries = u64::from(config.mrf_entries());
        if entries == 0 {
            return 0;
        }
        let per_entry = config.mrf_bytes() / entries;
        per_entry * u64::from(self.mrf_entries)
    }
}

/// Options controlling how strictly [`Deployment::compile_with`] gates
/// lowered binaries on the firmware linter.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LowerOptions {
    /// Reject binaries whose analysis reports contain warnings, not just
    /// errors.
    pub deny_warnings: bool,
    /// Declared end-to-end service-level agreement in microseconds, if
    /// any. Compilation refuses models whose static cycle lower bound
    /// proves the SLA unmeetable on the target config (BW120).
    pub sla_us: Option<f64>,
}

impl LowerOptions {
    /// The SLA converted to cycles on `config`'s clock, if declared.
    #[must_use]
    pub fn sla_cycles(&self, config: &NpuConfig) -> Option<u64> {
        let us = self.sla_us?;
        if !us.is_finite() || us < 0.0 {
            return Some(0);
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some((us * 1e-6 * config.clock_hz()).floor() as u64)
    }
}

/// Error produced during lowering or federated execution.
#[derive(Clone, Debug, PartialEq)]
pub enum DeployError {
    /// A segment referenced a stage the pipeline does not have.
    BadPlan,
    /// An unknown CPU op name.
    UnknownCpuOp(
        /// The op name.
        String,
    ),
    /// A simulator error during weight loading or execution.
    Sim(SimError),
    /// The firmware linter rejected a lowered binary.
    Rejected {
        /// Device index of the rejected binary.
        device: usize,
        /// The analysis report that blocked deployment.
        report: AnalysisReport,
    },
}

impl From<SimError> for DeployError {
    fn from(e: SimError) -> Self {
        DeployError::Sim(e)
    }
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::BadPlan => write!(f, "partition plan does not match the pipeline"),
            DeployError::UnknownCpuOp(name) => write!(f, "unknown CPU op `{name}`"),
            DeployError::Sim(e) => write!(f, "simulator error: {e}"),
            DeployError::Rejected { device, report } => write!(
                f,
                "firmware linter rejected the binary for device {device} \
                 ({} errors, {} warnings)",
                report.error_count(),
                report.warning_count()
            ),
        }
    }
}

impl std::error::Error for DeployError {}

/// A compiled, partitioned model ready for federated execution.
#[derive(Clone, Debug, PartialEq)]
pub struct Deployment {
    pipeline: Pipeline,
    plan: PartitionPlan,
    binaries: Vec<AcceleratorBinary>,
    native_dim: u32,
}

impl Deployment {
    /// Compiles every accelerator segment of `plan` for NPUs of
    /// configuration `config`. Every lowered binary is analyzed under its
    /// deployment facts ([`AcceleratorBinary::analysis_options`]) and
    /// rejected if the report blocks deployment under `opts`.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::BadPlan`] if the plan references stages the
    /// pipeline lacks, or [`DeployError::Rejected`] if a lowered binary
    /// fails static analysis (with `deny_warnings` set, warnings also
    /// reject).
    pub fn compile_with(
        pipeline: &Pipeline,
        plan: &PartitionPlan,
        config: &NpuConfig,
        opts: &LowerOptions,
    ) -> Result<Deployment, DeployError> {
        let nd = config.native_dim();
        let grid = |d: usize| (d as u32).div_ceil(nd);
        let mut binaries = Vec::new();

        for segment in &plan.segments {
            let Placement::Accelerator { device, stages } = segment else {
                continue;
            };
            let denses: Vec<&Stage> = stages
                .iter()
                .map(|&i| pipeline.stages.get(i).ok_or(DeployError::BadPlan))
                .collect::<Result<_, _>>()?;

            // Dimensions through the segment.
            let input_dim = match denses.first().ok_or(DeployError::BadPlan)? {
                Stage::Dense { cols, .. } => *cols,
                Stage::Pointwise { dim, .. } => *dim,
                Stage::Cpu { .. } => return Err(DeployError::BadPlan),
            };
            let output_dim = denses.last().expect("non-empty").out_dim();

            let widest = denses
                .iter()
                .map(|s| grid(s.out_dim()))
                .chain(std::iter::once(grid(input_dim)))
                .max()
                .expect("non-empty");

            let mut b = ProgramBuilder::new();
            let ok = "statically valid lowered program";
            let slot = |k: usize| (k as u32 % 2) * widest;

            b.set_rows(grid(input_dim));
            b.v_rd(MemId::NetQ, 0)
                .v_wr(MemId::InitialVrf, slot(0))
                .end_chain()
                .expect(ok);

            let mut mrf_base = 0u32;
            let mut bias_base = 0u32;
            let mut in_dim = input_dim;
            for (k, stage) in denses.iter().enumerate() {
                let last = k + 1 == denses.len();
                match stage {
                    Stage::Dense {
                        rows,
                        cols,
                        bias,
                        act,
                        ..
                    } => {
                        debug_assert_eq!(*cols, in_dim);
                        b.set_rows(grid(*rows)).set_cols(grid(*cols));
                        b.v_rd(MemId::InitialVrf, slot(k)).mv_mul(mrf_base);
                        if bias.is_some() {
                            b.vv_add(bias_base);
                        }
                        if let Some(act) = act {
                            match act {
                                ActFn::Relu => b.v_relu(),
                                ActFn::Sigmoid => b.v_sigm(),
                                ActFn::Tanh => b.v_tanh(),
                            };
                        }
                        if last {
                            b.v_wr(MemId::NetQ, 0);
                        } else {
                            b.v_wr(MemId::InitialVrf, slot(k + 1));
                        }
                        b.end_chain().expect(ok);
                        mrf_base += grid(*rows) * grid(*cols);
                        if bias.is_some() {
                            bias_base += grid(*rows);
                        }
                        in_dim = *rows;
                    }
                    Stage::Pointwise { act, dim } => {
                        b.set_rows(grid(*dim));
                        b.v_rd(MemId::InitialVrf, slot(k));
                        match act {
                            ActFn::Relu => b.v_relu(),
                            ActFn::Sigmoid => b.v_sigm(),
                            ActFn::Tanh => b.v_tanh(),
                        };
                        if last {
                            b.v_wr(MemId::NetQ, 0);
                        } else {
                            b.v_wr(MemId::InitialVrf, slot(k + 1));
                        }
                        b.end_chain().expect(ok);
                        in_dim = *dim;
                    }
                    Stage::Cpu { .. } => return Err(DeployError::BadPlan),
                }
            }

            let binary = AcceleratorBinary {
                device: *device,
                stages: stages.clone(),
                program: b.build(),
                input_dim,
                output_dim,
                output_grid: grid(output_dim),
                input_grid: grid(input_dim),
                mrf_entries: mrf_base,
                bias_entries: bias_base,
            };
            let report = binary.lint_with(config, opts);
            if report.blocks_deployment(opts.deny_warnings) {
                return Err(DeployError::Rejected {
                    device: *device,
                    report,
                });
            }
            binaries.push(binary);
        }

        Ok(Deployment {
            pipeline: pipeline.clone(),
            plan: plan.clone(),
            binaries,
            native_dim: nd,
        })
    }

    /// The compiled accelerator binaries.
    pub fn binaries(&self) -> &[AcceleratorBinary] {
        &self.binaries
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

    /// Number of NPUs the deployment requires.
    pub(crate) fn devices_required(&self) -> usize {
        self.plan.devices_used
    }

    /// Total bytes of matrix-register-file storage the deployment's
    /// pinned weights occupy on `config`, summed across every
    /// accelerator binary — the image a fleet controller must ship to
    /// spin up a replica (see `bw_system::PreloadModel`).
    pub fn mrf_fill_bytes(&self, config: &NpuConfig) -> u64 {
        self.binaries.iter().map(|b| b.mrf_fill_bytes(config)).sum()
    }

    /// Guaranteed min/max cycle counts for one inference through every
    /// accelerator segment of the deployment (binaries run sequentially,
    /// so per-binary bounds add). `None` when any binary has no provable
    /// bound. Host CPU stages are not cycle-modeled and excluded.
    pub fn static_bounds(&self, config: &NpuConfig) -> Option<CycleBounds> {
        let mut total = CycleBounds { lower: 0, upper: 0 };
        for binary in &self.binaries {
            total = total.then(&binary.static_bounds(config)?);
        }
        Some(total)
    }

    /// Pins every accelerator segment's weights into its NPU.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if a load overflows capacity.
    pub(crate) fn deploy(&self, npus: &mut [Npu]) -> Result<(), DeployError> {
        for bin in &self.binaries {
            let npu = &mut npus[bin.device];
            let nd = npu.config().native_dim();
            let grid = |d: usize| (d as u32).div_ceil(nd);
            let mut mrf_base = 0u32;
            let mut bias_base = 0u32;
            for &si in &bin.stages {
                if let Stage::Dense {
                    rows,
                    cols,
                    weights,
                    bias,
                    ..
                } = &self.pipeline.stages[si]
                {
                    npu.load_tiled_matrix(
                        mrf_base,
                        grid(*rows),
                        grid(*cols),
                        *rows,
                        *cols,
                        weights,
                    )?;
                    mrf_base += grid(*rows) * grid(*cols);
                    if let Some(bias) = bias {
                        npu.load_vector(MemId::AddSubVrf(0), bias_base, bias)?;
                        bias_base += grid(*rows);
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes a coalesced micro-batch in one pass: each accelerator
    /// segment receives every column's input up front and runs its
    /// program once per column inside a single
    /// [`Npu::run_batch`](bw_core::Npu::run_batch) envelope, so the
    /// per-segment dispatch/streaming cost is paid once for the whole
    /// batch. Outputs come back in column order and are bit-identical
    /// to running each input as a batch of one (the simulator's
    /// functional path is timing-independent). The returned
    /// [`RunStats`] accumulates every column.
    ///
    /// Each call schedules every segment afresh; a
    /// [`PinnedModel`](crate::PinnedModel) keeps the schedules and runs
    /// only their data pass.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on device shortfall, unknown CPU ops, or
    /// simulator failures.
    pub(crate) fn execute_batch(
        &self,
        npus: &mut [Npu],
        inputs: &[Vec<f32>],
    ) -> Result<(Vec<Vec<f32>>, RunStats), DeployError> {
        self.execute_with(npus, inputs, |_, npu, program, batch| {
            npu.run_batch(program, batch)
        })
    }

    /// [`Deployment::execute_batch`], with `run(k, npu, program, batch)`
    /// running the `k`-th accelerator binary's program.
    pub(crate) fn execute_with(
        &self,
        npus: &mut [Npu],
        inputs: &[Vec<f32>],
        mut run: impl FnMut(usize, &mut Npu, &Program, usize) -> Result<RunStats, SimError>,
    ) -> Result<(Vec<Vec<f32>>, RunStats), DeployError> {
        // One carried value per batch column, the caller's inputs until a
        // segment replaces them. Each accelerator segment pushes every
        // column's input before running, and the simulator's FIFO
        // input/output queues keep the columns separated: column b pops
        // the vectors pushed for column b and its outputs drain in the
        // same order.
        let mut values: Option<Vec<Vec<f32>>> = None;
        let mut stats = RunStats::default();
        let mut bin_iter = self.binaries.iter().enumerate();
        for segment in &self.plan.segments {
            match segment {
                Placement::Accelerator { .. } => {
                    let (k, bin) = bin_iter.next().ok_or(DeployError::BadPlan)?;
                    let npu = &mut npus[bin.device];
                    for column in values.as_deref().unwrap_or(inputs) {
                        npu.push_input_padded(column);
                    }
                    let run = run(k, npu, &bin.program, inputs.len())?;
                    stats.accumulate(&run);
                    let mut outputs = Vec::with_capacity(inputs.len());
                    for _ in inputs {
                        let output = npu
                            .pop_output_concat(bin.output_grid as usize, bin.output_dim)
                            .ok_or(DeployError::Sim(SimError::NetQueueEmpty {
                                requested: bin.output_grid,
                                available: 0,
                            }))?;
                        outputs.push(output);
                    }
                    values = Some(outputs);
                }
                Placement::Cpu { stages } => {
                    let values = values.get_or_insert_with(|| inputs.to_vec());
                    for &si in stages {
                        let Stage::Cpu { name, .. } = &self.pipeline.stages[si] else {
                            return Err(DeployError::BadPlan);
                        };
                        for value in values.iter_mut() {
                            *value = cpu_op_apply(name, value)
                                .ok_or_else(|| DeployError::UnknownCpuOp(name.clone()))?;
                        }
                    }
                }
            }
        }
        Ok((values.unwrap_or_else(|| inputs.to_vec()), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{GirGraph, GirOp};
    use crate::pipeline::{fuse, partition};
    use crate::{ModelArtifact, PinnedModel};
    use bw_bfp::BfpFormat;

    fn config() -> NpuConfig {
        NpuConfig::builder()
            .native_dim(8)
            .lanes(4)
            .tile_engines(2)
            .mrf_entries(256)
            .vrf_entries(128)
            .matrix_format(BfpFormat::BFP_1S_5E_5M)
            .build()
            .unwrap()
    }

    fn mlp_graph(widths: &[usize], softmax: bool) -> GirGraph {
        let mut g = GirGraph::new();
        let mut prev = g.add(GirOp::Input { dim: widths[0] }, &[]).unwrap();
        for (li, w) in widths.windows(2).enumerate() {
            let weights: Vec<f32> = (0..w[0] * w[1])
                .map(|i| (((i + li * 7) % 11) as f32 - 5.0) / 20.0)
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
            let b = g
                .add(
                    GirOp::BiasAdd {
                        bias: vec![0.05; w[1]],
                    },
                    &[m],
                )
                .unwrap();
            prev = g
                .add(GirOp::Activation(crate::ir::ActFn::Tanh), &[b])
                .unwrap();
        }
        if softmax {
            prev = g
                .add(
                    GirOp::CpuOp {
                        name: "softmax".into(),
                    },
                    &[prev],
                )
                .unwrap();
        }
        g.add(GirOp::Output, &[prev]).unwrap();
        g
    }

    /// Compiles `g` under `budget` and pins it.
    fn pin(g: &GirGraph, budget: u64) -> PinnedModel {
        ModelArtifact::compile("mlp", g, budget, &config(), &LowerOptions::default())
            .unwrap()
            .pin()
            .unwrap()
    }

    #[test]
    fn single_device_deployment_matches_reference() {
        let g = mlp_graph(&[8, 12, 4], false);
        let mut pinned = pin(&g, 1 << 20);
        assert_eq!(pinned.devices(), 1);

        let x: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) / 8.0).collect();
        let (y, stats) = pinned.infer_with_stats(&x).unwrap();
        let want = g.evaluate(&x).unwrap();
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
        assert!(stats.cycles > 0);
    }

    #[test]
    fn multi_device_partition_round_trips() {
        // 4 layers of 16x16 = 256 params each; budget 512 -> 2 devices.
        let g = mlp_graph(&[16, 16, 16, 16, 16], false);
        let mut pinned = pin(&g, 512);
        assert_eq!(pinned.devices(), 2);
        let x = vec![0.2f32; 16];
        let y = pinned.infer(&x).unwrap();
        let want = g.evaluate(&x).unwrap();
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 0.15, "{a} vs {b}");
        }
    }

    #[test]
    fn cpu_tail_executes_on_host() {
        let g = mlp_graph(&[8, 8], true);
        let y = pin(&g, 1 << 20).infer(&[0.3; 8]).unwrap();
        let sum: f32 = y.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "softmax sums to 1, got {sum}");
    }

    #[test]
    fn lowered_binaries_lint_clean_even_under_deny_warnings() {
        let g = mlp_graph(&[16, 16, 16, 16, 16], false);
        let p = fuse(&g).unwrap();
        let plan = partition(&p, 512).unwrap();
        let cfg = config();
        let strict = LowerOptions {
            deny_warnings: true,
            ..LowerOptions::default()
        };
        let dep = Deployment::compile_with(&p, &plan, &cfg, &strict).unwrap();
        for bin in dep.binaries() {
            let report = bin.lint(&cfg);
            assert!(report.is_clean(), "device {}: {report}", bin.device);
        }
    }

    #[test]
    fn linter_rejects_a_corrupt_binary() {
        // A binary whose program reads VRF entries nothing initializes:
        // the deployment gate must refuse it.
        let cfg = config();
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::InitialVrf, 7)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let bin = AcceleratorBinary {
            device: 0,
            stages: vec![0],
            program: b.build(),
            input_dim: 8,
            output_dim: 8,
            output_grid: 1,
            input_grid: 1,
            mrf_entries: 0,
            bias_entries: 0,
        };
        let report = bin.lint(&cfg);
        assert!(report.has_errors(), "{report}");
        assert!(report.blocks_deployment(false));
    }
}
