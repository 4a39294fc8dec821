//! Lowering a model's accelerated stages to one BW ISA program (§II-B).
//!
//! A [`ModelArtifact`](crate::ModelArtifact)'s accelerable stages become
//! one ISA program: a network read, then one chain per stage (`mv_mul` +
//! fused `vv_add` + fused activation), ping-ponging intermediate
//! activations between two `InitialVrf` regions, and a final network
//! write. Its CPU stages run on the host before and after the program
//! ([`PinnedModel`](crate::PinnedModel)), mirroring the paper's federated
//! runtime that "executes both the CPU sub-graphs and accelerator
//! sub-graphs".

use bw_core::isa::{MemId, Program, ProgramBuilder};
use bw_core::{
    analyze_with, AnalysisOptions, AnalysisReport, CycleBounds, Npu, NpuConfig, SimError,
};

use crate::ir::ActFn;
use crate::pipeline::{Pipeline, Stage};

/// The compiled binary of a model's one accelerator.
#[derive(Clone, Debug, PartialEq)]
pub struct AcceleratorBinary {
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

/// Options controlling how strictly compilation
/// ([`ModelArtifact::compile`](crate::ModelArtifact::compile),
/// [`ShardedArtifact::compile`](crate::ShardedArtifact::compile)) gates
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

/// Error produced during lowering or execution.
#[derive(Clone, Debug, PartialEq)]
pub enum DeployError {
    /// A simulator error during weight loading or execution.
    Sim(SimError),
    /// The firmware linter rejected a lowered binary.
    Rejected {
        /// The artifact whose binary was rejected.
        artifact: String,
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
            DeployError::Sim(e) => write!(f, "simulator error: {e}"),
            DeployError::Rejected { artifact, report } => write!(
                f,
                "firmware linter rejected the binary of `{artifact}` \
                 ({} errors, {} warnings)",
                report.error_count(),
                report.warning_count()
            ),
        }
    }
}

impl std::error::Error for DeployError {}

/// Lowers the accelerable stages of `pipeline`, which run back to back,
/// to one binary for NPUs of configuration `config`, or `None` when every
/// stage runs on the host. The binary is analyzed under its deployment
/// facts ([`AcceleratorBinary::analysis_options`]) and refused if the
/// report blocks deployment under `opts`.
///
/// # Errors
///
/// Returns [`DeployError::Rejected`], naming `artifact`, if the binary
/// fails static analysis (with `deny_warnings` set, warnings also
/// reject).
pub(crate) fn lower(
    artifact: &str,
    pipeline: &Pipeline,
    config: &NpuConfig,
    opts: &LowerOptions,
) -> Result<Option<AcceleratorBinary>, DeployError> {
    let nd = config.native_dim();
    let grid = |d: usize| (d as u32).div_ceil(nd);
    let stages: Vec<usize> = (0..pipeline.stages.len())
        .filter(|&i| pipeline.stages[i].accelerable())
        .collect();
    let Some(&first) = stages.first() else {
        return Ok(None);
    };
    let input_dim = match &pipeline.stages[first] {
        Stage::Dense { cols, .. } => *cols,
        Stage::Pointwise { dim, .. } | Stage::Cpu { dim, .. } => *dim,
    };
    let output_dim = pipeline.stages[*stages.last().expect("non-empty")].out_dim();
    let widest = stages
        .iter()
        .map(|&i| grid(pipeline.stages[i].out_dim()))
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
    for (k, &i) in stages.iter().enumerate() {
        let act = match &pipeline.stages[i] {
            Stage::Dense {
                rows,
                cols,
                bias,
                act,
                ..
            } => {
                b.set_rows(grid(*rows)).set_cols(grid(*cols));
                b.v_rd(MemId::InitialVrf, slot(k)).mv_mul(mrf_base);
                mrf_base += grid(*rows) * grid(*cols);
                if bias.is_some() {
                    b.vv_add(bias_base);
                    bias_base += grid(*rows);
                }
                *act
            }
            Stage::Pointwise { act, dim } => {
                b.set_rows(grid(*dim));
                b.v_rd(MemId::InitialVrf, slot(k));
                Some(*act)
            }
            Stage::Cpu { .. } => unreachable!("host stages are not lowered"),
        };
        match act {
            Some(ActFn::Relu) => b.v_relu(),
            Some(ActFn::Sigmoid) => b.v_sigm(),
            Some(ActFn::Tanh) => b.v_tanh(),
            None => &mut b,
        };
        if k + 1 == stages.len() {
            b.v_wr(MemId::NetQ, 0);
        } else {
            b.v_wr(MemId::InitialVrf, slot(k + 1));
        }
        b.end_chain().expect(ok);
    }

    let binary = AcceleratorBinary {
        stages,
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
            artifact: artifact.to_owned(),
            report,
        });
    }
    Ok(Some(binary))
}

/// Pins `pipeline`'s dense weights and biases into `npu`, where
/// [`lower`]'s program reads them.
///
/// # Errors
///
/// Returns [`SimError`] if a load overflows a register file.
pub(crate) fn load(npu: &mut Npu, pipeline: &Pipeline) -> Result<(), SimError> {
    let nd = npu.config().native_dim();
    let grid = |d: usize| (d as u32).div_ceil(nd);
    let mut mrf_base = 0u32;
    let mut bias_base = 0u32;
    for stage in &pipeline.stages {
        if let Stage::Dense {
            rows,
            cols,
            weights,
            bias,
            ..
        } = stage
        {
            npu.load_tiled_matrix(mrf_base, grid(*rows), grid(*cols), *rows, *cols, weights)?;
            mrf_base += grid(*rows) * grid(*cols);
            if let Some(bias) = bias {
                npu.load_vector(MemId::AddSubVrf(0), bias_base, bias)?;
                bias_base += grid(*rows);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{GirGraph, GirOp};
    use crate::{ModelArtifact, PinnedModel, ShardSegment, ShardedArtifact};
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

        let x: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) / 8.0).collect();
        let (y, stats) = pinned.infer_with_stats(&x).unwrap();
        let want = g.evaluate(&x).unwrap();
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
        assert!(stats.cycles > 0);
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
        // 4 layers of 16x16 = 256 params each; budget 512 -> 2 segments.
        let g = mlp_graph(&[16, 16, 16, 16, 16], false);
        let cfg = config();
        let strict = LowerOptions {
            deny_warnings: true,
            ..LowerOptions::default()
        };
        let sharded = ShardedArtifact::compile("mlp", &g, 512, &cfg, &strict).unwrap();
        assert_eq!(sharded.segments().len(), 2);
        for member in sharded.segments().iter().flat_map(ShardSegment::members) {
            let report = member.binary().expect("accelerated").lint(&cfg);
            assert!(report.is_clean(), "{}: {report}", member.name());
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
