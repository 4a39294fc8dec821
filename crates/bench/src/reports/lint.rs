//! `lint` — run the bw-core firmware linter over generated firmware.
//!
//! Lints the production LSTM kernel (the paper's §IV-C listing) on a
//! BW_S10-shaped instance and prints the analysis report, exercising the
//! same deployment gate `bw-gir` applies when compiling pipelines.
//!
//! ```text
//! bw-bench lint                          # lint LSTM firmware
//! bw-bench lint --hidden 2000 --steps 50
//! bw-bench lint --deny-warnings
//! bw-bench lint --json                   # machine-readable report
//! bw-bench lint --sla-us 50              # BW12x verdict on its cycle bound
//! bw-bench lint --demo                   # seeded-bug showcase
//! bw-bench lint --artifact --hidden 128  # whole-artifact (BW11x/BW12x) analysis
//! bw-bench lint --artifact --sla-us 50 --json
//! ```
//!
//! `--artifact` switches from single-program linting to whole-artifact
//! analysis: it shards an MLP (`hidden → 2·hidden → hidden`) into a
//! scatter/gather serving plan and runs the cross-shard dataflow and
//! static cycle-bound checks over the composed plan, emitting the BW11x
//! and (under `--sla-us`) BW12x diagnostic families. In either mode
//! `--sla-us` declares the SLA, converted to cycles on the target's clock
//! by `LowerOptions::sla_cycles`.
//!
//! Exits 1 if the report blocks deployment (errors; warnings too under
//! `--deny-warnings`), so it slots into CI and toolflow scripts.
//! `--demo` always exits zero: its diagnostics are the expected output,
//! not a gate failure.

use bw_core::isa::{MemId, ProgramBuilder};
use bw_core::{analyze_with, check_names, AnalysisOptions, AnalysisReport};
use bw_gir::{ActFn, GirGraph, GirOp, LowerOptions, ShardedArtifact};
use bw_models::{RnnDims, RnnKind};
use bw_trace::json::Writer;

use crate::{bw_s10_rnn, bw_s10_sized};

/// What `bw-bench lint` lints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintTarget {
    /// The LSTM firmware of `hidden` × `steps` at `batch` columns.
    Lstm,
    /// The seeded-bug showcase.
    Demo,
    /// The `hidden → 2·hidden → hidden` MLP, sharded.
    Artifact,
}

/// One `bw-bench lint` invocation.
#[derive(Clone, Copy, Debug)]
pub struct LintRequest {
    /// What is linted.
    pub target: LintTarget,
    /// The model width (`--hidden`).
    pub hidden: usize,
    /// LSTM time steps (`--steps`).
    pub steps: u32,
    /// LSTM batch columns (`--batch`).
    pub batch: u32,
    /// One JSON object instead of prose (`--json`).
    pub json: bool,
    /// `--deny-warnings` and `--sla-us`, for every target.
    pub lower: LowerOptions,
}

/// What `bw-bench lint` prints for `request`, and whether the report blocks
/// deployment (never for [`LintTarget::Demo`], whose diagnostics are the
/// expected output).
///
/// # Errors
///
/// The artifact does not compile.
pub fn lint_report(request: &LintRequest) -> Result<(String, bool), String> {
    let mut out = String::new();
    let report = match request.target {
        LintTarget::Artifact => artifact_report(request, &mut out)?,
        LintTarget::Demo => {
            if !request.json {
                outln!(out, "== seeded-bug showcase ==");
            }
            write_report(&mut out, &demo_report(), request);
            return Ok((out, false));
        }
        LintTarget::Lstm => {
            let (cfg, lstm) = bw_s10_rnn(RnnKind::Lstm, RnnDims::square(request.hidden));
            let program = lstm.program_batched(request.steps, request.batch);
            let mut options = lstm.analysis_options_batched(request.steps, request.batch);
            if let Some(cycles) = request.lower.sla_cycles(&cfg) {
                options = options.with_sla_cycles(cycles);
            }
            if !request.json {
                outln!(
                    out,
                    "linting LSTM h={} steps={} batch={} on {} ({} chains, passes: {})",
                    request.hidden,
                    request.steps,
                    request.batch,
                    cfg.name(),
                    program.chain_count(),
                    check_names().join(", ")
                );
            }
            let report = analyze_with(&program, &cfg, options);
            write_report(&mut out, &report, request);
            report
        }
    };
    Ok((out, report.blocks_deployment(request.lower.deny_warnings)))
}

/// Opens the `--json` document: one object and nothing else,
/// machine-readable for toolflow scripts. The verdict is embedded so
/// callers need not re-derive the gate from counts.
fn json_header(mode: Option<&str>, report: &AnalysisReport, request: &LintRequest) -> Writer {
    let mut w = Writer::new();
    w.begin_object().key("tool").string("bw-lint");
    if let Some(mode) = mode {
        w.key("mode").string(mode);
    }
    w.key("deny_warnings").bool(request.lower.deny_warnings);
    w.key("blocking")
        .bool(report.blocks_deployment(request.lower.deny_warnings));
    w
}

/// Writes the report as one object: its diagnostics, each anchored and
/// classified (`unit` only on artifact findings), then the counts.
fn write_json(w: &mut Writer, report: &AnalysisReport) {
    w.begin_object().key("diagnostics").begin_array();
    for d in &report.diagnostics {
        w.begin_object().key("code").string(d.code.as_str());
        w.key("severity").string(&d.severity.to_string());
        if let Some(unit) = &d.unit {
            w.key("unit").string(unit);
        }
        w.key("segment").uint(d.segment as u64);
        w.key("item").uint(d.item as u64);
        w.key("message").string(&d.message).end_object();
    }
    w.end_array();
    w.key("errors").uint(report.error_count() as u64);
    w.key("warnings").uint(report.warning_count() as u64);
    w.key("infos").uint(report.info_count() as u64).end_object();
}

fn json_finish(out: &mut String, mut w: Writer, report: &AnalysisReport) {
    w.key("report");
    write_json(&mut w, report);
    w.end_object();
    outln!(out, "{}", w.finish());
}

fn write_report(out: &mut String, report: &AnalysisReport, request: &LintRequest) {
    if request.json {
        json_finish(out, json_header(None, report, request), report);
    } else if report.diagnostics.is_empty() {
        outln!(out, "clean: no diagnostics");
    } else {
        outln!(out, "{report}");
    }
}

/// A deliberately broken program showcasing one diagnostic from each
/// pass family: an uninitialized VRF read, a dead store, an unloaded MRF
/// multiply, a network-queue underflow, and a default-tiling multiply.
fn demo_report() -> AnalysisReport {
    let mut b = ProgramBuilder::new();
    b.v_rd(MemId::NetQ, 0)
        .mv_mul(0)
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    b.set_rows(2).set_cols(2);
    b.v_rd(MemId::InitialVrf, 8)
        .mv_mul(0)
        .v_wr(MemId::InitialVrf, 16)
        .end_chain()
        .unwrap();
    b.v_rd(MemId::NetQ, 0)
        .v_wr(MemId::InitialVrf, 16)
        .end_chain()
        .unwrap();
    b.v_rd(MemId::InitialVrf, 16)
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    let program = b.build();
    let cfg = bw_s10_sized(64);
    analyze_with(
        &program,
        &cfg,
        AnalysisOptions::default().with_input_vectors(2),
    )
}

/// The `--artifact` demo model: an `w → 2w → w` MLP sharded under a
/// per-worker budget of `w²` parameters, which splits both dense stages
/// into scatter/gather groups.
fn demo_artifact(width: usize) -> Result<ShardedArtifact, String> {
    let mut g = GirGraph::new();
    let mut prev = g
        .add(GirOp::Input { dim: width }, &[])
        .map_err(|e| e.to_string())?;
    for (li, (rows, cols)) in [(2 * width, width), (width, 2 * width)]
        .into_iter()
        .enumerate()
    {
        let weights: Vec<f32> = (0..rows * cols)
            .map(|i| (((i + li * 7) % 17) as f32 - 8.0) / 32.0)
            .collect();
        let m = g
            .add(
                GirOp::MatMul {
                    rows,
                    cols,
                    weights,
                },
                &[prev],
            )
            .map_err(|e| e.to_string())?;
        prev = g
            .add(GirOp::Activation(ActFn::Tanh), &[m])
            .map_err(|e| e.to_string())?;
    }
    g.add(GirOp::Output, &[prev]).map_err(|e| e.to_string())?;
    let budget = (width as u64) * (width as u64);
    ShardedArtifact::compile(
        "lint-demo",
        &g,
        budget,
        &bw_s10_sized(4096),
        &LowerOptions::default(),
    )
    .map_err(|e| e.to_string())
}

fn artifact_report(request: &LintRequest, out: &mut String) -> Result<AnalysisReport, String> {
    let artifact = demo_artifact(request.hidden)?;
    let report = artifact.analyze(&request.lower);
    let bounds = artifact.static_bounds();
    if request.json {
        let mut w = json_header(Some("artifact"), &report, request);
        w.key("bounds");
        match bounds {
            Some(b) => {
                w.begin_object().key("lower").uint(b.lower);
                w.key("upper").uint(b.upper).end_object()
            }
            None => w.null(),
        };
        json_finish(out, w, &report);
    } else {
        outln!(
            out,
            "artifact `{}`: {} segment(s), max width {}",
            artifact.name(),
            artifact.segments().len(),
            artifact.max_width()
        );
        match bounds {
            Some(b) => outln!(
                out,
                "static cycle bounds: [{}, {}] cycles",
                b.lower,
                b.upper
            ),
            None => outln!(out, "static cycle bounds: not provable"),
        }
        write_report(out, &report, request);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use bw_core::{analyze, DiagCode, Diagnostic};

    use super::*;

    fn to_json(report: &AnalysisReport) -> String {
        let mut w = Writer::new();
        write_json(&mut w, report);
        w.finish()
    }

    #[test]
    fn report_counts_and_json_round_trip_shape() {
        let report = AnalysisReport {
            diagnostics: vec![
                Diagnostic::new(DiagCode::VrfOverflow, 0, 1, "a \"quoted\" msg".into()),
                Diagnostic::new(DiagCode::DeadStore, 1, 2, "dead".into()),
                Diagnostic::new(DiagCode::StaleRegister, 0, 0, "stale".into()),
            ],
        };
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert_eq!(report.info_count(), 1);
        assert!(!report.is_clean());
        assert!(report.has_errors());
        assert!(report.blocks_deployment(false));
        let json = to_json(&report);
        assert!(json.contains("\"code\":\"BW002\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"errors\":1"));
        let shown = report.to_string();
        assert!(shown.contains("error[BW002] segment 0, item 1"));
        assert!(shown.contains("1 error(s), 1 warning(s), 1 info(s)"));
    }

    #[test]
    fn unit_diagnostics_render_and_serialize_with_their_anchor() {
        let d = Diagnostic::for_unit(DiagCode::ShardPopUnmatched, "big#g0s1", 2, 0, "pop".into());
        assert_eq!(
            d.to_string(),
            "error[BW110] unit big#g0s1, segment 2, item 0: pop"
        );
        let report = AnalysisReport {
            diagnostics: vec![d],
        };
        let json = to_json(&report);
        assert!(json.contains("\"unit\":\"big#g0s1\""));
        // Program-level findings keep their exact historical shape.
        let plain = AnalysisReport {
            diagnostics: vec![Diagnostic::new(DiagCode::VrfOverflow, 0, 1, "x".into())],
        };
        assert!(!to_json(&plain).contains("\"unit\""));
    }

    #[test]
    fn report_serializes_for_toolflow_logs() {
        let mut b = ProgramBuilder::new();
        b.set_rows(1);
        b.v_rd(MemId::InitialVrf, 0)
            .v_wr(MemId::NetQ, 0)
            .end_chain()
            .unwrap();
        let report = analyze(&b.build(), &bw_s10_sized(64));
        let json = to_json(&report);
        assert!(json.contains("\"BW010\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
    }
}
