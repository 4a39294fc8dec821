//! End-to-end tests of the firmware linter: production firmware lints
//! clean, and seeded bugs surface as the documented `BW0xx` diagnostics
//! anchored to the offending segment and item.

use brainwave::bfp::BfpFormat;
use brainwave::core::isa::{Chain, Instruction, MemId, Program, ProgramBuilder};
use brainwave::core::isa::{Item, Segment};
use brainwave::core::{
    analyze, analyze_artifact, analyze_with, cycle_bounds, AnalysisOptions, AnalysisReport,
    ArtifactUnit, ArtifactView, DiagCode, Diagnostic, ExecMode, Npu, NpuConfig, RunStats, Severity,
    SimError,
};
use brainwave::gir;
use brainwave::models::{Lstm, RnnDims};

fn cfg() -> NpuConfig {
    NpuConfig::builder()
        .native_dim(8)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(64)
        .vrf_entries(32)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .unwrap()
}

fn find(report: &AnalysisReport, code: DiagCode) -> &Diagnostic {
    report
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("expected {code} in:\n{report}"))
}

#[test]
fn lstm_firmware_lints_clean() {
    let cfg = NpuConfig::builder()
        .native_dim(8)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(256)
        .vrf_entries(256)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .unwrap();
    let lstm = Lstm::new(&cfg, RnnDims::square(24));
    let steps = 6;
    let report = analyze_with(&lstm.program(steps), &cfg, lstm.analysis_options(steps));
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.error_count(), 0);
}

#[test]
fn seeded_out_of_range_read_yields_bw002() {
    let mut b = ProgramBuilder::new();
    b.set_rows(4);
    // Items 0 (set_rows) then 1: reads InitialVrf[30..34] in a 32-entry
    // file.
    b.v_rd(MemId::InitialVrf, 30)
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    let report = analyze_with(
        &b.build(),
        &cfg(),
        AnalysisOptions::default().preload(MemId::InitialVrf, 0, 32),
    );
    let d = find(&report, DiagCode::VrfOverflow);
    assert_eq!((d.segment, d.item), (0, 1), "{report}");
    assert_eq!(d.severity, Severity::Error);
}

/// `program`'s timing-only run with plenty of input vectors queued.
fn run_timing(program: &Program, cfg: &NpuConfig) -> Result<RunStats, SimError> {
    let mut npu = Npu::with_mode(cfg.clone(), ExecMode::TimingOnly);
    npu.push_input_zeros(64);
    npu.run(program)
}

/// The one capacity finding of `program`: its code and location, and
/// that its message is the fault the timing-only run stops at.
fn lint_and_run(program: &Program, cfg: &NpuConfig) -> (DiagCode, usize, usize, String) {
    let report = analyze(program, cfg);
    let errors = program.validate(cfg);
    assert_eq!(errors.len(), 1, "{report}");
    let fault = run_timing(program, cfg).expect_err("the gate's fault is the run's");
    assert_eq!(errors[0].fault, fault);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.message == fault.to_string())
        .unwrap_or_else(|| panic!("{fault} missing from:\n{report}"));
    (d.code, d.segment, d.item, d.message.clone())
}

#[test]
fn a_dram_write_past_the_address_space_yields_bw002() {
    let mut b = ProgramBuilder::new();
    b.set_rows(2);
    b.v_rd(MemId::NetQ, 0)
        .v_wr(MemId::Dram, (1 << 22) - 1)
        .end_chain()
        .unwrap();
    let program = b.build();
    let (code, segment, item, _) = lint_and_run(&program, &cfg());
    assert_eq!((code, segment, item), (DiagCode::VrfOverflow, 0, 1));
    // The gate's fault is the run's (`lint_and_run`), and it is DRAM's.
    let fault = SimError::DramIndexOutOfRange {
        index: (1 << 22) - 1,
        width: 2,
        capacity: 1 << 22,
    };
    assert_eq!(run_timing(&program, &cfg()), Err(fault.clone()));
    assert_eq!(program.validate(&cfg())[0].fault, fault);
}

#[test]
fn a_loop_body_that_widens_its_own_chains_is_checked_at_the_new_width() {
    // Iteration 1 writes InitialVrf[30..31]; iteration 2 runs the same
    // chain at the rows the body's tail set, [30..34) of 32 entries.
    let mut b = ProgramBuilder::new();
    b.set_rows(1);
    b.begin_loop(2).unwrap();
    b.v_rd(MemId::NetQ, 0)
        .v_wr(MemId::InitialVrf, 30)
        .end_chain()
        .unwrap();
    b.set_rows(4);
    b.end_loop().unwrap();
    let (code, segment, item, _) = lint_and_run(&b.build(), &cfg());
    assert_eq!((code, segment, item), (DiagCode::VrfOverflow, 1, 0));

    // A 2 × 2 mv_mul fits a 4-entry MRF; iteration 2's 2 × 4 does not.
    let small = NpuConfig::builder()
        .native_dim(8)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(4)
        .vrf_entries(32)
        .build()
        .unwrap();
    let mut b = ProgramBuilder::new();
    b.set_rows(2).set_cols(2);
    b.begin_loop(2).unwrap();
    b.v_rd(MemId::NetQ, 0)
        .mv_mul(0)
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    b.set_cols(4);
    b.end_loop().unwrap();
    let (code, segment, item, _) = lint_and_run(&b.build(), &small);
    assert_eq!((code, segment, item), (DiagCode::MrfOverflow, 1, 0));
}

#[test]
fn a_segment_that_never_runs_is_not_an_error() {
    let chain = Chain::new(vec![
        Instruction::VRd {
            mem: MemId::InitialVrf,
            index: 99,
        },
        Instruction::VWr {
            mem: MemId::NetQ,
            index: 0,
        },
    ])
    .unwrap();
    let program = Program {
        segments: vec![Segment {
            items: vec![Item::Chain(chain)],
            iterations: 0,
        }],
    };
    assert_eq!(program.validate(&cfg()), vec![]);
    assert!(!analyze(&program, &cfg()).has_errors());
    assert!(run_timing(&program, &cfg()).is_ok());
}

#[test]
fn seeded_dead_store_yields_bw011() {
    let mut b = ProgramBuilder::new();
    b.set_rows(2);
    b.v_rd(MemId::NetQ, 0)
        .v_wr(MemId::InitialVrf, 4)
        .end_chain()
        .unwrap();
    // Item 2 overwrites InitialVrf[4..6] before anything reads it.
    b.v_rd(MemId::NetQ, 0)
        .v_wr(MemId::InitialVrf, 4)
        .end_chain()
        .unwrap();
    b.v_rd(MemId::InitialVrf, 4)
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    let report = analyze_with(
        &b.build(),
        &cfg(),
        AnalysisOptions::default().with_input_vectors(4),
    );
    let d = find(&report, DiagCode::DeadStore);
    assert_eq!((d.segment, d.item), (0, 1), "{report}");
    assert_eq!(d.severity, Severity::Warning);
    assert!(!report.has_errors(), "{report}");
}

#[test]
fn seeded_unbalanced_netq_pop_yields_bw030() {
    let mut b = ProgramBuilder::new();
    b.set_rows(2);
    b.begin_loop(20).unwrap();
    b.v_rd(MemId::NetQ, 0)
        .v_relu()
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    b.end_loop().unwrap();
    // 2 pops × 20 iterations against a 30-vector budget: iteration 16
    // underflows at the loop's first item.
    let report = analyze_with(
        &b.build(),
        &cfg(),
        AnalysisOptions::default().with_input_vectors(30),
    );
    let d = find(&report, DiagCode::NetUnderflow);
    assert_eq!((d.segment, d.item), (1, 0), "{report}");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("iteration 16"), "{}", d.message);
}

#[test]
fn gir_deployment_gate_passes_clean_pipelines_and_blocks_bad_binaries() {
    let mut g = gir::GirGraph::new();
    let input = g.add(gir::GirOp::Input { dim: 8 }, &[]).unwrap();
    let m = g
        .add(
            gir::GirOp::MatMul {
                rows: 8,
                cols: 8,
                weights: vec![0.1; 64],
            },
            &[input],
        )
        .unwrap();
    g.add(gir::GirOp::Output, &[m]).unwrap();
    let strict = gir::LowerOptions {
        deny_warnings: true,
        ..gir::LowerOptions::default()
    };
    let artifact = gir::ModelArtifact::compile("clean", &g, 1 << 20, &cfg(), &strict).unwrap();
    assert!(artifact.binary().unwrap().lint(&cfg()).is_clean());

    // A binary whose program reads state nothing initializes is refused.
    let mut b = ProgramBuilder::new();
    b.set_rows(1);
    b.v_rd(MemId::InitialVrf, 3)
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    let bad = gir::AcceleratorBinary {
        stages: vec![0],
        program: b.build(),
        input_dim: 8,
        output_dim: 8,
        output_grid: 1,
        input_grid: 1,
        mrf_entries: 0,
        bias_entries: 0,
    };
    assert!(bad.lint(&cfg()).blocks_deployment(false));
}

/// A loop popping two vectors per iteration through an `mv_mul`, with the
/// deployment facts that let it run.
fn sla_program() -> (Program, AnalysisOptions) {
    let mut b = ProgramBuilder::new();
    b.set_rows(2).set_cols(2);
    b.begin_loop(3).unwrap();
    b.v_rd(MemId::NetQ, 0)
        .mv_mul(0)
        .v_wr(MemId::InitialVrf, 8)
        .end_chain()
        .unwrap();
    b.v_rd(MemId::InitialVrf, 8)
        .v_wr(MemId::NetQ, 0)
        .end_chain()
        .unwrap();
    b.end_loop().unwrap();
    let options = AnalysisOptions::default()
        .preload(MemId::MatrixRf, 0, 4)
        .with_input_vectors(6);
    (b.build(), options)
}

fn sla_lines(report: &AnalysisReport) -> Vec<String> {
    let sla = [
        DiagCode::SlaViolation,
        DiagCode::SlaAtRisk,
        DiagCode::SlaMet,
    ];
    report
        .diagnostics
        .iter()
        .filter(|d| sla.contains(&d.code))
        .map(ToString::to_string)
        .collect()
}

/// BW120–BW122 word for word, for one program and for a two-shard artifact
/// of it: an SLA at the bound, one an arrival window puts at risk, one
/// below the bound, and one no bound can meet (no input budget declared).
#[test]
fn sla_verdicts_keep_their_wording_at_both_scopes() {
    let cfg = cfg();
    let (program, options) = sla_program();
    let exact = cycle_bounds(&program, &cfg, &options).unwrap().lower;
    let unbudgeted = AnalysisOptions::default().preload(MemId::MatrixRf, 0, 4);
    let windowed = options.clone().with_input_arrival(0, 1_000);
    let late = cycle_bounds(&program, &cfg, &windowed).unwrap().upper;
    let cases = [
        (options.clone(), exact),
        (windowed, exact),
        (options.clone(), exact - 1),
        (unbudgeted, exact),
    ];

    let program_lines: Vec<String> = cases
        .iter()
        .flat_map(|(o, sla)| {
            let report = analyze_with(&program, &cfg, o.clone().with_sla_cycles(*sla));
            sla_lines(&report)
        })
        .collect();
    let below = exact - 1;
    assert_eq!(
        program_lines,
        [
            format!(
                "info[BW122] segment 1, item 0: static bound [{exact}, {exact}] cycles \
                 meets the declared SLA of {exact} cycles"
            ),
            format!(
                "warning[BW121] segment 1, item 0: worst-case bound of {late} cycles \
                 exceeds the declared SLA of {exact} cycles (best case {exact})"
            ),
            format!(
                "error[BW120] segment 1, item 0: guaranteed minimum of {exact} cycles \
                 exceeds the declared SLA of {below} cycles — unmeetable on this config"
            ),
            format!(
                "error[BW120] segment 1, item 0: no static cycle bound is provable for \
                 this program, so the declared SLA of {exact} cycles cannot be guaranteed"
            ),
        ],
        "program scope"
    );

    let artifact_lines: Vec<String> = cases
        .iter()
        .flat_map(|(o, sla)| {
            let mut view = ArtifactView::new("pair", 16);
            let shards = ["pair#g0s0", "pair#g0s1"].map(|name| {
                view.add_unit(ArtifactUnit {
                    name: name.to_owned(),
                    program: &program,
                    config: &cfg,
                    options: o.clone(),
                    input_dim: 16,
                    output_dim: 8,
                })
            });
            view.push_sharded(shards.to_vec());
            sla_lines(&analyze_artifact(&view.with_sla_cycles(*sla)))
        })
        .collect();
    assert_eq!(
        artifact_lines,
        [
            format!(
                "info[BW122] unit pair, segment 0, item 0: static pipeline bound \
                 [{exact}, {exact}] cycles meets the declared SLA of {exact} cycles"
            ),
            format!(
                "warning[BW121] unit pair, segment 0, item 0: worst-case pipeline bound \
                 of {late} cycles exceeds the declared SLA of {exact} cycles (best case \
                 {exact})"
            ),
            format!(
                "error[BW120] unit pair, segment 0, item 0: guaranteed minimum of {exact} \
                 cycles across the pipeline exceeds the declared SLA of {below} cycles — \
                 unmeetable on this config"
            ),
            format!(
                "error[BW120] unit pair, segment 0, item 0: no static cycle bound is \
                 provable for the artifact, so the declared SLA of {exact} cycles cannot \
                 be guaranteed"
            ),
        ],
        "artifact scope"
    );
}
