//! Golden snapshot tests: the paper-table reports must match the
//! checked-in fixtures byte for byte.
//!
//! The report fixtures under `tests/golden/` are the exact stdout of
//! every `bw-bench` paper report (`table1`–`table6`, `fig2`, `fig6_hdd`,
//! `fig7`, `fig8`, `ablations`, `calibrate`, `power`, `precision_sweep`,
//! `sla_study`), of CI's `lint` lines, of `lint --demo` and of
//! `profile --quick` for both cells. Any change to the cycle model, the
//! BFP kernels, or the table formatting shows up here as a reviewable
//! fixture diff — regenerate with e.g.
//! `cargo run --release -p bw-bench -- table5 > tests/golden/table5.txt`.

use brainwave::bfp::{BfpFormat, BfpMatrix};
use brainwave::core::isa::{MemId, Program, ProgramBuilder};
use brainwave::core::{ChainTrace, TimingParams};
use brainwave::core::{ExecMode, KernelMode, Npu, NpuConfig, RunStats};
use brainwave::models::{
    table5_suite, Gru, GruWeights, Lstm, LstmWeights, Rnn, RnnBenchmark, RnnDims, RnnKind,
};
use bw_bench::reports;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn table1_matches_golden() {
    assert_eq!(reports::table1_report(), fixture("table1.txt"));
}

#[test]
fn table5_matches_golden() {
    assert_eq!(reports::table5_report(), fixture("table5.txt"));
}

#[test]
fn fig7_matches_golden() {
    assert_eq!(reports::fig7_report(), fixture("fig7.txt"));
}

/// `tests/golden/fig8.txt` was written by `bw-bench fig8` at the commit
/// before the LSTM and GRU generators merged into one; Figure 8 is the
/// one report that runs both cells' batch-interleaved firmware at Table V
/// sizes.
#[test]
fn fig8_matches_golden() {
    assert_eq!(reports::fig8_report(), fixture("fig8.txt"));
}

// The six reports below run the simulator (`sla_study` takes its service
// time from it) and were pinned by nothing before these fixtures, written by
// `bw-bench` at the commit before a run became `Npu::schedule` then
// `Npu::execute`.

#[test]
fn table6_matches_golden() {
    assert_eq!(reports::table6_report(), fixture("table6.txt"));
}

#[test]
fn ablations_match_golden() {
    assert_eq!(reports::ablations_report(), fixture("ablations.txt"));
}

#[test]
fn calibrate_matches_golden() {
    assert_eq!(reports::calibrate_report(), fixture("calibrate.txt"));
}

#[test]
fn power_matches_golden() {
    assert_eq!(reports::power_report(), fixture("power.txt"));
}

#[test]
fn precision_sweep_matches_golden() {
    assert_eq!(
        reports::precision_sweep_report(),
        fixture("precision_sweep.txt")
    );
}

#[test]
fn sla_study_matches_golden() {
    assert_eq!(reports::sla_study_report(), fixture("sla_study.txt"));
}

// The five reports below run no simulator, and `lint_ci.txt` and
// `profile_quick.txt` are the `--json` output of the `lint` lines CI runs
// and the report of `bw-bench profile --quick`. All were written by
// `bw-bench` at the commit before the MFU's float16 loops moved into
// bw-bfp.

#[test]
fn table2_matches_golden() {
    assert_eq!(reports::table2_report(), fixture("table2.txt"));
}

#[test]
fn table3_matches_golden() {
    assert_eq!(reports::table3_report(), fixture("table3.txt"));
}

#[test]
fn table4_matches_golden() {
    assert_eq!(reports::table4_report(), fixture("table4.txt"));
}

#[test]
fn fig2_matches_golden() {
    assert_eq!(reports::fig2_report(), fixture("fig2.txt"));
}

#[test]
fn fig6_hdd_matches_golden() {
    assert_eq!(reports::fig6_hdd_report(), fixture("fig6_hdd.txt"));
}

/// CI's five `lint` lines, each with `--json`: the LSTM firmware at
/// batch 1, at batch 4, at batch 4 under a 50 µs SLA, and the sharded
/// artifact without and with that SLA. None blocks deployment.
#[test]
fn ci_lint_reports_match_golden() {
    use reports::{LintRequest, LintTarget};
    let lines = [
        (LintTarget::Lstm, 256, 1, None),
        (LintTarget::Lstm, 256, 4, None),
        (LintTarget::Lstm, 256, 4, Some(50.0)),
        (LintTarget::Artifact, 128, 1, None),
        (LintTarget::Artifact, 128, 1, Some(50.0)),
    ];
    let mut got = String::new();
    for (target, hidden, batch, sla_us) in lines {
        let request = LintRequest {
            target,
            hidden,
            steps: 4,
            batch,
            json: true,
            lower: brainwave::gir::LowerOptions {
                deny_warnings: true,
                sla_us,
            },
        };
        let (report, blocking) = reports::lint_report(&request).expect("the artifact compiles");
        assert!(!blocking, "{request:?}");
        got += &report;
    }
    assert_eq!(got, fixture("lint_ci.txt"));
}

#[test]
fn profile_quick_matches_golden() {
    let bench = RnnBenchmark::new(RnnKind::Lstm, 256, 5);
    let profile = reports::profile(&bench, "quick");
    assert_eq!(profile.report + "\n", fixture("profile_quick.txt"));
}

// `lint_demo.txt` and `profile_quick_gru.txt` are the stdout of
// `bw-bench lint --demo` and `bw-bench profile --quick --kind gru`, written
// at the commit whose metrics had two formats.

#[test]
fn lint_demo_matches_golden() {
    let request = reports::LintRequest {
        target: reports::LintTarget::Demo,
        hidden: 2000,
        steps: 10,
        batch: 1,
        json: false,
        lower: brainwave::gir::LowerOptions::default(),
    };
    let (report, blocking) = reports::lint_report(&request).expect("the demo lints");
    assert!(!blocking, "the showcase never blocks");
    assert_eq!(report, fixture("lint_demo.txt"));
}

#[test]
fn profile_quick_gru_matches_golden() {
    let bench = RnnBenchmark::new(RnnKind::Gru, 256, 5);
    let profile = reports::profile(&bench, "quick");
    assert_eq!(profile.report + "\n", fixture("profile_quick_gru.txt"));
}

/// Table V without its shortcut: the point `bw_bench::run_bw_s10` runs,
/// traced. A chain trace needs every chain, so this run steps each one.
fn stepped_table5_point(bench: &RnnBenchmark) -> RunStats {
    let (cfg, rnn) = bw_bench::bw_s10_rnn(bench.kind, bench.dims());
    let mut npu = Npu::with_mode(cfg, ExecMode::TimingOnly);
    npu.set_trace(true);
    rnn.run_timing_only(&mut npu, bench.timesteps)
        .expect("sized configuration runs")
}

/// Untraced, a timing-only run skips the periodic middle of each point's
/// step loop (`bw_core::sched`, "Fast-forward"); traced, it steps every
/// chain. The two agree on every statistic, the stall sums included.
#[test]
fn table5_fast_forward_equals_stepping_on_every_statistic() {
    for bench in table5_suite() {
        let fast = bw_bench::run_bw_s10(&bench).stats;
        assert_eq!(fast, stepped_table5_point(&bench), "{bench:?}");
    }
}

#[test]
fn reports_are_deterministic_across_runs() {
    // The parallel suite must not introduce ordering nondeterminism.
    assert_eq!(reports::table5_report(), reports::table5_report());
}

// ---------------------------------------------------------------------------
// Per-chain schedule goldens. `tests/golden/chains_{lstm,gru}.txt` were
// written from `Npu::take_trace` at the commit *before* the scheduler moved
// into `bw_core`'s `sched::Timeline`, so they pin every chain's
// dispatch/dependency/start/occupancy/completion — not only run totals —
// independently of the code they now check. Both execution modes must
// reproduce them byte for byte.
// ---------------------------------------------------------------------------

fn chain_config() -> NpuConfig {
    timed_chain_config(TimingParams::default())
}

fn timed_chain_config(timing: TimingParams) -> NpuConfig {
    NpuConfig::builder()
        .native_dim(16)
        .lanes(4)
        .tile_engines(2)
        .mfus(2)
        .mrf_entries(128)
        .vrf_entries(256)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .timing(timing)
        .build()
        .expect("valid golden configuration")
}

/// Renders one run: the full `RunStats`, then one line per chain.
fn render_chains(stats: &RunStats, trace: &[ChainTrace]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "cycles={} chains={} instructions={} mvm_macs={} mfu_element_ops={} \
         mvm_busy_cycles={} pipeline_busy_cycles={} dep_stall_cycles={} \
         resource_stall_cycles={} net_vectors_in={} net_vectors_out={} \
         peak_flops_per_cycle={} clock_hz={}\n\
         kind dispatched_at dep_ready_at start occupancy completion\n",
        stats.cycles,
        stats.chains,
        stats.instructions,
        stats.mvm_macs,
        stats.mfu_element_ops,
        stats.mvm_busy_cycles,
        stats.pipeline_busy_cycles,
        stats.dep_stall_cycles,
        stats.resource_stall_cycles,
        stats.net_vectors_in,
        stats.net_vectors_out,
        stats.peak_flops_per_cycle,
        stats.clock_hz,
    );
    for t in trace {
        writeln!(
            out,
            "{:?} {} {} {} {} {}",
            t.kind, t.dispatched_at, t.dep_ready_at, t.start, t.occupancy, t.completion
        )
        .expect("writing to a String");
    }
    out
}

fn traced(config: NpuConfig, mode: ExecMode, run: impl Fn(&mut Npu) -> RunStats) -> String {
    let mut npu = Npu::with_mode(config, mode);
    npu.set_trace(true);
    let stats = run(&mut npu);
    render_chains(&stats, &npu.take_trace())
}

#[test]
fn lstm_chain_schedule_matches_golden_in_both_modes() {
    let lstm = Lstm::new(&chain_config(), RnnDims::square(48));
    for mode in [ExecMode::Full, ExecMode::TimingOnly] {
        let got = traced(chain_config(), mode, |npu| {
            lstm.run_timing_only(npu, 3).expect("lstm runs")
        });
        assert_eq!(got, fixture("chains_lstm.txt"), "{mode:?}");
    }
}

#[test]
fn gru_chain_schedule_matches_golden_in_both_modes() {
    let gru = Gru::new(&chain_config(), RnnDims::square(40));
    for mode in [ExecMode::Full, ExecMode::TimingOnly] {
        let got = traced(chain_config(), mode, |npu| {
            gru.run_timing_only(npu, 4).expect("gru runs")
        });
        assert_eq!(got, fixture("chains_gru.txt"), "{mode:?}");
    }
}

// `tests/golden/chains_matrix_moves.txt` was written at the commit before
// scoreboard reads stopped at the written extent and the MRF read-until
// board became a fill. No model program moves a matrix, so this one does:
// a loop double-buffers two 2 × 2 weight grids. Each half reloads the grid
// the other half's `mv_mul` may still be streaming (write-after-read), then
// multiplies by the grid loaded last (read-after-write), with DRAM matrices
// and vectors in between. DRAM delivers a tile every two cycles, so a move
// takes as long as the `mv_mul` it races and the hazards decide the starts.
fn double_buffered_weights() -> Program {
    let (grid_a, grid_b, staged) = (0, 4, 8);
    let mut b = ProgramBuilder::new();
    b.set_rows(2).set_cols(2);
    b.m_rd(MemId::NetQ, 0).m_wr(MemId::Dram, staged);
    b.end_chain().unwrap();
    b.m_rd(MemId::Dram, 0).m_wr(MemId::MatrixRf, grid_a);
    b.end_chain().unwrap();
    b.begin_loop(3).unwrap();
    b.m_rd(MemId::Dram, staged).m_wr(MemId::MatrixRf, grid_b);
    b.end_chain().unwrap();
    b.v_rd(MemId::InitialVrf, 0)
        .mv_mul(grid_a)
        .v_wr(MemId::Dram, 0);
    b.end_chain().unwrap();
    b.m_rd(MemId::NetQ, 0).m_wr(MemId::MatrixRf, grid_a);
    b.end_chain().unwrap();
    b.v_rd(MemId::Dram, 0)
        .mv_mul(grid_b)
        .v_wr(MemId::InitialVrf, 0)
        .v_wr(MemId::NetQ, 0);
    b.end_chain().unwrap();
    b.end_loop().unwrap();
    b.build()
}

#[test]
fn matrix_move_chain_schedule_matches_golden_in_both_modes() {
    let config = timed_chain_config(TimingParams {
        dram_tile_cycles: 2,
        ..TimingParams::default()
    });
    let program = double_buffered_weights();
    let tile = || BfpMatrix::quantize(16, 16, &[0.25; 256], BfpFormat::BFP_1S_5E_5M).unwrap();
    for mode in [ExecMode::Full, ExecMode::TimingOnly] {
        let got = traced(config.clone(), mode, |npu| {
            for index in 0..4 {
                npu.load_dram_matrix(index, tile()).unwrap();
            }
            // Three columns of a staged grid and three reloads.
            for _ in 0..3 * 4 * 4 {
                npu.push_input_matrix(tile()).unwrap();
            }
            npu.run_batch(&program, 3).expect("the program runs")
        });
        assert_eq!(got, fixture("chains_matrix_moves.txt"), "{mode:?}");
    }
}

// ---------------------------------------------------------------------------
// Firmware golden. `tests/golden/rnn_programs.txt` holds the program text
// and deployment facts of both cells, written at the commit before the LSTM
// and GRU generators merged into one. The input dimension differs from the
// hidden one, and batch 2 interleaves two sequences, so every slot of both
// layouts shows; the chain goldens above are square and batch 1.
// ---------------------------------------------------------------------------

#[test]
fn rnn_programs_match_golden() {
    use std::fmt::Write as _;
    let cfg = NpuConfig::builder()
        .native_dim(8)
        .lanes(4)
        .tile_engines(2)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()
        .expect("valid golden configuration");
    let dims = RnnDims {
        input: 20,
        hidden: 12,
    };
    let steps = 2;
    let mut got = String::new();
    for kind in [RnnKind::Lstm, RnnKind::Gru] {
        let rnn = Rnn::new(kind, &cfg, dims);
        for batch in [1, 2] {
            let facts = rnn.analysis_options_batched(steps, batch);
            write!(
                got,
                "== {kind} input=20 hidden=12 native=8 steps={steps} batch={batch}\n{}\
                 analysis options: {facts:?}\n",
                rnn.program_batched(steps, batch)
            )
            .expect("writing to a String");
        }
    }
    assert_eq!(got, fixture("rnn_programs.txt"));
}

// ---------------------------------------------------------------------------
// Functional-output golden. `tests/golden/functional_outputs.txt` holds the
// output bits of two full-mode runs, written by this same code at the commit
// *before* a `BfpMatrix` stored only its live extent and `VSigm` / `VTanh`
// became table reads. The ledger checks a build's outputs against its own
// first run; this is the check against another build's. Both models are
// 2 × 2 grids with partial tiles: the LSTM is the ledger's `sim-functional`
// shape (packed 1s.5e.2m), the GRU a 1s.5e.5m one (the `i8` layout).
// ---------------------------------------------------------------------------

fn step_inputs(steps: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..steps)
        .map(|t| {
            (0..dim)
                .map(|i| ((i * 37 + t * 101) % 97) as f32 / 97.0 * 0.8 - 0.4)
                .collect()
        })
        .collect()
}

/// One line per time step: every element's bits as eight hex digits.
fn render_outputs(title: &str, outputs: &[Vec<f32>]) -> String {
    let mut out = format!("{title}\n");
    for step in outputs {
        let words: Vec<String> = step
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect();
        out.push_str(&words.join(" "));
        out.push('\n');
    }
    out
}

fn functional_outputs(kernel: KernelMode) -> String {
    let cfg = NpuConfig::bw_s10();
    let dims = RnnDims::square(512);
    let lstm = Lstm::new(&cfg, dims);
    let mut npu = Npu::new(cfg);
    npu.set_kernel_mode(kernel);
    lstm.load_weights(&mut npu, &LstmWeights::random(dims, 7))
        .expect("BW_S10 holds the weights");
    let (lstm_out, _) = lstm
        .run(&mut npu, &step_inputs(10, dims.input))
        .expect("lstm runs");

    let cfg = NpuConfig::bw_cnn_a10();
    let dims = RnnDims::square(200);
    let gru = Gru::new(&cfg, dims);
    let mut npu = Npu::new(cfg);
    npu.set_kernel_mode(kernel);
    gru.load_weights(&mut npu, &GruWeights::random(dims, 11))
        .expect("BW_CNN_A10 holds the weights");
    let (gru_out, _) = gru
        .run(&mut npu, &step_inputs(5, dims.input))
        .expect("gru runs");

    render_outputs("lstm h=512 steps=10 native=400 1s.5e.2m", &lstm_out)
        + &render_outputs("gru h=200 steps=5 native=128 1s.5e.5m", &gru_out)
}

#[test]
fn functional_outputs_match_the_parent_commits_in_both_kernel_modes() {
    let golden = fixture("functional_outputs.txt");
    for kernel in [KernelMode::Fast, KernelMode::Reference] {
        let got = functional_outputs(kernel);
        // A mismatch names its line (a model's title or a time step)
        // instead of printing 55 KB twice.
        for (n, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
            assert!(g == w, "{kernel:?}: line {} differs", n + 1);
        }
        assert_eq!(got.len(), golden.len(), "{kernel:?}");
    }
}
