//! Lint firmware before it ever touches an NPU.
//!
//! The static analyzer in `bw-core::analysis` walks a program the way the
//! scheduler would — tracking `rows`/`cols`, register-file ranges and
//! network-queue traffic — and reports `BW0xx` diagnostics with
//! severities. `bw-gir` runs the same passes as a deployment gate, and
//! `cargo run -p bw-bench -- lint` wraps them in a CLI.
//!
//! This example lints the generated LSTM kernel (clean), then seeds three
//! classic firmware bugs into a hand-written program and shows the
//! analyzer catching each one.
//!
//! Run with: `cargo run --example lint_firmware`

use brainwave::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = NpuConfig::builder()
        .name("lint-demo")
        .native_dim(16)
        .lanes(8)
        .tile_engines(2)
        .mrf_entries(256)
        .vrf_entries(256)
        .matrix_format(BfpFormat::BFP_1S_5E_5M)
        .build()?;

    // 1. Production firmware: the LSTM generator declares what the host
    //    preloads (weights, biases, recurrent state) and how many vectors
    //    arrive per run; under those facts the kernel lints clean.
    let lstm = Lstm::new(&cfg, RnnDims::square(32));
    let steps = 4;
    let report = analyze_with(&lstm.program(steps), &cfg, lstm.analysis_options(steps));
    println!(
        "LSTM kernel ({} chains): {}",
        lstm.program(steps).chain_count(),
        if report.is_clean() {
            "clean"
        } else {
            "NOT clean"
        }
    );
    println!();

    // 2. Seeded bugs: a reduction kernel with three mistakes a simulator
    //    run might miss (or surface only as a wrong answer much later).
    let mut b = ProgramBuilder::new();
    b.set_rows(2).set_cols(2);
    b.v_rd(MemId::NetQ, 0)
        .v_wr(MemId::InitialVrf, 0)
        .end_chain()?;
    // Bug 1: reads InitialVrf[8..10], but only [0..2) is ever written.
    b.v_rd(MemId::InitialVrf, 8)
        .mv_mul(0)
        .v_wr(MemId::AddSubVrf(0), 4)
        .end_chain()?;
    // Bug 2: overwrites AddSubVrf(0)[4..6) before anything reads it — the
    // previous chain's store is dead.
    b.v_rd(MemId::InitialVrf, 0)
        .mv_mul(0)
        .v_wr(MemId::AddSubVrf(0), 4)
        .end_chain()?;
    // Bug 3: the loop pops 2 vectors × 8 iterations = 16, host sends 10.
    b.begin_loop(8)?;
    b.v_rd(MemId::NetQ, 0)
        .vv_add(4) // reads the bias staged in AddSubVrf(0)[4..6)
        .v_wr(MemId::NetQ, 0)
        .end_chain()?;
    b.end_loop()?;
    let buggy = b.build();

    let options = AnalysisOptions::default()
        .preload(MemId::MatrixRf, 0, 4) // mv_mul weights are host-pinned
        .with_input_vectors(10);
    let report = analyze_with(&buggy, &cfg, options);

    println!("seeded-bug report ({} findings):", report.diagnostics.len());
    for d in &report.diagnostics {
        println!("  {d}");
    }
    println!();

    // 3. The same report, machine-readable — what a toolflow would log.
    println!("as JSON: {}", report.to_json());

    assert!(report.has_errors(), "the seeded bugs must be caught");
    Ok(())
}
