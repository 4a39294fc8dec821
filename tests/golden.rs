//! Golden snapshot tests: the paper-table reports must match the
//! checked-in fixtures byte for byte.
//!
//! The fixtures under `tests/golden/` are the exact stdout of
//! `bw-bench table1`, `table5`, and `fig7`. Any change to the cycle
//! model, the BFP kernels, or the table formatting shows up here as a
//! reviewable fixture diff — regenerate with e.g.
//! `cargo run --release -p bw-bench -- table5 > tests/golden/table5.txt`.

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

#[test]
fn reports_are_deterministic_across_runs() {
    // The parallel suite must not introduce ordering nondeterminism.
    assert_eq!(reports::table5_report(), reports::table5_report());
}
