//! CLI contract of `bw-bench lint`: `--json` must put exactly one
//! machine-readable JSON object on stdout (no banners, no prose), with
//! each diagnostic carrying its code, severity, and segment/item anchor.

use std::process::Command;

fn lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bw-bench"))
        .arg("lint")
        .args(args)
        .output()
        .expect("bw-bench runs")
}

#[test]
fn json_mode_emits_one_json_object_and_nothing_else() {
    let out = lint(&["--json", "--hidden", "256", "--steps", "2"]);
    assert!(out.status.success(), "lint exited {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('{') && trimmed.ends_with('}'),
        "{stdout}"
    );
    assert_eq!(trimmed.lines().count(), 1, "one line of JSON: {stdout}");
    assert!(trimmed.contains("\"tool\":\"bw-lint\""));
    assert!(trimmed.contains("\"blocking\":false"));
    assert!(trimmed.contains("\"diagnostics\":"));
    assert!(!trimmed.contains("linting LSTM"), "prose leaked: {stdout}");
}

#[test]
fn demo_json_carries_anchored_diagnostics_without_the_banner() {
    let out = lint(&["--demo", "--json"]);
    assert!(out.status.success(), "--demo always exits zero");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let trimmed = stdout.trim();
    assert!(
        !stdout.contains("showcase"),
        "banner must not pollute JSON mode: {stdout}"
    );
    assert_eq!(trimmed.lines().count(), 1);
    // The seeded-bug program guarantees diagnostics; each must be
    // anchored and classified.
    assert!(trimmed.contains("\"code\":\""));
    assert!(trimmed.contains("\"severity\":\""));
    assert!(trimmed.contains("\"segment\":"));
    assert!(trimmed.contains("\"item\":"));
    assert!(trimmed.contains("\"errors\":"));
}

#[test]
fn demo_text_mode_keeps_the_banner() {
    let out = lint(&["--demo"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== seeded-bug showcase =="));
}

#[test]
fn bad_flags_exit_with_usage_error() {
    let out = lint(&["--nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag"));
}

#[test]
fn program_mode_judges_the_declared_sla() {
    let out = lint(&["--hidden", "256", "--steps", "4", "--sla-us", "0.001"]);
    assert_eq!(out.status.code(), Some(1), "an unmeetable SLA blocks");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[BW120]"), "{stdout}");
}
