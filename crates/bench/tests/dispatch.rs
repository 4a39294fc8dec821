//! The `bw-bench` command-line surface: which subcommands exist, how a
//! mistake is reported, and that the report subcommands print exactly
//! the strings the golden snapshots pin.

use std::process::{Command, Output};

use bw_bench::reports;

fn bw_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bw-bench"))
        .args(args)
        .output()
        .expect("bw-bench runs")
}

/// Every subcommand, in `help` order. A new or renamed dispatcher entry
/// has to be added here, which is the point: the list is the CLI's
/// public surface and the docs quote it.
const SUBCOMMANDS: [&str; 18] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig2",
    "fig6_hdd",
    "fig7",
    "fig8",
    "ablations",
    "precision_sweep",
    "power",
    "sla_study",
    "calibrate",
    "lint",
    "doclinks",
    "profile",
];

#[test]
fn help_lists_exactly_the_dispatcher_entries() {
    let out = bw_bench(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .filter_map(|entry| entry.split_whitespace().next())
        .collect();
    assert_eq!(listed, SUBCOMMANDS, "{stdout}");
    // Every entry answers `--help` with its own usage line.
    for name in SUBCOMMANDS {
        let out = bw_bench(&[name, "--help"]);
        assert_eq!(out.status.code(), Some(0), "{name} --help");
        let usage = String::from_utf8(out.stdout).unwrap();
        assert!(
            usage.starts_with(&format!("usage: bw-bench {name}")),
            "{usage}"
        );
    }
}

#[test]
fn command_line_mistakes_print_usage_and_exit_2() {
    for (args, needle) in [
        (&["nope"][..], "unknown subcommand `nope`"),
        (&[][..], "unknown subcommand"),
        (&["table5", "--nope"][..], "unknown flag `--nope`"),
        (&["profile", "--hidden"][..], "--hidden requires a value"),
        (&["profile", "--hidden", "many"][..], "--hidden `many`"),
        (&["profile", "--kind", "cnn"][..], "unknown kind `cnn`"),
    ] {
        let out = bw_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: bw-bench"), "{args:?}: {stderr}");
    }
}

#[test]
fn report_subcommands_print_the_golden_strings() {
    for (name, report) in [
        ("table1", reports::table1_report as fn() -> String),
        ("table2", reports::table2_report),
        ("table3", reports::table3_report),
        ("table4", reports::table4_report),
        ("table5", reports::table5_report),
        ("fig2", reports::fig2_report),
        ("fig6_hdd", reports::fig6_hdd_report),
        ("fig7", reports::fig7_report),
    ] {
        let out = bw_bench(&[name]);
        assert_eq!(out.status.code(), Some(0), "{name}");
        assert_eq!(String::from_utf8(out.stdout).unwrap(), report(), "{name}");
    }
}
