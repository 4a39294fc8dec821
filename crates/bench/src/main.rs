//! `bw-bench <subcommand>`: the paper's tables and figures and the
//! firmware, documentation and profiling tools, behind one dispatch
//! table. `bw-bench help` prints the table.
//!
//! Nothing here times this software — that is `ledger/`'s job. The
//! subcommands print modeled quantities (cycles, utilization, SLA miss
//! rates) that are the same on every run and every host. Fleet recovery
//! and SLO alerting are step-driven tests in `crates/fleet/tests` and
//! `crates/obs/tests`, not subcommands.
//!
//! Exit status: 0 success, 1 a gate failed, 2 a command-line mistake.

#![forbid(unsafe_code)]

use std::process::ExitCode;

mod cli;
mod cmd;

use bw_bench::reports;
use cli::{Args, Command};

/// A report subcommand prints its [`reports`] string verbatim — the same
/// string `tests/golden.rs` pins byte for byte.
fn report(build: fn() -> String) -> ExitCode {
    print!("{}", build());
    ExitCode::SUCCESS
}

const COMMANDS: &[Command] = &[
    Command {
        name: "table1",
        help: "Table I: critical-path analysis of LSTM, GRU and CNN",
        flags: &[],
        run: |_| report(reports::table1_report),
    },
    Command {
        name: "table2",
        help: "Table II: the ISA reference, rendered from the implementation",
        flags: &[],
        run: |_| report(reports::table2_report),
    },
    Command {
        name: "table3",
        help: "Table III: FPGA resources of the three NPU instances vs the paper",
        flags: &[],
        run: |_| report(reports::table3_report),
    },
    Command {
        name: "table4",
        help: "Table IV: experiment hardware specifications",
        flags: &[],
        run: |_| report(reports::table4_report),
    },
    Command {
        name: "table5",
        help: "Table V: DeepBench RNN inference at batch 1 (SDM, BW, Titan Xp)",
        flags: &[],
        run: |_| report(reports::table5_report),
    },
    Command {
        name: "table6",
        help: "Table VI: ResNet-50 featurizer on BW_CNN_A10 vs the P40",
        flags: &[],
        run: |_| report(reports::table6_report),
    },
    Command {
        name: "fig2",
        help: "Figure 2: LSTM critical path vs dimension and functional units",
        flags: &[],
        run: |_| report(reports::fig2_report),
    },
    Command {
        name: "fig6_hdd",
        help: "Figure 6: hierarchical decode and dispatch of one mv_mul",
        flags: &[],
        run: |_| report(reports::fig6_hdd_report),
    },
    Command {
        name: "fig7",
        help: "Figure 7: utilization across the DeepBench suite at batch 1",
        flags: &[],
        run: |_| report(reports::fig7_report),
    },
    Command {
        name: "fig8",
        help: "Figure 8: utilization vs batch size, BW vs GPU",
        flags: &[],
        run: |_| report(reports::fig8_report),
    },
    Command {
        name: "ablations",
        help: "native dimension, dispatch interval and clock frequency sweeps",
        flags: &[],
        run: |_| report(reports::ablations_report),
    },
    Command {
        name: "precision_sweep",
        help: "section VI: LSTM accuracy vs BFP mantissa width",
        flags: &[],
        run: |_| report(reports::precision_sweep_report),
    },
    Command {
        name: "power",
        help: "section VII-B4: GFLOPS/W at peak chip power",
        flags: &[],
        run: |_| report(reports::power_report),
    },
    Command {
        name: "sla_study",
        help: "section I: deadline misses vs load, per-request vs batched serving",
        flags: &[],
        run: |_| report(reports::sla_study_report),
    },
    Command {
        name: "calibrate",
        help: "cycle-model calibration against the paper's Table V latencies",
        flags: &[],
        run: |_| report(reports::calibrate_report),
    },
    Command {
        name: "lint",
        help: "run the firmware linter; exit 1 if the report blocks deployment",
        flags: &[
            ("--hidden", "N"),
            ("--steps", "N"),
            ("--batch", "N"),
            ("--deny-warnings", ""),
            ("--json", ""),
            ("--demo", ""),
            ("--artifact", ""),
            ("--sla-us", "F"),
        ],
        run: cmd::lint::run,
    },
    Command {
        name: "doclinks",
        help: "check that every relative markdown link under . resolves",
        flags: &[],
        run: cmd::doclinks::run,
    },
    Command {
        name: "profile",
        help: "trace one DeepBench RNN: bottleneck report and Perfetto export",
        flags: &[
            ("--kind", "lstm|gru"),
            ("--hidden", "N"),
            ("--steps", "N"),
            ("--quick", ""),
            ("--trace-out", "PATH"),
            ("--report-out", "PATH"),
            ("--validate", ""),
        ],
        run: cmd::profile::run,
    },
];

fn help() -> String {
    let mut out = String::from("usage: bw-bench <subcommand> [flags]\n\nsubcommands:\n");
    for c in COMMANDS {
        out.push_str(&format!("  {:<16}{}\n", c.name, c.help));
    }
    out.push_str("\n`bw-bench <subcommand> --help` lists a subcommand's flags.\n");
    out
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("bw-bench: unknown subcommand `{name}`");
        eprint!("{}", help());
        return ExitCode::from(2);
    };
    let argv: Vec<String> = argv.collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}\n{}", command.usage(), command.help);
        return ExitCode::SUCCESS;
    }
    match Args::parse(command, argv.into_iter()) {
        Ok(args) => (command.run)(&args),
        Err(message) => command.usage_error(&message),
    }
}
