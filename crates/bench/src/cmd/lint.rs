//! `lint` — the flags of [`bw_bench::reports::lint_report`], whose module
//! doc describes the modes. Exits 1 if the report blocks deployment
//! (errors; warnings too under `--deny-warnings`), so it slots into CI and
//! toolflow scripts; `--demo` always exits zero.

use std::process::ExitCode;

use bw_bench::reports::{lint_report, LintRequest, LintTarget};
use bw_gir::LowerOptions;

use crate::cli::{Args, Gate};

pub(crate) fn run(args: &Args) -> ExitCode {
    let request = LintRequest {
        target: if args.has("--artifact") {
            LintTarget::Artifact
        } else if args.has("--demo") {
            LintTarget::Demo
        } else {
            LintTarget::Lstm
        },
        hidden: args.get("--hidden").unwrap_or(2000),
        steps: args.get("--steps").unwrap_or(10),
        batch: args.get("--batch").unwrap_or(1),
        json: args.has("--json"),
        lower: LowerOptions {
            deny_warnings: args.has("--deny-warnings"),
            sla_us: args.get("--sla-us"),
        },
    };
    if request.hidden == 0 || request.steps == 0 || request.batch == 0 {
        args.usage_error("--hidden, --steps and --batch must be positive");
    }
    match lint_report(&request) {
        Ok((report, blocking)) => {
            print!("{report}");
            // The report itself, already on stdout, says why.
            let mut gate = Gate::default();
            gate.check(!blocking, || "the report blocks deployment".to_owned());
            gate.finish()
        }
        Err(e) => {
            eprintln!("lint: {e}");
            ExitCode::from(2)
        }
    }
}
