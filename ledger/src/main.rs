//! `ledger`: the repo's benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//! ledger --selfcheck [--workload <name>] [--runs <n>] [--seconds <s>]
//! ```
//!
//! A run builds the workload from the seed, checks every output, prints
//! every metric by name with its unit and ends with one JSON object.
//! `README.md` beside this crate defines the metrics and says why the
//! run is shaped as it is.

mod host;
mod layers;
mod pool;
mod run;
mod selfcheck;
mod serving;
mod span;
mod stats;
mod trial;
mod workload;

use std::process::ExitCode;

use workload::WORKLOADS;

/// The run length `BENCHMARK.json` fixes; trial sizes are chosen for it.
const DEFAULT_SECONDS: u64 = 35;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
        runs: 3,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`; one of {WORKLOADS:?}"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = number(value("a number")?)?,
            "--seconds" => parsed.seconds = number(value("a number")?)?.clamp(1, 60),
            "--runs" => parsed.runs = number(value("a number")?)?.max(3) as usize,
            "--selfcheck" => parsed.selfcheck = true,
            // `--trace` alone switches tracing on; the driver writes 0 or 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload.is_none() && !parsed.selfcheck {
        return Err(format!("--workload is required; one of {WORKLOADS:?}"));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!("usage: ledger --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]");
            eprintln!("       ledger --selfcheck [--workload <name>] [--runs <n>] [--seconds <s>]");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return match selfcheck::selfcheck(args.workload.as_deref(), args.runs, args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: selfcheck: {e}");
                ExitCode::from(2)
            }
        };
    }

    let workload = args.workload.expect("checked by parse_args");
    let described = host::describe();
    let cpu = host::pin_to_one_cpu().map_or("any".to_owned(), |cpu| cpu.to_string());
    println!(
        "# ledger workload={workload} seed={} seconds={} trace={} {described} pinned_to_cpu={cpu}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let outcome = if args.trace {
        run::run_traced(&workload, args.seed, args.seconds)
    } else {
        run::run_untraced(&workload, args.seed, args.seconds)
    };
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn driver_and_hand_typed_forms_parse() {
        let a = parse("--workload serve-tcp --seed 9 --seconds 20 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve-tcp"), 9, 20, false)
        );
        assert!(
            parse("--workload sim-timing --seed 1 --trace 1")
                .unwrap()
                .trace
        );
        assert!(
            parse("--workload sim-timing --trace --seed 1")
                .unwrap()
                .trace
        );
        assert!(
            parse("--workload sim-timing --seed 1 --trace")
                .unwrap()
                .trace
        );
        assert!(parse("--selfcheck").unwrap().selfcheck);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload sim-timing --seed x").is_err());
        assert!(parse("--workload sim-timing --frobnicate").is_err());
        assert!(parse("--workload").is_err());
    }
}
