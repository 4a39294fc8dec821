//! The A/A self-check: two sets of runs of this same binary must agree
//! within the bounds `BENCHMARK.json` states, or the benchmark — not the
//! code — is what a later comparison would be measuring.

use std::process::Command;

use bw_trace::json::{parse, Value};

use crate::stats::{iqr_share, median, Better};
use crate::trial::END_TO_END;

/// What the self-check needs of `BENCHMARK.json`.
struct Contract {
    workloads: Vec<String>,
    /// `(end-to-end metric, bound)`.
    bounds: Vec<(String, f64)>,
}

/// Reads the `BENCHMARK.json` in the working directory.
fn read_contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = parse(&text)?;
    let rows = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json has no `{key}` array"))
    };
    let name = |row: &Value| row.get("name").and_then(Value::as_str).map(str::to_owned);
    let workloads = rows("workloads")?
        .iter()
        .map(name)
        .collect::<Option<Vec<_>>>();
    let bounds = rows("end_to_end")?
        .iter()
        .map(|row| Some((name(row)?, row.get("bound").and_then(Value::as_num)?)))
        .collect::<Option<Vec<_>>>();
    match (workloads, bounds) {
        (Some(workloads), Some(bounds)) => Ok(Contract { workloads, bounds }),
        _ => Err("a `workloads` or `end_to_end` row lacks `name` or `bound`".to_owned()),
    }
}

/// One untraced run in a child process; its metrics by name.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {last}",
            out.status
        ));
    }
    let doc = parse(last)?;
    END_TO_END
        .iter()
        .map(|(name, _, _)| {
            let value = doc.get("metrics")?.get(name)?.get("value")?.as_num()?;
            Some(((*name).to_owned(), value))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{workload} seed {seed}: result lacks a metric: {last}"))
}

/// By how much of `first` the metric got worse from `first` to `second`;
/// negative when it got better.
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Runs `only`, or else each workload `BENCHMARK.json` names, as two sets
/// of `runs` runs, every run with its own seed, and prints per metric the
/// set medians, how much worse the second is, the spread over all runs
/// and the bound. `Ok(false)` when a second median is worse than the first
/// by more than its bound.
pub fn selfcheck(only: Option<&str>, runs: usize, seconds: u64) -> Result<bool, String> {
    let Contract {
        mut workloads,
        bounds,
    } = read_contract()?;
    if let Some(only) = only {
        workloads = vec![only.to_owned()];
    }
    let mut within = true;
    for workload in &workloads {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..runs {
                let seed = (s * runs + r + 1) as u64;
                eprintln!(
                    "selfcheck: {workload} set {} run {} (seed {seed})",
                    s + 1,
                    r + 1
                );
                set.push(one_run(workload, seed, seconds)?);
            }
        }
        println!("{workload}: two sets of {runs} runs of {seconds} s");
        println!(
            "  {:<20} {:>14} {:>14} {:>9} {:>9} {:>7}",
            "metric", "set-1 median", "set-2 median", "worse", "iqr/med", "bound"
        );
        for (name, _, better) in &END_TO_END {
            let values = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let worse = worsening(median(&a), median(&b), *better);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json states no bound for {name}"))?;
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let ok = worse <= bound;
            within &= ok;
            println!(
                "  {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}% {:>6.1}%{}",
                name,
                median(&a),
                median(&b),
                100.0 * worse,
                100.0 * iqr_share(&all),
                100.0 * bound,
                if ok { "" } else { "  <- past the bound" }
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(5.0, 5.0, Better::Lower), 0.0);
    }
}
