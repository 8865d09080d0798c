//! `--selfcheck N`: the whole suite N times with the default seeds, each
//! run in a process of its own (peak RSS is a process-lifetime high-water
//! mark), and per (workload, metric) the median, the range and a verdict
//! on range ÷ median against the bound `BENCHMARK.json` declares. The N
//! runs do identical work, so the spread is the host's and every run of a
//! workload must end in the same digest.

use std::collections::BTreeMap;
use std::process::Command;

use serde::{Deserialize, Value};

use crate::spec::{field, Contract, END_TO_END, WORKLOADS};
use crate::stats::median;

/// One child run, as read back from its standard output.
#[derive(Debug)]
struct ChildRun {
    correct: bool,
    failed: u64,
    noisy: bool,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

/// Parses a run's standard output: the header line carries the digest
/// and the noisy flag, the last line the result object.
fn parse(stdout: &str) -> Result<ChildRun, String> {
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let v: Value = serde_json::from_str(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    let get = |name: &str| field(&v, name).ok_or_else(|| format!("result has no `{name}`"));
    let metrics = get("metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = field(m, "value").and_then(|x| f64::from_value(x).ok());
            Ok((
                name.clone(),
                value.ok_or_else(|| format!("{name} has no value"))?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let header = stdout.lines().find(|l| l.starts_with("# ")).unwrap_or("");
    let token = |key: &str| {
        header
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .unwrap_or("")
            .to_string()
    };
    Ok(ChildRun {
        correct: bool::from_value(get("correct")?).map_err(|e| e.to_string())?,
        failed: u64::from_value(get("failed")?).map_err(|e| e.to_string())?,
        noisy: token("noisy_run=") == "true",
        digest: token("digest="),
        metrics,
    })
}

/// Runs the suite `n` times and prints the table. Returns whether every
/// cell passed.
///
/// # Errors
///
/// Fails when `BENCHMARK.json` cannot be read or a child run cannot be
/// started or understood.
pub fn run(n: usize, seconds: u64, quick: bool) -> Result<bool, String> {
    let contract = Contract::load()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs: BTreeMap<&'static str, Vec<ChildRun>> = BTreeMap::new();
    for i in 0..n {
        for w in &WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seconds", &seconds.to_string()]);
            if quick {
                cmd.arg("--quick");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let run = parse(&stdout).map_err(|e| {
                format!(
                    "run {} of {}: {e}\n{}",
                    i + 1,
                    w.name,
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
            eprintln!(
                "run {}/{n} {} correct={} noisy_run={}",
                i + 1,
                w.name,
                run.correct,
                run.noisy
            );
            runs.entry(w.name).or_default().push(run);
        }
    }

    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>14} {:>13} {:>7}  verdict",
        "workload", "metric", "median", "min", "max", "range/median", "bound"
    );
    let mut all_pass = true;
    for w in &WORKLOADS {
        let runs = &runs[w.name];
        for def in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.metrics
                        .get(def.name)
                        .copied()
                        .ok_or_else(|| format!("{}: a run did not report {}", w.name, def.name))
                })
                .collect::<Result<_, String>>()?;
            let mid = median(&values);
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (hi - lo) / mid.abs();
            let bound = contract
                .bound(def.name)
                .ok_or_else(|| format!("BENCHMARK.json declares no bound for {}", def.name))?;
            let pass = spread <= bound;
            all_pass &= pass;
            println!(
                "{:<18} {:<26} {:>14.6} {:>14.6} {:>14.6} {:>13.4} {:>7.3}  {}",
                w.name,
                def.name,
                mid,
                lo,
                hi,
                spread,
                bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let mut digests: Vec<&str> = runs.iter().map(|r| r.digest.as_str()).collect();
        digests.dedup();
        let clean = runs.iter().all(|r| r.correct && r.failed == 0);
        all_pass &= clean && digests.len() == 1;
        println!(
            "{:<18} correct_and_ops_failed_0={clean} digests={} noisy_runs={}",
            w.name,
            digests.join(","),
            runs.iter().filter(|r| r.noisy).count()
        );
    }
    println!("selfcheck: {}", if all_pass { "PASS" } else { "FAIL" });
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_a_run_prints() {
        let out = "# w seed=1 passes=5 digest=00ab replay_spread=0.3 noisy_run=true\n\
                   setup_s 0.5 s\n\
                   {\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
                   {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        let run = parse(out).unwrap();
        assert!(run.correct && run.noisy);
        assert_eq!(run.failed, 0);
        assert_eq!(run.digest, "00ab");
        assert_eq!(run.metrics["setup_s"], 0.5);
        assert!(parse("").is_err());
        assert!(parse("not json").is_err());
    }
}
