//! # ace-bench — figure/table reproduction harness
//!
//! One binary, `repro`, over one table ([`figures::FIGURES`]): each row
//! runs a shared sweep at the selected [`Scale`], and `repro` prints the
//! requested records' tables and writes each
//! [`ExperimentRecord`] JSON under `target/experiments/`.
//! The committed `BENCH_*.json` curves ([`scale`], [`qps`], [`matrix`],
//! [`soak`]) and the two [`smoke`] artifacts are regenerated by the
//! same binary. A curve's CI gate compares a regenerated record with its
//! committed counterpart whole, through the one [`diff`], and then
//! applies that module's `floors`; a full regeneration is written only
//! when every record clears its floors. Every
//! one of them holds simulated results only — digests, traffic, scope,
//! recall, simulated latency — so each regenerates bit for bit on any
//! host; wall time, memory and speedup belong to the repo benchmark
//! (`benchmark/`), the only code that reads a clock.
//!
//! Scale selection via environment:
//!
//! * `QUICK=1` — smoke-test scale (seconds);
//! * default — laptop scale (minutes for the full set);
//! * `FULL=1` — the paper's 20,000-node physical topology.
//!
//! Records print as aligned-text [`Table`]s:
//!
//! ```
//! use ace_bench::{f1, Table};
//!
//! let mut t = Table::new(["metric", "value"]);
//! t.row(["mean traffic".to_string(), f1(5.04)]);
//! assert!(t.render().contains("5.0"));
//! ```

mod experiment;
pub mod figures;
pub mod matrix;
pub mod qps;
pub mod scale;
pub mod smoke;
pub mod soak;
mod table;

use std::path::PathBuf;

use serde::Value;

pub use experiment::{ExperimentRecord, NamedSeries};
pub use table::{f1, f3, pct, Table};

/// Experiment scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny smoke-test runs (CI-friendly).
    Quick,
    /// Laptop-scale defaults used for the checked-in EXPERIMENTS.md.
    Default,
    /// The paper's scale (20,000 physical nodes, thousands of peers).
    Paper,
}

impl Scale {
    /// Reads the scale from `QUICK` / `FULL` environment variables.
    pub fn from_env() -> Scale {
        let set = |k: &str| std::env::var(k).is_ok_and(|v| v == "1" || v == "true");
        if set("FULL") {
            Scale::Paper
        } else if set("QUICK") {
            Scale::Quick
        } else {
            Scale::Default
        }
    }

    /// Number of logical peers for the main experiments.
    pub fn peers(self) -> usize {
        match self {
            Scale::Quick => 120,
            Scale::Default => 800,
            Scale::Paper => 4000,
        }
    }

    /// `(as_count, nodes_per_as)` of the two-level physical topology.
    pub fn phys(self) -> (usize, usize) {
        match self {
            Scale::Quick => (4, 100),
            Scale::Default => (10, 400),
            Scale::Paper => (20, 1000), // the paper's 20,000 nodes
        }
    }

    /// Optimization steps for static runs.
    pub fn steps(self) -> usize {
        match self {
            Scale::Quick => 6,
            _ => 14,
        }
    }

    /// Query samples per measurement point.
    pub fn samples(self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Default => 48,
            Scale::Paper => 64,
        }
    }

    /// Peers for the (more expensive) closure-depth sweeps.
    pub fn sweep_peers(self) -> usize {
        match self {
            Scale::Quick => 100,
            Scale::Default => 400,
            Scale::Paper => 1200, // deep closures are O(n²)-ish; capped
        }
    }

    /// Total queries for dynamic runs.
    pub fn dynamic_queries(self) -> u64 {
        match self {
            Scale::Quick => 600,
            Scale::Default => 4000,
            Scale::Paper => 20_000,
        }
    }
}

/// Directory where experiment JSON records are written.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// Prints tables and persists the record.
pub fn emit(record: &ExperimentRecord, tables: &[Table]) {
    println!("== {} — {} ==", record.id, record.title);
    for (k, v) in &record.params {
        println!("   {k} = {v}");
    }
    println!();
    for t in tables {
        println!("{}", t.render());
    }
    match record.write_to_dir(&out_dir()) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[warn: could not save record: {e}]"),
    }
}

/// The one pinning rule of the committed artifacts: the first JSON path
/// (`$.tiers.coord`, `$.cells[3].digest`) where a regenerated record
/// differs from its committed counterpart, as a failure line with both
/// sides printed; `None` when they are equal in every field. Objects are
/// walked by key and arrays by index; a key or length mismatch is
/// reported at the object's or array's path. The records are simulated
/// and seeded, so any difference is a behavior change, not noise.
pub fn diff(measured: &Value, committed: &Value) -> Option<String> {
    let (path, got, want) = walk("$", measured, committed)?;
    Some(format!(
        "DRIFT at `{path}` — measured {got}, committed {want}"
    ))
}

/// `(path, measured, committed)` of the first difference under `path`.
fn walk(path: &str, a: &Value, b: &Value) -> Option<(String, String, String)> {
    let shape = |v: &Value| match v {
        Value::Object(f) => format!("keys {:?}", f.iter().map(|e| &e.0).collect::<Vec<_>>()),
        Value::Array(items) => format!("{} entries", items.len()),
        _ => serde_json::to_string(v).expect("a value prints"),
    };
    let children: Vec<(String, &Value, &Value)> = match (a, b) {
        (Value::Object(fa), Value::Object(fb)) if shape(a) == shape(b) => fa
            .iter()
            .zip(fb)
            .map(|((k, x), (_, y))| (format!("{path}.{k}"), x, y))
            .collect(),
        (Value::Array(xa), Value::Array(xb)) if xa.len() == xb.len() => xa
            .iter()
            .zip(xb)
            .enumerate()
            .map(|(i, (x, y))| (format!("{path}[{i}]"), x, y))
            .collect(),
        _ if a == b => return None,
        _ => return Some((path.to_string(), shape(a), shape(b))),
    };
    children.iter().find_map(|(p, x, y)| walk(p, x, y))
}

/// The text of a committed artifact at the repo root, e.g.
/// `"BENCH_scale.json"`.
#[cfg(test)]
pub(crate) fn committed_text(file: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A committed artifact, parsed as the type that writes it.
#[cfg(test)]
pub(crate) fn committed<T: serde::Deserialize>(file: &str) -> T {
    serde_json::from_str(&committed_text(file))
        .unwrap_or_else(|e| panic!("committed {file} parses: {e}"))
}

/// Asserts a `check` or `floors` rule reported exactly one failure
/// naming `needle`.
#[cfg(test)]
pub(crate) fn assert_one_failure(failures: &[String], needle: &str) {
    assert!(
        failures.len() == 1 && failures[0].contains(needle),
        "expected one failure naming {needle:?}, got {failures:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters_are_ordered() {
        assert!(Scale::Quick.peers() < Scale::Default.peers());
        assert!(Scale::Default.peers() < Scale::Paper.peers());
        let (a, n) = Scale::Paper.phys();
        assert_eq!(a * n, 20_000, "paper scale is 20k physical nodes");
    }

    /// A committed artifact holds exactly what its type writes: a field
    /// the type no longer has, or one it gained, fails here.
    #[test]
    fn committed_artifacts_round_trip_through_their_types() {
        fn round_trips<T: serde::Serialize + serde::Deserialize>(file: &str) {
            let text = committed_text(file);
            let rewritten =
                serde_json::to_string_pretty(&committed::<T>(file)).expect("bench types serialize");
            assert!(
                rewritten == text.trim_end_matches('\n'),
                "{file} is not what its type writes; regenerate it with `repro`"
            );
        }
        round_trips::<scale::ScaleBench>("BENCH_scale.json");
        round_trips::<qps::QpsBench>("BENCH_qps.json");
        round_trips::<matrix::MatrixBench>("BENCH_matrix.json");
        round_trips::<soak::SoakBench>("BENCH_soak.json");
    }

    /// Every record of every committed artifact clears its module's
    /// floors, so a re-capture of today's curves would be written. (The
    /// soak's retention floors bind on the `storm` severity only; the
    /// committed `quiet` and `churn` severities end under 1.0.)
    #[test]
    fn every_committed_record_clears_its_floors() {
        let scale_bench: scale::ScaleBench = committed("BENCH_scale.json");
        let qps_bench: qps::QpsBench = committed("BENCH_qps.json");
        let matrix_bench: matrix::MatrixBench = committed("BENCH_matrix.json");
        let soak_bench: soak::SoakBench = committed("BENCH_soak.json");
        let mut failures = scale::floors(&scale_bench);
        failures.extend(qps_bench.points.iter().flat_map(qps::floors));
        failures.extend(matrix::floors(&matrix_bench));
        failures.extend(soak_bench.severities.iter().flat_map(soak::floors));
        assert_eq!(failures, Vec::<String>::new());
    }

    #[test]
    fn diff_names_the_first_differing_path_with_both_sides() {
        let value = |s: &str| -> Value { serde_json::from_str(s).expect("test JSON parses") };
        let base = value(r#"{"tiers": {"coord": 7}, "windows": [{"r": 0.5}, {"r": 0.25}]}"#);
        let drift = |s: &str| diff(&value(s), &base).unwrap_or_default();
        let cases = [
            (
                r#"{"tiers": {"coord": 7}, "windows": [{"r": 0.5}, {"r": 0.25}]}"#,
                "",
            ),
            (
                r#"{"tiers": {"coord": 8}, "windows": [{"r": 0.5}, {"r": 0.25}]}"#,
                "DRIFT at `$.tiers.coord` — measured 8, committed 7",
            ),
            (
                r#"{"tiers": {"coord": 7}, "windows": [{"r": 0.5}, {"r": 0.75}]}"#,
                "DRIFT at `$.windows[1].r` — measured 0.75, committed 0.25",
            ),
            (
                r#"{"tiers": {"coord": 7}, "windows": [{"r": 0.5}]}"#,
                "DRIFT at `$.windows` — measured 1 entries, committed 2 entries",
            ),
            (
                r#"{"tier": {"coord": 7}, "windows": []}"#,
                r#"DRIFT at `$` — measured keys ["tier", "windows"], committed keys ["tiers", "windows"]"#,
            ),
        ];
        for (measured, want) in cases {
            assert_eq!(drift(measured), want);
        }
    }

    #[test]
    fn env_scale_defaults_to_default() {
        // Note: assumes QUICK/FULL are not exported by the test runner.
        if std::env::var("QUICK").is_err() && std::env::var("FULL").is_err() {
            assert_eq!(Scale::from_env(), Scale::Default);
        }
    }
}
