//! How a run is printed: every metric by name with its unit, the output
//! checks, and — as the last line — the one JSON object the driver reads.

use std::fmt::Write;

use crate::run::Report;

/// The last line of a run's standard output: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.def.name, m.value, m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The human-readable part: one header line, one line per metric, the
/// failed checks if any.
pub fn table(r: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} seed={} passes={} digest={:016x} replay_spread={:.4} noisy_run={}",
        r.workload, r.seed, r.passes, r.digest, r.replay_spread, r.noisy_run
    );
    for m in &r.metrics {
        let _ = writeln!(out, "{:<52} {:>16.6} {}", m.def.name, m.value, m.def.unit);
    }
    let _ = writeln!(
        out,
        "ops_attempted={} ops_failed={} correct={}",
        r.attempted, r.failed, r.correct
    );
    for p in &r.problems {
        let _ = writeln!(out, "FAILED CHECK: {p}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Metric;
    use crate::spec::MetricDef;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = Report {
            workload: "w",
            seed: 1,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                def: MetricDef {
                    name: "setup_s",
                    unit: "s",
                },
                value: 0.8127,
            }],
            passes: 5,
            digest: 0,
            replay_spread: 0.0,
            noisy_run: false,
            problems: Vec::new(),
        };
        assert_eq!(
            json_line(&r),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed: serde::Value = serde_json::from_str(&json_line(&r)).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
