//! Differential smoke: many seeds of the sync↔async equivalence harness,
//! half quiet and half under a churn schedule, each judged against the
//! convergence-equivalence contract
//! ([`DifferentialOutcome::check_equivalence`]):
//!
//! * both drivers reduce flooding traffic (same direction);
//! * their reduction ratios agree within the default band;
//! * both retain their flooding search scope;
//! * engine, simulator and overlay auditors stay green throughout.
//!
//! Any violation panics (non-zero exit); otherwise per-seed ratios and a
//! summary are returned as the JSON `repro smoke diff` writes to
//! `DIFFERENTIAL.json` for the CI artifact.

use ace_core::experiments::differential::DEFAULT_BAND;
use ace_core::experiments::{
    differential_run, ChurnKind, ChurnStep, DifferentialConfig, ScenarioConfig,
};
use serde::Serialize;

const SEEDS: u64 = 16;
const ROUNDS: u64 = 6;

#[derive(Serialize)]
struct SeedReport {
    seed: u64,
    churned: bool,
    sync_reduction: f64,
    async_reduction: f64,
    gap: f64,
    sync_scope_frac: f64,
    async_scope_frac: f64,
    alive: usize,
}

#[derive(Serialize)]
struct Summary {
    seeds: u64,
    rounds_per_seed: u64,
    band: f64,
    max_gap: f64,
    mean_gap: f64,
    equivalence_failures: usize,
    auditor_failures: usize,
    per_seed: Vec<SeedReport>,
}

/// Runs every seed and returns the `DIFFERENTIAL.json` text.
pub fn run() -> String {
    let mut per_seed = Vec::new();
    let mut max_gap = 0.0f64;
    let mut gap_sum = 0.0f64;
    for seed in 0..SEEDS {
        // Even seeds run quiet, odd seeds run a fixed churn schedule —
        // the same split every run, so the artifact is comparable
        // across commits.
        let churned = seed % 2 == 1;
        let churn = if churned {
            vec![
                ChurnStep {
                    step: 2,
                    kind: ChurnKind::Leave,
                    sel: seed as usize,
                },
                ChurnStep {
                    step: 3,
                    kind: ChurnKind::Leave,
                    sel: seed as usize * 7 + 3,
                },
                ChurnStep {
                    step: 4,
                    kind: ChurnKind::Join,
                    sel: 0,
                },
            ]
        } else {
            Vec::new()
        };
        let cfg = DifferentialConfig {
            scenario: ScenarioConfig {
                as_count: 4,
                nodes_per_as: 60,
                peers: 70,
                avg_degree: 6,
                objects: 30,
                replicas: 4,
                seed,
                ..ScenarioConfig::default()
            },
            rounds: ROUNDS,
            churn,
            attach: 3,
            netem: None,
        };
        let out = differential_run(&cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: auditor failed mid-run: {e}"));
        out.check_equivalence(DEFAULT_BAND)
            .unwrap_or_else(|e| panic!("seed {seed}: equivalence violated: {e}"));
        let gap = (out.sync_side.reduction - out.async_side.reduction).abs();
        max_gap = max_gap.max(gap);
        gap_sum += gap;
        per_seed.push(SeedReport {
            seed,
            churned,
            sync_reduction: out.sync_side.reduction,
            async_reduction: out.async_side.reduction,
            gap,
            sync_scope_frac: out.sync_side.scope_frac,
            async_scope_frac: out.async_side.scope_frac,
            alive: out.sync_side.alive,
        });
    }
    let summary = Summary {
        seeds: SEEDS,
        rounds_per_seed: ROUNDS,
        band: DEFAULT_BAND,
        max_gap,
        mean_gap: gap_sum / SEEDS as f64,
        equivalence_failures: 0,
        auditor_failures: 0,
        per_seed,
    };
    eprintln!(
        "[repro smoke diff: {SEEDS} seeds x {ROUNDS} rounds, max gap {max_gap:.3} \
         (band {DEFAULT_BAND}), 0 equivalence failures, 0 auditor failures]"
    );
    serde_json::to_string_pretty(&summary).expect("serialize differential smoke")
}
