//! Fault-injection smoke: many seeds of churn-heavy optimization rounds,
//! each audited for invariant violations and forwarding black holes.
//!
//! For every seed the run executes parallel plan/commit rounds with probe
//! loss, silent crashes, graceful leaves and rejoins enabled, then
//! asserts after every round that
//!
//! * [`AceEngine::check_invariants`] and `Overlay::check_invariants` hold;
//! * no alive, connected peer has an empty forward-target set (the
//!   black-hole regression this PR fixes).
//!
//! Any violation panics (non-zero exit); otherwise the summary is
//! returned as the JSON `repro smoke fault` writes to `FAULT_SMOKE.json`.

use ace_core::experiments::{Scenario, ScenarioConfig};
use ace_core::{AceConfig, AceEngine, FaultConfig, OverheadKind};
use serde::Serialize;

const SEEDS: u64 = 24;
const ROUNDS: usize = 8;

#[derive(Serialize)]
struct SeedReport {
    seed: u64,
    crashed: usize,
    left: usize,
    rejoined: usize,
    probe_retries: u64,
    retry_cost: f64,
    final_alive: usize,
    state_digest: u64,
}

#[derive(Serialize)]
struct Summary {
    seeds: u64,
    rounds_per_seed: usize,
    total_departures: usize,
    total_rejoins: usize,
    black_holes: usize,
    invariant_failures: usize,
    per_seed: Vec<SeedReport>,
}

/// Runs every seed and returns the `FAULT_SMOKE.json` text.
pub fn run() -> String {
    let faults = FaultConfig {
        probe_loss: 0.15,
        crash: 0.02,
        leave: 0.02,
        rejoin: 0.3,
        seed: 0, // overwritten per run below
    };
    let mut per_seed = Vec::new();
    let (mut departures, mut rejoins) = (0usize, 0usize);
    for seed in 0..SEEDS {
        let scenario = ScenarioConfig {
            as_count: 4,
            nodes_per_as: 50,
            peers: 80,
            avg_degree: 6,
            objects: 40,
            replicas: 5,
            seed,
            ..ScenarioConfig::default()
        };
        let mut s = Scenario::build(&scenario);
        let cfg = AceConfig {
            parallel: true,
            workers: 0,
            faults: Some(FaultConfig { seed, ..faults }),
            ..AceConfig::paper_default()
        };
        let mut ace = AceEngine::new(s.overlay.peer_count(), cfg);
        let (mut crashed, mut left, mut rejoined) = (0, 0, 0);
        for round in 0..ROUNDS {
            let stats = ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
            crashed += stats.crashed;
            left += stats.left;
            rejoined += stats.rejoined;
            // Auditors: panic on the first violation so CI fails loudly.
            s.overlay
                .check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: overlay invariant: {e}"));
            ace.check_invariants(&s.overlay)
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: engine invariant: {e}"));
            // Black-hole sweep: every alive peer that still has neighbors
            // must forward an externally originated query to someone.
            let mut targets = Vec::new();
            for p in s.overlay.alive_peers() {
                if s.overlay.neighbors(p).is_empty() {
                    continue;
                }
                ace.forward_targets_into(&s.overlay, p, None, &mut targets);
                assert!(
                    !targets.is_empty(),
                    "seed {seed} round {round}: black hole at {p}"
                );
            }
        }
        assert!(
            s.overlay.alive_count() > 0,
            "seed {seed}: population died out"
        );
        departures += crashed + left;
        rejoins += rejoined;
        per_seed.push(SeedReport {
            seed,
            crashed,
            left,
            rejoined,
            probe_retries: ace.ledger().count_of(OverheadKind::ProbeRetry),
            retry_cost: ace.ledger().cost_of(OverheadKind::ProbeRetry),
            final_alive: s.overlay.alive_count(),
            state_digest: ace.state_digest(),
        });
    }
    assert!(departures > 0, "faults never fired across {SEEDS} seeds");
    assert!(rejoins > 0, "no rejoin fired across {SEEDS} seeds");
    let summary = Summary {
        seeds: SEEDS,
        rounds_per_seed: ROUNDS,
        total_departures: departures,
        total_rejoins: rejoins,
        black_holes: 0,
        invariant_failures: 0,
        per_seed,
    };
    eprintln!(
        "[repro smoke fault: {SEEDS} seeds x {ROUNDS} rounds, {departures} departures, \
         {rejoins} rejoins, 0 black holes, 0 invariant failures]"
    );
    serde_json::to_string_pretty(&summary).expect("serialize fault smoke")
}
