//! Golden pin of the serial schedule (`AceConfig::parallel == false`).
//!
//! The serial schedule is an *ordering* over the engine's plan/commit
//! stage primitives: per peer, in shuffled order, plan the tree, commit
//! it, sweep the watches, plan phase 3 with the shared RNG, commit. It
//! was once a separate implementation (`build_tree` + `phase3_adapt`
//! bodies of their own); the constants below were captured by running
//! this file unmodified on that implementation (commit fdf359e, the
//! parent of the change that composed the schedule from the shared
//! stages) and must hold on every later commit: same tables, trees,
//! requests, watches and ledger cost *bits* (`state_digest`), same
//! overlay wiring, same per-round overhead and same pairwise-core cache
//! hit/miss/insert counts, after every round.
//!
//! Grid: 12 seeds × {Random, Naive, Closest} per cell, 200 peers, 10
//! rounds; one folded `u64` per (depth, faults, autorate) cell, plus one
//! for `tree_round` at h ∈ {1, 2, 3}. A mismatch prints the value the
//! cell produced; re-capturing is only legitimate for a change that
//! *means* to move the serial schedule's digests.

use ace_core::experiments::{PhysKind, Scenario, ScenarioConfig};
use ace_core::{AceConfig, AceEngine, AutoRateConfig, FaultConfig, ReplacePolicy, RoundStats};
use ace_overlay::Overlay;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=12;
const ROUNDS: usize = 10;

fn world(seed: u64) -> Scenario {
    Scenario::build(&ScenarioConfig {
        phys: PhysKind::TwoLevel {
            as_count: 6,
            nodes_per_as: 50,
        },
        peers: 200,
        avg_degree: 5,
        objects: 20,
        replicas: 3,
        seed,
        ..ScenarioConfig::default()
    })
}

fn faults(seed: u64) -> FaultConfig {
    FaultConfig {
        probe_loss: 0.15,
        max_retries: 2,
        backoff: 1.5,
        crash: 0.03,
        leave: 0.03,
        rejoin: 0.4,
        rejoin_attach: 3,
        seed,
    }
}

fn fold_overlay(ov: &Overlay, h: &mut DefaultHasher) {
    for p in ov.peers() {
        ov.is_alive(p).hash(h);
        ov.neighbors(p).hash(h);
    }
}

/// Everything a round can move, folded into `h`.
fn fold_round(ace: &AceEngine, ov: &Overlay, stats: &RoundStats, h: &mut DefaultHasher) {
    ace.state_digest().hash(h);
    fold_overlay(ov, h);
    (stats.replaced, stats.added, stats.trees_built).hash(h);
    (stats.crashed, stats.left, stats.rejoined).hash(h);
    stats.overhead.total_cost().to_bits().hash(h);
    stats.overhead.total_count().hash(h);
    let c = stats.core_cache;
    (c.hits, c.misses, c.inserts, c.entries).hash(h);
}

fn serial_cell(depth: u8, with_faults: bool, with_autorate: bool) -> u64 {
    let mut h = DefaultHasher::new();
    for seed in SEEDS {
        for policy in [
            ReplacePolicy::Random,
            ReplacePolicy::Naive,
            ReplacePolicy::Closest,
        ] {
            let mut w = world(seed);
            let mut ace = AceEngine::new(
                w.overlay.peer_count(),
                AceConfig {
                    depth,
                    policy,
                    faults: with_faults.then(|| faults(seed)),
                    autorate: with_autorate.then(AutoRateConfig::default),
                    ..AceConfig::paper_default()
                },
            );
            for _ in 0..ROUNDS {
                let stats = ace.round(&mut w.overlay, &w.oracle, &mut w.rng);
                fold_round(&ace, &w.overlay, &stats, &mut h);
            }
            ace.check_invariants(&w.overlay).unwrap();
        }
    }
    h.finish()
}

/// One `#[test]` per `(depth, faults, autorate)` cell, so the harness
/// spreads the grid over the available cores.
macro_rules! serial_cells {
    ($($name:ident: ($depth:expr, $faults:expr, $autorate:expr) => $golden:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_eq!(
                serial_cell($depth, $faults, $autorate),
                $golden,
                "serial schedule moved (got left, golden right)"
            );
        }
    )*};
}

serial_cells! {
    serial_h1:                 (1, false, false) => 7138897661387862655;
    serial_h1_autorate:        (1, false, true)  => 15072391699090763549;
    serial_h1_faults:          (1, true, false)  => 10226449008514778991;
    serial_h1_faults_autorate: (1, true, true)   => 1887228054275021580;
    serial_h2:                 (2, false, false) => 5881870034476259886;
    serial_h2_autorate:        (2, false, true)  => 17817652471114980232;
    serial_h2_faults:          (2, true, false)  => 12216444288291646633;
    serial_h2_faults_autorate: (2, true, true)   => 15182148626784249873;
}

/// Captured with the cells above, on the same commit.
const TREE_ROUND: u64 = 13616960229684835724;

#[test]
fn tree_round_digest_matches_the_pre_composition_engine() {
    let mut h = DefaultHasher::new();
    for depth in 1..=3u8 {
        for seed in SEEDS {
            let w = world(seed);
            let mut ace = AceEngine::new(
                w.overlay.peer_count(),
                AceConfig {
                    depth,
                    ..AceConfig::paper_default()
                },
            );
            // The second round hits the warm core cache and diffs
            // against an existing tree.
            for _ in 0..2 {
                let stats = ace.tree_round(&w.overlay, &w.oracle);
                fold_round(&ace, &w.overlay, &stats, &mut h);
            }
        }
    }
    assert_eq!(h.finish(), TREE_ROUND, "tree_round moved (got left)");
}
