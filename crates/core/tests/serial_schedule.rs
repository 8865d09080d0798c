//! Golden pins of both round schedules.
//!
//! The serial schedule (`AceConfig::parallel == false`) is an *ordering*
//! over the engine's plan/commit stage primitives: per peer, in shuffled
//! order, plan the tree, commit it, sweep the watches, plan phase 3 with
//! the shared RNG, commit. It was once a separate implementation
//! (`build_tree` + `phase3_adapt` bodies of their own); the `serial_*`
//! constants below were captured by running this file unmodified on that
//! implementation (commit fdf359e, the parent of the change that composed
//! the schedule from the shared stages) and must hold on every later
//! commit: same tables, trees, requests, watches and ledger cost *bits*
//! (`state_digest`), same overlay wiring, same per-round overhead and
//! same pairwise-core cache hit/miss/insert counts, after every round.
//!
//! The planned schedule (`parallel == true`) plans every due peer against
//! the round-start snapshot and commits in peer-id order. Its `planned_*`
//! constants were captured at `workers: 1` on commit fbe82e9, the last
//! one that could replay a cached tree plan instead of planning it; the
//! folded core-cache counters pin that stage A consults the cache once
//! per non-adjacent neighbor pair. One cell reruns at `workers: 3` and
//! must land on its `workers: 1` golden.
//!
//! Grid: 12 seeds × {Random, Naive, Closest} per cell, 200 peers, 10
//! rounds; one folded `u64` per (schedule, depth, faults, autorate) cell,
//! plus one for `tree_round` at h ∈ {1, 2, 3}. A mismatch prints the
//! value the cell produced; re-capturing is only legitimate for a change
//! that *means* to move a schedule's digests.

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

fn cell(depth: u8, with_faults: bool, with_autorate: bool, parallel: bool, workers: usize) -> u64 {
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
                    parallel,
                    workers,
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

/// One `#[test]` per `(depth, faults, autorate, parallel)` cell, so the
/// harness spreads the grid over the available cores.
macro_rules! cells {
    ($($name:ident: ($depth:expr, $faults:expr, $autorate:expr, $parallel:expr) => $golden:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_eq!(
                cell($depth, $faults, $autorate, $parallel, 1),
                $golden,
                "schedule moved (got left, golden right)"
            );
        }
    )*};
}

cells! {
    serial_h1:                  (1, false, false, false) => 7138897661387862655;
    serial_h1_autorate:         (1, false, true, false)  => 15072391699090763549;
    serial_h1_faults:           (1, true, false, false)  => 10226449008514778991;
    serial_h1_faults_autorate:  (1, true, true, false)   => 1887228054275021580;
    serial_h2:                  (2, false, false, false) => 5881870034476259886;
    serial_h2_autorate:         (2, false, true, false)  => 17817652471114980232;
    serial_h2_faults:           (2, true, false, false)  => 12216444288291646633;
    serial_h2_faults_autorate:  (2, true, true, false)   => 15182148626784249873;
    planned_h1:                 (1, false, false, true)  => 16526414571102586621;
    planned_h1_autorate:        (1, false, true, true)   => 1530346987070815521;
    planned_h1_faults:          (1, true, false, true)   => 5931526388713452377;
    planned_h1_faults_autorate: (1, true, true, true)    => PLANNED_H1_FAULTS_AUTORATE;
    planned_h2:                 (2, false, false, true)  => 5525229093640344556;
    planned_h2_autorate:        (2, false, true, true)   => 7673148410432811677;
    planned_h2_faults:          (2, true, false, true)   => 8363700908945224126;
    planned_h2_faults_autorate: (2, true, true, true)    => 17437692664811496016;
}

const PLANNED_H1_FAULTS_AUTORATE: u64 = 3293444706840980645;

/// The planned schedule is bit-identical for any worker count: the
/// hardest cell (faults and controller on) at three workers lands on
/// its one-worker golden.
#[test]
fn planned_h1_faults_autorate_on_three_workers() {
    assert_eq!(
        cell(1, true, true, true, 3),
        PLANNED_H1_FAULTS_AUTORATE,
        "workers: 3 diverged from the workers: 1 golden (got left)"
    );
}

/// Captured with the `serial_*` cells, on the same commit.
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
