//! Regression: the pairwise-core probe cache is *bounded*.
//!
//! The original engine cached every `(a, b) -> Delay` probe it ever made
//! in an unbounded `HashMap`; under sustained churn every rejoin wires
//! fresh neighbor pairs, so the map grew monotonically for the life of
//! the process. [`AceConfig::core_cache_budget`] now bounds the modeled
//! byte footprint with oldest-first eviction, and `RoundStats` exposes
//! the cache counters so a soak can watch it.

use ace_core::experiments::{Scenario, ScenarioConfig};
use ace_core::{AceConfig, AceEngine};
use ace_overlay::{Overlay, PeerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BUDGET: usize = 4 * 1024; // ~85 pairs — tiny on purpose

fn churn_world() -> Scenario {
    Scenario::build(&ScenarioConfig {
        as_count: 4,
        nodes_per_as: 30,
        peers: 80,
        avg_degree: 5,
        objects: 20,
        replicas: 3,
        seed: 5,
        ..ScenarioConfig::default()
    })
}

#[test]
fn churn_soak_respects_core_cache_budget() {
    soak(true, true);
}

/// Both schedules share one tree plan/commit but order the cache
/// traffic differently: the serial schedule fills the cache peer by
/// peer, so a FIFO eviction can remove a pair the next peer would have
/// hit. Any outcome is a valid re-probe — budget and auditor hold with
/// and without churn, and without churn ACE never disconnects.
#[test]
fn serial_schedule_holds_budget_and_auditor_under_eviction() {
    soak(false, true);
    soak(false, false);
}

/// Between rounds, in peer-id order: an alive peer crashes or leaves at
/// 4 % each and a departed one rejoins at 50 %, drawn from `script` and
/// told to the engine through its lifecycle hooks. Every rejoin wires
/// fresh neighbor pairs into the core cache.
fn churn(ov: &mut Overlay, ace: &mut AceEngine, script: &mut StdRng) {
    let peers: Vec<PeerId> = ov.peers().collect();
    for p in peers {
        let u: f64 = script.gen();
        if !ov.is_alive(p) {
            if u < 0.5 {
                ov.join(p, 3, script).unwrap();
                ace.on_join(p);
            }
        } else if u < 0.08 && ov.alive_count() > 3 {
            ov.leave(p).unwrap();
            if u < 0.04 {
                ace.on_crash(p);
            } else {
                ace.on_leave(p);
            }
        }
    }
}

fn soak(parallel: bool, churn_between: bool) {
    let mut w = churn_world();
    let peers = w.overlay.peer_count();
    let mut ace = AceEngine::new(
        peers,
        AceConfig {
            parallel,
            core_cache_budget: BUDGET,
            ..AceConfig::paper_default()
        },
    );
    let mut script = StdRng::seed_from_u64(5);
    let mut high_water = 0usize;
    for round in 0..40 {
        if churn_between {
            churn(&mut w.overlay, &mut ace, &mut script);
        }
        let s = ace.round(&mut w.overlay, &w.oracle, &mut w.rng);
        assert!(
            s.core_cache.bytes <= BUDGET,
            "parallel={parallel} churn={churn_between} round {round}: cache footprint {} exceeds budget {BUDGET}",
            s.core_cache.bytes
        );
        high_water = high_water.max(s.core_cache.entries);
        ace.check_invariants(&w.overlay).unwrap();
        assert!(churn_between || w.overlay.is_connected(), "round {round}");
    }
    let end = ace.round(&mut w.overlay, &w.oracle, &mut w.rng).core_cache;
    assert!(
        end.evictions > 0,
        "soak never hit the budget — shrink BUDGET or add churn ({end:?})"
    );
    assert!(
        (end.inserts as usize) > 2 * high_water,
        "the soak should insert far more pairs than the cache can hold \
         (inserts {}, peak entries {high_water})",
        end.inserts
    );
    assert!(end.high_water_bytes <= BUDGET);
}

/// Without a tight budget the committed benchmarks never evict — the
/// default budget exists so digests stay byte-identical to the
/// pre-bounding engine on every committed artifact.
#[test]
fn default_budget_never_evicts_at_experiment_scale() {
    let mut w = churn_world();
    let peers = w.overlay.peer_count();
    let mut ace = AceEngine::new(
        peers,
        AceConfig {
            parallel: true,
            ..AceConfig::paper_default()
        },
    );
    for _ in 0..10 {
        let s = ace.round(&mut w.overlay, &w.oracle, &mut w.rng);
        assert_eq!(s.core_cache.evictions, 0);
    }
}
