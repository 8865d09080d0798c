//! End-to-end integration tests spanning every crate: physical topology →
//! overlay → ACE optimization → measured search behavior.

use ace_core::experiments::{
    measure_queries, static_run, OverlayKind, Scenario, ScenarioConfig, StaticConfig,
};
use ace_core::{AceConfig, AceEngine, AceForward, ReplacePolicy};
use ace_overlay::{zipf_workload, FloodAll};

fn small_world(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        as_count: 5,
        nodes_per_as: 60,
        peers: 100,
        avg_degree: 6,
        overlay: OverlayKind::Clustered,
        objects: 80,
        replicas: 6,
        zipf: 0.8,
        seed,
    }
}

#[test]
fn ace_reduces_traffic_and_response_while_keeping_scope() {
    let cfg = StaticConfig {
        scenario: small_world(11),
        ace: AceConfig::paper_default(),
        steps: 10,
        query_samples: 24,
        ttl: 32,
    };
    let r = static_run(&cfg);
    assert!(
        r.traffic_reduction() > 0.4,
        "traffic reduction {:.2}",
        r.traffic_reduction()
    );
    assert!(
        r.response_reduction() > 0.2,
        "response reduction {:.2}",
        r.response_reduction()
    );
    assert!(
        r.min_scope_ratio() > 0.97,
        "scope ratio {:.3}",
        r.min_scope_ratio()
    );
    // Traffic at the end must be below the first optimized step too — the
    // curve keeps improving, not just the initial tree drop.
    let first_opt = r.steps[1].ace.traffic;
    let last = r.steps.last().unwrap().ace.traffic;
    assert!(
        last <= first_opt * 1.05,
        "no late regression: {first_opt} -> {last}"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let cfg = StaticConfig {
            scenario: small_world(5),
            ace: AceConfig::paper_default(),
            steps: 4,
            query_samples: 12,
            ttl: 32,
        };
        let r = static_run(&cfg);
        r.steps.iter().map(|s| s.ace.traffic).collect::<Vec<f64>>()
    };
    assert_eq!(run(), run(), "same seed must give identical traffic curves");
}

#[test]
fn optimization_preserves_connectivity_and_invariants() {
    let mut s = Scenario::build(&small_world(21));
    let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..8 {
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
        s.overlay.check_invariants().expect("overlay invariants");
        assert!(s.overlay.is_connected(), "overlay stays connected");
    }
}

#[test]
fn all_policies_improve_over_flooding() {
    for policy in [
        ReplacePolicy::Random,
        ReplacePolicy::Naive,
        ReplacePolicy::Closest,
    ] {
        let cfg = StaticConfig {
            scenario: small_world(31),
            ace: AceConfig {
                policy,
                ..AceConfig::paper_default()
            },
            steps: 8,
            query_samples: 16,
            ttl: 32,
        };
        let r = static_run(&cfg);
        assert!(
            r.traffic_reduction() > 0.3,
            "{policy:?} reduction {:.2}",
            r.traffic_reduction()
        );
    }
}

#[test]
fn deeper_closures_cost_more_but_never_lose_scope() {
    for depth in 1..=3u8 {
        let cfg = StaticConfig {
            scenario: small_world(41),
            ace: AceConfig {
                depth,
                ..AceConfig::paper_default()
            },
            steps: 6,
            query_samples: 16,
            ttl: 32,
        };
        let r = static_run(&cfg);
        assert!(
            r.min_scope_ratio() > 0.95,
            "h={depth} scope {:.3}",
            r.min_scope_ratio()
        );
    }
}

#[test]
fn total_physical_link_cost_decreases() {
    let mut s = Scenario::build(&small_world(51));
    let cost = |s: &Scenario| -> u64 {
        let mut total = 0u64;
        for p in s.overlay.peers() {
            for &n in s.overlay.neighbors(p) {
                if p < n {
                    total += u64::from(s.overlay.link_cost(&s.oracle, p, n));
                }
            }
        }
        total
    };
    let before = cost(&s);
    let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..8 {
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
    }
    let after = cost(&s);
    assert!(
        (after as f64) < 0.8 * before as f64,
        "physical matching should cut total link cost: {before} -> {after}"
    );
}

#[test]
fn fresh_peers_fall_back_to_flooding() {
    let mut s = Scenario::build(&small_world(61));
    let ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    // No rounds run: AceForward must behave exactly like FloodAll.
    let specs = zipf_workload(&s.overlay, &s.catalog, 10, &mut s.rng);
    let a = measure_queries(
        &s.overlay,
        &s.oracle,
        &s.placement,
        &specs,
        32,
        &AceForward::new(&ace),
    );
    let f = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, 32, &FloodAll);
    assert_eq!(a.traffic, f.traffic);
    assert_eq!(a.scope, f.scope);
}
