//! Integration tests for the dynamic (churning) environment.

use ace_core::experiments::{dynamic_run, DynamicConfig, ScenarioConfig};
use ace_core::{AceConfig, FaultConfig, OverheadKind};
use ace_overlay::{DepartureModel, LifetimeModel, QueryRate};

fn base(seed: u64, ace: Option<AceConfig>) -> DynamicConfig {
    let scenario = ScenarioConfig {
        as_count: 4,
        nodes_per_as: 50,
        peers: 80,
        avg_degree: 6,
        objects: 60,
        replicas: 6,
        seed,
        ..ScenarioConfig::default()
    };
    DynamicConfig {
        lifetime: LifetimeModel::ClampedNormal {
            mean_secs: 90.0,
            std_secs: 45.0,
            min_secs: 5.0,
        },
        query_rate: QueryRate { per_minute: 5.0 },
        total_queries: 800,
        window: 100,
        ..DynamicConfig::paper_default(scenario, ace)
    }
}

#[test]
fn population_survives_heavy_churn() {
    let r = dynamic_run(&base(1, None));
    assert_eq!(r.windows.last().unwrap().queries_done, 800);
    assert!(r.churn_events > 40, "churn events {}", r.churn_events);
    // Queries keep finding content throughout.
    for w in &r.windows {
        assert!(w.success > 0.7, "success {:.2}", w.success);
        assert!(w.scope_frac > 0.6, "scope fraction {:.2}", w.scope_frac);
    }
}

#[test]
fn ace_overhead_is_amortized_and_still_wins() {
    let flood = dynamic_run(&base(2, None));
    let ace = dynamic_run(&base(2, Some(AceConfig::paper_default())));
    assert!(ace.total_overhead > 0.0, "overhead must be charged");
    assert!(
        ace.steady_traffic() < flood.steady_traffic(),
        "ACE {:.0} (incl. overhead) vs flooding {:.0}",
        ace.steady_traffic(),
        flood.steady_traffic()
    );
    assert!(
        ace.steady_response_ms() < flood.steady_response_ms(),
        "ACE response {:.1} vs flooding {:.1}",
        ace.steady_response_ms(),
        flood.steady_response_ms()
    );
}

#[test]
fn dynamic_runs_are_deterministic() {
    let a = dynamic_run(&base(3, Some(AceConfig::paper_default())));
    let b = dynamic_run(&base(3, Some(AceConfig::paper_default())));
    assert_eq!(a.churn_events, b.churn_events);
    assert_eq!(a.sim_end, b.sim_end);
    let ta: Vec<u64> = a.windows.iter().map(|w| w.traffic as u64).collect();
    let tb: Vec<u64> = b.windows.iter().map(|w| w.traffic as u64).collect();
    assert_eq!(ta, tb);
}

#[test]
fn index_cache_improves_on_plain_ace() {
    let mut with_cache = base(4, Some(AceConfig::paper_default()));
    with_cache.index_cache = Some(200);
    let cached = dynamic_run(&with_cache);
    let flood = dynamic_run(&base(4, None));
    assert!(
        cached.steady_traffic() < 0.6 * flood.steady_traffic(),
        "cache+ACE {:.0} vs flooding {:.0}",
        cached.steady_traffic(),
        flood.steady_traffic()
    );
    // Caching keeps queries answered even though forwarding stops early.
    for w in cached.windows.iter().skip(2) {
        assert!(w.success > 0.7, "success {:.2}", w.success);
    }
}

#[test]
fn forwarding_survives_unannounced_crashes() {
    // Peers vanish WITHOUT the engine being told (no on_leave): stale
    // tree entries and forward requests must be filtered, not followed.
    use ace_core::experiments::Scenario;
    use ace_core::{AceConfig, AceEngine, AceForward};
    use ace_overlay::{run_query, PeerId, QueryConfig};
    use rand::Rng;

    let scenario = ScenarioConfig {
        as_count: 4,
        nodes_per_as: 50,
        peers: 80,
        avg_degree: 6,
        objects: 40,
        replicas: 5,
        seed: 71,
        ..ScenarioConfig::default()
    };
    let mut s = Scenario::build(&scenario);
    let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..4 {
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
    }
    // Crash 15 random peers silently.
    let mut crashed = 0;
    while crashed < 15 {
        let p = PeerId::new(s.rng.gen_range(0..80));
        if s.overlay.is_alive(p) && p != PeerId::new(0) && s.overlay.leave(p).is_ok() {
            crashed += 1;
        }
    }
    let qc = QueryConfig {
        ttl: 32,
        stop_at_responder: false,
    };
    let out = run_query(
        &s.overlay,
        &s.oracle,
        PeerId::new(0),
        &qc,
        &AceForward::new(&ace),
        |_| false,
    );
    // The query must not touch dead peers and must still reach a healthy
    // share of the survivors reachable from the source.
    for p in s.overlay.peers() {
        if !s.overlay.is_alive(p) {
            assert!(
                out.arrivals[p.index()].is_none(),
                "dead {p} received a query"
            );
        }
    }
    let reachable = s.overlay.reachable_from(PeerId::new(0));
    assert!(
        out.scope as f64 >= 0.8 * reachable as f64,
        "scope {} of reachable {}",
        out.scope,
        reachable
    );
    s.overlay.check_invariants().unwrap();
}

#[test]
fn crash_heavy_dynamic_run_keeps_answering() {
    // Every departure is a silent crash (no goodbye): the engine only
    // learns about dead peers when forwarding filters them or a rejoin
    // purges the stale incarnation. Queries must keep succeeding anyway.
    let mut cfg = base(5, Some(AceConfig::paper_default()));
    cfg.departures = DepartureModel::with_crash_fraction(1.0);
    let r = dynamic_run(&cfg);
    assert_eq!(r.windows.last().unwrap().queries_done, 800);
    assert!(r.churn_events > 40, "churn events {}", r.churn_events);
    for w in &r.windows {
        assert!(w.success > 0.6, "success {:.2}", w.success);
        assert!(w.scope_frac > 0.5, "scope fraction {:.2}", w.scope_frac);
    }
}

#[test]
fn departure_mix_is_deterministic() {
    let mut a_cfg = base(6, Some(AceConfig::paper_default()));
    a_cfg.departures = DepartureModel::with_crash_fraction(0.5);
    let a = dynamic_run(&a_cfg);
    let b = dynamic_run(&a_cfg);
    assert_eq!(a.churn_events, b.churn_events);
    let ta: Vec<u64> = a.windows.iter().map(|w| w.traffic as u64).collect();
    let tb: Vec<u64> = b.windows.iter().map(|w| w.traffic as u64).collect();
    assert_eq!(ta, tb);
}

/// Explicit (release-mode) auditor runs: the `debug_assert` checks inside
/// `round` vanish under `--release`, so the integration suite calls the
/// auditor directly after every faulty round.
#[test]
fn faulty_rounds_hold_invariants_explicitly() {
    use ace_core::experiments::Scenario;
    use ace_core::AceEngine;

    for workers in [1usize, 4] {
        let scenario = ScenarioConfig {
            as_count: 4,
            nodes_per_as: 50,
            peers: 80,
            avg_degree: 6,
            objects: 40,
            replicas: 5,
            seed: 91,
            ..ScenarioConfig::default()
        };
        let mut s = Scenario::build(&scenario);
        let cfg = AceConfig {
            parallel: true,
            workers,
            faults: Some(FaultConfig {
                probe_loss: 0.2,
                crash: 0.02,
                leave: 0.02,
                rejoin: 0.4,
                seed: 91,
            }),
            ..AceConfig::paper_default()
        };
        let mut ace = AceEngine::new(s.overlay.peer_count(), cfg);
        let mut departures = 0;
        for _ in 0..8 {
            let stats = ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
            departures += stats.crashed + stats.left;
            s.overlay.check_invariants().unwrap();
            ace.check_invariants(&s.overlay).unwrap();
        }
        assert!(departures > 0, "faults should fire over 8 rounds");
        assert!(
            ace.ledger().cost_of(OverheadKind::ProbeRetry) > 0.0,
            "lost probes must charge retries"
        );
    }
}
