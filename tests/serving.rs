//! Cross-crate tests of the batched query-serving engine: worker-count
//! determinism against the sequential single-query path, and the
//! dead-source skip contract under engine-level churn.

use ace_core::experiments::{OverlayKind, Scenario, ScenarioConfig};
use ace_core::{AceConfig, AceEngine, AceForward};
use ace_overlay::{
    serve_batch, serve_sequential, zipf_workload, FloodAll, QueryConfig, ServeConfig,
};
use proptest::prelude::*;
use rand::Rng;

fn arb_world() -> impl Strategy<Value = (ScenarioConfig, u8)> {
    (
        2usize..=4,
        30usize..=60,
        4usize..=8,
        any::<u64>(),
        0usize..3,
        4u8..=16,
    )
        .prop_map(|(ases, peers, degree, seed, kind, ttl)| {
            (
                ScenarioConfig {
                    as_count: ases,
                    nodes_per_as: 40,
                    peers,
                    avg_degree: degree,
                    overlay: match kind {
                        0 => OverlayKind::Clustered,
                        1 => OverlayKind::Random,
                        _ => OverlayKind::PrefAttach,
                    },
                    objects: 40,
                    replicas: 4,
                    zipf: 0.8,
                    seed,
                },
                ttl,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The digest of the batched engine is bit-identical to a sequential
    /// `run_query_into` sweep for the same workload — for any worker
    /// count, any shard size, and both forwarding policies (blind
    /// flooding and ACE tree forwarding after an optimization round).
    #[test]
    fn batched_digest_matches_sequential_for_any_worker_count((cfg, ttl) in arb_world()) {
        let mut s = Scenario::build(&cfg);
        let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);

        let specs = zipf_workload(&s.overlay, &s.catalog, 160, &mut s.rng);
        let placement = &s.placement;
        let is_responder = |obj, peer| placement.is_holder(obj, peer);
        let base = ServeConfig {
            query: QueryConfig { ttl, stop_at_responder: false },
            ..ServeConfig::default()
        };

        let flood_ref = serve_sequential(
            &s.overlay, &s.oracle, &FloodAll, &specs, &is_responder, &base,
        );
        let tree_policy = AceForward::new(&ace);
        let tree_ref = serve_sequential(
            &s.overlay, &s.oracle, &tree_policy, &specs, &is_responder, &base,
        );
        for workers in [1usize, 2, 3] {
            for chunk in [16usize, 128] {
                let cfg = ServeConfig { workers, chunk, ..base };
                let flood = serve_batch(
                    &s.overlay, &s.oracle, &FloodAll, &specs, &is_responder, &cfg,
                );
                prop_assert_eq!(
                    flood.digest(), flood_ref.digest(),
                    "flooding diverged at workers={} chunk={}", workers, chunk
                );
                let tree = serve_batch(
                    &s.overlay, &s.oracle, &tree_policy, &specs, &is_responder, &cfg,
                );
                prop_assert_eq!(
                    tree.digest(), tree_ref.digest(),
                    "tree forwarding diverged at workers={} chunk={}", workers, chunk
                );
                // Tree forwarding must not spend more traffic than
                // flooding on the same (optimized) overlay.
                prop_assert!(tree.traffic_cost <= flood.traffic_cost + 1e-9);
            }
        }
    }

    /// Churn interleaved with serving: sources that died after the
    /// workload was drawn are skipped and counted — the sweep finishes —
    /// and the surviving slots still match the sequential reference.
    #[test]
    fn churned_sources_skip_instead_of_aborting((cfg, ttl) in arb_world()) {
        let mut s = Scenario::build(&cfg);
        let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);

        let specs = zipf_workload(&s.overlay, &s.catalog, 120, &mut s.rng);
        // Mid-sweep churn: some sources leave gracefully, some crash.
        let mut died = 0usize;
        for (k, spec) in specs.iter().enumerate().step_by(9) {
            if !s.overlay.is_alive(spec.source) {
                continue;
            }
            s.overlay.leave(spec.source).unwrap();
            if k % 2 == 0 {
                ace.on_leave(spec.source);
            } else {
                ace.on_crash(spec.source);
            }
            died += 1;
        }
        // The first step_by candidate is always alive (sources are drawn
        // from alive peers), so churn kills at least one source.
        prop_assert!(died > 0);
        let expect_skipped = specs
            .iter()
            .filter(|spec| !s.overlay.is_alive(spec.source))
            .count() as u64;

        let placement = &s.placement;
        let is_responder = |obj, peer| placement.is_holder(obj, peer);
        let cfg = ServeConfig {
            query: QueryConfig { ttl, stop_at_responder: false },
            workers: 3,
            chunk: 32,
        };
        let report = serve_batch(
            &s.overlay, &s.oracle, &AceForward::new(&ace), &specs, &is_responder, &cfg,
        );
        prop_assert_eq!(report.skipped, expect_skipped);
        prop_assert_eq!(report.served + report.skipped, specs.len() as u64);
        prop_assert!(report.served > 0, "some sources must have survived");
        let reference = serve_sequential(
            &s.overlay, &s.oracle, &AceForward::new(&ace), &specs, &is_responder, &cfg,
        );
        prop_assert_eq!(report.digest(), reference.digest());
    }
}

/// The workload generator draws sources only from alive peers and
/// objects within the catalog, and is deterministic per RNG stream.
#[test]
fn zipf_workload_is_deterministic_and_well_formed() {
    let cfg = ScenarioConfig::default();
    let mut s = Scenario::build(&cfg);
    // Knock a few peers out so aliveness filtering is observable.
    for p in s.overlay.peers().take(40).collect::<Vec<_>>() {
        if s.overlay.is_alive(p) && s.rng.gen_bool(0.5) {
            s.overlay.leave(p).unwrap();
        }
    }
    let mut rng_a = s.rng.clone();
    let mut rng_b = s.rng.clone();
    let a = zipf_workload(&s.overlay, &s.catalog, 500, &mut rng_a);
    let b = zipf_workload(&s.overlay, &s.catalog, 500, &mut rng_b);
    assert_eq!(a, b, "same RNG state must draw the same workload");
    for spec in &a {
        assert!(s.overlay.is_alive(spec.source));
        assert!((spec.object as usize) < s.catalog.len());
    }
}
