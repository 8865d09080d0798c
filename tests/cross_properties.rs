//! Cross-crate property-based tests: ACE invariants on randomized worlds.

use ace_core::experiments::differential::DEFAULT_BAND as DIFF_BAND;
use ace_core::experiments::{
    differential_run, ChurnKind as DiffChurnKind, ChurnStep, DifferentialConfig, OverlayKind,
    Scenario, ScenarioConfig,
};
use ace_core::mst::{kruskal, prim, prim_heap, ClosureEdge};
use ace_core::{AceConfig, AceEngine, AceForward, Closure, FaultConfig};
use ace_overlay::{run_query, FloodAll, PeerId, QueryConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_scenario() -> impl Strategy<Value = ScenarioConfig> {
    (
        2usize..=5,
        30usize..=70,
        4usize..=8,
        any::<u64>(),
        0usize..3,
    )
        .prop_map(|(ases, peers, degree, seed, kind)| ScenarioConfig {
            as_count: ases,
            nodes_per_as: 50,
            peers,
            avg_degree: degree,
            overlay: match kind {
                0 => OverlayKind::Clustered,
                1 => OverlayKind::Random,
                _ => OverlayKind::PrefAttach,
            },
            objects: 30,
            replicas: 4,
            zipf: 0.8,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ACE rounds never disconnect the overlay or break its invariants.
    #[test]
    fn rounds_preserve_connectivity(cfg in arb_scenario()) {
        let mut s = Scenario::build(&cfg);
        let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
        for _ in 0..4 {
            ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
            prop_assert!(s.overlay.is_connected());
            prop_assert!(s.overlay.check_invariants().is_ok());
        }
    }

    /// Tree forwarding reaches (almost) the flooding scope with a TTL that
    /// does not truncate, and never exceeds flooding traffic.
    #[test]
    fn tree_forwarding_keeps_scope_and_saves_traffic(cfg in arb_scenario()) {
        let mut s = Scenario::build(&cfg);
        let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
        for _ in 0..3 {
            ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
        }
        let qc = QueryConfig { ttl: 32, stop_at_responder: false };
        let src = PeerId::new(0);
        let flood = run_query(&s.overlay, &s.oracle, src, &qc, &FloodAll, |_| false);
        let tree = run_query(&s.overlay, &s.oracle, src, &qc, &AceForward::new(&ace), |_| false);
        // Transient forwarding islands can momentarily trap a few peers on
        // very sparse worlds (see the min_flooding ablation); the bound
        // here is the documented worst case, not the typical ~1.0.
        prop_assert!(tree.scope as f64 >= 0.9 * flood.scope as f64,
            "scope {} vs {}", tree.scope, flood.scope);
        prop_assert!(tree.traffic_cost <= flood.traffic_cost * 1.01);
    }

    /// Prim (dense and heap) and Kruskal agree on spanning weight for
    /// random connected closure subgraphs.
    #[test]
    fn mst_algorithms_agree(n in 3usize..24, extra in 0usize..40, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let members: Vec<PeerId> = (0..n as u32).map(PeerId::new).collect();
        let mut edges = Vec::new();
        // Random spanning chain + extra random edges.
        for i in 1..n {
            edges.push(ClosureEdge {
                a: members[i - 1],
                b: members[i],
                cost: rng.gen_range(1..100),
            });
        }
        for _ in 0..extra {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j {
                edges.push(ClosureEdge { a: members[i], b: members[j], cost: rng.gen_range(1..100) });
            }
        }
        let dense = prim(members[0], &members, &edges);
        let heap = prim_heap(members[0], &members, &edges);
        let kk = kruskal(&members, &edges);
        prop_assert_eq!(dense.weight(), heap.weight());
        prop_assert_eq!(dense.weight(), kk.weight());
        prop_assert_eq!(dense.len(), n - 1);
    }

    /// Closures are internally consistent: every member within depth, relay
    /// paths valid, hop counts increasing along BFS parents.
    #[test]
    fn closures_are_well_formed(cfg in arb_scenario(), depth in 1u8..4) {
        let s = Scenario::build(&cfg);
        let src = PeerId::new(0);
        let c = Closure::collect(&s.overlay, src, depth);
        prop_assert_eq!(c.members()[0], src);
        for &m in c.members() {
            let h = c.hop_of(m).unwrap();
            prop_assert!(h <= depth);
            let path = c.relay_path(m).unwrap();
            prop_assert_eq!(path.len() as u8, h + 1);
            prop_assert_eq!(*path.last().unwrap(), src);
            // Consecutive relay hops are overlay neighbors.
            for w in path.windows(2) {
                prop_assert!(s.overlay.are_neighbors(w[0], w[1]));
            }
        }
    }

    /// Replacement never increases the replaced peer's probed link cost:
    /// the sum of logical link costs is non-increasing over rounds except
    /// for bounded keep-both additions.
    #[test]
    fn link_costs_trend_downward(cfg in arb_scenario()) {
        let mut s = Scenario::build(&cfg);
        let total = |s: &Scenario| -> f64 {
            let mut t = 0.0;
            for p in s.overlay.peers() {
                for &n in s.overlay.neighbors(p) {
                    if p < n {
                        t += f64::from(s.overlay.link_cost(&s.oracle, p, n));
                    }
                }
            }
            t
        };
        let before = total(&s);
        let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
        for _ in 0..5 {
            ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
        }
        // Allow a small slack for keep-both additions that have not been
        // trimmed yet; the trend must still be clearly downward.
        prop_assert!(total(&s) < before * 1.02, "{} -> {}", before, total(&s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// HPF partial flooding never exceeds blind-flooding traffic and its
    /// scope shrinks monotonically with the kept fraction.
    #[test]
    fn partial_flooding_is_bounded_by_flooding(cfg in arb_scenario()) {
        use ace_overlay::{HpfWeight, PartialFlood};
        let s = Scenario::build(&cfg);
        let qc = QueryConfig { ttl: 32, stop_at_responder: false };
        let src = PeerId::new(0);
        let flood = run_query(&s.overlay, &s.oracle, src, &qc, &FloodAll, |_| false);
        let mut last_scope = usize::MAX;
        for fraction in [1.0, 0.6, 0.3] {
            let policy = PartialFlood::new(&s.oracle, fraction, 1, HpfWeight::Cheapest);
            let q = run_query(&s.overlay, &s.oracle, src, &qc, &policy, |_| false);
            prop_assert!(q.traffic_cost <= flood.traffic_cost * 1.01);
            prop_assert!(q.scope <= last_scope);
            last_scope = q.scope;
        }
    }

    /// Random walks never visit more peers than they take steps (+source)
    /// and their traffic equals the sum of walked links.
    #[test]
    fn random_walk_accounting_is_consistent(cfg in arb_scenario(), walkers in 1usize..8, hops in 1usize..40) {
        use ace_overlay::{random_walk_query, WalkConfig};
        let mut s = Scenario::build(&cfg);
        let wc = WalkConfig { walkers, max_hops: hops };
        let out = random_walk_query(&s.overlay, &s.oracle, PeerId::new(0), &wc, |_| false, &mut s.rng);
        prop_assert!(out.messages <= (walkers * hops) as u64);
        prop_assert!(out.peers_visited as u64 <= out.messages + 1);
        prop_assert!(out.first_response.is_none());
    }

    /// Two-tier networks: every leaf has a live supernode and core queries
    /// cover the whole core.
    #[test]
    fn two_tier_structure_is_sound(cfg in arb_scenario()) {
        use ace_overlay::TwoTierNetwork;
        let mut s = Scenario::build(&cfg);
        let hosts: Vec<_> = s.overlay.peers().map(|p| s.overlay.host(p)).collect();
        let tt = TwoTierNetwork::build(hosts, &mut s.rng);
        prop_assert!(tt.core.is_connected());
        prop_assert_eq!(tt.leaf_count() + tt.supernode_count(), cfg.peers);
        let qc = QueryConfig { ttl: 32, stop_at_responder: false };
        let (outcome, total) = tt.query_from_leaf(&s.oracle, 0, &qc, &FloodAll, |_| false);
        prop_assert_eq!(outcome.scope, tt.supernode_count());
        prop_assert!(total >= outcome.traffic_cost);
    }
}

/// One churn op in a randomized interleaving: which lifecycle edge to
/// exercise and a selector for the affected peer.
#[derive(Clone, Copy, Debug)]
enum ChurnOp {
    Round,
    GracefulLeave(usize),
    Crash(usize),
    Rejoin(usize),
}

fn arb_churn_ops() -> impl Strategy<Value = Vec<ChurnOp>> {
    let op = (0u8..4, 0usize..64).prop_map(|(kind, sel)| match kind {
        0 => ChurnOp::Round,
        1 => ChurnOp::GracefulLeave(sel),
        2 => ChurnOp::Crash(sel),
        _ => ChurnOp::Rejoin(sel),
    });
    proptest::collection::vec(op, 4..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of graceful leaves, silent crashes, rejoins and
    /// optimization rounds keeps BOTH the overlay's structural invariants
    /// and the engine's post-round auditor green.
    #[test]
    fn churn_interleavings_preserve_invariants(cfg in arb_scenario(), ops in arb_churn_ops()) {
        let mut s = Scenario::build(&cfg);
        let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
        for op in ops {
            match op {
                ChurnOp::Round => {
                    ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
                }
                ChurnOp::GracefulLeave(sel) => {
                    let alive: Vec<PeerId> = s.overlay.alive_peers().collect();
                    if alive.len() > 2 {
                        let p = alive[sel % alive.len()];
                        s.overlay.leave(p).unwrap();
                        ace.on_leave(p);
                    }
                }
                ChurnOp::Crash(sel) => {
                    let alive: Vec<PeerId> = s.overlay.alive_peers().collect();
                    if alive.len() > 2 {
                        let p = alive[sel % alive.len()];
                        s.overlay.leave(p).unwrap();
                        ace.on_crash(p); // no goodbye: partners keep stale refs
                    }
                }
                ChurnOp::Rejoin(sel) => {
                    let dead: Vec<PeerId> =
                        s.overlay.peers().filter(|&p| !s.overlay.is_alive(p)).collect();
                    if !dead.is_empty() {
                        let p = dead[sel % dead.len()];
                        if s.overlay.join(p, 3, &mut s.rng).is_ok() {
                            ace.on_join(p);
                        }
                    }
                }
            }
            prop_assert!(s.overlay.check_invariants().is_ok());
            if let Err(e) = ace.check_invariants(&s.overlay) {
                prop_assert!(false, "engine auditor failed: {}", e);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The parallel pipeline's bit-identical worker-count guarantee
    /// survives fault injection: fault decisions are pure hashes, so any
    /// worker count produces the same digest, stats and ledger.
    #[test]
    fn faulty_parallel_rounds_are_worker_count_invariant(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let scenario = ScenarioConfig {
            as_count: 3,
            nodes_per_as: 40,
            peers: 50,
            avg_degree: 5,
            objects: 20,
            replicas: 4,
            seed,
            ..ScenarioConfig::default()
        };
        let faults = FaultConfig {
            probe_loss: 0.15,
            crash: 0.03,
            leave: 0.03,
            rejoin: 0.5,
            seed: fault_seed,
        };
        let run = |workers: usize| {
            let mut s = Scenario::build(&scenario);
            let cfg = AceConfig {
                parallel: true,
                workers,
                faults: Some(faults),
                ..AceConfig::paper_default()
            };
            let mut ace = AceEngine::new(s.overlay.peer_count(), cfg);
            let mut digests = Vec::new();
            for _ in 0..3 {
                ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
                digests.push(ace.state_digest());
            }
            ace.check_invariants(&s.overlay).unwrap();
            s.overlay.check_invariants().unwrap();
            (digests, ace.ledger().total_cost(), ace.ledger().total_count())
        };
        let one = run(1);
        let four = run(4);
        prop_assert_eq!(one, four);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The worker-count bit-identical guarantee survives the autonomic
    /// `R` controller: its decisions derive only from observation
    /// streams every worker schedule computes identically, so digests
    /// (protocol *and* controller), stats and ledger all match — under
    /// fault injection, which also exercises the churn snap-to-floor.
    #[test]
    fn adaptive_controller_rounds_are_worker_count_invariant(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        use ace_core::AutoRateConfig;
        let scenario = ScenarioConfig {
            as_count: 3,
            nodes_per_as: 40,
            peers: 50,
            avg_degree: 5,
            objects: 20,
            replicas: 4,
            seed,
            ..ScenarioConfig::default()
        };
        let faults = FaultConfig {
            probe_loss: 0.15,
            crash: 0.03,
            leave: 0.03,
            rejoin: 0.5,
            seed: fault_seed,
        };
        let run = |workers: usize| {
            let mut s = Scenario::build(&scenario);
            let cfg = AceConfig {
                parallel: true,
                workers,
                faults: Some(faults),
                autorate: Some(AutoRateConfig),
                ..AceConfig::paper_default()
            };
            let mut ace = AceEngine::new(s.overlay.peer_count(), cfg);
            ace.note_traffic(100.0, 40.0);
            let mut digests = Vec::new();
            for r in 0..6 {
                for p in s.overlay.alive_peers() {
                    // Deterministic, peer- and round-varying load.
                    ace.note_queries(p, f64::from((p.raw() + r) % 7));
                }
                ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
                digests.push(ace.state_digest());
            }
            ace.check_invariants(&s.overlay).unwrap();
            s.overlay.check_invariants().unwrap();
            let ctrl = ace.controller().expect("controller enabled").digest();
            (digests, ctrl, ace.ledger().total_cost(), ace.ledger().total_count())
        };
        let one = run(1);
        let four = run(4);
        prop_assert_eq!(one, four);
    }

    /// Whatever churn interleaving hits the controller, its soft state
    /// stays bounded: every interval inside the clamped `[R_MIN, R_MAX]`
    /// window, bytes never past the budget, and the invariant auditor
    /// (dead-incarnation refs, budget accounting) stays green.
    #[test]
    fn controller_state_stays_bounded_under_churn(
        cfg in arb_scenario(),
        ops in arb_churn_ops(),
    ) {
        use ace_core::autorate::{BYTE_BUDGET, R_MAX, R_MIN};
        use ace_core::AutoRateConfig;
        let mut s = Scenario::build(&cfg);
        let mut ace = AceEngine::new(
            s.overlay.peer_count(),
            AceConfig { autorate: Some(AutoRateConfig), ..AceConfig::paper_default() },
        );
        ace.note_traffic(100.0, 40.0);
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
        for op in ops {
            match op {
                ChurnOp::Round => {
                    for p in s.overlay.alive_peers() {
                        ace.note_queries(p, f64::from(p.raw() % 5));
                    }
                    ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
                }
                ChurnOp::GracefulLeave(sel) => {
                    let alive: Vec<PeerId> = s.overlay.alive_peers().collect();
                    if alive.len() > 2 {
                        let p = alive[sel % alive.len()];
                        s.overlay.leave(p).unwrap();
                        ace.on_leave(p);
                    }
                }
                ChurnOp::Crash(sel) => {
                    let alive: Vec<PeerId> = s.overlay.alive_peers().collect();
                    if alive.len() > 2 {
                        let p = alive[sel % alive.len()];
                        s.overlay.leave(p).unwrap();
                        ace.on_crash(p);
                    }
                }
                ChurnOp::Rejoin(sel) => {
                    let dead: Vec<PeerId> =
                        s.overlay.peers().filter(|&p| !s.overlay.is_alive(p)).collect();
                    if !dead.is_empty() {
                        let p = dead[sel % dead.len()];
                        if s.overlay.join(p, 3, &mut s.rng).is_ok() {
                            ace.on_join(p);
                        }
                    }
                }
            }
            let ctrl = ace.controller().expect("controller enabled");
            for p in s.overlay.peers() {
                if let Some(iv) = ctrl.interval_of(p) {
                    prop_assert!(
                        (R_MIN..=R_MAX).contains(&iv),
                        "interval {} escaped [{}, {}]", iv, R_MIN, R_MAX
                    );
                }
            }
            let stats = ace.controller_stats();
            prop_assert!(stats.soft_state_bytes <= BYTE_BUDGET);
            prop_assert!(stats.high_water_bytes <= BYTE_BUDGET);
            if let Err(e) = ace.check_invariants(&s.overlay) {
                prop_assert!(false, "engine auditor failed: {}", e);
            }
        }
    }
}

fn arb_diff_churn() -> impl Strategy<Value = Vec<ChurnStep>> {
    let step = (1u64..=5, 0u8..2, 0usize..64).prop_map(|(step, kind, sel)| ChurnStep {
        step,
        kind: if kind == 0 {
            DiffChurnKind::Leave
        } else {
            DiffChurnKind::Join
        },
        sel,
    });
    proptest::collection::vec(step, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential convergence-equivalence: the round-based engine and
    /// the message-level simulator, run over the same seeded world with
    /// the same churn schedule, optimize in the same direction, land in
    /// the same traffic-reduction band, retain the same search scope and
    /// keep both auditors green. Shrinks over topology seed, peer count
    /// and the churn schedule.
    #[test]
    fn sync_and_async_drivers_are_convergence_equivalent(
        seed in any::<u64>(),
        peers in 45usize..=70,
        churn in arb_diff_churn(),
    ) {
        let cfg = DifferentialConfig {
            scenario: ScenarioConfig {
                as_count: 4,
                nodes_per_as: 60,
                peers,
                avg_degree: 6,
                objects: 30,
                replicas: 4,
                seed,
                ..ScenarioConfig::default()
            },
            rounds: 5,
            churn,
            attach: 3,
            netem: None,
        };
        match differential_run(&cfg) {
            Ok(out) => {
                prop_assert_eq!(out.sync_side.alive, out.async_side.alive);
                if let Err(e) = out.check_equivalence(DIFF_BAND) {
                    prop_assert!(false, "equivalence violated: {}", e);
                }
            }
            Err(e) => prop_assert!(false, "auditor failed mid-run: {}", e),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-peer scenario state must tolerate any peer id, not just the
    /// constructed population: the index cache grows on demand, and the
    /// lifecycle purge taxonomy leaves no pointer at a gracefully
    /// departed (or rejoined) peer while a crash leaves survivor caches
    /// untouched. Shrinks over the construction hint and the id spread.
    #[test]
    fn index_cache_tolerates_any_peer_id_and_follows_taxonomy(
        hint in 0usize..20,
        ids in proptest::collection::vec((0u32..200, 0u32..16, 0u32..200), 1..40),
        event in 0u8..3,
        victim in 0u32..200,
    ) {
        use ace_core::{purge_index_cache, LifecycleEvent};
        use ace_overlay::IndexCache;

        let mut cache = IndexCache::new(hint, 4);
        for &(peer, obj, holder) in &ids {
            // No id may panic, however far past the hint.
            cache.insert(PeerId::new(peer), obj, PeerId::new(holder));
            cache.lookup(PeerId::new(peer), obj);
        }
        let victim = PeerId::new(victim);
        let ev = match event {
            0 => LifecycleEvent::GracefulLeave,
            1 => LifecycleEvent::Crash,
            _ => LifecycleEvent::Rejoin,
        };
        let stale_before: usize = ids
            .iter()
            .filter(|&&(peer, obj, holder)| {
                holder == victim.raw()
                    && cache.lookup(PeerId::new(peer), obj) == Some(victim)
            })
            .count();
        purge_index_cache(&mut cache, victim, ev);
        prop_assert!(cache.is_empty(victim), "own state always clears");
        for &(peer, obj, _) in &ids {
            let p = PeerId::new(peer);
            if ev.purges_survivor_refs() {
                prop_assert!(cache.lookup(p, obj) != Some(victim),
                    "observable departure must purge survivor refs");
            }
            // Whatever lingers, the crash-safe read path never serves it.
            prop_assert!(cache.lookup_alive(p, obj, |h| h != victim) != Some(victim));
        }
        if !ev.purges_survivor_refs() && victim.index() >= hint {
            // Exercised the interesting corner: stale refs at a crashed
            // late joiner survived until lookup_alive dropped them.
            let _ = stale_before;
        }
    }

    /// The k-walker search consumes exactly one RNG draw per hop taken,
    /// for any world shape and walk budget — the determinism contract
    /// the matrix's per-walker streams (and recall monotonicity) rest
    /// on. The pre-fix rejection sampler consumed a variable number.
    #[test]
    fn walk_rng_consumption_equals_hops(
        cfg in arb_scenario(),
        walkers in 1usize..=4,
        max_hops in 1usize..=30,
        wseed in any::<u64>(),
    ) {
        use ace_overlay::{random_walk_query, WalkConfig};

        let s = Scenario::build(&cfg);
        let wc = WalkConfig { walkers, max_hops };
        let mut rng = StdRng::seed_from_u64(wseed);
        let mut probe = rng.clone();
        let out = random_walk_query(&s.overlay, &s.oracle, PeerId::new(0), &wc,
            |p| p.index() % 7 == 3, &mut rng);
        prop_assert!(out.messages <= (walkers * max_hops) as u64);
        for _ in 0..out.messages {
            probe.gen::<u64>();
        }
        prop_assert_eq!(rng.gen::<u64>(), probe.gen::<u64>(),
            "walk must consume exactly one draw per hop");
    }
}
