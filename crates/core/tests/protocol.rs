//! Protocol-level behavior tests for the ACE engine: hand-built worlds
//! where each phase's decision can be predicted exactly.

use ace_core::{AceConfig, AceEngine, AdaptOutcome, ProbeModel, ReplacePolicy};
use ace_overlay::{Overlay, PeerId};
use ace_topology::{DistanceOracle, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn p(i: u32) -> PeerId {
    PeerId::new(i)
}

/// Two 3-peer sites joined by one expensive physical link.
///
/// Hosts: 0,1,2 in site X (pairwise ≤ 2), 3,4,5 in site Y; X–Y costs ~100.
fn two_sites() -> (Graph, DistanceOracle) {
    let mut g = Graph::new(6);
    g.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
    g.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
    g.add_edge(NodeId::new(3), NodeId::new(4), 1).unwrap();
    g.add_edge(NodeId::new(4), NodeId::new(5), 1).unwrap();
    g.add_edge(NodeId::new(2), NodeId::new(3), 100).unwrap();
    let oracle = DistanceOracle::new(g.clone());
    (g, oracle)
}

fn overlay_with(edges: &[(u32, u32)]) -> Overlay {
    let mut ov = Overlay::new((0..6).map(NodeId::new).collect(), None);
    for &(a, b) in edges {
        ov.connect(p(a), p(b)).unwrap();
    }
    ov
}

#[test]
fn pairwise_core_lets_tree_bypass_far_neighbor() {
    // Peer 0's neighbors are 1 (near) and 4 (far); 1 and 4 are NOT
    // logically connected, so without the pairwise core the closure is a
    // star and both stay flooding. With the core, the MST should attach 4
    // via... it cannot (virtual edge 1-4 is still expensive), but peer 0's
    // tree keeps only the cheapest incident structure.
    let (_, oracle) = two_sites();
    let ov = overlay_with(&[(0, 1), (0, 4), (1, 4)]);
    let mut ace = AceEngine::new(
        6,
        AceConfig {
            min_flooding: 1,
            ..AceConfig::paper_default()
        },
    );
    for peer in [0u32, 1, 4] {
        ace.phase1_probe(&ov, &oracle, p(peer));
    }
    ace.build_tree(&ov, &oracle, p(0));
    // MST over {0,1,4}: edges 0-1 (1), 0-4 (~102), 1-4 (~101): keeps 0-1
    // and 1-4, so peer 0 floods only to 1.
    assert_eq!(ace.tree_neighbors_of(p(0)), &[p(1)]);
    // Now let peer 1 build its tree: it attaches 4 through itself, and its
    // forward-request makes 1 relay to 4 on 0's behalf.
    ace.build_tree(&ov, &oracle, p(1));
    let mut fl = Vec::new();
    ace.flooding_neighbors_into(p(1), &mut fl);
    assert!(fl.contains(&p(4)));
    ov.check_invariants().unwrap();
}

#[test]
fn replace_prefers_same_site_candidate() {
    // Peer 0 (site X) has far non-flooding neighbor 4 (site Y); 4's table
    // offers 5 (also Y) and 3 (Y)... and 1 (X) if 4 knows it. Build: 0-4,
    // 4-1 links exist; 0 also has 1? No: 0's neighbors {4, 2}; 4's
    // neighbors {0, 1}. Candidate from 4's table = 1, CH = cost(0,1) = 1
    // < CB = cost(0,4) ≈ 102 → replace.
    let (_, oracle) = two_sites();
    let mut ov = overlay_with(&[(0, 4), (0, 2), (4, 1), (2, 4)]);
    let mut ace = AceEngine::new(
        6,
        AceConfig {
            min_flooding: 1,
            ..AceConfig::paper_default()
        },
    );
    let mut rng = StdRng::seed_from_u64(1);
    // Probe everyone so tables exist.
    for peer in ov.alive_peers().collect::<Vec<_>>() {
        ace.phase1_probe(&ov, &oracle, peer);
    }
    let outcome = ace.optimize_peer(&mut ov, &oracle, p(0), &mut rng);
    match outcome {
        AdaptOutcome::Replaced { far, near } => {
            assert_eq!(far, p(4));
            assert_eq!(near, p(1));
            assert!(ov.are_neighbors(p(0), p(1)));
            assert!(!ov.are_neighbors(p(0), p(4)));
        }
        other => panic!("expected replacement, got {other:?}"),
    }
    // Peers 3 and 5 were never attached; the active component must hold.
    assert_eq!(ov.reachable_from(p(0)), 4);
}

#[test]
fn keep_both_then_watch_cut_resolves() {
    // Figure 4(c) → §3.3 follow-up. Construct: C=peer0 with non-flooding
    // far neighbor B=peer4; candidate H from B's table where CH >= CB but
    // CH < BH. Then break B–H and verify C cuts C–B on a later round.
    let mut g = Graph::new(6);
    g.add_edge(NodeId::new(0), NodeId::new(1), 10).unwrap(); // C-H moderate
    g.add_edge(NodeId::new(1), NodeId::new(4), 100).unwrap(); // H-B far
    g.add_edge(NodeId::new(0), NodeId::new(4), 8).unwrap(); // C-B slightly cheap
    g.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
    g.add_edge(NodeId::new(4), NodeId::new(5), 1).unwrap();
    g.add_edge(NodeId::new(2), NodeId::new(5), 1).unwrap();
    let oracle = DistanceOracle::new(g);
    // Overlay: 0-4 (B), 0-2 (keeps 0's tree busy), 4-1 (B's neighbor H),
    // 2-4 (makes 4 non-flooding for 0 via triangle 0-2-4).
    let mut ov = overlay_with(&[(0, 4), (0, 2), (4, 1), (2, 4), (1, 5)]);
    let mut ace = AceEngine::new(
        6,
        AceConfig {
            min_flooding: 1,
            ..AceConfig::paper_default()
        },
    );
    let mut rng = StdRng::seed_from_u64(3);
    // Run rounds until peer 0 performs an Added (keep-both) or gives up.
    let mut added_near = None;
    for _ in 0..6 {
        for peer in ov.alive_peers().collect::<Vec<_>>() {
            ace.phase1_probe(&ov, &oracle, peer);
        }
        match ace.optimize_peer(&mut ov, &oracle, p(0), &mut rng) {
            AdaptOutcome::Added { near } => {
                added_near = Some(near);
                break;
            }
            AdaptOutcome::Replaced { .. } => {}
            AdaptOutcome::KeptAll => {}
        }
    }
    // The scenario may resolve via Replace depending on probe order; only
    // exercise the watch path when an Added actually happened.
    if let Some(near) = added_near {
        assert!(ov.are_neighbors(p(0), near));
        // Whatever happens next, connectivity and invariants must hold as
        // the watch resolves over subsequent rounds.
        for _ in 0..4 {
            ace.round(&mut ov, &oracle, &mut rng);
            assert!(ov.is_connected());
            ov.check_invariants().unwrap();
        }
    }
}

#[test]
fn degree_cap_makes_replace_swap_in_place() {
    let (_, oracle) = two_sites();
    // Peer 0 at cap 2 with neighbors {4 (far), 2 (near)}; 4 offers 1.
    let mut ov = Overlay::new((0..6).map(NodeId::new).collect(), Some(2));
    ov.connect(p(0), p(4)).unwrap();
    ov.connect(p(0), p(2)).unwrap();
    ov.connect(p(4), p(1)).unwrap(); // peer 4 is now at the cap as well
    let mut ace = AceEngine::new(
        6,
        AceConfig {
            min_flooding: 1,
            ..AceConfig::paper_default()
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    for peer in ov.alive_peers().collect::<Vec<_>>() {
        ace.phase1_probe(&ov, &oracle, peer);
    }
    let out = ace.optimize_peer(&mut ov, &oracle, p(0), &mut rng);
    // Either it swapped (freeing its own slot first) or kept all; in both
    // cases the cap must hold and the overlay stays valid.
    ov.check_invariants().unwrap();
    assert!(ov.degree(p(0)) <= 2);
    if let AdaptOutcome::Replaced { far, near } = out {
        assert_eq!(far, p(4));
        assert_eq!(near, p(1));
    }
}

#[test]
fn noise_free_probes_are_cached_across_rounds() {
    let (_, oracle) = two_sites();
    let mut ov = overlay_with(&[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
    let mut ace = AceEngine::new(6, AceConfig::paper_default());
    let mut rng = StdRng::seed_from_u64(7);
    let r1 = ace.round(&mut ov, &oracle, &mut rng);
    let r2 = ace.round(&mut ov, &oracle, &mut rng);
    // The pairwise-core probes of round 1 are cached; if the topology did
    // not change much, round 2 must charge fewer probe messages.
    let probes1 = r1.overhead.count_of(ace_core::OverheadKind::Probe);
    let probes2 = r2.overhead.count_of(ace_core::OverheadKind::Probe);
    assert!(probes2 <= probes1, "round1 {probes1} vs round2 {probes2}");
}

#[test]
fn naive_policy_targets_most_expensive_link() {
    let (_, oracle) = two_sites();
    // Peer 0: neighbors 1 (cost 1), 2 (cost 2), 4 (cost ~102, non-flooding
    // via triangle 0-1-4? build 1-4 so candidate exists).
    let mut ov = overlay_with(&[(0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (4, 5)]);
    let mut ace = AceEngine::new(
        6,
        AceConfig {
            policy: ReplacePolicy::Naive,
            min_flooding: 1,
            probe: ProbeModel::default(),
            ..AceConfig::paper_default()
        },
    );
    let mut rng = StdRng::seed_from_u64(11);
    for peer in ov.alive_peers().collect::<Vec<_>>() {
        ace.phase1_probe(&ov, &oracle, peer);
    }
    if let AdaptOutcome::Replaced { far, .. } = ace.optimize_peer(&mut ov, &oracle, p(0), &mut rng)
    {
        assert_eq!(
            far,
            p(4),
            "naive picks the most expensive non-flooding link"
        );
    }
}

#[test]
fn engine_clone_is_independent() {
    let (_, oracle) = two_sites();
    let mut ov = overlay_with(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)]);
    let mut ace = AceEngine::new(6, AceConfig::paper_default());
    let mut rng = StdRng::seed_from_u64(13);
    ace.round(&mut ov, &oracle, &mut rng);
    let snapshot = ace.clone();
    ace.on_leave(p(0));
    assert!(!ace.tree_built(p(0)));
    assert!(snapshot.tree_built(p(0)), "clone keeps its own state");
}
