//! Tree-based query forwarding (how ACE changes search).
//!
//! After phase 2, a peer sends queries only to its *flooding neighbors*
//! (its neighbors on its own closure spanning tree) instead of all
//! neighbors. Non-flooding links stay up — they carry cost tables and act
//! as phase-3 replacement material — so the search scope is retained while
//! redundant transmissions disappear.

use ace_overlay::{ForwardPolicy, Overlay, PeerId};

use crate::engine::AceEngine;

/// [`ForwardPolicy`] that forwards along each peer's own spanning tree.
///
/// Peers without a tree yet (fresh joiners, or before the first ACE round)
/// fall back to blind flooding, exactly like an unmodified Gnutella node.
/// Stale tree entries (links cut since the tree was built) are filtered
/// against the current neighbor set — and when churn has cut *every* tree
/// entry, the peer floods its current neighbors instead of silently
/// black-holing the query (see [`AceEngine::forward_targets_into`]).
///
/// # Examples
///
/// ```
/// use ace_core::{AceConfig, AceEngine, AceForward};
/// use ace_overlay::{random_overlay, run_query, PeerId, QueryConfig};
/// use ace_topology::generate::{ba, BaConfig};
/// use ace_topology::DistanceOracle;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let phys = ba(&BaConfig { nodes: 150, ..BaConfig::default() }, &mut rng);
/// let oracle = DistanceOracle::new(phys);
/// let hosts = oracle.graph().nodes().take(60).collect();
/// let mut ov = random_overlay(hosts, 6, None, &mut rng);
///
/// let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
/// ace.round(&mut ov, &oracle, &mut rng);
///
/// let out = run_query(&ov, &oracle, PeerId::new(0), &QueryConfig::default(),
///                     &AceForward::new(&ace), |_| false);
/// assert_eq!(out.scope, 60, "tree forwarding retains the search scope");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AceForward<'a> {
    engine: &'a AceEngine,
}

impl<'a> AceForward<'a> {
    /// Wraps an engine for use as a forwarding policy.
    pub fn new(engine: &'a AceEngine) -> Self {
        AceForward { engine }
    }
}

impl ForwardPolicy for AceForward<'_> {
    fn forward_targets_into(
        &self,
        overlay: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) {
        self.engine.forward_targets_into(overlay, peer, from, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AceConfig;
    use ace_overlay::{run_query, FloodAll, QueryConfig};
    use ace_topology::{DistanceOracle, Graph, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Triangle overlay on a line physical network.
    fn env() -> (Overlay, DistanceOracle) {
        let mut g = Graph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..3).map(NodeId::new).collect(), None);
        ov.connect(PeerId::new(0), PeerId::new(1)).unwrap();
        ov.connect(PeerId::new(1), PeerId::new(2)).unwrap();
        ov.connect(PeerId::new(0), PeerId::new(2)).unwrap();
        (ov, oracle)
    }

    #[test]
    fn without_tree_behaves_like_flooding() {
        let (ov, oracle) = env();
        let ace = AceEngine::new(3, AceConfig::paper_default());
        let tree_based = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &AceForward::new(&ace),
            |_| false,
        );
        let flooded = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |_| false,
        );
        assert_eq!(tree_based.messages, flooded.messages);
        assert_eq!(tree_based.traffic_cost, flooded.traffic_cost);
    }

    #[test]
    fn tree_forwarding_cuts_triangle_redundancy() {
        let (mut ov, oracle) = env();
        let mut ace = AceEngine::new(3, AceConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(1);
        ace.round(&mut ov, &oracle, &mut rng);

        let out = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &AceForward::new(&ace),
            |_| false,
        );
        let flood = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |_| false,
        );
        assert_eq!(out.scope, 3, "scope retained");
        assert!(out.traffic_cost <= flood.traffic_cost);
        assert!(out.duplicates <= flood.duplicates);
    }

    /// A 30-peer overlay where, after one ACE round, some peer keeps at
    /// least one live non-flooding link next to its flooding set.
    fn churn_env() -> (Overlay, DistanceOracle, AceEngine, PeerId) {
        use ace_overlay::random_overlay;
        use ace_topology::generate::{ba, BaConfig};
        let mut rng = StdRng::seed_from_u64(12);
        let phys = ba(
            &BaConfig {
                nodes: 80,
                ..BaConfig::default()
            },
            &mut rng,
        );
        let oracle = DistanceOracle::new(phys);
        let hosts = oracle.graph().nodes().take(30).collect();
        let mut ov = random_overlay(hosts, 5, None, &mut rng);
        let mut ace = AceEngine::new(
            ov.peer_count(),
            AceConfig {
                min_flooding: 1,
                ..AceConfig::paper_default()
            },
        );
        ace.round(&mut ov, &oracle, &mut rng);
        let mut fl = Vec::new();
        let peer = ov
            .alive_peers()
            .find(|&p| {
                ace.flooding_neighbors_into(p, &mut fl);
                !fl.is_empty() && ov.neighbors(p).iter().any(|n| !fl.contains(n))
            })
            .expect("some peer keeps a non-flooding link");
        (ov, oracle, ace, peer)
    }

    #[test]
    fn all_tree_links_cut_falls_back_to_blind_flooding() {
        let (mut ov, oracle, ace, peer) = churn_env();
        // Churn cuts every one of the peer's flooding links behind the
        // engine's back; only non-flooding links survive.
        let mut fl = Vec::new();
        ace.flooding_neighbors_into(peer, &mut fl);
        for f in fl {
            if ov.are_neighbors(peer, f) {
                ov.disconnect(peer, f).unwrap();
            }
        }
        assert!(!ov.neighbors(peer).is_empty(), "non-flooding links remain");
        // Regression: this used to return an empty set — a query black
        // hole. Now the peer floods its current neighbors instead.
        let mut targets = AceForward::new(&ace).forward_targets(&ov, peer, None);
        targets.sort_unstable();
        let mut expect = ov.neighbors(peer).to_vec();
        expect.sort_unstable();
        assert_eq!(targets, expect, "stale tree must fall back to flooding");
        // And a query from that peer escapes: without the fallback its
        // scope would collapse to 1 (the black hole); with it, the query
        // retains nearly the blind-flooding scope (other peers' trees
        // also lost links to the same churn, so exact equality is not
        // guaranteed until their next rebuild).
        let qc = QueryConfig::default();
        let tree = run_query(&ov, &oracle, peer, &qc, &AceForward::new(&ace), |_| false);
        let flood = run_query(&ov, &oracle, peer, &qc, &FloodAll, |_| false);
        assert!(tree.scope > 1, "query must escape the damaged peer");
        assert!(
            tree.scope * 10 >= flood.scope * 9,
            "scope {} vs flooding {}",
            tree.scope,
            flood.scope
        );
    }

    #[test]
    fn sender_exclusion_applies_after_fallback_decision() {
        let (mut ov, _oracle, ace, peer) = churn_env();
        // Keep exactly one live flooding link: the peer becomes a tree
        // leaf whose only tree partner is the query's sender.
        let mut live = Vec::new();
        ace.flooding_neighbors_into(peer, &mut live);
        live.retain(|&f| ov.are_neighbors(peer, f));
        for &f in &live[1..] {
            ov.disconnect(peer, f).unwrap();
        }
        let sender = live[0];
        // A live tree target exists, so the fallback must NOT trigger:
        // excluding the sender leaves the (correctly) empty target set of
        // a tree leaf, not a blind flood over non-flooding links.
        let targets = AceForward::new(&ace).forward_targets(&ov, peer, Some(sender));
        assert!(
            targets.is_empty(),
            "leaf must not flood back past its sender: {targets:?}"
        );
    }

    #[test]
    fn stale_tree_entries_are_filtered() {
        let (mut ov, oracle) = env();
        let mut ace = AceEngine::new(3, AceConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(1);
        ace.round(&mut ov, &oracle, &mut rng);
        // Cut an edge behind the engine's back; forwarding must not use it.
        let mut flooding = Vec::new();
        ace.flooding_neighbors_into(PeerId::new(1), &mut flooding);
        if let Some(&victim) = flooding.first() {
            ov.disconnect(PeerId::new(1), victim).unwrap();
            let targets = AceForward::new(&ace).forward_targets(&ov, PeerId::new(1), None);
            assert!(!targets.contains(&victim));
        }
    }
}
