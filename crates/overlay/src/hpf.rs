//! Hybrid Periodical Flooding (HPF) — the authors' partial-flooding
//! scheme (reference [3] of the paper, ICPP 2003).
//!
//! Instead of forwarding to *all* neighbors (blind flooding) or only to
//! tree neighbors (ACE), HPF forwards to a **subset** of neighbors chosen
//! by weight — here the probed/known link cost, preferring cheap links —
//! with the subset size ramping up periodically if earlier attempts found
//! nothing. This module implements the per-hop partial forwarding policy;
//! the periodic re-issue loop is the caller's (it is just repeated
//! queries with increasing `fraction`).
//!
//! HPF is the query kernel's non-flooding policy in tests: the golden
//! `kernel_*` cells, the reference model and the serving proptests run it
//! through both drivers. No record compares it with ACE.

use ace_topology::DistancePlane;

use crate::network::Overlay;
use crate::peer::PeerId;
use crate::search::ForwardPolicy;

/// How HPF ranks the neighbors it keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HpfWeight {
    /// Keep the cheapest links (needs a distance oracle).
    #[default]
    Cheapest,
    /// Keep the highest-degree neighbors (reach-oriented).
    HighestDegree,
}

/// Partial-flooding forward policy: forward to `ceil(fraction × degree)`
/// neighbors (at least `min_targets`), ranked by [`HpfWeight`].
#[derive(Clone)]
pub struct PartialFlood<'a> {
    oracle: &'a dyn DistancePlane,
    /// Fraction of neighbors to forward to, in `(0, 1]`.
    fraction: f64,
    /// Lower bound on forward targets (keeps queries alive on low-degree
    /// peers).
    min_targets: usize,
    weight: HpfWeight,
}

impl std::fmt::Debug for PartialFlood<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartialFlood")
            .field("fraction", &self.fraction)
            .field("min_targets", &self.min_targets)
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

impl<'a> PartialFlood<'a> {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn new(
        oracle: &'a dyn DistancePlane,
        fraction: f64,
        min_targets: usize,
        weight: HpfWeight,
    ) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction in (0,1]");
        PartialFlood {
            oracle,
            fraction,
            min_targets,
            weight,
        }
    }

    /// The configured fraction.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

impl ForwardPolicy for PartialFlood<'_> {
    fn forward_targets_into(
        &self,
        overlay: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) {
        out.clear();
        out.extend(
            overlay
                .neighbors(peer)
                .iter()
                .copied()
                .filter(|&n| Some(n) != from),
        );
        match self.weight {
            HpfWeight::Cheapest => {
                out.sort_by_key(|&n| (overlay.link_cost(self.oracle, peer, n), n));
            }
            HpfWeight::HighestDegree => {
                out.sort_by_key(|&n| (std::cmp::Reverse(overlay.degree(n)), n));
            }
        }
        let keep = ((out.len() as f64 * self.fraction).ceil() as usize)
            .max(self.min_targets)
            .min(out.len());
        out.truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{run_query, FloodAll, QueryConfig};
    use ace_topology::{DistanceOracle, Graph, NodeId};

    /// Star around peer 0 with mixed link costs.
    fn env() -> (Overlay, DistanceOracle) {
        let mut g = Graph::new(5);
        for (i, w) in [(1u32, 10u32), (2, 20), (3, 30), (4, 40)] {
            g.add_edge(NodeId::new(0), NodeId::new(i), w).unwrap();
        }
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..5).map(NodeId::new).collect(), None);
        for i in 1..5 {
            ov.connect(PeerId::new(0), PeerId::new(i)).unwrap();
        }
        (ov, oracle)
    }

    #[test]
    fn cheapest_weight_keeps_low_cost_links() {
        let (ov, oracle) = env();
        let policy = PartialFlood::new(&oracle, 0.5, 1, HpfWeight::Cheapest);
        let t = policy.forward_targets(&ov, PeerId::new(0), None);
        assert_eq!(t, vec![PeerId::new(1), PeerId::new(2)]);
    }

    #[test]
    fn fraction_one_equals_flooding() {
        let (ov, oracle) = env();
        let hpf = PartialFlood::new(&oracle, 1.0, 1, HpfWeight::Cheapest);
        let mut a = hpf.forward_targets(&ov, PeerId::new(0), Some(PeerId::new(3)));
        let mut b = FloodAll.forward_targets(&ov, PeerId::new(0), Some(PeerId::new(3)));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn min_targets_keeps_queries_alive() {
        let (ov, oracle) = env();
        let policy = PartialFlood::new(&oracle, 0.01, 2, HpfWeight::Cheapest);
        let t = policy.forward_targets(&ov, PeerId::new(0), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn partial_flood_reduces_traffic_at_scope_cost() {
        let (ov, oracle) = env();
        let qc = QueryConfig {
            ttl: 7,
            stop_at_responder: false,
        };
        let flood = run_query(&ov, &oracle, PeerId::new(0), &qc, &FloodAll, |_| false);
        let hpf = PartialFlood::new(&oracle, 0.5, 1, HpfWeight::Cheapest);
        let partial = run_query(&ov, &oracle, PeerId::new(0), &qc, &hpf, |_| false);
        assert!(partial.traffic_cost < flood.traffic_cost);
        assert!(partial.scope <= flood.scope);
    }

    #[test]
    fn degree_weight_prefers_hubs() {
        // Peer 0 connected to 1 (hub: extra edges) and 2 (leaf).
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), 10).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2), 1).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(3), 1).unwrap();
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..4).map(NodeId::new).collect(), None);
        ov.connect(PeerId::new(0), PeerId::new(1)).unwrap();
        ov.connect(PeerId::new(0), PeerId::new(2)).unwrap();
        ov.connect(PeerId::new(1), PeerId::new(3)).unwrap();
        let policy = PartialFlood::new(&oracle, 0.5, 1, HpfWeight::HighestDegree);
        let t = policy.forward_targets(&ov, PeerId::new(0), None);
        assert_eq!(t, vec![PeerId::new(1)], "hub 1 (degree 2) beats leaf 2");
    }

    #[test]
    #[should_panic(expected = "fraction in (0,1]")]
    fn rejects_zero_fraction() {
        let (_, oracle) = env();
        PartialFlood::new(&oracle, 0.0, 1, HpfWeight::Cheapest);
    }
}
