//! LTM — Location-aware Topology Matching (the authors' companion scheme,
//! reference \[9\] of the paper; INFOCOM 2004) as a comparison baseline.
//!
//! LTM attacks the same mismatch problem with a different mechanism: each
//! peer floods a small **detector** message with TTL 2; receivers compare
//! the delay of the direct link against two-hop relay paths, **cut**
//! direct links that are slower than an existing relay path (they are
//! redundant and inefficient), and **add** physically close two-hop peers
//! as direct neighbors. Unlike ACE it keeps plain flooding (no spanning
//! trees) and needs synchronized clocks to compare one-way delays — the
//! drawback §2 of the ACE paper calls out.
//!
//! The implementation below is intentionally faithful to that sketch: one
//! [`LtmEngine::round`] = every peer issues one detector and applies the
//! cut/add rules with only the information the detector gathered.

use rand::Rng;

use ace_overlay::{Message, Overlay, PeerId};
use ace_topology::{Delay, DistancePlane};

use crate::overhead::{OverheadKind, OverheadLedger};
use crate::probe::ProbeModel;

/// A peer never cuts below this many neighbors.
const MIN_DEGREE: usize = 2;
/// Two-hop peers closer than `ADD_FACTOR × (current max neighbor cost)`
/// are adopted as new neighbors.
const ADD_FACTOR: f64 = 0.5;
/// A direct link is cut as redundant when a relay path is at most this
/// factor slower (`relayed <= direct × REDUNDANCY_FACTOR`). With exact
/// shortest-path delays a relay is never *strictly* faster (triangle
/// inequality), so redundancy — not strict dominance — is what the
/// detector can act on.
const REDUNDANCY_FACTOR: f64 = 1.1;

/// Outcome of one LTM round.
#[derive(Clone, Debug, Default)]
pub struct LtmRoundStats {
    /// Inefficient direct links cut.
    pub cut: usize,
    /// Close two-hop peers adopted.
    pub added: usize,
    /// Control overhead of the round (detector floods + connects).
    pub overhead: OverheadLedger,
}

/// The LTM optimizer state (stateless between rounds apart from the
/// ledger; detectors re-measure everything each round).
///
/// # Examples
///
/// ```
/// use ace_core::ltm::LtmEngine;
/// use ace_overlay::clustered_overlay;
/// use ace_topology::generate::{two_level, TwoLevelConfig};
/// use ace_topology::DistanceOracle;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let topo = two_level(&TwoLevelConfig { as_count: 3, nodes_per_as: 30 }, &mut rng);
/// let oracle = DistanceOracle::new(topo.graph);
/// let hosts = oracle.graph().nodes().take(40).collect();
/// let mut ov = clustered_overlay(hosts, 6, 0.7, None, &mut rng);
///
/// let mut ltm = LtmEngine::default();
/// let stats = ltm.round(&mut ov, &oracle, &mut rng);
/// assert!(stats.overhead.total_cost() > 0.0);
/// assert!(ov.is_connected());
/// ```
#[derive(Clone, Debug)]
pub struct LtmEngine {
    ledger: OverheadLedger,
    detector_units: f64,
    connect_units: f64,
    disconnect_units: f64,
}

impl Default for LtmEngine {
    fn default() -> Self {
        LtmEngine {
            ledger: OverheadLedger::new(),
            // A detector carries a timestamp vector; model it as a probe
            // message (it grows by one entry per hop, negligible here).
            detector_units: Message::Probe { nonce: 0 }.size_units(),
            connect_units: Message::Connect.size_units() + Message::ConnectOk.size_units(),
            disconnect_units: Message::Disconnect.size_units(),
        }
    }
}

impl LtmEngine {
    /// Accumulated control overhead.
    pub fn ledger(&self) -> &OverheadLedger {
        &self.ledger
    }

    /// One optimization round: every alive peer (in random order) floods a
    /// detector and applies LTM's cut/add rules.
    pub fn round<R: Rng + ?Sized>(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        rng: &mut R,
    ) -> LtmRoundStats {
        let before = self.ledger;
        let mut stats = LtmRoundStats::default();
        let mut order: Vec<PeerId> = ov.alive_peers().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for p in order {
            let (cut, added) = self.peer_round(ov, oracle, p);
            stats.cut += cut;
            stats.added += added;
        }
        stats.overhead = self.ledger.since(&before);
        debug_assert!(ov.check_invariants().is_ok());
        stats
    }

    /// Detector flood + rules for one source peer. Returns `(cut, added)`.
    fn peer_round(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        src: PeerId,
    ) -> (usize, usize) {
        // Detector flood over the 2-hop (TTL 2, as in the LTM paper)
        // neighborhood: charge every transmission like the real flood it
        // is.
        let nbrs: Vec<PeerId> = ov.neighbors(src).to_vec();
        let mut two_hop: Vec<(PeerId, PeerId)> = Vec::new(); // (relay, target)
        for &n in &nbrs {
            let c = ov.link_cost(oracle, src, n);
            self.ledger
                .charge(OverheadKind::Probe, f64::from(c) * self.detector_units);
            for &nn in ov.neighbors(n) {
                if nn == src {
                    continue;
                }
                let c2 = ov.link_cost(oracle, n, nn);
                self.ledger
                    .charge(OverheadKind::Probe, f64::from(c2) * self.detector_units);
                two_hop.push((n, nn));
            }
        }

        // Cut rule: a direct link src–t is inefficient if some relay path
        // src–relay–t measured faster. LTM derives costs from one-way
        // detector timestamps; the clocks here are synchronized, so the
        // measurement is exact.
        fn measured(ov: &Overlay, oracle: &dyn DistancePlane, a: PeerId, b: PeerId) -> Delay {
            ProbeModel::EXACT.perturb(a, b, ov.link_cost(oracle, a, b))
        }
        let mut cut = 0;
        for &(relay, target) in &two_hop {
            if !ov.are_neighbors(src, target) {
                continue;
            }
            // Re-check liveness of the relay path before cutting.
            if !ov.are_neighbors(src, relay) || !ov.are_neighbors(relay, target) {
                continue;
            }
            let direct = measured(ov, oracle, src, target);
            let relayed = u64::from(measured(ov, oracle, src, relay))
                + u64::from(measured(ov, oracle, relay, target));
            if (relayed as f64) <= f64::from(direct) * REDUNDANCY_FACTOR
                && ov.degree(src) > MIN_DEGREE
                && ov.degree(target) > MIN_DEGREE
                && ov.disconnect(src, target).is_ok()
            {
                let c = ov.link_cost(oracle, src, target);
                self.ledger.charge(
                    OverheadKind::Reconnect,
                    f64::from(c) * self.disconnect_units,
                );
                cut += 1;
            }
        }

        // Add rule: adopt a close two-hop peer (closer than ADD_FACTOR ×
        // the current worst link).
        let mut added = 0;
        let worst = ov
            .neighbors(src)
            .iter()
            .map(|&n| measured(ov, oracle, src, n))
            .max()
            .unwrap_or(0);
        let threshold = (f64::from(worst) * ADD_FACTOR) as u64;
        let mut best: Option<(Delay, PeerId)> = None;
        for &(_, target) in &two_hop {
            if target == src || ov.are_neighbors(src, target) {
                continue;
            }
            let d = measured(ov, oracle, src, target);
            if u64::from(d) < threshold && best.is_none_or(|(bd, bp)| (d, target) < (bd, bp)) {
                best = Some((d, target));
            }
        }
        if let Some((_, target)) = best {
            if ov.connect(src, target).is_ok() {
                let c = ov.link_cost(oracle, src, target);
                self.ledger
                    .charge(OverheadKind::Reconnect, f64::from(c) * self.connect_units);
                added += 1;
            }
        }
        (cut, added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_topology::{DistanceOracle, Graph, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two sites joined by an expensive link; redundant direct link that
    /// LTM should cut (slower than the relay path) plus a close two-hop
    /// peer it should adopt.
    fn env() -> (Overlay, DistanceOracle) {
        let mut g = Graph::new(5);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3), 100).unwrap();
        g.add_edge(NodeId::new(3), NodeId::new(4), 1).unwrap();
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..5).map(NodeId::new).collect(), None);
        // Triangle 0-1-2 where 0-2 (cost 2) duplicates 0-1-2 (cost 2)...
        // make it strictly slower: physical 0-2 = 2 via 1; direct link is
        // the same path so equal; use 0-3 as the far redundant link.
        ov.connect(PeerId::new(0), PeerId::new(1)).unwrap();
        ov.connect(PeerId::new(1), PeerId::new(3)).unwrap();
        ov.connect(PeerId::new(0), PeerId::new(3)).unwrap(); // redundant far link
        ov.connect(PeerId::new(3), PeerId::new(4)).unwrap();
        ov.connect(PeerId::new(1), PeerId::new(2)).unwrap();
        (ov, oracle)
    }

    #[test]
    fn cuts_inefficient_far_links() {
        let (mut ov, oracle) = env();
        let mut ltm = LtmEngine::default();
        let mut rng = StdRng::seed_from_u64(4);
        let before = ov.edge_count();
        let mut total_cut = 0;
        for _ in 0..4 {
            let st = ltm.round(&mut ov, &oracle, &mut rng);
            total_cut += st.cut;
            assert!(ov.is_connected(), "LTM cut must preserve connectivity");
        }
        assert!(total_cut >= 1, "expected at least one inefficient link cut");
        assert!(ov.edge_count() <= before);
        assert!(ltm.ledger().total_cost() > 0.0);
    }

    /// `MIN_DEGREE` at the bound and one past it: in a triangle every
    /// peer sits at the floor, so the redundant 0–2 link (as fast as the
    /// relay through 1) stays; a fourth peer linked to 0 and 2 lifts both
    /// ends one past the floor and the link is cut.
    #[test]
    fn respects_min_degree() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(3), 100).unwrap();
        let oracle = DistanceOracle::new(g);
        let cuts = |fourth: bool| {
            let mut ov = Overlay::new((0..4).map(NodeId::new).collect(), None);
            let mut links = vec![(0, 1), (1, 2), (0, 2)];
            if fourth {
                links.extend([(3, 0), (3, 2)]);
            }
            for (a, b) in links {
                ov.connect(PeerId::new(a), PeerId::new(b)).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(4);
            LtmEngine::default().round(&mut ov, &oracle, &mut rng).cut
        };
        assert_eq!(cuts(false), 0, "every peer at MIN_DEGREE");
        assert!(cuts(true) >= 1, "both ends past MIN_DEGREE");
    }

    #[test]
    fn adds_close_two_hop_peers() {
        // Star around peer 1; peers 0 and 2 are physically adjacent but
        // not logically connected — LTM should adopt the link.
        let mut g = Graph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), 50).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 50).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2), 1).unwrap();
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..3).map(NodeId::new).collect(), None);
        ov.connect(PeerId::new(0), PeerId::new(1)).unwrap();
        ov.connect(PeerId::new(1), PeerId::new(2)).unwrap();
        let mut ltm = LtmEngine::default();
        let mut rng = StdRng::seed_from_u64(9);
        let st = ltm.round(&mut ov, &oracle, &mut rng);
        assert!(st.added >= 1);
        assert!(ov.are_neighbors(PeerId::new(0), PeerId::new(2)));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let (mut ov, oracle) = env();
            let mut ltm = LtmEngine::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let st = ltm.round(&mut ov, &oracle, &mut rng);
            (st.cut, st.added, ov.edge_count())
        };
        assert_eq!(run(5), run(5));
    }
}
