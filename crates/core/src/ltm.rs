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

/// LTM configuration.
#[derive(Clone, Copy, Debug)]
pub struct LtmConfig {
    /// Detector TTL (the LTM paper uses 2).
    pub detector_ttl: u8,
    /// Delay-measurement model. LTM derives costs from one-way detector
    /// timestamps, so noisy clocks directly skew its decisions; pass a
    /// non-zero noise to model unsynchronized clocks.
    pub probe: ProbeModel,
    /// A peer never cuts below this many neighbors.
    pub min_degree: usize,
    /// Two-hop peers closer than `add_factor × (current max neighbor
    /// cost)` are adopted as new neighbors.
    pub add_factor: f64,
    /// A direct link is cut as redundant when a relay path is at most
    /// this factor slower (`relayed <= direct × redundancy_factor`). With
    /// exact shortest-path delays a relay is never *strictly* faster
    /// (triangle inequality), so redundancy — not strict dominance — is
    /// what the detector can act on.
    pub redundancy_factor: f64,
}

impl Default for LtmConfig {
    fn default() -> Self {
        LtmConfig {
            detector_ttl: 2,
            probe: ProbeModel::default(),
            min_degree: 2,
            add_factor: 0.5,
            redundancy_factor: 1.1,
        }
    }
}

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
/// use ace_core::ltm::{LtmConfig, LtmEngine};
/// use ace_overlay::clustered_overlay;
/// use ace_topology::generate::{two_level, TwoLevelConfig};
/// use ace_topology::DistanceOracle;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let topo = two_level(&TwoLevelConfig { as_count: 3, nodes_per_as: 30,
///     ..TwoLevelConfig::default() }, &mut rng);
/// let oracle = DistanceOracle::new(topo.graph);
/// let hosts = oracle.graph().nodes().take(40).collect();
/// let mut ov = clustered_overlay(hosts, 6, 0.7, None, &mut rng);
///
/// let mut ltm = LtmEngine::new(LtmConfig::default());
/// let stats = ltm.round(&mut ov, &oracle, &mut rng);
/// assert!(stats.overhead.total_cost() > 0.0);
/// assert!(ov.is_connected());
/// ```
#[derive(Clone, Debug)]
pub struct LtmEngine {
    cfg: LtmConfig,
    ledger: OverheadLedger,
    detector_units: f64,
    connect_units: f64,
    disconnect_units: f64,
}

impl LtmEngine {
    /// Creates an engine.
    pub fn new(cfg: LtmConfig) -> Self {
        LtmEngine {
            cfg,
            ledger: OverheadLedger::new(),
            // A detector carries a timestamp vector; model it as a probe
            // message (it grows by one entry per hop, negligible here).
            detector_units: Message::Probe { nonce: 0 }.size_units(),
            connect_units: Message::Connect.size_units() + Message::ConnectOk.size_units(),
            disconnect_units: Message::Disconnect.size_units(),
        }
    }

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
        // Detector flood over the 2-hop (TTL) neighborhood: charge every
        // transmission like the real flood it is.
        let nbrs: Vec<PeerId> = ov.neighbors(src).to_vec();
        let mut two_hop: Vec<(PeerId, PeerId)> = Vec::new(); // (relay, target)
        for &n in &nbrs {
            let c = ov.link_cost(oracle, src, n);
            self.ledger
                .charge(OverheadKind::Probe, f64::from(c) * self.detector_units);
            if self.cfg.detector_ttl >= 2 {
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
        }

        // Cut rule: a direct link src–t is inefficient if some relay path
        // src–relay–t measured faster.
        fn measured(
            m: &ProbeModel,
            ov: &Overlay,
            oracle: &dyn DistancePlane,
            a: PeerId,
            b: PeerId,
        ) -> Delay {
            m.perturb(a, b, ov.link_cost(oracle, a, b))
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
            let direct = measured(&self.cfg.probe, ov, oracle, src, target);
            let relayed = u64::from(measured(&self.cfg.probe, ov, oracle, src, relay))
                + u64::from(measured(&self.cfg.probe, ov, oracle, relay, target));
            if (relayed as f64) <= f64::from(direct) * self.cfg.redundancy_factor
                && ov.degree(src) > self.cfg.min_degree
                && ov.degree(target) > self.cfg.min_degree
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

        // Add rule: adopt a close two-hop peer (closer than add_factor ×
        // the current worst link).
        let mut added = 0;
        let worst = ov
            .neighbors(src)
            .iter()
            .map(|&n| measured(&self.cfg.probe, ov, oracle, src, n))
            .max()
            .unwrap_or(0);
        let threshold = (f64::from(worst) * self.cfg.add_factor) as u64;
        let mut best: Option<(Delay, PeerId)> = None;
        for &(_, target) in &two_hop {
            if target == src || ov.are_neighbors(src, target) {
                continue;
            }
            let d = measured(&self.cfg.probe, ov, oracle, src, target);
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
        let mut ltm = LtmEngine::new(LtmConfig {
            min_degree: 1,
            ..LtmConfig::default()
        });
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

    #[test]
    fn respects_min_degree() {
        let (mut ov, oracle) = env();
        let mut ltm = LtmEngine::new(LtmConfig {
            min_degree: 4,
            ..LtmConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        let before = ov.edge_count();
        let st = ltm.round(&mut ov, &oracle, &mut rng);
        assert_eq!(st.cut, 0, "no peer has degree above the floor");
        assert!(ov.edge_count() >= before);
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
        let mut ltm = LtmEngine::new(LtmConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        let st = ltm.round(&mut ov, &oracle, &mut rng);
        assert!(st.added >= 1);
        assert!(ov.are_neighbors(PeerId::new(0), PeerId::new(2)));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let (mut ov, oracle) = env();
            let mut ltm = LtmEngine::new(LtmConfig::default());
            let mut rng = StdRng::seed_from_u64(seed);
            let st = ltm.round(&mut ov, &oracle, &mut rng);
            (st.cut, st.added, ov.edge_count())
        };
        assert_eq!(run(5), run(5));
    }
}
