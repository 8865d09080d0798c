//! Two-level AS/router topology with short intra-AS and long inter-AS
//! delays.
//!
//! This is the default physical substrate of the reproduction: the paper's
//! motivating example (Figure 2) contrasts two peers inside Michigan State
//! University with two peers at Tsinghua University — intra-AS links are an
//! order of magnitude cheaper than transcontinental inter-AS links, which
//! is exactly what makes overlay mismatch expensive.

use rand::Rng;
use serde::Serialize;

use super::{ba, ba_into, BaConfig, DelayModel};
use crate::graph::{Graph, NodeId};

/// Intra-AS router links added per node after the seed (BA model).
const INTRA_EDGES_PER_NODE: usize = 2;
/// AS-level links added per AS after the seed (BA model over ASes).
const INTER_EDGES_PER_AS: usize = 2;
/// Delay model for intra-AS links (short: 0.1–1 ms).
const INTRA_DELAYS: DelayModel = DelayModel::Uniform { lo: 1, hi: 10 };
/// Delay model for inter-AS links (long: 10–40 ms) — a WAN-vs-LAN ratio
/// of ~40×.
const INTER_DELAYS: DelayModel = DelayModel::Uniform { lo: 100, hi: 400 };

/// Parameters for the [`two_level`] generator.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TwoLevelConfig {
    /// Number of autonomous systems (>= 2).
    pub as_count: usize,
    /// Router nodes per AS (>= 3).
    pub nodes_per_as: usize,
}

impl Default for TwoLevelConfig {
    /// 20 ASes × 500 routers (10,000 nodes).
    fn default() -> Self {
        TwoLevelConfig {
            as_count: 20,
            nodes_per_as: 500,
        }
    }
}

/// A generated two-level topology: the router graph plus each node's AS.
#[derive(Clone, Debug, Serialize)]
pub struct TwoLevelTopology {
    /// The flat router-level graph.
    pub graph: Graph,
    /// `as_of[node] = AS index` in `0..as_count`.
    pub as_of: Vec<u32>,
}

impl TwoLevelTopology {
    /// The AS index of `node`.
    pub fn as_of(&self, node: NodeId) -> u32 {
        self.as_of[node.index()]
    }

    /// Number of distinct ASes.
    pub fn as_count(&self) -> usize {
        self.as_of
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1)
    }
}

/// Generates a connected two-level AS/router topology.
///
/// Each AS's internal router graph is Barabási–Albert with
/// `INTRA_EDGES_PER_NODE` and `INTRA_DELAYS`. The AS-level graph is also
/// Barabási–Albert (over ASes, `INTER_EDGES_PER_AS` per AS); every AS-level
/// edge becomes one router-level link between random gateway routers of the
/// two ASes, weighted by `INTER_DELAYS`.
///
/// # Examples
///
/// ```
/// use ace_topology::generate::{two_level, TwoLevelConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let cfg = TwoLevelConfig { as_count: 4, nodes_per_as: 30 };
/// let topo = two_level(&cfg, &mut rng);
/// assert_eq!(topo.graph.node_count(), 120);
/// assert!(topo.graph.is_connected());
/// assert_eq!(topo.as_count(), 4);
/// ```
///
/// # Panics
///
/// Panics if `as_count < 2` or `nodes_per_as < 3`.
pub fn two_level<R: Rng + ?Sized>(cfg: &TwoLevelConfig, rng: &mut R) -> TwoLevelTopology {
    assert!(cfg.as_count >= 2, "need at least two ASes");
    assert!(cfg.nodes_per_as >= 3, "need at least three routers per AS");

    let total = cfg.as_count * cfg.nodes_per_as;
    let mut g = Graph::new(total);
    let mut as_of = vec![0u32; total];

    // Intra-AS router graphs, streamed straight into the arena (the edge
    // list is never materialized per AS first).
    for a in 0..cfg.as_count {
        let base = a * cfg.nodes_per_as;
        let intra_cfg = BaConfig {
            nodes: cfg.nodes_per_as,
            seed_nodes: 3.min(cfg.nodes_per_as),
            edges_per_node: INTRA_EDGES_PER_NODE.clamp(1, 3.min(cfg.nodes_per_as)),
            delays: INTRA_DELAYS,
        };
        ba_into(&intra_cfg, rng, &mut g, base);
        for i in 0..cfg.nodes_per_as {
            as_of[base + i] = a as u32;
        }
    }

    // AS-level backbone (BA over ASes), realized via random gateways.
    let backbone_cfg = BaConfig {
        nodes: cfg.as_count,
        seed_nodes: 2.min(cfg.as_count),
        edges_per_node: INTER_EDGES_PER_AS.clamp(1, 2.min(cfg.as_count)),
        delays: INTER_DELAYS,
    };
    let backbone = ba(&backbone_cfg, rng);
    for e in backbone.edges() {
        let ga = e.a.index() * cfg.nodes_per_as + rng.gen_range(0..cfg.nodes_per_as);
        let gb = e.b.index() * cfg.nodes_per_as + rng.gen_range(0..cfg.nodes_per_as);
        g.add_edge(NodeId::new(ga as u32), NodeId::new(gb as u32), e.weight)
            .expect("gateway pairs span distinct ASes");
    }

    debug_assert!(g.is_connected());
    TwoLevelTopology { graph: g, as_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> TwoLevelTopology {
        let mut rng = StdRng::seed_from_u64(21);
        two_level(
            &TwoLevelConfig {
                as_count: 5,
                nodes_per_as: 40,
            },
            &mut rng,
        )
    }

    #[test]
    fn structure_is_consistent() {
        let t = small();
        assert_eq!(t.graph.node_count(), 200);
        assert_eq!(t.as_count(), 5);
        assert!(t.graph.is_connected());
        assert_eq!(t.as_of(NodeId::new(0)), t.as_of(NodeId::new(39)));
        assert_ne!(t.as_of(NodeId::new(0)), t.as_of(NodeId::new(40)));
    }

    #[test]
    fn inter_as_links_are_slower() {
        let t = small();
        let mut intra_max = 0;
        let mut inter_min = u32::MAX;
        for e in t.graph.edges() {
            if t.as_of(e.a) == t.as_of(e.b) {
                intra_max = intra_max.max(e.weight);
            } else {
                inter_min = inter_min.min(e.weight);
            }
        }
        assert!(
            inter_min > intra_max,
            "inter {inter_min} vs intra {intra_max}"
        );
    }

    #[test]
    fn intra_paths_cheaper_than_inter() {
        // Shortest path within an AS should be far below any cross-AS path.
        let t = small();
        let d = crate::sssp::dijkstra(&t.graph, NodeId::new(0));
        let same: Vec<u32> = (1..40).map(|i| d[i]).collect();
        let cross: Vec<u32> = (40..80).map(|i| d[i]).collect();
        let same_max = same.iter().max().unwrap();
        let cross_min = cross.iter().min().unwrap();
        assert!(cross_min > same_max, "cross {cross_min} vs same {same_max}");
    }
}
