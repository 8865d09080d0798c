//! Barabási–Albert preferential attachment — the generative model behind
//! the paper's BRITE physical topologies.

use rand::Rng;
use serde::Serialize;

use super::DelayModel;
use crate::graph::{Graph, NodeId};

/// Parameters for the [`ba`] generator.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct BaConfig {
    /// Total number of nodes (>= `seed_nodes`).
    pub nodes: usize,
    /// Size of the initial clique (>= 2).
    pub seed_nodes: usize,
    /// Edges added per new node (1 <= `edges_per_node` <= `seed_nodes`).
    pub edges_per_node: usize,
    /// Link delay model.
    pub delays: DelayModel,
}

impl Default for BaConfig {
    /// 1,000 nodes, 3-clique seed, 2 edges per node, default delays — a
    /// laptop-friendly version of the paper's 20,000-node topologies.
    fn default() -> Self {
        BaConfig {
            nodes: 1000,
            seed_nodes: 3,
            edges_per_node: 2,
            delays: DelayModel::default(),
        }
    }
}

/// Generates a connected Barabási–Albert graph.
///
/// Starts from a `seed_nodes`-clique; every subsequent node attaches to
/// `edges_per_node` *distinct* existing nodes chosen with probability
/// proportional to their current degree (implemented with the classic
/// repeated-endpoint urn).
///
/// The result has `nodes - seed_nodes` attachment rounds, is connected by
/// construction, and empirically follows a power-law degree distribution
/// with exponent ≈ 3 (validated in `analysis` tests).
///
/// # Examples
///
/// ```
/// use ace_topology::generate::{ba, BaConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(42);
/// let g = ba(&BaConfig { nodes: 200, ..BaConfig::default() }, &mut rng);
/// assert_eq!(g.node_count(), 200);
/// assert!(g.is_connected());
/// ```
///
/// # Panics
///
/// Panics if the configuration is inconsistent (see field docs).
pub fn ba<R: Rng + ?Sized>(cfg: &BaConfig, rng: &mut R) -> Graph {
    let mut g = Graph::new(cfg.nodes);
    ba_into(cfg, rng, &mut g, 0);
    debug_assert!(g.is_connected());
    g
}

/// Streams a Barabási–Albert graph into nodes
/// `offset..offset + cfg.nodes` of an existing graph.
///
/// This is [`ba`] without the intermediate graph: composite generators
/// (the two-level AS/router hierarchy) lay out many BA islands inside one
/// big arena, and emitting edges straight into the target means the edge
/// list is never materialized twice. Draws from `rng` in exactly the same
/// order as [`ba`], so `ba(cfg, rng)` and `ba_into(cfg, rng, g, 0)` build
/// identical edge sets.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (see field docs), the
/// target range exceeds the graph, or a target node already has edges
/// inside the range.
pub fn ba_into<R: Rng + ?Sized>(cfg: &BaConfig, rng: &mut R, g: &mut Graph, offset: usize) {
    assert!(cfg.seed_nodes >= 2, "seed clique needs at least 2 nodes");
    assert!(
        cfg.nodes >= cfg.seed_nodes,
        "nodes must cover the seed clique"
    );
    assert!(
        (1..=cfg.seed_nodes).contains(&cfg.edges_per_node),
        "edges_per_node must be in 1..=seed_nodes"
    );
    assert!(
        offset + cfg.nodes <= g.node_count(),
        "target range exceeds the graph"
    );

    // Urn of edge endpoints (local ids): each node appears once per
    // incident edge.
    let mut urn: Vec<u32> = Vec::with_capacity(cfg.nodes * cfg.edges_per_node * 2);
    let global = |local: u32| NodeId::new(offset as u32 + local);

    for i in 0..cfg.seed_nodes as u32 {
        for j in (i + 1)..cfg.seed_nodes as u32 {
            g.add_edge(global(i), global(j), cfg.delays.sample(rng))
                .expect("seed clique edges are unique");
            urn.push(i);
            urn.push(j);
        }
    }

    let mut picks: Vec<u32> = Vec::with_capacity(cfg.edges_per_node);
    for v in cfg.seed_nodes..cfg.nodes {
        picks.clear();
        // Sample `edges_per_node` distinct preferential targets.
        while picks.len() < cfg.edges_per_node {
            let t = urn[rng.gen_range(0..urn.len())];
            if !picks.contains(&t) {
                picks.push(t);
            }
        }
        let v = v as u32;
        for &t in &picks {
            g.add_edge(global(v), global(t), cfg.delays.sample(rng))
                .expect("new node cannot duplicate an edge");
            urn.push(v);
            urn.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_expected_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = BaConfig {
            nodes: 500,
            seed_nodes: 4,
            edges_per_node: 3,
            delays: DelayModel::Constant(2),
        };
        let g = ba(&cfg, &mut rng);
        assert_eq!(g.node_count(), 500);
        assert_eq!(g.edge_count(), 6 + (500 - 4) * 3); // seed clique + growth
        assert!(g.is_connected());
    }

    #[test]
    fn ba_into_matches_ba_at_an_offset() {
        let cfg = BaConfig {
            nodes: 300,
            ..BaConfig::default()
        };
        let reference = ba(&cfg, &mut StdRng::seed_from_u64(11));
        let mut arena = Graph::new(1000);
        ba_into(&cfg, &mut StdRng::seed_from_u64(11), &mut arena, 400);
        assert_eq!(arena.edge_count(), reference.edge_count());
        for e in reference.edges() {
            let (a, b) = (NodeId::new(400 + e.a.raw()), NodeId::new(400 + e.b.raw()));
            assert_eq!(arena.edge_weight(a, b), Some(e.weight), "{a}-{b}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = BaConfig::default();
        let g1 = ba(&cfg, &mut StdRng::seed_from_u64(9));
        let g2 = ba(&cfg, &mut StdRng::seed_from_u64(9));
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn rich_get_richer() {
        // Seed nodes should end up with far higher degree than the median.
        let mut rng = StdRng::seed_from_u64(3);
        let g = ba(
            &BaConfig {
                nodes: 2000,
                ..BaConfig::default()
            },
            &mut rng,
        );
        let mut degs: Vec<usize> = g.nodes().map(|n| g.degree(n)).collect();
        degs.sort_unstable();
        let median = degs[degs.len() / 2];
        let max = *degs.last().unwrap();
        assert!(max >= 10 * median, "max {max} vs median {median}");
    }

    #[test]
    #[should_panic(expected = "edges_per_node")]
    fn rejects_too_many_edges_per_node() {
        let mut rng = StdRng::seed_from_u64(0);
        ba(
            &BaConfig {
                seed_nodes: 2,
                edges_per_node: 5,
                ..BaConfig::default()
            },
            &mut rng,
        );
    }
}
