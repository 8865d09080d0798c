//! Classical random-graph generators: Erdős–Rényi `G(n,m)` and
//! Watts–Strogatz small-world graphs.
//!
//! These are not the paper's topology model (that is Barabási–Albert) but
//! serve as controls: `G(n,m)` has *no* degree heterogeneity and
//! Watts–Strogatz has high clustering, letting tests check that the
//! analysis module distinguishes the three families.

use rand::Rng;
use serde::Serialize;

use super::DelayModel;
use crate::graph::{Graph, NodeId};

/// Parameters for [`gnm`].
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GnmConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges (capped at `n*(n-1)/2`).
    pub edges: usize,
    /// Link delay model.
    pub delays: DelayModel,
}

/// Generates a connected Erdős–Rényi `G(n,m)`-style graph.
///
/// Draws `edges` distinct random pairs; if the result is disconnected,
/// bridge edges are added (so the final edge count may slightly exceed
/// `edges`).
///
/// # Panics
///
/// Panics if `nodes < 2`.
pub fn gnm<R: Rng + ?Sized>(cfg: &GnmConfig, rng: &mut R) -> Graph {
    assert!(cfg.nodes >= 2, "need at least two nodes");
    let max_edges = cfg.nodes * (cfg.nodes - 1) / 2;
    let target = cfg.edges.min(max_edges);
    let mut g = Graph::new(cfg.nodes);

    let mut placed = 0;
    // Rejection sampling is fine for the sparse graphs we care about.
    while placed < target {
        let a = NodeId::new(rng.gen_range(0..cfg.nodes as u32));
        let b = NodeId::new(rng.gen_range(0..cfg.nodes as u32));
        if a == b {
            continue;
        }
        if g.add_edge(a, b, cfg.delays.sample(rng)).is_ok() {
            placed += 1;
        }
    }
    g.connect_components(cfg.delays.typical());
    g
}

/// Parameters for [`watts_strogatz`].
#[derive(Clone, Copy, Debug, Serialize)]
pub struct WattsStrogatzConfig {
    /// Number of nodes (>= 3).
    pub nodes: usize,
    /// Each node connects to `k` nearest ring neighbors on each side (>= 1).
    pub k: usize,
    /// Rewiring probability in `[0, 1]`.
    pub beta: f64,
    /// Link delay model.
    pub delays: DelayModel,
}

/// Generates a connected Watts–Strogatz small-world graph.
///
/// Builds a ring lattice where every node links to its `k` clockwise
/// neighbors, then rewires each lattice edge's far endpoint with
/// probability `beta` to a uniform random node (skipping rewirings that
/// would create self-loops or duplicates).
///
/// # Panics
///
/// Panics if `nodes < 3`, `k == 0`, `2k >= nodes`, or `beta` is outside
/// `[0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(cfg: &WattsStrogatzConfig, rng: &mut R) -> Graph {
    assert!(cfg.nodes >= 3, "need at least three nodes");
    assert!(cfg.k >= 1, "k must be positive");
    assert!(2 * cfg.k < cfg.nodes, "ring lattice requires 2k < n");
    assert!((0.0..=1.0).contains(&cfg.beta), "beta must be in [0,1]");

    let n = cfg.nodes;
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in 1..=cfg.k {
            let a = NodeId::new(i as u32);
            let mut b = NodeId::new(((i + j) % n) as u32);
            if rng.gen_bool(cfg.beta) {
                // Try a few times to find a valid rewiring target.
                for _ in 0..16 {
                    let cand = NodeId::new(rng.gen_range(0..n as u32));
                    if cand != a && !g.has_edge(a, cand) {
                        b = cand;
                        break;
                    }
                }
            }
            // The original lattice edge may collide after a failed rewire;
            // skipping duplicates keeps the graph simple.
            let _ = g.add_edge(a, b, cfg.delays.sample(rng));
        }
    }
    g.connect_components(cfg.delays.typical());
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnm_hits_edge_target_and_connects() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = GnmConfig {
            nodes: 300,
            edges: 600,
            delays: DelayModel::Constant(1),
        };
        let g = gnm(&cfg, &mut rng);
        assert_eq!(g.node_count(), 300);
        assert!(g.edge_count() >= 600);
        assert!(g.is_connected());
    }

    #[test]
    fn gnm_caps_at_complete_graph() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = GnmConfig {
            nodes: 5,
            edges: 1000,
            delays: DelayModel::Constant(1),
        };
        let g = gnm(&cfg, &mut rng);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn ws_beta_zero_is_ring_lattice() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = WattsStrogatzConfig {
            nodes: 20,
            k: 2,
            beta: 0.0,
            delays: DelayModel::Constant(1),
        };
        let g = watts_strogatz(&cfg, &mut rng);
        assert_eq!(g.edge_count(), 40);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(g.is_connected());
    }

    #[test]
    fn ws_rewiring_changes_structure_but_stays_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = WattsStrogatzConfig {
            nodes: 200,
            k: 3,
            beta: 0.3,
            delays: DelayModel::Constant(1),
        };
        let g = watts_strogatz(&cfg, &mut rng);
        assert!(g.is_connected());
        // Some long-range shortcut must exist: ring distance > k for some edge.
        let has_shortcut = g.edges().any(|e| {
            let d = (e.a.index() as i64 - e.b.index() as i64).rem_euclid(200);
            d.min(200 - d) > 3
        });
        assert!(has_shortcut);
    }

    #[test]
    #[should_panic(expected = "2k < n")]
    fn ws_rejects_dense_lattice() {
        let mut rng = StdRng::seed_from_u64(0);
        watts_strogatz(
            &WattsStrogatzConfig {
                nodes: 6,
                k: 3,
                beta: 0.0,
                delays: DelayModel::Constant(1),
            },
            &mut rng,
        );
    }
}
