//! Property-based tests for the physical-network substrate.

use std::collections::BTreeSet;

use ace_topology::generate::{ba, gnm, BaConfig, DelayModel, GnmConfig};
use ace_topology::{sssp, Delay, DistanceOracle, Graph, LandmarkOracle, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference adjacency model: the plain `Vec<Vec<(NodeId, Delay)>>`
/// layout the CSR arena replaced. Built from the generator's edge stream,
/// it re-derives neighbor lists and SSSP rows independently of the arena.
struct VecAdjacency {
    adj: Vec<Vec<(NodeId, Delay)>>,
}

impl VecAdjacency {
    fn from_graph(g: &Graph) -> Self {
        let mut adj = vec![Vec::new(); g.node_count()];
        for e in g.edges() {
            adj[e.a.index()].push((e.b, e.weight));
            adj[e.b.index()].push((e.a, e.weight));
        }
        VecAdjacency { adj }
    }

    /// Textbook Dijkstra over the Vec-of-Vecs layout.
    fn dijkstra(&self, src: NodeId) -> Vec<Delay> {
        let mut dist = vec![sssp::UNREACHABLE; self.adj.len()];
        let mut heap = std::collections::BinaryHeap::new();
        dist[src.index()] = 0;
        heap.push(std::cmp::Reverse((0u64, src.index())));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > u64::from(dist[u]) {
                continue;
            }
            for &(v, w) in &self.adj[u] {
                let nd = d + u64::from(w);
                if nd < u64::from(dist[v.index()]) {
                    dist[v.index()] = nd as Delay;
                    heap.push(std::cmp::Reverse((nd, v.index())));
                }
            }
        }
        dist
    }
}

/// Strategy: a random connected graph with 2..=40 nodes and positive weights.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..=40, 0usize..80, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gnm(
            &GnmConfig {
                nodes: n,
                edges: extra,
                delays: DelayModel::Uniform { lo: 1, hi: 50 },
            },
            &mut rng,
        )
    })
}

/// A weight of random bit length in `1..=u32::MAX`.
fn wide_weight(rng: &mut StdRng) -> Delay {
    let bits = rng.gen_range(1u32..=32);
    (rng.gen::<u32>() >> (32 - bits)).max(1)
}

/// Strategy: a random graph over the whole `u32` weight range. A spanning
/// tree over `2..=40` nodes plus extra edges, then up to two isolated
/// nodes. Each weight has a random bit length, so keys cross every radix
/// bucket boundary and long paths saturate past `u32::MAX`.
fn arb_wide_weight_graph() -> impl Strategy<Value = Graph> {
    (2usize..=40, 0usize..80, 0usize..=2, any::<u64>()).prop_map(|(n, extra, isolated, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new(n + isolated);
        for v in 1..n {
            let u = rng.gen_range(0..v);
            let w = wide_weight(&mut rng);
            g.add_edge(NodeId::new(u as u32), NodeId::new(v as u32), w)
                .unwrap();
        }
        for _ in 0..extra {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let w = wide_weight(&mut rng);
            // Self-loops and duplicates are rejected; skipping them is fine.
            let _ = g.add_edge(NodeId::new(a as u32), NodeId::new(b as u32), w);
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wide_weight_sssp_rows_match_u64_model(g in arb_wide_weight_graph()) {
        let model = VecAdjacency::from_graph(&g);
        for src in g.nodes() {
            prop_assert_eq!(sssp::dijkstra(&g, src), model.dijkstra(src), "source {}", src);
        }
    }

    #[test]
    fn dijkstra_matches_bellman_ford(g in arb_connected_graph()) {
        let src = NodeId::new(0);
        let d = sssp::dijkstra(&g, src);
        let bf = sssp::bellman_ford(&g, src);
        for i in 0..g.node_count() {
            let dv = if d[i] == sssp::UNREACHABLE { u64::MAX } else { u64::from(d[i]) };
            prop_assert_eq!(dv, bf[i], "node {}", i);
        }
    }

    #[test]
    fn distances_are_symmetric(g in arb_connected_graph()) {
        let n = g.node_count();
        let oracle = DistanceOracle::new(g);
        for i in 0..n.min(6) {
            for j in 0..n.min(6) {
                let (a, b) = (NodeId::new(i as u32), NodeId::new(j as u32));
                prop_assert_eq!(oracle.distance(a, b), oracle.distance(b, a));
            }
        }
    }

    #[test]
    fn triangle_inequality_holds(g in arb_connected_graph()) {
        let n = g.node_count().min(8);
        let oracle = DistanceOracle::new(g);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (a, b, c) =
                        (NodeId::new(i as u32), NodeId::new(j as u32), NodeId::new(k as u32));
                    let (ab, ac, cb) =
                        (oracle.distance(a, b), oracle.distance(a, c), oracle.distance(c, b));
                    prop_assert!(u64::from(ab) <= u64::from(ac) + u64::from(cb));
                }
            }
        }
    }

    #[test]
    fn distance_along_edges_never_exceeds_edge_weight(g in arb_connected_graph()) {
        let edges: Vec<_> = g.edges().collect();
        let oracle = DistanceOracle::new(g);
        for e in edges {
            prop_assert!(oracle.distance(e.a, e.b) <= e.weight);
        }
    }

    #[test]
    fn landmark_estimate_is_upper_bound(g in arb_connected_graph()) {
        let n = g.node_count();
        let lm = LandmarkOracle::new(&g, vec![NodeId::new(0), NodeId::new(n as u32 - 1)]);
        let oracle = DistanceOracle::new(g);
        for i in 0..n.min(8) {
            for j in 0..n.min(8) {
                let (a, b) = (NodeId::new(i as u32), NodeId::new(j as u32));
                prop_assert!(lm.estimate(a, b) >= oracle.distance(a, b));
            }
        }
    }

    #[test]
    fn csr_adjacency_matches_vec_model(g in arb_connected_graph()) {
        let model = VecAdjacency::from_graph(&g);
        // Neighbor lists: same multiset per node.
        for n in g.nodes() {
            let mut csr: Vec<_> = g.neighbors(n).to_vec();
            let mut reference = model.adj[n.index()].clone();
            csr.sort_unstable();
            reference.sort_unstable();
            prop_assert_eq!(csr, reference, "node {}", n);
        }
        // Edge set: iterating the CSR arena yields each undirected edge once.
        let csr_edges: BTreeSet<_> = g.edges().map(|e| {
            let (lo, hi) = if e.a <= e.b { (e.a, e.b) } else { (e.b, e.a) };
            (lo, hi, e.weight)
        }).collect();
        prop_assert_eq!(csr_edges.len(), g.edge_count());
    }

    #[test]
    fn csr_sssp_rows_match_vec_model(g in arb_connected_graph()) {
        let model = VecAdjacency::from_graph(&g);
        let sources = [0, g.node_count() / 2, g.node_count() - 1];
        for s in sources {
            let src = NodeId::new(s as u32);
            prop_assert_eq!(sssp::dijkstra(&g, src), model.dijkstra(src), "source {}", src);
        }
    }

    #[test]
    fn streamed_ba_matches_batch_ba(
        (n, m, seed) in (3usize..=30, 1usize..=3, any::<u64>()),
        offset in 0usize..50,
    ) {
        let cfg = BaConfig {
            nodes: n,
            seed_nodes: 3,
            edges_per_node: m,
            delays: DelayModel::Uniform { lo: 1, hi: 40 },
        };
        let batch = ba(&cfg, &mut StdRng::seed_from_u64(seed));
        let mut arena = Graph::new(offset + n + 5);
        ace_topology::generate::ba_into(
            &cfg,
            &mut StdRng::seed_from_u64(seed),
            &mut arena,
            offset,
        );
        // Identical edge sets, shifted by the offset.
        let batch_edges: BTreeSet<_> = batch
            .edges()
            .map(|e| (e.a.index() + offset, e.b.index() + offset, e.weight))
            .collect();
        let arena_edges: BTreeSet<_> = arena
            .edges()
            .map(|e| (e.a.index(), e.b.index(), e.weight))
            .collect();
        prop_assert_eq!(batch_edges, arena_edges);
        // Identical SSSP rows over the streamed region.
        let batch_row = sssp::dijkstra(&batch, NodeId::new(0));
        let arena_row = sssp::dijkstra(&arena, NodeId::new(offset as u32));
        for i in 0..n {
            prop_assert_eq!(batch_row[i], arena_row[offset + i], "node {}", i);
        }
    }

    #[test]
    fn bfs_hops_lower_bound_weighted_paths(g in arb_connected_graph()) {
        // hops * min_edge_weight <= weighted distance
        let min_w = g.edges().map(|e| e.weight).min().unwrap_or(1);
        let hops = sssp::bfs_hops(&g, NodeId::new(0));
        let dist = sssp::dijkstra(&g, NodeId::new(0));
        for i in 0..g.node_count() {
            if dist[i] != sssp::UNREACHABLE {
                prop_assert!(u64::from(hops[i]) * u64::from(min_w) <= u64::from(dist[i]));
            }
        }
    }
}
