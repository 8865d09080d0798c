//! Single-source shortest paths on the physical graph.
//!
//! Overlay-link costs in the reproduction are *physical shortest-path
//! delays* between the hosts of two logical neighbors, so Dijkstra is the
//! workhorse of every experiment. A bounded variant and a plain BFS
//! (hop-count) traversal are also provided.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{Delay, Graph, NodeId};

/// Distance value meaning "unreachable".
pub const UNREACHABLE: Delay = Delay::MAX;

/// Computes shortest-path delays from `src` to every node.
///
/// Unreachable nodes get [`UNREACHABLE`].
///
/// # Examples
///
/// ```
/// use ace_topology::{Graph, NodeId, sssp};
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 4).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2), 6).unwrap();
/// let d = sssp::dijkstra(&g, NodeId::new(0));
/// assert_eq!(d[2], 10);
/// ```
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn dijkstra(g: &Graph, src: NodeId) -> Vec<Delay> {
    dijkstra_bounded(g, src, UNREACHABLE)
}

/// Dijkstra that stops expanding once distances exceed `bound`.
///
/// Nodes farther than `bound` are reported as [`UNREACHABLE`]. Useful for
/// local probes where only nearby distances matter.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn dijkstra_bounded(g: &Graph, src: NodeId, bound: Delay) -> Vec<Delay> {
    let n = g.node_count();
    assert!(src.index() < n, "source {src} out of range");
    let mut dist = vec![UNREACHABLE; n];
    let mut heap: BinaryHeap<Reverse<(Delay, u32)>> = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0, src.raw())));
    while let Some(Reverse((d, u))) = heap.pop() {
        let u = NodeId::new(u);
        if d > dist[u.index()] {
            continue; // stale entry
        }
        for &(v, w) in g.neighbors(u) {
            let nd = d.saturating_add(w);
            if nd <= bound && nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v.raw())));
            }
        }
    }
    dist
}

/// Hop counts (unweighted BFS) from `src`; `u32::MAX` when unreachable.
pub fn bfs_hops(g: &Graph, src: NodeId) -> Vec<u32> {
    let n = g.node_count();
    assert!(src.index() < n, "source {src} out of range");
    let mut hops = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    hops[src.index()] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let h = hops[u.index()];
        for &(v, _) in g.neighbors(u) {
            if hops[v.index()] == u32::MAX {
                hops[v.index()] = h + 1;
                queue.push_back(v);
            }
        }
    }
    hops
}

/// All-pairs shortest paths by Floyd–Warshall (`O(n³)`); intended for
/// small graphs (analysis, exact small-world metrics, test oracles).
///
/// Returns `apsp[i][j]` = delay from node `i` to node `j`
/// (`u64::MAX` when unreachable).
///
/// # Panics
///
/// Panics (debug) on graphs above 2,048 nodes — use repeated
/// [`dijkstra`] there instead.
pub fn floyd_warshall(g: &Graph) -> Vec<Vec<u64>> {
    let n = g.node_count();
    debug_assert!(
        n <= 2048,
        "Floyd-Warshall is O(n^3); use dijkstra for large graphs"
    );
    let mut d = vec![vec![u64::MAX; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for e in g.edges() {
        let (a, b, w) = (e.a.index(), e.b.index(), u64::from(e.weight));
        d[a][b] = d[a][b].min(w);
        d[b][a] = d[b][a].min(w);
    }
    for k in 0..n {
        for i in 0..n {
            if d[i][k] == u64::MAX {
                continue;
            }
            for j in 0..n {
                if d[k][j] == u64::MAX {
                    continue;
                }
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

/// Bellman–Ford shortest paths; only used in tests as an independent
/// cross-check of [`dijkstra`] (all weights are positive by construction).
pub fn bellman_ford(g: &Graph, src: NodeId) -> Vec<u64> {
    let n = g.node_count();
    let mut dist = vec![u64::MAX; n];
    dist[src.index()] = 0;
    for _ in 0..n {
        let mut changed = false;
        for e in g.edges() {
            let (a, b, w) = (e.a.index(), e.b.index(), u64::from(e.weight));
            if dist[a] != u64::MAX && dist[a] + w < dist[b] {
                dist[b] = dist[a] + w;
                changed = true;
            }
            if dist[b] != u64::MAX && dist[b] + w < dist[a] {
                dist[a] = dist[b] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3,  0 -5- 2 -1- 3
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(3), 1).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2), 5).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3), 1).unwrap();
        g
    }

    #[test]
    fn dijkstra_picks_cheapest_route() {
        let d = dijkstra(&diamond(), NodeId::new(0));
        assert_eq!(d, vec![0, 1, 3, 2]); // node 2 via 0-1-3-2 = 3, not 5
    }

    #[test]
    fn dijkstra_reports_unreachable() {
        let mut g = diamond();
        g.add_node();
        let d = dijkstra(&g, NodeId::new(0));
        assert_eq!(d[4], UNREACHABLE);
    }

    #[test]
    fn bounded_dijkstra_cuts_off() {
        let d = dijkstra_bounded(&diamond(), NodeId::new(0), 1);
        assert_eq!(d, vec![0, 1, UNREACHABLE, UNREACHABLE]);
    }

    #[test]
    fn bfs_hops_counts_edges() {
        let h = bfs_hops(&diamond(), NodeId::new(0));
        assert_eq!(h, vec![0, 1, 1, 2]);
    }

    #[test]
    fn floyd_warshall_matches_dijkstra() {
        let g = diamond();
        let apsp = floyd_warshall(&g);
        for s in g.nodes() {
            let d = dijkstra(&g, s);
            for t in 0..g.node_count() {
                assert_eq!(u64::from(d[t]), apsp[s.index()][t]);
            }
        }
    }

    #[test]
    fn floyd_warshall_reports_unreachable() {
        let mut g = diamond();
        g.add_node();
        let apsp = floyd_warshall(&g);
        assert_eq!(apsp[0][4], u64::MAX);
        assert_eq!(apsp[4][4], 0);
    }

    #[test]
    fn matches_bellman_ford_on_diamond() {
        let g = diamond();
        for s in g.nodes() {
            let d = dijkstra(&g, s);
            let bf = bellman_ford(&g, s);
            for i in 0..g.node_count() {
                assert_eq!(u64::from(d[i]), bf[i]);
            }
        }
    }
}
