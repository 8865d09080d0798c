//! Single-source shortest paths on the physical graph.
//!
//! Overlay-link costs in the reproduction are *physical shortest-path
//! delays* between the hosts of two logical neighbors, so Dijkstra is the
//! workhorse of every experiment. A bounded variant and a plain BFS
//! (hop-count) traversal are also provided.
//!
//! There is one shortest-path kernel, `dijkstra_into`, over a monotone
//! radix heap (`RadixHeap`): Dijkstra pops keys in non-decreasing order,
//! so a queued key only has to be filed by the highest bit in which it
//! differs from the last popped key. That gives 33 buckets for any `u32`
//! delay, whatever the largest edge weight (DESIGN.md §13.5).

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
    let mut dist = Vec::new();
    dijkstra_into(g, src, bound, &mut dist, &mut RadixHeap::new());
    dist
}

/// The shortest-path kernel: fills `dist` (resized to the node count) with
/// the delays from `src` that do not exceed `bound`, [`UNREACHABLE`]
/// elsewhere. A path whose delay sum overflows `u32` saturates to
/// [`UNREACHABLE`]. `heap` is scratch, so a caller that runs many rows
/// reuses it and `dist` across sources.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub(crate) fn dijkstra_into(
    g: &Graph,
    src: NodeId,
    bound: Delay,
    dist: &mut Vec<Delay>,
    heap: &mut RadixHeap,
) {
    let n = g.node_count();
    assert!(src.index() < n, "source {src} out of range");
    dist.clear();
    dist.resize(n, UNREACHABLE);
    heap.clear();
    dist[src.index()] = 0;
    heap.push(0, src.raw());
    while let Some((d, u)) = heap.pop(dist) {
        let u = NodeId::new(u);
        if d > dist[u.index()] {
            continue; // stale entry
        }
        for &(v, w) in g.neighbors(u) {
            let nd = d.saturating_add(w);
            if nd <= bound && nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(nd, v.raw());
            }
        }
    }
}

/// Buckets of a [`RadixHeap`]: one for keys equal to the last popped key,
/// plus one per bit of a `u32` key.
const BUCKETS: usize = Delay::BITS as usize + 1;

/// Monotone radix heap of `(key, node)` entries, keys being `u32` delays,
/// packed as `(key << 32) | node`.
///
/// Every pushed key must be at least the last popped one, which Dijkstra
/// guarantees (`d + w >= d`). Key `k` lives in bucket
/// `32 - (k ^ last).leading_zeros()`: bucket 0 holds keys equal to `last`,
/// and bucket `i > 0` the keys whose highest bit differing from `last` is
/// bit `i - 1`, so every key in a bucket is below every key in a higher
/// one. When bucket 0 runs dry, the lowest non-empty bucket is emptied:
/// `last` becomes its smallest key and its entries move to strictly lower
/// buckets. An entry therefore moves at most 32 times, whatever the edge
/// weights.
#[derive(Debug)]
pub(crate) struct RadixHeap {
    buckets: [Vec<u64>; BUCKETS],
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    mask: u64,
    /// The last popped key; every queued key is `>= last`.
    last: Delay,
}

#[inline]
fn bucket_of(key: Delay, last: Delay) -> usize {
    (Delay::BITS - (key ^ last).leading_zeros()) as usize
}

impl RadixHeap {
    pub(crate) fn new() -> Self {
        RadixHeap {
            buckets: std::array::from_fn(|_| Vec::new()),
            mask: 0,
            last: 0,
        }
    }

    /// Empties the heap, keeping the buckets' capacity.
    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.mask = 0;
        self.last = 0;
    }

    #[inline]
    fn push(&mut self, key: Delay, node: u32) {
        debug_assert!(key >= self.last, "radix heap keys must be monotone");
        let b = bucket_of(key, self.last);
        self.buckets[b].push((u64::from(key) << 32) | u64::from(node));
        self.mask |= 1 << b;
    }

    /// Pops an entry with the smallest key; ties come out in no particular
    /// order. While it refills bucket 0 it drops the entries whose key is
    /// above `dist` of their node (a shorter path reached the node since),
    /// so they are not moved again.
    #[inline]
    fn pop(&mut self, dist: &[Delay]) -> Option<(Delay, u32)> {
        while self.mask & 1 == 0 {
            if self.mask == 0 {
                return None;
            }
            let i = self.mask.trailing_zeros() as usize;
            self.mask &= !(1 << i);
            let (lower, rest) = self.buckets.split_at_mut(i);
            let bucket = &mut rest[0];
            let mut min = u64::MAX;
            bucket.retain(|&e| {
                let live = (e >> 32) as Delay <= dist[e as u32 as usize];
                if live {
                    min = min.min(e);
                }
                live
            });
            if bucket.is_empty() {
                continue;
            }
            // The packed minimum carries the smallest key in its high word.
            self.last = (min >> 32) as Delay;
            for &e in bucket.iter() {
                let b = bucket_of((e >> 32) as Delay, self.last);
                lower[b].push(e);
                self.mask |= 1 << b;
            }
            bucket.clear();
        }
        let e = self.buckets[0].pop().expect("bucket 0 is non-empty");
        if self.buckets[0].is_empty() {
            self.mask &= !1;
        }
        Some(((e >> 32) as Delay, e as u32))
    }
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

    /// A path `0 - 1 - ... - k` with the given edge weights.
    fn path(weights: &[Delay]) -> Graph {
        let mut g = Graph::new(weights.len() + 1);
        for (i, &w) in weights.iter().enumerate() {
            g.add_edge(NodeId::new(i as u32), NodeId::new(i as u32 + 1), w)
                .unwrap();
        }
        g
    }

    #[test]
    fn sums_past_u32_saturate_to_unreachable() {
        let max = Delay::MAX;
        // The last reachable delay is MAX - 1; MAX itself is the sentinel.
        let d = dijkstra(&path(&[max - 2, 1, 1, 1]), NodeId::new(0));
        assert_eq!(d, vec![0, max - 2, max - 1, UNREACHABLE, UNREACHABLE]);
        let d = dijkstra(&path(&[max, 1]), NodeId::new(0));
        assert_eq!(d, vec![0, UNREACHABLE, UNREACHABLE]);
        // A wrapping add would come back round to 1 here.
        let d = dijkstra(&path(&[max - 1, 3]), NodeId::new(0));
        assert_eq!(d, vec![0, max - 1, UNREACHABLE]);
        let d = dijkstra(&path(&[max - 1, max - 1]), NodeId::new(1));
        assert_eq!(d, vec![max - 1, 0, max - 1]);
    }

    #[test]
    fn weights_across_every_bucket_match_bellman_ford() {
        // A path of one weight per bit position, plus chords that are
        // cheaper or dearer than the path they skip.
        let weights: Vec<Delay> = (0..31).map(|b| 1 << b).collect();
        let mut g = path(&weights);
        g.add_edge(NodeId::new(0), NodeId::new(20), (1 << 20) - 2)
            .unwrap();
        g.add_edge(NodeId::new(5), NodeId::new(30), 1 << 31)
            .unwrap();
        g.add_edge(NodeId::new(10), NodeId::new(31), Delay::MAX - 7)
            .unwrap();
        for s in g.nodes() {
            let d = dijkstra(&g, s);
            let bf = bellman_ford(&g, s);
            for (i, (&d, &bf)) in d.iter().zip(&bf).enumerate() {
                let want = if bf >= u64::from(UNREACHABLE) {
                    UNREACHABLE
                } else {
                    bf as Delay
                };
                assert_eq!(d, want, "source {s}, node {i}");
            }
        }
    }

    #[test]
    fn disconnected_component_stays_unreachable() {
        let mut g = Graph::new(5);
        g.add_edge(NodeId::new(0), NodeId::new(1), 3).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3), 4).unwrap();
        g.add_edge(NodeId::new(3), NodeId::new(4), 5).unwrap();
        let d = dijkstra(&g, NodeId::new(3));
        assert_eq!(d, vec![UNREACHABLE, UNREACHABLE, 4, 0, 5]);
    }

    #[test]
    fn one_node_graph_has_a_zero_row() {
        assert_eq!(dijkstra(&Graph::new(1), NodeId::new(0)), vec![0]);
        assert_eq!(dijkstra_bounded(&Graph::new(1), NodeId::new(0), 0), vec![0]);
    }

    #[test]
    fn bound_is_inclusive() {
        let g = path(&[2, 3, 4]);
        let src = NodeId::new(0);
        let none = vec![0, UNREACHABLE, UNREACHABLE, UNREACHABLE];
        assert_eq!(dijkstra_bounded(&g, src, 0), none);
        assert_eq!(
            dijkstra_bounded(&g, src, 4),
            vec![0, 2, UNREACHABLE, UNREACHABLE]
        );
        assert_eq!(dijkstra_bounded(&g, src, 5), vec![0, 2, 5, UNREACHABLE]);
        assert_eq!(dijkstra_bounded(&g, src, 9), vec![0, 2, 5, 9]);
    }

    #[test]
    fn tied_paths_give_one_distance() {
        // Two equal routes 0-1-3 and 0-2-3, and a third via 4 of the same
        // length, so node 3 is reached three times at one key.
        let mut g = Graph::new(6);
        for (a, b, w) in [
            (0, 1, 2),
            (1, 3, 3),
            (0, 2, 3),
            (2, 3, 2),
            (0, 4, 5),
            (4, 3, 1),
            (3, 5, 1),
        ] {
            g.add_edge(NodeId::new(a), NodeId::new(b), w).unwrap();
        }
        assert_eq!(dijkstra(&g, NodeId::new(0)), vec![0, 2, 3, 5, 5, 6]);
        assert_eq!(dijkstra(&g, NodeId::new(5)), vec![6, 4, 3, 1, 2, 0]);
    }

    #[test]
    fn radix_heap_pops_in_key_order() {
        let dist = vec![UNREACHABLE; 8];
        let mut heap = RadixHeap::new();
        let keys = [7, Delay::MAX - 1, 1 << 31, 7, 0, 300, (1 << 31) - 1, 8];
        for (node, &k) in keys.iter().enumerate() {
            heap.push(k, node as u32);
        }
        let mut popped = Vec::new();
        while let Some((k, _)) = heap.pop(&dist) {
            popped.push(k);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
        // A cleared heap starts again from key 0.
        heap.push(Delay::MAX, 0);
        heap.clear();
        heap.push(1, 0);
        assert_eq!(heap.pop(&dist), Some((1, 0)));
        assert_eq!(heap.pop(&dist), None);
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
