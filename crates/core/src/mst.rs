//! Minimum spanning trees over closures (ACE phase 2).
//!
//! The paper builds a Prim MST over the source's h-neighbor closure and
//! forwards queries only to the source's direct tree neighbors. The one
//! Prim the drivers run is [`PrimScratch::root_tree_neighbors`]: slot
//! space, reusable arenas, a fringe scan, and a stop once the root's
//! tree neighbors are all known. [`prim`] (the paper's `O(m²)` dense
//! form) and [`prim_heap`] build whole trees and are its references;
//! Kruskal is an independent weight cross-check for the property tests.

use std::collections::HashMap;

use ace_overlay::PeerId;
use ace_topology::Delay;

/// An edge of a closure subgraph with its probed cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosureEdge {
    /// One endpoint.
    pub a: PeerId,
    /// The other endpoint.
    pub b: PeerId,
    /// Probed cost of the logical link.
    pub cost: Delay,
}

/// A spanning tree of (the connected part of) a closure subgraph.
#[derive(Clone, Debug, Default)]
pub struct SpanningTree {
    edges: Vec<ClosureEdge>,
}

impl SpanningTree {
    /// The tree edges.
    pub fn edges(&self) -> &[ClosureEdge] {
        &self.edges
    }

    /// Total tree weight.
    pub fn weight(&self) -> u64 {
        self.edges.iter().map(|e| u64::from(e.cost)).sum()
    }

    /// Peers adjacent to `peer` in the tree — for the source, these are
    /// its ACE *flooding neighbors*.
    pub fn tree_neighbors(&self, peer: PeerId) -> Vec<PeerId> {
        let mut out = Vec::new();
        for e in &self.edges {
            if e.a == peer {
                out.push(e.b);
            } else if e.b == peer {
                out.push(e.a);
            }
        }
        out.sort_unstable();
        out
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for a trivial (single-node) tree.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// True if the tree contains the undirected edge `a-b`.
    pub fn contains_edge(&self, a: PeerId, b: PeerId) -> bool {
        self.edges
            .iter()
            .any(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a))
    }
}

/// Prim's algorithm from `root` over `members`/`edges`, in the paper's
/// dense `O(m²)` formulation (`m` = closure size; closures are small —
/// a peer and its neighborhood — so the simple form is also the fast one).
///
/// Only the component reachable from `root` is spanned; ties are broken
/// toward lower peer ids so trees are deterministic.
///
/// # Panics
///
/// Panics if `root` is not in `members` or an edge endpoint is unknown.
pub fn prim(root: PeerId, members: &[PeerId], edges: &[ClosureEdge]) -> SpanningTree {
    let index: HashMap<PeerId, usize> = members
        .iter()
        .copied()
        .enumerate()
        .map(|(i, p)| (p, i))
        .collect();
    assert!(index.contains_key(&root), "root must be a closure member");
    let n = members.len();

    // Adjacency matrix of best edge costs (parallel probes keep the min).
    let mut adj: Vec<Vec<Option<Delay>>> = vec![vec![None; n]; n];
    for e in edges {
        let (i, j) = (
            *index.get(&e.a).expect("edge endpoint in members"),
            *index.get(&e.b).expect("edge endpoint in members"),
        );
        let slot = &mut adj[i][j];
        *slot = Some(slot.map_or(e.cost, |c| c.min(e.cost)));
        adj[j][i] = adj[i][j];
    }

    let mut in_tree = vec![false; n];
    let mut best: Vec<Option<(Delay, usize)>> = vec![None; n]; // (cost, tree endpoint)
    let root_i = index[&root];
    in_tree[root_i] = true;
    for j in 0..n {
        if let Some(c) = adj[root_i][j] {
            best[j] = Some((c, root_i));
        }
    }

    let mut tree = SpanningTree::default();
    loop {
        // Cheapest fringe vertex; ties toward lower peer id.
        let mut pick: Option<(Delay, PeerId, usize)> = None;
        for j in 0..n {
            if in_tree[j] {
                continue;
            }
            if let Some((c, _)) = best[j] {
                let cand = (c, members[j], j);
                if pick.is_none_or(|(pc, pp, _)| (c, members[j]) < (pc, pp)) {
                    pick = Some(cand);
                }
            }
        }
        let Some((cost, _, j)) = pick else { break };
        let (_, from) = best[j].expect("picked vertex has a best edge");
        in_tree[j] = true;
        tree.edges.push(ClosureEdge {
            a: members[from],
            b: members[j],
            cost,
        });
        for k in 0..n {
            if in_tree[k] {
                continue;
            }
            if let Some(c) = adj[j][k] {
                if best[k].is_none_or(|(bc, bi)| (c, members[j]) < (bc, members[bi])) {
                    best[k] = Some((c, j));
                }
            }
        }
    }
    tree
}

/// Heap-based Prim — same tree semantics as [`prim`] but `O(E log V)`.
/// No driver runs it: it is the reference whose tie-breaking the
/// slot-space [`PrimScratch::root_tree_neighbors`] reproduces.
///
/// The resulting tree weight always equals [`prim`]'s; the edge set may
/// differ between the two only when distinct equal-weight trees exist.
///
/// # Panics
///
/// Panics if `root` is not in `members` or an edge endpoint is unknown.
pub fn prim_heap(root: PeerId, members: &[PeerId], edges: &[ClosureEdge]) -> SpanningTree {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let index: HashMap<PeerId, usize> = members
        .iter()
        .copied()
        .enumerate()
        .map(|(i, p)| (p, i))
        .collect();
    assert!(index.contains_key(&root), "root must be a closure member");
    let n = members.len();
    let mut adj: Vec<Vec<(usize, Delay)>> = vec![Vec::new(); n];
    for e in edges {
        let (i, j) = (
            *index.get(&e.a).expect("edge endpoint in members"),
            *index.get(&e.b).expect("edge endpoint in members"),
        );
        adj[i].push((j, e.cost));
        adj[j].push((i, e.cost));
    }

    let mut in_tree = vec![false; n];
    // (cost, tie-break peer id, vertex, tree endpoint)
    let mut heap: BinaryHeap<Reverse<(Delay, u32, usize, usize)>> = BinaryHeap::new();
    let root_i = index[&root];
    in_tree[root_i] = true;
    for &(j, c) in &adj[root_i] {
        heap.push(Reverse((c, members[j].raw(), j, root_i)));
    }
    let mut tree = SpanningTree::default();
    while let Some(Reverse((cost, _, j, from))) = heap.pop() {
        if in_tree[j] {
            continue;
        }
        in_tree[j] = true;
        tree.edges.push(ClosureEdge {
            a: members[from],
            b: members[j],
            cost,
        });
        for &(k, c) in &adj[j] {
            if !in_tree[k] {
                heap.push(Reverse((c, members[k].raw(), k, j)));
            }
        }
    }
    tree
}

/// Kruskal's algorithm over the same input — used as an independent MST
/// weight cross-check in tests (spans every component, so compare weights
/// only when the subgraph is connected).
pub fn kruskal(members: &[PeerId], edges: &[ClosureEdge]) -> SpanningTree {
    let index: HashMap<PeerId, usize> = members
        .iter()
        .copied()
        .enumerate()
        .map(|(i, p)| (p, i))
        .collect();
    let mut sorted: Vec<&ClosureEdge> = edges.iter().collect();
    sorted.sort_by_key(|e| (e.cost, e.a, e.b));

    // Union-find.
    let mut parent: Vec<usize> = (0..members.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    let mut tree = SpanningTree::default();
    for e in sorted {
        let (ra, rb) = (
            find(&mut parent, index[&e.a]),
            find(&mut parent, index[&e.b]),
        );
        if ra != rb {
            parent[ra] = rb;
            tree.edges.push(*e);
        }
    }
    tree
}

/// A closure edge in dense slot space: both endpoints are indices into
/// the closure's `members` vector. The round-plan hot path works in slot
/// space so no per-peer `HashMap<PeerId, usize>` index is ever built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEdge {
    /// Slot of one endpoint.
    pub a: u32,
    /// Slot of the other endpoint.
    pub b: u32,
    /// Probed cost of the logical link.
    pub cost: Delay,
}

/// Reusable state for the slot-space Prim. One instance lives in each
/// worker's `PlanScratch` (and one in `AsyncAceSim`); arenas are cleared
/// (keeping capacity) between peers instead of reallocated.
///
/// Closures run from a dozen members at h = 1 to about 40 at h = 2 (the
/// paper's depth sweep goes to h = 3). The MST keeps per-slot
/// best-candidate arrays and a *fringe* of the slots that have a
/// candidate but are not in the tree yet; each step scans the fringe,
/// not every slot, for the least candidate. At this size the scan
/// beats a binary heap's push/pop traffic, and the plan stage runs one
/// MST per planning peer per round.
///
/// Only the root's tree neighbors are wanted, so the scan stops as soon
/// as no fringe slot can still join the tree through the root (see
/// [`PrimScratch::root_tree_neighbors`]).
#[derive(Clone, Debug, Default)]
pub struct PrimScratch {
    /// Closure edges per slot, `(other slot, cost)`, both directions.
    adj: Vec<Vec<(u32, Delay)>>,
    /// Cheapest known connecting edge per slot: cost and tree-side
    /// endpoint, lexicographically minimal as `(cost, from)` —
    /// [`NO_EDGE`] `from` means none seen yet.
    best_cost: Vec<Delay>,
    best_from: Vec<u32>,
    in_tree: Vec<bool>,
    /// Slots with a candidate edge that are not in the tree yet, in no
    /// particular order: a slot joins when it first gets a candidate and
    /// leaves (`swap_remove`) when it is picked.
    fringe: Vec<u32>,
}

/// `best_from` sentinel: no candidate edge reaches the slot yet.
const NO_EDGE: u32 = u32::MAX;

impl PrimScratch {
    /// Dense Prim from slot `root` over `members`/`edges`, appending
    /// (sorted) the members adjacent to the root in the resulting tree —
    /// exactly [`prim_heap`]`(..).tree_neighbors(members[root])`,
    /// including its `(cost, raw peer id)` tie-breaking, without the
    /// per-call index map, adjacency list and tree allocations.
    ///
    /// The heap pops the globally least `(cost, raw, slot, from)`
    /// entry among slots not yet in the tree; keeping only the per-slot
    /// `(cost, from)`-minimal candidate and scanning the fringe for the
    /// least `(cost << 32) | raw` key selects the identical sequence,
    /// because members are distinct peers, so `raw` names the slot.
    ///
    /// Only the root's own relaxation sets `from == root`, and the root
    /// is in the tree before any other slot. So the fringe slots whose
    /// candidate comes from the root are the only ones that can still
    /// become root tree neighbors; once none is left, every later pick
    /// joins through another slot, and the scan stops there with the
    /// same output as spanning the whole component.
    ///
    /// # Panics
    ///
    /// Panics if an edge slot is out of `members`' range.
    pub fn root_tree_neighbors(
        &mut self,
        members: &[PeerId],
        edges: &[SlotEdge],
        root: u32,
        out: &mut Vec<PeerId>,
    ) {
        let n = members.len();
        for a in self.adj.iter_mut().take(n) {
            a.clear();
        }
        if self.adj.len() < n {
            self.adj.resize_with(n, Vec::new);
        }
        self.in_tree.clear();
        self.in_tree.resize(n, false);
        self.best_cost.clear();
        self.best_cost.resize(n, Delay::MAX);
        self.best_from.clear();
        self.best_from.resize(n, NO_EDGE);
        self.fringe.clear();
        for e in edges {
            let (i, j) = (e.a as usize, e.b as usize);
            assert!(i < n && j < n, "edge slot out of range");
            self.adj[i].push((e.b, e.cost));
            self.adj[j].push((e.a, e.cost));
        }
        let Self {
            adj,
            best_cost,
            best_from,
            in_tree,
            fringe,
        } = self;
        let start = out.len();
        // Fringe slots whose candidate edge comes from the root.
        let mut via_root = 0usize;
        let mut j = root;
        in_tree[j as usize] = true;
        loop {
            for &(k, c) in &adj[j as usize] {
                let k = k as usize;
                // In-tree slots are skipped from the root's relaxation on,
                // so a root self-loop never puts the root on the fringe.
                if in_tree[k] || (c, j) >= (best_cost[k], best_from[k]) {
                    continue;
                }
                if best_from[k] == NO_EDGE {
                    fringe.push(k as u32);
                } else if best_from[k] == root {
                    via_root -= 1;
                }
                if j == root {
                    via_root += 1;
                }
                best_cost[k] = c;
                best_from[k] = j;
            }
            if via_root == 0 {
                break;
            }
            let (mut at, mut least) = (0, u64::MAX);
            for (f, &s) in fringe.iter().enumerate() {
                let s = s as usize;
                let key = (u64::from(best_cost[s]) << 32) | u64::from(members[s].raw());
                if key < least {
                    (at, least) = (f, key);
                }
            }
            j = fringe.swap_remove(at);
            in_tree[j as usize] = true;
            if best_from[j as usize] == root {
                via_root -= 1;
                out.push(members[j as usize]);
            }
        }
        out[start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn edge(a: u32, b: u32, cost: Delay) -> ClosureEdge {
        ClosureEdge {
            a: p(a),
            b: p(b),
            cost,
        }
    }

    #[test]
    fn prim_picks_minimum_tree() {
        // Square with one expensive diagonal.
        let members = vec![p(0), p(1), p(2), p(3)];
        let edges = vec![
            edge(0, 1, 1),
            edge(1, 2, 2),
            edge(2, 3, 1),
            edge(0, 3, 5),
            edge(0, 2, 10),
        ];
        let t = prim(p(0), &members, &edges);
        assert_eq!(t.len(), 3);
        assert_eq!(t.weight(), 4);
        assert!(t.contains_edge(p(0), p(1)));
        assert!(!t.contains_edge(p(0), p(2)));
        assert_eq!(t.tree_neighbors(p(0)), vec![p(1)]);
    }

    #[test]
    fn prim_matches_kruskal_weight() {
        let members: Vec<PeerId> = (0..6).map(p).collect();
        let edges = vec![
            edge(0, 1, 7),
            edge(0, 2, 9),
            edge(0, 5, 14),
            edge(1, 2, 10),
            edge(1, 3, 15),
            edge(2, 3, 11),
            edge(2, 5, 2),
            edge(3, 4, 6),
            edge(4, 5, 9),
        ];
        let t1 = prim(p(0), &members, &edges);
        let t2 = kruskal(&members, &edges);
        assert_eq!(t1.weight(), t2.weight());
        assert_eq!(t1.weight(), 33); // classic example
    }

    #[test]
    fn prim_spans_only_reachable_component() {
        let members = vec![p(0), p(1), p(2), p(3)];
        let edges = vec![edge(0, 1, 1), edge(2, 3, 1)];
        let t = prim(p(0), &members, &edges);
        assert_eq!(t.len(), 1);
        assert!(t.contains_edge(p(0), p(1)));
    }

    #[test]
    fn parallel_edges_keep_cheapest() {
        let members = vec![p(0), p(1)];
        let edges = vec![edge(0, 1, 9), edge(0, 1, 3)];
        let t = prim(p(0), &members, &edges);
        assert_eq!(t.weight(), 3);
    }

    #[test]
    fn singleton_tree_is_empty() {
        let t = prim(p(0), &[p(0)], &[]);
        assert!(t.is_empty());
        assert_eq!(t.tree_neighbors(p(0)), vec![]);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost spanning options: must deterministically pick lower ids.
        let members = vec![p(0), p(1), p(2)];
        let edges = vec![edge(0, 1, 5), edge(0, 2, 5), edge(1, 2, 5)];
        let a = prim(p(0), &members, &edges);
        let b = prim(p(0), &members, &edges);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.tree_neighbors(p(0)), vec![p(1), p(2)]);
    }

    #[test]
    #[should_panic(expected = "root must be a closure member")]
    fn prim_rejects_foreign_root() {
        prim(p(9), &[p(0)], &[]);
    }

    #[test]
    fn heap_prim_matches_dense_prim_weight() {
        let members: Vec<PeerId> = (0..6).map(p).collect();
        let edges = vec![
            edge(0, 1, 7),
            edge(0, 2, 9),
            edge(0, 5, 14),
            edge(1, 2, 10),
            edge(1, 3, 15),
            edge(2, 3, 11),
            edge(2, 5, 2),
            edge(3, 4, 6),
            edge(4, 5, 9),
        ];
        let dense = prim(p(0), &members, &edges);
        let heap = prim_heap(p(0), &members, &edges);
        assert_eq!(dense.weight(), heap.weight());
        assert_eq!(dense.len(), heap.len());
    }

    /// The drivers run only the slot-space Prim; `prim_heap` is its
    /// reference. Sizes reach h = 3 closures. Narrow costs (1–4) force
    /// ties, wide ones use the whole `Delay` range, and shuffled ids make
    /// the `(cost, raw id, slot, from)` key orders disagree. Every case
    /// also gets a root self-loop, a self-loop elsewhere and a parallel
    /// root edge whose cheaper copy comes second; half the cases split
    /// the slots into parts no edge joins, and the root is any slot.
    #[test]
    fn slot_prim_root_neighbors_match_heap_prim() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = PrimScratch::default();
        let mut out = Vec::new();
        for case in 0..600 {
            let n = rng.gen_range(1..=120u32);
            let mut members: Vec<PeerId> = (0..n).map(|i| p(i * 3 + 1)).collect();
            for i in (1..members.len()).rev() {
                members.swap(i, rng.gen_range(0..=i));
            }
            let max_cost = if case % 2 == 0 { 4 } else { Delay::MAX };
            // Slots in different parts share no edge.
            let parts = if case % 4 < 2 {
                1
            } else {
                rng.gen_range(2..=4u32)
            };
            let part = |s: u32| s % parts;
            let root = rng.gen_range(0..n);
            let mut slot_edges = Vec::new();
            for _ in 0..rng.gen_range(0..=4 * n) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if part(a) == part(b) {
                    let cost = rng.gen_range(1..=max_cost);
                    slot_edges.push(SlotEdge { a, b, cost });
                }
            }
            let (other, cost) = (rng.gen_range(0..n), rng.gen_range(1..=max_cost));
            let mut extra = vec![(root, root, cost), (other, other, cost)];
            if part(other) == part(root) && other != root {
                extra.extend([(root, other, cost), (other, root, rng.gen_range(1..=cost))]);
            }
            slot_edges.extend(
                extra
                    .into_iter()
                    .map(|(a, b, cost)| SlotEdge { a, b, cost }),
            );
            let edges: Vec<ClosureEdge> = slot_edges
                .iter()
                .map(|e| ClosureEdge {
                    a: members[e.a as usize],
                    b: members[e.b as usize],
                    cost: e.cost,
                })
                .collect();
            out.clear();
            scratch.root_tree_neighbors(&members, &slot_edges, root, &mut out);
            let root = members[root as usize];
            let heap = prim_heap(root, &members, &edges);
            assert_eq!(
                out,
                heap.tree_neighbors(root),
                "case {case}: {members:?} {slot_edges:?}"
            );
        }
    }

    #[test]
    fn heap_prim_spans_only_reachable_component() {
        let members = vec![p(0), p(1), p(2), p(3)];
        let edges = vec![edge(0, 1, 1), edge(2, 3, 1)];
        let t = prim_heap(p(0), &members, &edges);
        assert_eq!(t.len(), 1);
        assert!(t.contains_edge(p(0), p(1)));
    }
}
