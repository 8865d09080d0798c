//! Undirected weighted graph used to model the physical (underlying) network.
//!
//! Node identifiers are compact `u32` indices wrapped in [`NodeId`] and edge
//! weights are integer delay units (see [`crate::Delay`]). Storage is a flat
//! **CSR arena** (compressed sparse row: one `u32` offset per node into a
//! packed `(NodeId, Delay)` edge array), which is what lets million-node
//! topologies fit in memory — the previous `Vec<Vec<(NodeId, Delay)>>`
//! layout paid a heap allocation and ~56 bytes of bookkeeping per node.
//!
//! The graph is two-phase:
//!
//! * **Building** — [`Graph::add_edge`] appends to a staged flat edge list
//!   and an `O(1)` dedup index; no adjacency exists yet.
//! * **Sealed** — the first adjacency read ([`Graph::neighbors`],
//!   [`Graph::edges`], traversals) folds the staged list into the CSR arena
//!   with one counting sort and *drops* the build state, so the edge list
//!   is never held in two forms at once. Sealing is automatic, idempotent
//!   and thread-safe; mutating a sealed graph transparently re-enters the
//!   building phase (an `O(E)` un-seal, intended for tests and small
//!   fix-ups, not hot loops).
//!
//! Per-node neighbor order is the edge insertion order in both phases, so
//! iteration-order-sensitive consumers (Dijkstra tie-breaks, MSTs) see
//! exactly what the old nested-`Vec` layout produced.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// Identifier of a node in a physical-network [`Graph`].
///
/// `NodeId`s are dense indices in `0..graph.node_count()`.
///
/// # Examples
///
/// ```
/// use ace_topology::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw index as `usize` (for indexing into per-node arrays).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Integer link delay / cost, in tenths of a millisecond.
///
/// All traffic-cost accounting in the reproduction is expressed in these
/// units so that query traffic and optimization overhead are directly
/// comparable, as in the paper's gain/penalty ratio.
pub type Delay = u32;

/// A single undirected edge with its weight.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct Edge {
    /// One endpoint (always the smaller id after normalization).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Link delay in tenths of a millisecond.
    pub weight: Delay,
}

/// Build-phase storage: the staged edge list (insertion order, endpoints
/// normalized `a < b`) plus an `O(1)` duplicate/weight index. Dropped
/// wholesale when the graph seals.
struct BuildState {
    staged: Vec<(u32, u32, Delay)>,
    index: HashMap<u64, Delay>,
}

impl BuildState {
    fn empty() -> Self {
        BuildState {
            staged: Vec::new(),
            index: HashMap::new(),
        }
    }
}

/// Normalized key of an undirected edge for the build-phase index.
fn edge_key(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a.raw() <= b.raw() {
        (a.raw(), b.raw())
    } else {
        (b.raw(), a.raw())
    };
    (u64::from(lo) << 32) | u64::from(hi)
}

/// The sealed CSR arena: `offsets` has `node_count + 1` entries; node `n`'s
/// neighbors live in `edges[offsets[n]..offsets[n + 1]]`, in edge insertion
/// order. Each undirected edge is stored once per direction.
#[derive(Clone)]
struct Csr {
    offsets: Vec<u32>,
    edges: Vec<(NodeId, Delay)>,
}

impl Csr {
    /// Counting-sort the staged list into the arena. Consumes `staged`, so
    /// after this the edge list exists only in CSR form.
    fn build(degrees: &[u32], staged: Vec<(u32, u32, Delay)>) -> Csr {
        let mut offsets = Vec::with_capacity(degrees.len() + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..degrees.len()].to_vec();
        let mut edges = vec![(NodeId::new(0), 0 as Delay); acc as usize];
        for (a, b, w) in staged {
            edges[cursor[a as usize] as usize] = (NodeId::new(b), w);
            cursor[a as usize] += 1;
            edges[cursor[b as usize] as usize] = (NodeId::new(a), w);
            cursor[b as usize] += 1;
        }
        Csr { offsets, edges }
    }

    fn neighbors(&self, n: usize) -> &[(NodeId, Delay)] {
        let lo = self.offsets[n] as usize;
        let hi = self.offsets[n + 1] as usize;
        &self.edges[lo..hi]
    }
}

/// An undirected, weighted physical-network graph backed by a flat CSR
/// arena (the comment at the top of `graph.rs` describes the two-phase
/// storage model).
///
/// Parallel edges and self-loops are rejected at construction time; edge
/// weights must be strictly positive so that shortest-path distances form a
/// metric on connected graphs.
///
/// # Examples
///
/// ```
/// use ace_topology::{Graph, NodeId};
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 5).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2), 7).unwrap();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.is_connected());
/// ```
pub struct Graph {
    /// Per-node degree, maintained in both phases (CSR offsets are its
    /// prefix sum).
    degrees: Vec<u32>,
    edge_count: usize,
    /// `Some` while building, taken (and dropped) at seal time.
    build: Mutex<Option<BuildState>>,
    /// Set once sealed; emptied again by un-sealing mutations.
    csr: OnceLock<Csr>,
}

/// Error produced when inserting an invalid edge into a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeError {
    /// An endpoint index is out of `0..node_count`.
    NodeOutOfRange(NodeId),
    /// Both endpoints are the same node.
    SelfLoop(NodeId),
    /// The edge already exists.
    Duplicate(NodeId, NodeId),
    /// The weight is zero (weights must be strictly positive).
    ZeroWeight,
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeError::NodeOutOfRange(n) => write!(f, "node {n} out of range"),
            EdgeError::SelfLoop(n) => write!(f, "self loop at {n}"),
            EdgeError::Duplicate(a, b) => write!(f, "duplicate edge {a}-{b}"),
            EdgeError::ZeroWeight => write!(f, "edge weight must be positive"),
        }
    }
}

impl std::error::Error for EdgeError {}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            degrees: vec![0; n],
            edge_count: 0,
            build: Mutex::new(Some(BuildState::empty())),
            csr: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.degrees.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.degrees.len() as u32).map(NodeId::new)
    }

    /// True once the staged edges have been folded into the CSR arena (no
    /// build state remains). Purely informational — sealing is automatic.
    pub fn is_sealed(&self) -> bool {
        self.csr.get().is_some()
    }

    /// The CSR arena, folding the staged edge list on first use. This is
    /// the seal point: the build state is consumed here.
    fn arena(&self) -> &Csr {
        self.csr.get_or_init(|| {
            let state = self
                .build
                .lock()
                .expect("graph build lock poisoned")
                .take()
                .expect("graph has neither build state nor arena");
            Csr::build(&self.degrees, state.staged)
        })
    }

    /// Re-enters the building phase (no-op when already building): the
    /// arena is expanded back into a staged edge list + index. `O(E)`.
    fn unseal(&mut self) {
        let Some(csr) = self.csr.take() else { return };
        let mut state = BuildState {
            staged: Vec::with_capacity(self.edge_count),
            index: HashMap::with_capacity(self.edge_count * 2),
        };
        for a in 0..self.degrees.len() {
            for &(b, w) in csr.neighbors(a) {
                if (a as u32) < b.raw() {
                    state.staged.push((a as u32, b.raw(), w));
                    state.index.insert(edge_key(NodeId::new(a as u32), b), w);
                }
            }
        }
        *self.build.get_mut().expect("graph build lock poisoned") = Some(state);
    }

    /// Appends one isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.degrees.push(0);
        // A degree-0 node extends a sealed arena without un-sealing.
        if let Some(mut csr) = self.csr.take() {
            let end = *csr.offsets.last().expect("offsets never empty");
            csr.offsets.push(end);
            let _ = self.csr.set(csr);
        }
        NodeId::new((self.degrees.len() - 1) as u32)
    }

    /// Adds the undirected edge `a-b` with the given positive `weight`.
    ///
    /// # Errors
    ///
    /// Returns an [`EdgeError`] if an endpoint is out of range, `a == b`,
    /// the edge already exists, or `weight == 0`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: Delay) -> Result<(), EdgeError> {
        if a.index() >= self.degrees.len() {
            return Err(EdgeError::NodeOutOfRange(a));
        }
        if b.index() >= self.degrees.len() {
            return Err(EdgeError::NodeOutOfRange(b));
        }
        if a == b {
            return Err(EdgeError::SelfLoop(a));
        }
        if weight == 0 {
            return Err(EdgeError::ZeroWeight);
        }
        self.unseal();
        let state = self
            .build
            .get_mut()
            .expect("graph build lock poisoned")
            .as_mut()
            .expect("unsealed graph has build state");
        if state.index.contains_key(&edge_key(a, b)) {
            return Err(EdgeError::Duplicate(a, b));
        }
        state.index.insert(edge_key(a, b), weight);
        let (lo, hi) = if a.raw() <= b.raw() {
            (a.raw(), b.raw())
        } else {
            (b.raw(), a.raw())
        };
        state.staged.push((lo, hi, weight));
        self.degrees[a.index()] += 1;
        self.degrees[b.index()] += 1;
        self.edge_count += 1;
        Ok(())
    }

    /// Returns true if the undirected edge `a-b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.degrees.len() || b.index() >= self.degrees.len() {
            return false;
        }
        if self.csr.get().is_none() {
            // Build phase: O(1) through the dedup index, without sealing.
            if let Some(state) = self
                .build
                .lock()
                .expect("graph build lock poisoned")
                .as_ref()
            {
                return state.index.contains_key(&edge_key(a, b));
            }
        }
        // Scan the smaller adjacency list.
        let (probe, target) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.arena()
            .neighbors(probe.index())
            .iter()
            .any(|&(n, _)| n == target)
    }

    /// Returns the weight of edge `a-b`, if present.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<Delay> {
        if a.index() >= self.degrees.len() || b.index() >= self.degrees.len() {
            return None;
        }
        if self.csr.get().is_none() {
            if let Some(state) = self
                .build
                .lock()
                .expect("graph build lock poisoned")
                .as_ref()
            {
                return state.index.get(&edge_key(a, b)).copied();
            }
        }
        self.arena()
            .neighbors(a.index())
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, w)| w)
    }

    /// Neighbors of `n` with the connecting edge weights, as a contiguous
    /// slice of the CSR arena (seals the graph on first use).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, Delay)] {
        self.arena().neighbors(n.index())
    }

    /// Degree of `n` (0 for out-of-range ids).
    pub fn degree(&self, n: NodeId) -> usize {
        self.degrees.get(n.index()).map_or(0, |&d| d as usize)
    }

    /// Iterates over every undirected edge exactly once (with `a < b`).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let csr = self.arena();
        (0..self.degrees.len()).flat_map(move |i| {
            let a = NodeId::new(i as u32);
            csr.neighbors(i)
                .iter()
                .filter(move |&&(b, _)| a < b)
                .map(move |&(b, weight)| Edge { a, b, weight })
        })
    }

    /// Returns true if every node is reachable from node 0 (empty and
    /// single-node graphs count as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        self.component_of(NodeId::new(0)).len() == n
    }

    /// Returns the set of nodes reachable from `start` (including `start`).
    pub fn component_of(&self, start: NodeId) -> Vec<NodeId> {
        let csr = self.arena();
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        let mut out = Vec::new();
        seen[start.index()] = true;
        while let Some(u) = stack.pop() {
            out.push(u);
            for &(v, _) in csr.neighbors(u.index()) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        out
    }

    /// Splits the graph into connected components (each a sorted node list).
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let mut seen = vec![false; self.node_count()];
        let mut comps = Vec::new();
        for s in self.nodes() {
            if seen[s.index()] {
                continue;
            }
            let mut comp = self.component_of(s);
            for n in &comp {
                seen[n.index()] = true;
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// Connects all components into one by adding an edge of weight
    /// `bridge_weight` between a representative of each component and a
    /// representative of the largest component. Returns how many edges were
    /// added. Used by generators to guarantee connectivity.
    pub fn connect_components(&mut self, bridge_weight: Delay) -> usize {
        let mut comps = self.components();
        if comps.len() <= 1 {
            return 0;
        }
        comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let anchor = comps[0][0];
        let mut added = 0;
        for comp in &comps[1..] {
            // `comp` is disjoint from the anchor component, so this cannot fail.
            self.add_edge(anchor, comp[0], bridge_weight)
                .expect("bridging edge between distinct components");
            added += 1;
        }
        added
    }
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        let csr = OnceLock::new();
        let build = if let Some(arena) = self.csr.get() {
            let _ = csr.set(arena.clone());
            Mutex::new(None)
        } else {
            let state = self.build.lock().expect("graph build lock poisoned");
            let state = state.as_ref().expect("unsealed graph has build state");
            Mutex::new(Some(BuildState {
                staged: state.staged.clone(),
                index: state.index.clone(),
            }))
        };
        Graph {
            degrees: self.degrees.clone(),
            edge_count: self.edge_count,
            build,
            csr,
        }
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count)
            .field("sealed", &self.is_sealed())
            .finish()
    }
}

impl Serialize for Graph {
    fn to_value(&self) -> serde::Value {
        let edges: Vec<serde::Value> = self
            .edges()
            .map(|e| {
                serde::Value::Array(vec![
                    serde::Value::UInt(u64::from(e.a.raw())),
                    serde::Value::UInt(u64::from(e.b.raw())),
                    serde::Value::UInt(u64::from(e.weight)),
                ])
            })
            .collect();
        serde::Value::Object(vec![
            (
                "nodes".to_string(),
                serde::Value::UInt(self.node_count() as u64),
            ),
            ("edges".to_string(), serde::Value::Array(edges)),
        ])
    }
}

impl Deserialize for Graph {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::DeError::new("Graph: expected object"))?;
        let field = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| serde::DeError::new(format!("Graph: missing field {name}")))
        };
        // A count `NodeId` cannot address is refused before anything is
        // allocated for it.
        let nodes = u32::from_value(field("nodes")?)
            .map_err(|e| serde::DeError::new(format!("Graph: nodes: {e}")))?;
        let mut g = Graph::new(nodes as usize);
        let edges = field("edges")?
            .as_array()
            .ok_or_else(|| serde::DeError::new("Graph: edges must be an array"))?;
        for e in edges {
            let parts = e
                .as_array()
                .ok_or_else(|| serde::DeError::new("Graph: edge must be [a, b, w]"))?;
            if parts.len() != 3 {
                return Err(serde::DeError::new("Graph: edge must be [a, b, w]"));
            }
            let a = u32::from_value(&parts[0])?;
            let b = u32::from_value(&parts[1])?;
            let w = Delay::from_value(&parts[2])?;
            g.add_edge(NodeId::new(a), NodeId::new(b), w)
                .map_err(|err| serde::DeError::new(format!("Graph: bad edge: {err}")))?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> Graph {
        let mut g = Graph::new(n as usize);
        for i in 1..n {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i), i).unwrap();
        }
        g
    }

    #[test]
    fn new_graph_is_empty() {
        let g = Graph::new(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn add_edge_rejects_invalid() {
        let mut g = Graph::new(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(g.add_edge(a, a, 1), Err(EdgeError::SelfLoop(a)));
        assert_eq!(g.add_edge(a, b, 0), Err(EdgeError::ZeroWeight));
        assert_eq!(
            g.add_edge(a, NodeId::new(9), 1),
            Err(EdgeError::NodeOutOfRange(NodeId::new(9)))
        );
        g.add_edge(a, b, 3).unwrap();
        assert_eq!(g.add_edge(b, a, 4), Err(EdgeError::Duplicate(b, a)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edge_weight_is_symmetric() {
        let g = path_graph(3);
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(1)), Some(1));
        assert_eq!(g.edge_weight(NodeId::new(1), NodeId::new(0)), Some(1));
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(2)), None);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path_graph(5);
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|e| e.a < e.b));
        assert_eq!(edges.iter().map(|e| e.weight).sum::<Delay>(), 1 + 2 + 3 + 4);
    }

    #[test]
    fn components_and_bridging() {
        let mut g = Graph::new(6);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3), 1).unwrap();
        // node 4, 5 isolated
        let comps = g.components();
        assert_eq!(comps.len(), 4);
        assert!(!g.is_connected());
        let added = g.connect_components(9);
        assert_eq!(added, 3);
        assert!(g.is_connected());
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn degree_counts_incident_edges() {
        let mut g = Graph::new(4);
        let c = NodeId::new(0);
        for i in 1..4 {
            g.add_edge(c, NodeId::new(i), 2).unwrap();
        }
        assert_eq!(g.degree(c), 3);
        assert_eq!(g.degree(NodeId::new(1)), 1);
        assert_eq!(g.degree(NodeId::new(99)), 0);
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = path_graph(2);
        let n = g.add_node();
        assert_eq!(n, NodeId::new(2));
        assert_eq!(g.node_count(), 3);
        g.add_edge(NodeId::new(1), n, 7).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn component_of_reports_reachable_set() {
        let mut g = Graph::new(5);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 1).unwrap();
        let mut comp = g.component_of(NodeId::new(0));
        comp.sort_unstable();
        assert_eq!(comp, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn seal_is_lazy_and_mutation_unseals() {
        let mut g = path_graph(4);
        assert!(!g.is_sealed(), "building until first adjacency read");
        assert_eq!(g.neighbors(NodeId::new(1)).len(), 2);
        assert!(g.is_sealed(), "adjacency read seals");
        // Mutation after sealing re-enters the build phase and the next
        // read re-seals with the new edge present.
        g.add_edge(NodeId::new(0), NodeId::new(3), 9).unwrap();
        assert!(!g.is_sealed());
        assert_eq!(g.neighbors(NodeId::new(0)).len(), 2);
        assert_eq!(g.edge_weight(NodeId::new(0), NodeId::new(3)), Some(9));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn neighbor_order_matches_insertion_order() {
        let mut g = Graph::new(5);
        // Edges incident to node 2, inserted in a specific order.
        g.add_edge(NodeId::new(2), NodeId::new(4), 1).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2), 2).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(1), 3).unwrap();
        let order: Vec<u32> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|&(n, _)| n.raw())
            .collect();
        assert_eq!(order, vec![4, 0, 1]);
    }

    #[test]
    fn add_node_on_sealed_graph_keeps_arena() {
        let mut g = path_graph(3);
        let _ = g.neighbors(NodeId::new(0));
        assert!(g.is_sealed());
        let n = g.add_node();
        assert!(g.is_sealed(), "degree-0 append must not unseal");
        assert_eq!(g.neighbors(n).len(), 0);
        assert_eq!(g.neighbors(NodeId::new(1)).len(), 2);
    }

    #[test]
    fn clone_preserves_both_phases() {
        let g = path_graph(4);
        let unsealed = g.clone();
        assert_eq!(unsealed.edge_count(), 3);
        assert_eq!(
            unsealed.edge_weight(NodeId::new(0), NodeId::new(1)),
            Some(1)
        );
        let _ = g.neighbors(NodeId::new(0));
        let sealed = g.clone();
        assert!(sealed.is_sealed());
        assert_eq!(sealed.neighbors(NodeId::new(1)).len(), 2);
    }

    #[test]
    fn serde_round_trip() {
        use serde::{Deserialize as _, Serialize as _};
        let g = path_graph(5);
        let v = g.to_value();
        let back = Graph::from_value(&v).unwrap();
        assert_eq!(back.node_count(), 5);
        assert_eq!(back.edge_count(), 4);
        let mut want: Vec<Edge> = g.edges().collect();
        let mut got: Vec<Edge> = back.edges().collect();
        want.sort_by_key(|e| (e.a, e.b));
        got.sort_by_key(|e| (e.a, e.b));
        assert_eq!(want, got);
    }

    #[test]
    fn from_value_rejects_a_node_count_no_node_id_addresses() {
        use serde::Deserialize as _;
        for nodes in [u64::MAX, (1 << 32) + 1] {
            let v = serde::Value::Object(vec![
                ("nodes".to_string(), serde::Value::UInt(nodes)),
                ("edges".to_string(), serde::Value::Array(Vec::new())),
            ]);
            let err = Graph::from_value(&v).expect_err("an unaddressable count is refused");
            assert!(err.to_string().contains("Graph: nodes"), "{err}");
        }
    }
}
