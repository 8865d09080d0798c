//! Distance oracles over the physical graph.
//!
//! [`DistanceOracle`] memoizes full Dijkstra distance vectors per source so
//! that repeated overlay-link cost queries (the hot path of every
//! experiment) are `O(1)` after the first hit. [`LandmarkOracle`] implements
//! the landmark/"global soft state" estimation scheme the paper contrasts
//! ACE against, used by the landmark ablation experiment.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::graph::{Delay, Graph, NodeId};
use crate::plane::{DistancePlane, PlaneStats};
use crate::sssp;

/// Row-cache counters of a [`DistanceOracle`] (see
/// [`DistanceOracle::cache_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls answered without running Dijkstra (including calls that
    /// waited on a concurrent in-flight computation of the same source).
    pub hits: u64,
    /// Calls that ran Dijkstra themselves.
    pub misses: u64,
    /// Cached rows dropped by FIFO eviction.
    pub evictions: u64,
}

/// A caching exact distance oracle.
///
/// Thread-safe and contention-free on the hot path: the row cache is
/// sharded by source id, each shard behind its own `RwLock`, so concurrent
/// hits (the overwhelmingly common case once a run warms up) take only
/// shared read locks on disjoint shards. Concurrent misses on the *same*
/// source are deduplicated through a per-source [`OnceLock`]: exactly one
/// thread runs Dijkstra while the others block on that source alone, so
/// the total miss count never exceeds the number of distinct sources
/// queried.
///
/// # Examples
///
/// ```
/// use ace_topology::{Graph, NodeId, DistanceOracle};
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 2).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2), 3).unwrap();
/// let oracle = DistanceOracle::new(g);
/// assert_eq!(oracle.distance(NodeId::new(0), NodeId::new(2)), 5);
/// assert_eq!(oracle.cached_sources(), 1);
/// ```
#[derive(Debug)]
pub struct DistanceOracle {
    graph: Arc<Graph>,
    shards: Vec<RwLock<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Hasher of the row map's `u32` source ids: one multiply by the 64-bit
/// golden ratio, folded so the bucket bits see every key bit (all keys
/// of one shard share their low bits). Keys are node ids, not
/// adversarial input, so SipHash's flooding resistance buys nothing.
#[derive(Default)]
struct SourceHasher(u64);

impl Hasher for SourceHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, key: u32) {
        let h = (self.0 ^ u64::from(key)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A cached row: claimed when its miss starts, filled when Dijkstra ends.
type RowCell = Arc<OnceLock<Arc<Vec<Delay>>>>;

/// One cache shard. A row is present in `rows` from the moment some
/// thread claims the miss; the `OnceLock` fills in once its Dijkstra
/// finishes, and late arrivals block there instead of recomputing.
#[derive(Debug)]
struct Shard {
    rows: HashMap<u32, RowCell, BuildHasherDefault<SourceHasher>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u32>,
    /// This shard's slice of the global row budget (FIFO-evicts beyond it).
    capacity: usize,
}

impl DistanceOracle {
    /// Default maximum number of cached source rows.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// Upper bound on the number of lock shards.
    const MAX_SHARDS: usize = 16;

    /// Wraps `graph` with an unbounded-ish cache (capacity
    /// [`Self::DEFAULT_CAPACITY`] rows).
    pub fn new(graph: Graph) -> Self {
        Self::with_capacity(graph, Self::DEFAULT_CAPACITY)
    }

    /// Wraps `graph` with a cache of **exactly** `capacity` source rows
    /// (`capacity >= 1`), split across shards.
    ///
    /// The first `capacity % shard_count` shards take one extra row, so
    /// the per-shard budgets always sum to `capacity`. (An earlier version
    /// rounded every shard down to `max(capacity / shards, 1)`, which
    /// silently capped e.g. a 20-row budget at 16 rows — one per shard.)
    /// Because eviction is FIFO *within each shard*, a source distribution
    /// skewed onto one shard can still evict earlier than a single global
    /// FIFO would; only the total budget is exact.
    pub fn with_capacity(graph: Graph, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shard_count = capacity.min(Self::MAX_SHARDS);
        let base = capacity / shard_count;
        let extra = capacity % shard_count;
        DistanceOracle {
            graph: Arc::new(graph),
            shards: (0..shard_count)
                .map(|i| {
                    RwLock::new(Shard {
                        rows: HashMap::default(),
                        order: VecDeque::new(),
                        capacity: base + usize::from(i < extra),
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The underlying physical graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Shortest-path delay between `a` and `b` ([`sssp::UNREACHABLE`] when
    /// disconnected).
    ///
    /// A hit on a filled row is answered inside the shard's read lock by
    /// indexing the row, with no `Arc` clone; anything else (a cold or
    /// in-flight row) goes through [`Self::distances_from`]. Either way
    /// the call counts exactly one hit or one miss.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Delay {
        if a == b {
            return 0;
        }
        {
            let guard = self.shard(a).read().expect("oracle shard poisoned");
            if let Some(row) = guard.rows.get(&a.raw()).and_then(|cell| cell.get()) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return row[b.index()];
            }
        }
        self.distances_from(a)[b.index()]
    }

    /// The shard caching `src`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    fn shard(&self, src: NodeId) -> &RwLock<Shard> {
        assert!(
            src.index() < self.graph.node_count(),
            "source {src:?} out of range"
        );
        &self.shards[src.index() % self.shards.len()]
    }

    /// Full distance row from `src`, computing and caching it on first use.
    pub fn distances_from(&self, src: NodeId) -> Arc<Vec<Delay>> {
        let shard = self.shard(src);

        // Fast path: shared lock, row already claimed (and usually filled).
        let existing = {
            let guard = shard.read().expect("oracle shard poisoned");
            guard.rows.get(&src.raw()).cloned()
        };
        if let Some(cell) = existing {
            return self.wait_for_row(&cell);
        }

        // Miss path: claim the source under the write lock, then compute
        // outside it so other sources stay unblocked.
        let (cell, claimed) = {
            let mut guard = shard.write().expect("oracle shard poisoned");
            match guard.rows.get(&src.raw()) {
                // Another thread claimed it between our two lock scopes.
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    while guard.order.len() >= guard.capacity {
                        if let Some(old) = guard.order.pop_front() {
                            guard.rows.remove(&old);
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let cell = Arc::new(OnceLock::new());
                    guard.rows.insert(src.raw(), Arc::clone(&cell));
                    guard.order.push_back(src.raw());
                    (cell, true)
                }
            }
        };
        if claimed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let row = Arc::new(sssp::dijkstra(&self.graph, src));
            cell.set(Arc::clone(&row)).expect("row initialized twice");
            row
        } else {
            self.wait_for_row(&cell)
        }
    }

    /// Returns the row inside `cell`, blocking until the claiming thread
    /// has filled it. Counts as a cache hit: no Dijkstra ran on this call.
    fn wait_for_row(&self, cell: &OnceLock<Arc<Vec<Delay>>>) -> Arc<Vec<Delay>> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        // In-flight on another thread: OnceLock::wait is unstable, so spin
        // out the claimant's short compute window.
        loop {
            if let Some(row) = cell.get() {
                return Arc::clone(row);
            }
            std::thread::yield_now();
        }
    }

    /// Number of source rows currently cached (including rows whose first
    /// computation is still in flight).
    pub fn cached_sources(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("oracle shard poisoned").order.len())
            .sum()
    }

    /// Hit/miss/eviction counters since construction. A "hit" is any call
    /// that did not run Dijkstra itself, including calls that waited on a
    /// concurrent in-flight computation of the same source.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Total row budget across all shards.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("oracle shard poisoned").capacity)
            .sum()
    }
}

impl DistancePlane for DistanceOracle {
    fn graph(&self) -> &Graph {
        DistanceOracle::graph(self)
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Delay {
        DistanceOracle::distance(self, a, b)
    }

    fn plane_stats(&self) -> PlaneStats {
        let cache = self.cache_stats();
        PlaneStats {
            exact_full: cache.hits + cache.misses,
            cache,
            ..PlaneStats::default()
        }
    }
}

/// Landmark-based distance *estimator* (triangulation upper bound).
///
/// Each node stores its distance vector to `k` landmark nodes; the distance
/// between `a` and `b` is estimated as `min_l d(a,l) + d(l,b)`. This is the
/// style of scheme used by the "global soft-state"/landmark related work
/// (\[21\] in the paper), whose inaccuracy motivates ACE's direct probing.
///
/// # Examples
///
/// ```
/// use ace_topology::{Graph, NodeId, LandmarkOracle};
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 2).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2), 3).unwrap();
/// let lm = LandmarkOracle::new(&g, vec![NodeId::new(1)]);
/// // Estimate through the landmark: d(0,1)+d(1,2) = 5 (here exact).
/// assert_eq!(lm.estimate(NodeId::new(0), NodeId::new(2)), 5);
/// ```
#[derive(Debug, Clone)]
pub struct LandmarkOracle {
    landmarks: Vec<NodeId>,
    /// `dist[l][v]` = distance from landmark `l` to node `v`.
    dist: Vec<Vec<Delay>>,
}

impl LandmarkOracle {
    /// Builds the oracle by running one Dijkstra per landmark.
    ///
    /// # Panics
    ///
    /// Panics if `landmarks` is empty or contains an out-of-range node.
    pub fn new(graph: &Graph, landmarks: Vec<NodeId>) -> Self {
        assert!(!landmarks.is_empty(), "need at least one landmark");
        let dist = landmarks
            .iter()
            .map(|&l| sssp::dijkstra(graph, l))
            .collect();
        LandmarkOracle { landmarks, dist }
    }

    /// The landmark set.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Triangulation estimate `min_l d(a,l)+d(l,b)`; an upper bound on the
    /// true distance, saturating on unreachable pairs.
    pub fn estimate(&self, a: NodeId, b: NodeId) -> Delay {
        if a == b {
            return 0;
        }
        self.dist
            .iter()
            .map(|row| row[a.index()].saturating_add(row[b.index()]))
            .min()
            .unwrap_or(sssp::UNREACHABLE)
    }

    /// The landmark coordinate vector of node `v` (its distances to every
    /// landmark), as used by landmark-clustering neighbor selection.
    pub fn coordinates(&self, v: NodeId) -> Vec<Delay> {
        self.dist.iter().map(|row| row[v.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u32, w: Delay) -> Graph {
        let mut g = Graph::new(n as usize);
        for i in 1..n {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i), w).unwrap();
        }
        g
    }

    #[test]
    fn oracle_matches_dijkstra() {
        let g = line(10, 3);
        let want = sssp::dijkstra(&g, NodeId::new(2));
        let oracle = DistanceOracle::new(g);
        for i in 0..10 {
            assert_eq!(
                oracle.distance(NodeId::new(2), NodeId::new(i)),
                want[i as usize]
            );
        }
    }

    #[test]
    fn oracle_caches_rows() {
        let oracle = DistanceOracle::new(line(5, 1));
        oracle.distance(NodeId::new(0), NodeId::new(4));
        oracle.distance(NodeId::new(0), NodeId::new(3));
        let stats = oracle.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(oracle.cached_sources(), 1);
    }

    /// The shard split must neither exceed nor starve the requested
    /// budget: per-shard capacities always sum to exactly `capacity`.
    /// (Regression: even splitting rounded 17..=31 down to 16.)
    #[test]
    fn capacity_budget_is_exact() {
        for capacity in [1usize, 2, 7, 15, 16, 17, 20, 31, 33, 100] {
            let oracle = DistanceOracle::with_capacity(line(4, 1), capacity);
            assert_eq!(oracle.capacity(), capacity, "budget for {capacity}");
        }
    }

    /// A capacity between one and two multiples of the shard count keeps
    /// exactly `capacity` rows resident, not a rounded-down multiple.
    #[test]
    fn capacity_between_shard_multiples_is_honored() {
        let n = 40u32;
        let capacity = 20; // > 16 shards, not a multiple
        let oracle = DistanceOracle::with_capacity(line(n, 1), capacity);
        for s in 0..n {
            oracle.distances_from(NodeId::new(s));
        }
        let resident = oracle.cached_sources();
        assert!(
            resident <= capacity,
            "resident {resident} exceeds budget {capacity}"
        );
        // Sources spread uniformly across shards, so the whole budget
        // (not just 16 rows) must be in use after touching every source.
        assert_eq!(resident, capacity, "budget starved: {resident}");
        assert_eq!(
            oracle.cache_stats().evictions as usize,
            n as usize - capacity
        );
    }

    #[test]
    fn oracle_evicts_fifo() {
        let oracle = DistanceOracle::with_capacity(line(6, 1), 2);
        for i in 0..4 {
            oracle.distances_from(NodeId::new(i));
        }
        assert_eq!(oracle.cached_sources(), 2);
        // Still correct after eviction.
        assert_eq!(oracle.distance(NodeId::new(0), NodeId::new(5)), 5);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let oracle = DistanceOracle::new(line(3, 7));
        assert_eq!(oracle.distance(NodeId::new(1), NodeId::new(1)), 0);
    }

    /// Concurrency hammer: many threads query random sources through the
    /// sharded cache. Every returned row must match a serial Dijkstra, and
    /// in-flight dedup must keep the miss count at or below the number of
    /// distinct sources touched.
    #[test]
    fn oracle_survives_concurrent_hammering() {
        use std::collections::HashSet;

        let n = 48u32;
        let g = line(n, 2);
        let truth: Vec<Vec<Delay>> = (0..n).map(|s| sssp::dijkstra(&g, NodeId::new(s))).collect();
        let oracle = DistanceOracle::new(g);

        let threads = 8;
        let queries_per_thread = 200;
        let mut all_sources: Vec<Vec<u32>> = Vec::new();
        // Deterministic per-thread source schedules (xorshift), so the
        // distinct-source bound is known exactly.
        for t in 0..threads {
            let mut x = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1) | 1;
            let mut sources = Vec::with_capacity(queries_per_thread);
            for _ in 0..queries_per_thread {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                sources.push((x % u64::from(n)) as u32);
            }
            all_sources.push(sources);
        }
        let distinct: HashSet<u32> = all_sources.iter().flatten().copied().collect();

        let oracle = &oracle;
        let truth = &truth;
        std::thread::scope(|scope| {
            for sources in &all_sources {
                scope.spawn(move || {
                    for &s in sources {
                        let row = oracle.distances_from(NodeId::new(s));
                        assert_eq!(row.as_slice(), truth[s as usize].as_slice(), "row {s}");
                    }
                });
            }
        });

        let stats = oracle.cache_stats();
        assert!(
            stats.misses <= distinct.len() as u64,
            "misses {} > distinct sources {}",
            stats.misses,
            distinct.len()
        );
        assert_eq!(
            stats.hits + stats.misses,
            (threads * queries_per_thread) as u64
        );
    }

    /// FIFO eviction under concurrent same-source misses: in every phase,
    /// all threads hammer one source that the previous phase evicted. The
    /// per-source `OnceLock` guard must collapse each phase's concurrent
    /// misses into exactly one Dijkstra, so the miss count is exact even
    /// though the cache churns the whole time.
    #[test]
    fn concurrent_same_source_misses_dedup_under_eviction() {
        let n = 64u32;
        let capacity = 4usize;
        let oracle = DistanceOracle::with_capacity(line(n, 1), capacity);
        let threads = 8usize;
        let phases = 10u32;
        let barrier = std::sync::Barrier::new(threads);
        let (oracle, barrier) = (&oracle, &barrier);
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for phase in 0..phases {
                        barrier.wait();
                        // Distinct per phase, always evicted by the time
                        // the phase starts (see filler below).
                        let s = NodeId::new(phase);
                        let row = oracle.distances_from(s);
                        for i in 0..n {
                            let want = phase.abs_diff(i);
                            assert_eq!(row[i as usize], want, "d({s}, n{i})");
                        }
                        barrier.wait();
                        if t == 0 {
                            // One filler per shard: flushes every resident
                            // row, including this phase's hammered source.
                            for k in 0..capacity as u32 {
                                oracle
                                    .distances_from(NodeId::new(16 + phase * capacity as u32 + k));
                            }
                        }
                    }
                });
            }
        });
        let stats = oracle.cache_stats();
        let expected_misses = u64::from(phases) * (capacity as u64 + 1);
        assert_eq!(
            stats.misses, expected_misses,
            "concurrent same-source misses must dedup to one Dijkstra per phase"
        );
        assert_eq!(
            stats.evictions,
            expected_misses - oracle.cached_sources() as u64,
            "every insert beyond the resident set must be an eviction"
        );
        assert!(oracle.cached_sources() <= capacity);
    }

    #[test]
    fn landmark_estimate_upper_bounds_truth() {
        let g = line(8, 2);
        let truth = DistanceOracle::new(g.clone());
        let lm = LandmarkOracle::new(&g, vec![NodeId::new(0), NodeId::new(7)]);
        for a in 0..8u32 {
            for b in 0..8u32 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert!(lm.estimate(a, b) >= truth.distance(a, b));
            }
        }
    }

    #[test]
    fn landmark_exact_on_path_through_landmark() {
        let g = line(5, 1);
        let lm = LandmarkOracle::new(&g, vec![NodeId::new(2)]);
        assert_eq!(lm.estimate(NodeId::new(0), NodeId::new(4)), 4);
        assert_eq!(lm.coordinates(NodeId::new(4)), vec![2]);
    }

    #[test]
    #[should_panic(expected = "at least one landmark")]
    fn landmark_requires_nonempty_set() {
        let _ = LandmarkOracle::new(&line(3, 1), vec![]);
    }
}
