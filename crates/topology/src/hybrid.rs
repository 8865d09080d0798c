//! Hybrid distance oracle — Vivaldi coordinates with deterministic exact
//! tiers. This is the scale plane of the reproduction (ROADMAP item 1):
//! it answers `distance(a, b)` in `O(dims)` from converged network
//! coordinates instead of `O(V log V)` Dijkstra rows, which is what lets
//! `repro scale` sweep to 100k peers on ~1M-node physical topologies.
//!
//! # Tiers
//!
//! Every query between embedded *members* (the peer host set) is answered
//! by exactly one of three tiers, decided by construction-time state only:
//!
//! 1. **`coord`** — Euclidean distance between the endpoints' Vivaldi
//!    coordinates. The overwhelmingly common tier (>95 % in practice).
//! 2. **`exact_sampled`** — if either endpoint is in the deterministic
//!    *audit set* (a hash-chain sample of members), the answer is the true
//!    shortest-path delay from that member's precomputed row. This keeps a
//!    continuous stream of exact answers flowing through every experiment,
//!    and at build time the same rows calibrate the observed coordinate
//!    error (see [`HybridOracle::calibration`]).
//! 3. **`exact_forced`** — members whose converged Vivaldi confidence
//!    error exceeds [`ERROR_THRESHOLD`] are badly embedded; their queries
//!    are answered exactly (rows precomputed at build, count capped by
//!    [`FORCED_CAP`], worst errors first).
//!
//! Queries touching nodes outside the member set fall through to a
//! row-capped exact [`DistanceOracle`] (**`exact_fallback`**).
//!
//! # Determinism
//!
//! Anchor choice, coordinate initialization, training-partner picks, the
//! audit set and calibration pairs all derive from one
//! [`ace_engine::digest::fold`] off [`SEED`] — the fold the
//! fault and netem layers draw from too — so two runs (and any worker-thread interleaving)
//! see identical state. `distance(a, b)` is a pure function of that state
//! and the pair: tier counters use relaxed atomics and never influence
//! answers, preserving the engine's bit-identical-digest guarantee.
//!
//! # Training
//!
//! A full Vivaldi embedding samples random member pairs, which would pull
//! one Dijkstra row per member — exactly the cost wall this type exists to
//! avoid. Instead members train against a small set of [`ANCHORS`]
//! *anchor* members: each round, every member springs toward one hash-picked
//! anchor using the anchor's exact projected row. Anchors train against
//! each other the same way. Total exact work is `anchors + audit + forced`
//! Dijkstras, independent of member count; the spring step itself is
//! [`crate::vivaldi`]'s, so the two embeddings cannot drift apart.

use std::sync::atomic::{AtomicU64, Ordering};

use ace_engine::digest::{fold, unit};

use crate::graph::{Delay, Graph, NodeId};
use crate::oracle::DistanceOracle;
use crate::plane::{DistancePlane, PlaneStats};
use crate::sssp::{self, RadixHeap, UNREACHABLE};
use crate::vivaldi::{spring_update, DIMS};

/// Root of the hash chain driving every random-looking decision.
const SEED: u64 = 0xACE5_CA1E;
/// Training rounds (each member springs once per round).
const ROUNDS: usize = 192;
/// Anchor members used as training partners (clamped to member count).
const ANCHORS: usize = 64;
/// Members whose pairs are answered exactly as an audit sample.
const AUDIT_SOURCES: usize = 16;
/// Converged confidence error above which a member's queries are forced
/// onto the exact tier.
const ERROR_THRESHOLD: f64 = 0.5;
/// Upper bound on forced-exact members (worst errors first), bounding
/// build-time Dijkstra work no matter how badly an embedding went.
const FORCED_CAP: usize = 64;
/// Row-cache capacity of the non-member exact fallback oracle.
const FALLBACK_ROWS: usize = 32;
/// Calibration pairs measured at build time.
const CALIBRATION_SAMPLES: usize = 1024;

/// Parameters of the hybrid oracle: none are left to set. The plane is
/// tuned for the scale bench by the constants of this module —
/// coordinate answers for almost everything, a few dozen exact rows total
/// regardless of member count — and the Vivaldi spring constants.
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridConfig;

/// Observed coordinate accuracy, measured at build time against the audit
/// rows (relative error of the coordinate estimate vs. truth).
#[derive(Clone, Copy, Debug, Default)]
pub struct Calibration {
    /// Pairs measured.
    pub samples: usize,
    /// Median relative error.
    pub median: f64,
    /// 90th-percentile relative error.
    pub p90: f64,
    /// Worst relative error seen.
    pub max: f64,
}

/// Member slot sentinel for "not a member".
const NOT_MEMBER: u32 = u32::MAX;

/// Exact-row sentinel for "answered on the coordinate tier".
const NO_ROW: u32 = u32::MAX;

/// Per-member tier tag (construction-time, immutable afterwards).
const TIER_COORD: u8 = 0;
const TIER_AUDIT: u8 = 1;
const TIER_FORCED: u8 = 2;

/// The hybrid Vivaldi-plus-sampled-exact distance plane. The comment at
/// the top of `hybrid.rs` gives tier semantics and the determinism
/// contract.
///
/// # Examples
///
/// ```
/// use ace_topology::generate::{two_level, TwoLevelConfig};
/// use ace_topology::{DistancePlane, HybridConfig, HybridOracle, NodeId};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let cfg = TwoLevelConfig { as_count: 4, nodes_per_as: 50 };
/// let topo = two_level(&cfg, &mut rng);
/// let members: Vec<NodeId> = topo.graph.nodes().step_by(2).collect();
/// let oracle = HybridOracle::build(topo.graph, &members, &HybridConfig);
/// let d = oracle.distance(members[0], members[1]);
/// assert!(d > 0);
/// assert!(oracle.plane_stats().total() >= 1);
/// ```
#[derive(Debug)]
pub struct HybridOracle {
    /// Exact oracle for non-member queries; also owns the graph.
    fallback: DistanceOracle,
    members: Vec<NodeId>,
    /// Graph node -> member slot ([`NOT_MEMBER`] when outside the set).
    member_slot: Vec<u32>,
    /// Flattened member coordinates (`members.len() * DIMS`).
    coords: Vec<f64>,
    /// Per-member tier tag.
    tier: Vec<u8>,
    /// Member slot -> index of its exact row in `exact` ([`NO_ROW`] for
    /// coord-tier members).
    row_of: Vec<u32>,
    /// Exact member-projected rows of the audit and forced members, back
    /// to back, `members.len()` delays each.
    exact: Vec<Delay>,
    calibration: Calibration,
    // Tier counters (relaxed; never influence answers).
    n_coord: AtomicU64,
    n_sampled: AtomicU64,
    n_forced: AtomicU64,
    n_fallback: AtomicU64,
}

/// Seed of every hash-seeded choice below (audit set, calibration
/// pairs, Vivaldi jitter and neighbour picks).
const HASH_SEED: u64 = 0xACE0_5CA1_E0AC_E05C;

/// Deterministically samples `k` distinct slots from `0..n` via a
/// hash-seeded partial Fisher–Yates shuffle.
fn sample_slots(seed: u64, tag: u64, n: usize, k: usize) -> Vec<u32> {
    let k = k.min(n);
    let mut pool: Vec<u32> = (0..n as u32).collect();
    for i in 0..k {
        let j = i + (fold(HASH_SEED, &[seed, tag, i as u64]) as usize) % (n - i);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// The coord-tier member slots whose converged confidence error exceeds
/// [`ERROR_THRESHOLD`], worst first (ties to the lower slot), at most
/// [`FORCED_CAP`] of them.
fn forced_slots(tier: &[u8], error: &[f64]) -> Vec<u32> {
    let mut worst: Vec<u32> = (0..tier.len() as u32)
        .filter(|&s| tier[s as usize] == TIER_COORD && error[s as usize] > ERROR_THRESHOLD)
        .collect();
    worst.sort_by(|&a, &b| {
        error[b as usize]
            .partial_cmp(&error[a as usize])
            .expect("finite errors")
            .then(a.cmp(&b))
    });
    worst.truncate(FORCED_CAP);
    worst
}

/// Runs one Dijkstra per source on worker threads (sources are
/// independent, so parallelism cannot affect results) and projects each
/// row onto the member set. Returns the projected rows back to back, in
/// source order: row `i` is `out[i * members.len()..][..members.len()]`.
fn member_rows(graph: &Graph, members: &[NodeId], sources: &[NodeId]) -> Vec<Delay> {
    let width = members.len();
    let mut out = vec![UNREACHABLE; sources.len() * width];
    if out.is_empty() {
        return out;
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(sources.len());
    // Contiguous runs of sources, one per worker: each worker owns its
    // slice of `out` and reuses one distance buffer and one heap.
    let per_worker = sources.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (srcs, rows) in sources
            .chunks(per_worker)
            .zip(out.chunks_mut(per_worker * width))
        {
            scope.spawn(move || {
                let (mut full, mut heap) = (Vec::new(), RadixHeap::new());
                for (&src, row) in srcs.iter().zip(rows.chunks_mut(width)) {
                    sssp::dijkstra_into(graph, src, UNREACHABLE, &mut full, &mut heap);
                    for (d, m) in row.iter_mut().zip(members) {
                        *d = full[m.index()];
                    }
                }
            });
        }
    });
    out
}

impl HybridOracle {
    /// Builds the hybrid plane over `members` (the overlay's peer hosts).
    ///
    /// Runs `ANCHORS + AUDIT_SOURCES + |forced|` Dijkstras (parallelized
    /// across cores) and `ROUNDS * members` spring updates; afterwards a
    /// query costs `O(dims)` on the coordinate tier and `O(1)` on the
    /// exact tiers.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two members, or a member is out of range or
    /// duplicated.
    pub fn build(graph: Graph, members: &[NodeId], _: &HybridConfig) -> Self {
        assert!(members.len() >= 2, "need at least two members to embed");
        let n = graph.node_count();
        let mut member_slot = vec![NOT_MEMBER; n];
        for (slot, m) in members.iter().enumerate() {
            assert!(m.index() < n, "member {m} out of range");
            assert!(
                member_slot[m.index()] == NOT_MEMBER,
                "member {m} listed twice"
            );
            member_slot[m.index()] = slot as u32;
        }

        // Anchors: a deterministic spread of members, rows computed once
        // and projected onto the member set (the full rows are dropped, so
        // peak memory is one full row per worker thread).
        let anchor_slots = sample_slots(SEED, 0xA0C0, members.len(), ANCHORS);
        let anchor_nodes: Vec<NodeId> = anchor_slots.iter().map(|&s| members[s as usize]).collect();
        let anchor_rows = member_rows(&graph, members, &anchor_nodes);

        // Anchor-trained Vivaldi embedding (see module docs).
        let dims = DIMS;
        let mut coords: Vec<f64> = (0..members.len() * dims)
            .map(|i| unit(fold(HASH_SEED, &[SEED, 0x1417, i as u64])) * 2.0 - 1.0)
            .collect();
        let mut error = vec![1.0f64; members.len()];
        let mut partner = [0.0f64; DIMS];
        for round in 0..ROUNDS {
            for m in 0..members.len() {
                let pick = (fold(HASH_SEED, &[SEED, 0x9A1C, round as u64, m as u64]) as usize)
                    % anchor_slots.len();
                let a_slot = anchor_slots[pick] as usize;
                if a_slot == m {
                    continue;
                }
                let rtt = anchor_rows[pick * members.len() + m];
                if rtt == 0 || rtt == UNREACHABLE {
                    continue;
                }
                partner.copy_from_slice(&coords[a_slot * dims..a_slot * dims + dims]);
                let ej = error[a_slot];
                let mut ei = error[m];
                spring_update(
                    &mut coords[m * dims..m * dims + dims],
                    &partner,
                    f64::from(rtt),
                    &mut ei,
                    ej,
                );
                error[m] = ei;
            }
        }

        // Tier tags: audit sample first (it wins ties), then the worst
        // embedded members up to the forced cap.
        let mut tier = vec![TIER_COORD; members.len()];
        let audit_slots = sample_slots(SEED, 0xAD17, members.len(), AUDIT_SOURCES);
        for &s in &audit_slots {
            tier[s as usize] = TIER_AUDIT;
        }
        let worst = forced_slots(&tier, &error);
        for &s in &worst {
            tier[s as usize] = TIER_FORCED;
        }

        // Exact rows for every non-coord member.
        let exact_slots: Vec<u32> = audit_slots.iter().copied().chain(worst).collect();
        let exact_nodes: Vec<NodeId> = exact_slots.iter().map(|&s| members[s as usize]).collect();
        let exact = member_rows(&graph, members, &exact_nodes);
        let mut row_of = vec![NO_ROW; members.len()];
        for (row, &s) in exact_slots.iter().enumerate() {
            row_of[s as usize] = row as u32;
        }
        let exact_row = |slot: u32| {
            let start = row_of[slot as usize] as usize * members.len();
            &exact[start..start + members.len()]
        };

        // Calibration: coordinate estimate vs. truth on audit-row pairs.
        let estimate = |coords: &[f64], i: usize, j: usize| -> f64 {
            let (ci, cj) = (
                &coords[i * dims..i * dims + dims],
                &coords[j * dims..j * dims + dims],
            );
            let mut d2 = 0.0;
            for (a, b) in ci.iter().zip(cj.iter()) {
                let diff = a - b;
                d2 += diff * diff;
            }
            d2.sqrt()
        };
        let mut errs: Vec<f64> = Vec::with_capacity(CALIBRATION_SAMPLES);
        for k in 0..CALIBRATION_SAMPLES {
            let src = audit_slots
                [(fold(HASH_SEED, &[SEED, 0xCA11, k as u64]) as usize) % audit_slots.len()];
            let dst = (fold(HASH_SEED, &[SEED, 0xCA12, k as u64]) as usize) % members.len();
            if src as usize == dst {
                continue;
            }
            let truth = exact_row(src)[dst];
            if truth == 0 || truth == UNREACHABLE {
                continue;
            }
            let est = estimate(&coords, src as usize, dst).round().max(1.0);
            errs.push((est - f64::from(truth)).abs() / f64::from(truth));
        }
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        let calibration = Calibration {
            samples: errs.len(),
            median: errs.get(errs.len() / 2).copied().unwrap_or(0.0),
            p90: errs.get(errs.len() * 9 / 10).copied().unwrap_or(0.0),
            max: errs.last().copied().unwrap_or(0.0),
        };

        HybridOracle {
            fallback: DistanceOracle::with_capacity(graph, FALLBACK_ROWS),
            members: members.to_vec(),
            member_slot,
            coords,
            tier,
            row_of,
            exact,
            calibration,
            n_coord: AtomicU64::new(0),
            n_sampled: AtomicU64::new(0),
            n_forced: AtomicU64::new(0),
            n_fallback: AtomicU64::new(0),
        }
    }

    /// The embedded member set.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Observed coordinate accuracy, measured at build time.
    pub fn calibration(&self) -> Calibration {
        self.calibration
    }

    /// Members currently answered by the forced-exact tier.
    pub fn forced_members(&self) -> usize {
        self.tier.iter().filter(|&&t| t == TIER_FORCED).count()
    }

    /// Exact delay from member slot `from` (an audit or forced member) to
    /// member slot `to`.
    fn exact_at(&self, from: u32, to: u32) -> Delay {
        self.exact[self.row_of[from as usize] as usize * self.members.len() + to as usize]
    }

    /// Coordinate-tier estimate between two member slots.
    fn coord_distance(&self, i: usize, j: usize) -> Delay {
        let d = DIMS;
        let (ci, cj) = (
            &self.coords[i * d..i * d + d],
            &self.coords[j * d..j * d + d],
        );
        let mut d2 = 0.0;
        for (a, b) in ci.iter().zip(cj.iter()) {
            let diff = a - b;
            d2 += diff * diff;
        }
        // Mirror `VivaldiCoords::estimate`: round, floor at 1, and stay
        // clear of the UNREACHABLE sentinel.
        d2.sqrt().round().clamp(1.0, f64::from(Delay::MAX - 1)) as Delay
    }
}

impl DistancePlane for HybridOracle {
    fn graph(&self) -> &Graph {
        self.fallback.graph()
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Delay {
        if a == b {
            return 0;
        }
        let (sa, sb) = (self.member_slot[a.index()], self.member_slot[b.index()]);
        if sa == NOT_MEMBER || sb == NOT_MEMBER {
            self.n_fallback.fetch_add(1, Ordering::Relaxed);
            return self.fallback.distance(a, b);
        }
        let (ta, tb) = (self.tier[sa as usize], self.tier[sb as usize]);
        if ta == TIER_AUDIT {
            self.n_sampled.fetch_add(1, Ordering::Relaxed);
            return self.exact_at(sa, sb);
        }
        if tb == TIER_AUDIT {
            self.n_sampled.fetch_add(1, Ordering::Relaxed);
            return self.exact_at(sb, sa);
        }
        if ta == TIER_FORCED {
            self.n_forced.fetch_add(1, Ordering::Relaxed);
            return self.exact_at(sa, sb);
        }
        if tb == TIER_FORCED {
            self.n_forced.fetch_add(1, Ordering::Relaxed);
            return self.exact_at(sb, sa);
        }
        self.n_coord.fetch_add(1, Ordering::Relaxed);
        self.coord_distance(sa as usize, sb as usize)
    }

    fn plane_stats(&self) -> PlaneStats {
        PlaneStats {
            coord: self.n_coord.load(Ordering::Relaxed),
            exact_sampled: self.n_sampled.load(Ordering::Relaxed),
            exact_forced: self.n_forced.load(Ordering::Relaxed),
            exact_fallback: self.n_fallback.load(Ordering::Relaxed),
            exact_full: 0,
            cache: self.fallback.cache_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{two_level, TwoLevelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (Graph, Vec<NodeId>) {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = two_level(
            &TwoLevelConfig {
                as_count: 5,
                nodes_per_as: 40,
            },
            &mut rng,
        );
        let nodes: Vec<NodeId> = topo.graph.nodes().step_by(2).collect();
        (topo.graph, nodes)
    }

    #[test]
    fn answers_are_deterministic_and_symmetric_on_coord_tier() {
        let (g, members) = world();
        let a = HybridOracle::build(g.clone(), &members, &HybridConfig);
        let b = HybridOracle::build(g, &members, &HybridConfig);
        for i in (0..members.len()).step_by(7) {
            for j in (0..members.len()).step_by(11) {
                let (x, y) = (members[i], members[j]);
                assert_eq!(a.distance(x, y), b.distance(x, y), "{x}-{y} across builds");
                assert_eq!(a.distance(x, y), a.distance(y, x), "{x}-{y} symmetry");
            }
        }
        assert_eq!(a.distance(members[0], members[0]), 0);
    }

    #[test]
    fn audit_tier_is_exact() {
        let (g, members) = world();
        let exact = DistanceOracle::new(g.clone());
        let hybrid = HybridOracle::build(g, &members, &HybridConfig);
        let mut audited = 0;
        for &m in &members {
            let slot = hybrid.member_slot[m.index()];
            if hybrid.tier[slot as usize] != TIER_AUDIT {
                continue;
            }
            audited += 1;
            for &other in members.iter().step_by(5) {
                assert_eq!(
                    hybrid.distance(m, other),
                    exact.distance(m, other),
                    "audit pair {m}-{other} must be exact"
                );
            }
        }
        assert_eq!(audited, AUDIT_SOURCES);
        let stats = hybrid.plane_stats();
        assert!(stats.exact_sampled > 0);
    }

    #[test]
    fn coord_tier_tracks_truth_within_calibration() {
        let (g, members) = world();
        let exact = DistanceOracle::new(g.clone());
        let hybrid = HybridOracle::build(g, &members, &HybridConfig);
        let cal = hybrid.calibration();
        assert!(cal.samples > 500, "calibration starved: {}", cal.samples);
        assert!(
            cal.median < crate::vivaldi::VIVALDI_MEDIAN_ERROR_BUDGET,
            "calibration median {:.3} exceeds the Vivaldi budget",
            cal.median
        );
        // Spot-check live coord answers against truth: median of sampled
        // relative errors stays within the recorded budget too.
        let mut errs = Vec::new();
        for i in (0..members.len()).step_by(3) {
            for j in (i + 1..members.len()).step_by(17) {
                let (a, b) = (members[i], members[j]);
                let truth = exact.distance(a, b);
                if truth == 0 {
                    continue;
                }
                let est = hybrid.distance(a, b);
                errs.push((f64::from(est) - f64::from(truth)).abs() / f64::from(truth));
            }
        }
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = errs[errs.len() / 2];
        assert!(
            median < crate::vivaldi::VIVALDI_MEDIAN_ERROR_BUDGET,
            "live median relative error {median:.3}"
        );
    }

    #[test]
    fn non_member_queries_fall_back_to_exact() {
        let (g, members) = world();
        let exact = DistanceOracle::new(g.clone());
        // Odd nodes are not members (members are the even step_by(2) set).
        let outsider = NodeId::new(1);
        let hybrid = HybridOracle::build(g, &members, &HybridConfig);
        assert_eq!(
            hybrid.distance(outsider, members[4]),
            exact.distance(outsider, members[4])
        );
        assert_eq!(hybrid.plane_stats().exact_fallback, 1);
    }

    #[test]
    fn forced_tier_respects_cap_and_threshold() {
        // Every coord member over the threshold: the cap bounds the set,
        // worst first; audit members and errors at the threshold stay out.
        let n = FORCED_CAP + 10;
        let mut tier = vec![TIER_COORD; n];
        tier[n - 1] = TIER_AUDIT;
        let mut error: Vec<f64> = (0..n).map(|s| ERROR_THRESHOLD + 1.0 + s as f64).collect();
        let forced = forced_slots(&tier, &error);
        assert_eq!(forced.len(), FORCED_CAP);
        assert_eq!(forced[0], n as u32 - 2, "worst coord member first");
        error.fill(ERROR_THRESHOLD);
        assert!(forced_slots(&tier, &error).is_empty());
        // A converged embedding should force almost nothing.
        let (g, members) = world();
        let loose = HybridOracle::build(g, &members, &HybridConfig);
        assert!(
            loose.forced_members() <= members.len() / 4,
            "too many forced members: {}",
            loose.forced_members()
        );
    }

    #[test]
    fn tier_counters_partition_all_queries() {
        let (g, members) = world();
        let hybrid = HybridOracle::build(g, &members, &HybridConfig);
        let mut queries = 0u64;
        for i in (0..members.len()).step_by(2) {
            for j in (i + 1..members.len()).step_by(9) {
                hybrid.distance(members[i], members[j]);
                queries += 1;
            }
        }
        let stats = hybrid.plane_stats();
        assert_eq!(stats.total(), queries);
        assert!(stats.coord_share() > 0.5, "share {}", stats.coord_share());
    }

    #[test]
    #[should_panic(expected = "two members")]
    fn rejects_single_member() {
        let (g, members) = world();
        let _ = HybridOracle::build(g, &members[..1], &HybridConfig);
    }
}
