//! The scale curve — ACE rounds on the hybrid distance plane at 800 to
//! 100,000 peers, written to `BENCH_scale.json`.
//!
//! Every paper-figure experiment runs on the exact
//! [`DistanceOracle`], whose per-source Dijkstra rows cap it at a few
//! thousand peers. This module drives the same [`AceEngine`] round
//! pipeline through the [`HybridOracle`] (Vivaldi coordinates plus
//! deterministic exact tiers) and records, in simulated units only:
//!
//! * the **engine state digest** after the seeded rounds at each
//!   population — the CI drift gate ([`check`]), asserted equal across
//!   every [`WORKER_SWEEP`] count;
//! * **tier hit rates** of the hybrid plane
//!   ([`PlaneStats`](ace_topology::PlaneStats)) and its build-time
//!   [calibration](ace_topology::HybridOracle::calibration);
//! * a **reduction band** at 800 peers: the same world optimized once on
//!   the exact plane and once on the hybrid plane, both measured with
//!   exact costs, must land within [`DEFAULT_BAND`] of each other — the
//!   differential harness's yardstick applied across planes instead of
//!   across engines.
//!
//! Wall time, memory and the worker pool's speedup at these populations
//! are the repo benchmark's job (`cold_scale_20k`'s setup, round-rate
//! and peak-memory metrics, and `engine.pool.round_speedup_w2`).

use ace_core::experiments::differential::{DEFAULT_BAND, REDUCTION_CEILING, SCOPE_FLOOR};
use ace_core::{AceConfig, AceEngine, AceForward};
use ace_overlay::{clustered_overlay, run_query, FloodAll, Overlay, PeerId, QueryConfig};
use ace_topology::generate::{two_level, TwoLevelConfig};
use ace_topology::{DistanceOracle, DistancePlane, Graph, HybridConfig, HybridOracle, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The curve's populations with their two-level physical dimensions
/// `(peers, as_count, nodes_per_as)` — five physical routers per peer,
/// matching the ratio of the paper-figure scales.
pub const SCALE_POINTS: [(usize, usize, usize); 4] = [
    (800, 10, 400),
    (5_000, 50, 500),
    (20_000, 200, 500),
    (100_000, 1_000, 500),
];

/// ACE rounds run at every point.
pub const SCALE_ROUNDS: usize = 5;

/// Worker counts the per-point sweep re-runs the same rounds with. The
/// round pipeline is bit-identical across worker counts (pinned by the
/// planned-schedule golden cells), so every leg must land on the same
/// [`AceEngine::state_digest`] — the sweep asserts it.
pub const WORKER_SWEEP: [usize; 3] = [1, 4, 8];

/// Overlay degree used across the curve (the paper's default C = 6).
const AVG_DEGREE: usize = 6;

/// World seed; points derive per-point streams from it.
const SEED: u64 = 97;

const QC: QueryConfig = QueryConfig {
    ttl: 32,
    stop_at_responder: false,
};

/// Physical dimensions for a point population.
///
/// # Panics
///
/// Panics if `peers` is not one of [`SCALE_POINTS`].
pub fn phys_for(peers: usize) -> (usize, usize) {
    SCALE_POINTS
        .iter()
        .find(|&&(p, _, _)| p == peers)
        .map(|&(_, a, n)| (a, n))
        .unwrap_or_else(|| panic!("{peers} is not a scale point"))
}

/// Hybrid-plane tier traffic of one point, as shares of all queries.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TierShares {
    /// Queries answered from Vivaldi coordinates.
    pub coord: u64,
    /// Exact answers through the audit sample.
    pub exact_sampled: u64,
    /// Exact answers forced by coordinate error.
    pub exact_forced: u64,
    /// Exact answers for non-member nodes.
    pub exact_fallback: u64,
    /// `coord / total`.
    pub coord_share: f64,
}

/// Build-time coordinate accuracy of the point's hybrid plane.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CalibrationOut {
    /// Pairs measured.
    pub samples: usize,
    /// Median relative error vs. truth.
    pub median: f64,
    /// 90th-percentile relative error.
    pub p90: f64,
}

/// One population on the curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Logical peers.
    pub peers: usize,
    /// Physical routers.
    pub phys_nodes: usize,
    /// Physical links.
    pub phys_edges: usize,
    /// Members the embedding pushed onto the forced-exact tier.
    pub forced_members: usize,
    /// Tier traffic of the point's rounds.
    pub tiers: TierShares,
    /// Coordinate accuracy at build time.
    pub calibration: CalibrationOut,
    /// Engine state digest after the seeded rounds. Bit-stable across
    /// worker counts — the CI drift gate.
    pub state_digest: u64,
}

/// The 800-peer cross-plane quality check: one world, optimized on each
/// plane, both sides measured with exact costs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleBand {
    /// Peers in the band world.
    pub peers: usize,
    /// Optimized ÷ initial flooding traffic on the exact plane.
    pub exact_reduction: f64,
    /// Same, with rounds driven by hybrid distances.
    pub hybrid_reduction: f64,
    /// `|exact - hybrid|`.
    pub gap: f64,
    /// The documented tolerance ([`DEFAULT_BAND`]).
    pub band: f64,
    /// Optimized ÷ flooding scope on the exact plane (≥ [`SCOPE_FLOOR`]).
    pub exact_scope_frac: f64,
    /// Same for the hybrid-driven side.
    pub hybrid_scope_frac: f64,
    /// All clauses hold: both reduce below [`REDUCTION_CEILING`], the gap
    /// is within `band`, both scopes clear [`SCOPE_FLOOR`].
    pub within_band: bool,
}

/// The whole committed artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleBench {
    /// Rounds run per point.
    pub rounds: usize,
    /// The curve.
    pub points: Vec<ScalePoint>,
    /// The 800-peer cross-plane band.
    pub band: ScaleBand,
}

impl ScaleBench {
    /// The point for a population, if present.
    pub fn point(&self, peers: usize) -> Option<&ScalePoint> {
        self.points.iter().find(|p| p.peers == peers)
    }
}

/// The `--check` rule: `point`'s engine state digest must equal the
/// committed baseline's, bit for bit — the rounds are fully seeded and
/// worker-count invariant, so drift is a behavior change, not noise.
/// Returns the failures; empty means the gate holds.
pub fn check(point: &ScalePoint, baseline: &ScaleBench) -> Vec<String> {
    let Some(base) = baseline.point(point.peers) else {
        return vec![format!("baseline has no {}-peer point", point.peers)];
    };
    if point.state_digest != base.state_digest {
        return vec![format!(
            "DIGEST DRIFT — measured {:#018x}, baseline {:#018x}; round behavior changed",
            point.state_digest, base.state_digest
        )];
    }
    Vec::new()
}

/// Draws `k` distinct physical hosts via a partial Fisher–Yates shuffle.
fn sample_hosts<R: Rng + ?Sized>(rng: &mut R, nodes: usize, k: usize) -> Vec<NodeId> {
    assert!(k <= nodes, "more peers than physical nodes");
    let mut pool: Vec<u32> = (0..nodes as u32).collect();
    for i in 0..k {
        let j = i + rng.gen_range(0..nodes - i);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.into_iter().map(NodeId::new).collect()
}

/// Builds the point's world: physical graph and clustered overlay whose
/// hosts become the hybrid plane's member set. Shared with the
/// query-serving bench ([`crate::qps`]) so both curves measure the same
/// worlds.
pub(crate) fn build_world(peers: usize, seed: u64) -> (Graph, Overlay, StdRng) {
    let (as_count, nodes_per_as) = phys_for(peers);
    build_world_sized(peers, as_count, nodes_per_as, seed)
}

/// [`build_world`] with explicit physical dimensions, for callers whose
/// populations are not on the committed curve (the scenario matrix runs
/// the 800-peer point in CI but much smaller worlds in property tests).
pub(crate) fn build_world_sized(
    peers: usize,
    as_count: usize,
    nodes_per_as: usize,
    seed: u64,
) -> (Graph, Overlay, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = two_level(
        &TwoLevelConfig {
            as_count,
            nodes_per_as,
            ..TwoLevelConfig::default()
        },
        &mut rng,
    );
    let hosts = sample_hosts(&mut rng, topo.graph.node_count(), peers);
    let cap = Some(2 * AVG_DEGREE);
    let overlay = clustered_overlay(hosts, AVG_DEGREE, 0.7, cap, &mut rng);
    (topo.graph, overlay, rng)
}

/// Runs [`SCALE_ROUNDS`] rounds on `overlay` with a fresh engine at
/// `workers` threads and returns the final engine state digest.
fn run_rounds(
    overlay: &mut Overlay,
    plane: &dyn DistancePlane,
    rng: &mut StdRng,
    workers: usize,
) -> u64 {
    let mut ace = AceEngine::new(
        overlay.peer_count(),
        AceConfig {
            parallel: true,
            workers,
            ..AceConfig::paper_default()
        },
    );
    for _ in 0..SCALE_ROUNDS {
        ace.round(overlay, plane, rng);
    }
    ace.state_digest()
}

/// Measures one population: builds the world and the hybrid plane, runs
/// [`SCALE_ROUNDS`] ACE rounds at `workers` plan threads (`0` = one per
/// core), and reports tier traffic and the engine state digest. With
/// `sweep`, every [`WORKER_SWEEP`] leg replays the identical seeded
/// rounds on a pristine clone of the world and must land on the main
/// run's state digest (the pipeline is worker-count invariant).
///
/// # Panics
///
/// Panics if any sweep leg's state digest diverges from the main run.
pub fn run_point_workers(peers: usize, workers: usize, sweep: bool) -> ScalePoint {
    let (graph, mut overlay, mut rng) = build_world(peers, SEED);
    let (phys_nodes, phys_edges) = (graph.node_count(), graph.edge_count());

    let members: Vec<NodeId> = overlay.peers().map(|p| overlay.host(p)).collect();
    let plane = HybridOracle::build(graph, &members, &HybridConfig::default());
    let cal = plane.calibration();

    // Pristine copies for the sweep legs: same start state, same seeds.
    let (overlay0, rng0) = (overlay.clone(), rng.clone());

    let state_digest = run_rounds(&mut overlay, &plane, &mut rng, workers);
    // Tier counters snapshot now so sweep traffic does not dilute the
    // main run's shares.
    let stats = plane.plane_stats();

    if sweep {
        for w in WORKER_SWEEP {
            let (mut ov, mut r) = (overlay0.clone(), rng0.clone());
            assert_eq!(
                run_rounds(&mut ov, &plane, &mut r, w),
                state_digest,
                "{peers} peers: workers={w} diverged from the main run"
            );
        }
    }

    ScalePoint {
        peers,
        phys_nodes,
        phys_edges,
        forced_members: plane.forced_members(),
        tiers: TierShares {
            coord: stats.coord,
            exact_sampled: stats.exact_sampled,
            exact_forced: stats.exact_forced,
            exact_fallback: stats.exact_fallback,
            coord_share: stats.coord_share(),
        },
        calibration: CalibrationOut {
            samples: cal.samples,
            median: cal.median,
            p90: cal.p90,
        },
        state_digest,
    }
}

/// Optimizes one side of the band world on `plane`, measuring with
/// `measure` (exact costs for both sides so pricing error cannot hide in
/// the comparison). Returns (reduction, scope fraction).
fn band_side(
    mut overlay: Overlay,
    mut rng: StdRng,
    plane: &dyn DistancePlane,
    measure: &dyn DistancePlane,
) -> (f64, f64) {
    let src = PeerId::new(0);
    let before = run_query(&overlay, measure, src, &QC, &FloodAll, |_| false);
    let mut ace = AceEngine::new(overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..SCALE_ROUNDS {
        ace.round(&mut overlay, plane, &mut rng);
    }
    let flood_now = run_query(&overlay, measure, src, &QC, &FloodAll, |_| false);
    let after = run_query(&overlay, measure, src, &QC, &AceForward::new(&ace), |_| {
        false
    });
    (
        after.traffic_cost / before.traffic_cost,
        after.scope as f64 / flood_now.scope.max(1) as f64,
    )
}

/// Runs the 800-peer cross-plane band: the same seeded world optimized on
/// the exact plane and on the hybrid plane, judged with the differential
/// harness's constants.
pub fn run_band() -> ScaleBand {
    let peers = SCALE_POINTS[0].0;
    let (graph, overlay, rng) = build_world(peers, SEED);
    let members: Vec<NodeId> = overlay.peers().map(|p| overlay.host(p)).collect();
    let exact = DistanceOracle::new(graph.clone());
    let hybrid = HybridOracle::build(graph, &members, &HybridConfig::default());

    let (exact_reduction, exact_scope_frac) =
        band_side(overlay.clone(), rng.clone(), &exact, &exact);
    let (hybrid_reduction, hybrid_scope_frac) = band_side(overlay, rng, &hybrid, &exact);

    let gap = (exact_reduction - hybrid_reduction).abs();
    ScaleBand {
        peers,
        exact_reduction,
        hybrid_reduction,
        gap,
        band: DEFAULT_BAND,
        exact_scope_frac,
        hybrid_scope_frac,
        within_band: exact_reduction < REDUCTION_CEILING
            && hybrid_reduction < REDUCTION_CEILING
            && gap <= DEFAULT_BAND
            && exact_scope_frac >= SCOPE_FLOOR
            && hybrid_scope_frac >= SCOPE_FLOOR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_one_failure, committed};

    #[test]
    fn check_holds_on_the_committed_curve_and_catches_digest_drift() {
        let baseline: ScaleBench = committed("BENCH_scale.json");
        for point in &baseline.points {
            assert_eq!(check(point, &baseline), Vec::<String>::new());
            let mut drifted = point.clone();
            drifted.state_digest ^= 1;
            assert_one_failure(&check(&drifted, &baseline), "DIGEST DRIFT");
        }
    }

    #[test]
    fn check_catches_missing_points() {
        let baseline: ScaleBench = committed("BENCH_scale.json");
        let mut point = baseline.points[0].clone();
        point.peers = 123;
        assert_one_failure(&check(&point, &baseline), "no 123-peer point");
    }

    #[test]
    fn worker_sweep_is_digest_invariant_at_800() {
        // run_point_workers asserts every sweep leg's digest against the
        // main run; the committed digest pins the main run itself.
        let point = run_point_workers(800, 0, true);
        let baseline: ScaleBench = committed("BENCH_scale.json");
        assert_eq!(check(&point, &baseline), Vec::<String>::new());
    }

    #[test]
    fn band_holds_at_the_smallest_point() {
        let band = run_band();
        assert!(band.within_band, "cross-plane band violated: {band:?}");
    }
}
