//! The scale curve — ACE rounds on the hybrid distance plane at 800 to
//! 100,000 peers, written to `BENCH_scale.json`.
//!
//! Every paper-figure experiment runs on the exact
//! [`DistanceOracle`], whose per-source Dijkstra rows cap it at a few
//! thousand peers. This module drives the same [`AceEngine`] round
//! pipeline through the [`HybridOracle`] (Vivaldi coordinates plus
//! deterministic exact tiers) and records what that buys:
//!
//! * **wall time** per round at each population, against a naive linear
//!   extrapolation of the 800-peer exact baseline;
//! * **peak RSS** per point — each point runs in its own subprocess (see
//!   `repro scale`) because `VmHWM` is a process-lifetime high
//!   watermark;
//! * **tier hit rates** of the hybrid plane
//!   ([`PlaneStats`](ace_topology::PlaneStats)) and its build-time
//!   [calibration](ace_topology::HybridOracle::calibration);
//! * a **reduction band** at 800 peers: the same world optimized once on
//!   the exact plane and once on the hybrid plane, both measured with
//!   exact costs, must land within [`DEFAULT_BAND`] of each other — the
//!   differential harness's yardstick (PR 3) applied across planes
//!   instead of across engines.

use std::time::Instant;

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

/// ACE rounds timed at every point.
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

/// One worker-count leg of a point's sweep: the same seeded rounds on a
/// pristine clone of the point's world.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WorkerRun {
    /// Worker threads for the plan stages (`0` = one per core).
    pub workers: usize,
    /// Mean wall time over the timed rounds.
    pub mean_round_ms: f64,
    /// Engine state digest after the timed rounds.
    pub state_digest: u64,
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
    /// Topology generation + overlay build wall time.
    pub world_ms: f64,
    /// Hybrid-plane build wall time (embedding + exact tiers).
    pub oracle_build_ms: f64,
    /// Wall time of each timed ACE round.
    pub round_wall_ms: Vec<f64>,
    /// Mean over the timed rounds.
    pub mean_round_ms: f64,
    /// Process peak RSS in KiB (`VmHWM`; 0 where unavailable).
    pub peak_rss_kb: u64,
    /// Members the embedding pushed onto the forced-exact tier.
    pub forced_members: usize,
    /// Tier traffic of the timed rounds.
    pub tiers: TierShares,
    /// Coordinate accuracy at build time.
    pub calibration: CalibrationOut,
    /// Worker threads the main timed run used (`0` = one per core).
    /// Defaulted fields below are absent from pre-sweep baselines.
    #[serde(default)]
    pub workers: usize,
    /// Engine state digest after the timed rounds. Bit-stable across
    /// worker counts — the CI drift gate; `0` in old baselines.
    #[serde(default)]
    pub state_digest: u64,
    /// The same rounds re-run at each [`WORKER_SWEEP`] count; every leg
    /// asserted digest-identical to the main run.
    #[serde(default)]
    pub workers_sweep: Vec<WorkerRun>,
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
    /// Mean exact-plane round wall time (warm cache — every row resident).
    pub exact_mean_round_ms: f64,
    /// First exact-plane round wall time (cold cache — the round that
    /// pays the Dijkstra rows). The extrapolation baseline: at scale the
    /// exact row cache cannot stay resident, so every round looks cold.
    pub exact_cold_round_ms: f64,
    /// All clauses hold: both reduce below [`REDUCTION_CEILING`], the gap
    /// is within `band`, both scopes clear [`SCOPE_FLOOR`].
    pub within_band: bool,
}

/// One row of the sublinearity table. The naive model prices the exact
/// plane at this population: each round, every peer recomputes its
/// Dijkstra row — at scale the row cache cannot stay resident (see
/// `exact_cache_mb`), so rounds stay cold — giving
/// `cost(N) ∝ peers × (V + E)·log₂V` over the point's physical graph.
/// The baseline is the measured cold exact round at 800 peers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExtrapolationRow {
    /// Point population.
    pub peers: usize,
    /// Cold 800-peer exact round scaled by the naive cost model.
    pub naive_exact_ms: f64,
    /// Measured hybrid round time.
    pub measured_ms: f64,
    /// `naive / measured` (≫ 1 at scale — the sublinearity claim).
    pub advantage: f64,
    /// Memory the exact plane would need to keep every peer's row
    /// resident (`peers × phys_nodes × 4` bytes), in MiB.
    pub exact_cache_mb: f64,
    /// Measured hybrid peak RSS at this point, in MiB.
    pub hybrid_peak_rss_mb: f64,
}

/// The whole committed artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleBench {
    /// Rounds timed per point.
    pub rounds: usize,
    /// Worker threads available to the round pipeline.
    pub workers: usize,
    /// The curve.
    pub points: Vec<ScalePoint>,
    /// The 800-peer cross-plane band.
    pub band: ScaleBand,
    /// Measured-vs-naive comparison per point.
    pub extrapolation: Vec<ExtrapolationRow>,
}

impl ScaleBench {
    /// Assembles the artifact from measured points and the band run.
    ///
    /// # Panics
    ///
    /// Panics if `points` does not contain the band's population.
    pub fn assemble(points: Vec<ScalePoint>, band: ScaleBand) -> Self {
        // Dijkstra row cost on a binary heap: (V + E) log₂ V.
        let row_cost =
            |nodes: usize, edges: usize| (nodes + edges) as f64 * (nodes.max(2) as f64).log2();
        let base = points
            .iter()
            .find(|p| p.peers == band.peers)
            .expect("curve includes the band population");
        let base_cost = band.peers as f64 * row_cost(base.phys_nodes, base.phys_edges);
        let extrapolation = points
            .iter()
            .map(|p| {
                let cost = p.peers as f64 * row_cost(p.phys_nodes, p.phys_edges);
                let naive = band.exact_cold_round_ms * cost / base_cost;
                ExtrapolationRow {
                    peers: p.peers,
                    naive_exact_ms: naive,
                    measured_ms: p.mean_round_ms,
                    advantage: naive / p.mean_round_ms.max(1e-9),
                    exact_cache_mb: p.peers as f64 * p.phys_nodes as f64 * 4.0 / (1024.0 * 1024.0),
                    hybrid_peak_rss_mb: p.peak_rss_kb as f64 / 1024.0,
                }
            })
            .collect();
        ScaleBench {
            rounds: SCALE_ROUNDS,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            points,
            band,
            extrapolation,
        }
    }

    /// The point for a population, if present.
    pub fn point(&self, peers: usize) -> Option<&ScalePoint> {
        self.points.iter().find(|p| p.peers == peers)
    }
}

/// The `--check` rule: `point`'s engine state digest must equal the
/// committed baseline's, bit for bit — the rounds are fully seeded and
/// worker-count invariant, so drift is a behavior change, not noise.
/// Baselines predating the field carry 0 and are skipped. Mean round
/// wall time is not judged: the baseline was written on another host,
/// and wall-clock regressions are the repo benchmark's job. Returns the
/// failures; empty means the gate holds.
pub fn check(point: &ScalePoint, baseline: &ScaleBench) -> Vec<String> {
    let Some(base) = baseline.point(point.peers) else {
        return vec![format!("baseline has no {}-peer point", point.peers)];
    };
    if base.state_digest != 0 && point.state_digest != base.state_digest {
        return vec![format!(
            "DIGEST DRIFT — measured {:#018x}, baseline {:#018x}; round behavior changed",
            point.state_digest, base.state_digest
        )];
    }
    Vec::new()
}

/// Process peak RSS in KiB from `/proc/self/status` (`VmHWM`), 0 when the
/// file or field is unavailable (non-Linux).
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
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

/// Runs [`SCALE_ROUNDS`] timed rounds on `overlay` with a fresh engine
/// at `workers` threads. Returns per-round wall times and the final
/// engine state digest.
fn timed_run(
    overlay: &mut Overlay,
    plane: &dyn DistancePlane,
    rng: &mut StdRng,
    workers: usize,
) -> (Vec<f64>, u64) {
    let mut ace = AceEngine::new(
        overlay.peer_count(),
        AceConfig {
            parallel: true,
            workers,
            ..AceConfig::paper_default()
        },
    );
    let mut round_wall_ms = Vec::with_capacity(SCALE_ROUNDS);
    for _ in 0..SCALE_ROUNDS {
        let t = Instant::now();
        ace.round(overlay, plane, rng);
        round_wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (round_wall_ms, ace.state_digest())
}

/// Measures one population: builds the world and the hybrid plane, runs
/// [`SCALE_ROUNDS`] ACE rounds at `workers` plan threads (`0` = one per
/// core), and reports timings, tier traffic and this process's peak RSS
/// (run each point in a fresh process for honest RSS numbers). With
/// `sweep`, every [`WORKER_SWEEP`] leg replays the identical seeded
/// rounds on a pristine clone of the world and must land on the main
/// run's state digest (the pipeline is worker-count invariant).
///
/// # Panics
///
/// Panics if any sweep leg's state digest diverges from the main run.
pub fn run_point_workers(peers: usize, workers: usize, sweep: bool) -> ScalePoint {
    let t0 = Instant::now();
    let (graph, mut overlay, mut rng) = build_world(peers, SEED);
    let world_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (phys_nodes, phys_edges) = (graph.node_count(), graph.edge_count());

    let members: Vec<NodeId> = overlay.peers().map(|p| overlay.host(p)).collect();
    let t1 = Instant::now();
    let plane = HybridOracle::build(graph, &members, &HybridConfig::default());
    let oracle_build_ms = t1.elapsed().as_secs_f64() * 1e3;
    let cal = plane.calibration();

    // Pristine copies for the sweep legs: same start state, same seeds.
    let (overlay0, rng0) = (overlay.clone(), rng.clone());

    let (round_wall_ms, state_digest) = timed_run(&mut overlay, &plane, &mut rng, workers);
    let mean_round_ms = round_wall_ms.iter().sum::<f64>() / round_wall_ms.len() as f64;
    // Tier counters snapshot now so sweep traffic does not dilute the
    // main run's shares.
    let stats = plane.plane_stats();

    let workers_sweep = if sweep {
        WORKER_SWEEP
            .iter()
            .map(|&w| {
                let (mut ov, mut r) = (overlay0.clone(), rng0.clone());
                let (wall, digest) = timed_run(&mut ov, &plane, &mut r, w);
                assert_eq!(
                    digest, state_digest,
                    "{peers} peers: workers={w} diverged from the main run"
                );
                WorkerRun {
                    workers: w,
                    mean_round_ms: wall.iter().sum::<f64>() / wall.len() as f64,
                    state_digest: digest,
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    ScalePoint {
        peers,
        phys_nodes,
        phys_edges,
        world_ms,
        oracle_build_ms,
        round_wall_ms,
        mean_round_ms,
        peak_rss_kb: peak_rss_kb(),
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
        workers,
        state_digest,
        workers_sweep,
    }
}

/// Optimizes one side of the band world on `plane`, measuring with
/// `measure` (exact costs for both sides so pricing error cannot hide in
/// the comparison). Returns (reduction, scope fraction, per-round ms).
fn band_side(
    mut overlay: Overlay,
    mut rng: StdRng,
    plane: &dyn DistancePlane,
    measure: &dyn DistancePlane,
) -> (f64, f64, Vec<f64>) {
    let src = PeerId::new(0);
    let before = run_query(&overlay, measure, src, &QC, &FloodAll, |_| false);
    let mut ace = AceEngine::new(overlay.peer_count(), AceConfig::paper_default());
    let mut round_ms = Vec::with_capacity(SCALE_ROUNDS);
    for _ in 0..SCALE_ROUNDS {
        let t = Instant::now();
        ace.round(&mut overlay, plane, &mut rng);
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let flood_now = run_query(&overlay, measure, src, &QC, &FloodAll, |_| false);
    let after = run_query(&overlay, measure, src, &QC, &AceForward::new(&ace), |_| {
        false
    });
    (
        after.traffic_cost / before.traffic_cost,
        after.scope as f64 / flood_now.scope.max(1) as f64,
        round_ms,
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

    let (exact_reduction, exact_scope_frac, exact_round_ms) =
        band_side(overlay.clone(), rng.clone(), &exact, &exact);
    let (hybrid_reduction, hybrid_scope_frac, _) = band_side(overlay, rng, &hybrid, &exact);

    let gap = (exact_reduction - hybrid_reduction).abs();
    ScaleBand {
        peers,
        exact_reduction,
        hybrid_reduction,
        gap,
        band: DEFAULT_BAND,
        exact_scope_frac,
        hybrid_scope_frac,
        exact_mean_round_ms: exact_round_ms.iter().sum::<f64>() / exact_round_ms.len() as f64,
        exact_cold_round_ms: exact_round_ms[0],
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
    use crate::assert_one_failure;

    fn committed() -> ScaleBench {
        serde_json::from_str(include_str!("../../../BENCH_scale.json"))
            .expect("committed BENCH_scale.json parses")
    }

    #[test]
    fn check_holds_on_the_committed_curve_and_catches_digest_drift() {
        let baseline = committed();
        for point in &baseline.points {
            assert_eq!(check(point, &baseline), Vec::<String>::new());
            let mut drifted = point.clone();
            drifted.state_digest ^= 1;
            assert_one_failure(&check(&drifted, &baseline), "DIGEST DRIFT");
        }
    }

    #[test]
    fn check_skips_pre_digest_baselines_but_not_missing_points() {
        let mut baseline = committed();
        let mut point = baseline.points[0].clone();
        point.state_digest ^= 1;
        assert_one_failure(&check(&point, &baseline), "DIGEST DRIFT");
        // A baseline written before the field existed carries 0.
        baseline.points[0].state_digest = 0;
        assert_eq!(check(&point, &baseline), Vec::<String>::new());
        point.peers = 123;
        assert_one_failure(&check(&point, &baseline), "no 123-peer point");
    }

    #[test]
    fn rss_probe_reads_something_on_linux() {
        // On Linux the high watermark of a live process is never zero.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[test]
    fn worker_sweep_is_digest_invariant_at_800() {
        // run_point_workers itself asserts every sweep leg's digest
        // against the main run; this pins that the sweep actually ran.
        let point = run_point_workers(800, 0, true);
        assert_eq!(point.workers_sweep.len(), WORKER_SWEEP.len());
        for leg in &point.workers_sweep {
            assert_eq!(leg.state_digest, point.state_digest);
        }
        assert!(point.state_digest != 0);
    }

    #[test]
    fn band_holds_at_the_smallest_point() {
        let band = run_band();
        assert!(band.within_band, "cross-plane band violated: {band:?}");
    }

    #[test]
    fn assemble_builds_extrapolation_rows() {
        let point = |peers: usize, phys: usize, mean: f64| ScalePoint {
            peers,
            phys_nodes: phys,
            phys_edges: 2 * phys,
            world_ms: 0.0,
            oracle_build_ms: 0.0,
            round_wall_ms: vec![mean],
            mean_round_ms: mean,
            peak_rss_kb: 1024,
            forced_members: 0,
            tiers: TierShares {
                coord: 1,
                exact_sampled: 0,
                exact_forced: 0,
                exact_fallback: 0,
                coord_share: 1.0,
            },
            calibration: CalibrationOut {
                samples: 0,
                median: 0.0,
                p90: 0.0,
            },
            workers: 0,
            state_digest: 0,
            workers_sweep: Vec::new(),
        };
        let bench = ScaleBench::assemble(
            vec![point(800, 4_000, 10.0), point(8_000, 40_000, 250.0)],
            run_band_stub(),
        );
        let base = &bench.extrapolation[0];
        // At the baseline population the naive model IS the cold round.
        assert!((base.naive_exact_ms - 100.0).abs() < 1e-9);
        assert!((base.advantage - 10.0).abs() < 1e-9);
        assert!((base.exact_cache_mb - 800.0 * 4_000.0 * 4.0 / (1024.0 * 1024.0)).abs() < 1e-9);
        // 10× the peers on a 10×-bigger graph: the naive exact model must
        // grow faster than linear-in-peers (rows got more expensive too).
        let big = &bench.extrapolation[1];
        assert!(big.naive_exact_ms > 100.0 * 10.0, "{}", big.naive_exact_ms);
        assert!((big.hybrid_peak_rss_mb - 1.0).abs() < 1e-9);
    }

    fn run_band_stub() -> ScaleBand {
        ScaleBand {
            peers: 800,
            exact_reduction: 0.5,
            hybrid_reduction: 0.5,
            gap: 0.0,
            band: DEFAULT_BAND,
            exact_scope_frac: 1.0,
            hybrid_scope_frac: 1.0,
            exact_mean_round_ms: 80.0,
            exact_cold_round_ms: 100.0,
            within_band: true,
        }
    }
}
