//! The serving curve — a Zipf workload served on optimized vs.
//! unoptimized overlays, written to `BENCH_qps.json`.
//!
//! The paper's headline is that ACE cuts *query* traffic. This bench
//! serves a Zipf workload through [`ace_overlay::serve_batch`]: on the
//! same world, the same queries are swept once over the initial overlay
//! with blind flooding and once over the ACE-optimized overlay with tree
//! forwarding, and each side records traffic, scope, duplicates and
//! p50/p99 hop and response latency — all in simulated units, pinned by
//! the batch digests. Throughput in queries per wall-clock second is the
//! repo benchmark's job (`serve_zipf_5k`: `qps_ace`, `qps_flood`).
//!
//! Worlds and distance plane match the scale curve ([`crate::scale`]):
//! same two-level physical topologies, same clustered overlays, same
//! hybrid Vivaldi oracle, so the two artifacts describe one system.

use ace_core::{AceConfig, AceEngine, AceForward};
use ace_overlay::{
    serve_batch, zipf_workload, Catalog, FloodAll, ForwardPolicy, Placement, QueryConfig,
    QuerySpec, ServeConfig, ServeReport,
};
use ace_topology::{DistancePlane, HybridConfig, HybridOracle, NodeId};
use serde::{Deserialize, Serialize};

use crate::scale::build_world;

/// Populations served; both are scale-curve points so the worlds are
/// directly comparable with `BENCH_scale.json`.
pub const QPS_POINTS: [usize; 2] = [800, 5_000];

/// ACE optimization rounds before the optimized side serves.
pub const QPS_ROUNDS: usize = 5;

/// World seed (per-point streams derive from it).
const SEED: u64 = 211;

/// Content catalog: the workspace's standard Gnutella-like workload.
const OBJECTS: usize = 500;
const REPLICAS: usize = 8;
const ZIPF: f64 = 0.8;

/// TTL covering every generated overlay even under tree-path dilation.
const TTL: u8 = 32;

/// Queries served per side at a population (smaller at 5k: each query
/// visits ~6× the peers, so this keeps both points at comparable cost).
pub fn queries_for(peers: usize) -> usize {
    if peers >= 5_000 {
        2_048
    } else {
        4_096
    }
}

/// One serving side (flooding on the initial overlay, or ACE tree
/// forwarding on the optimized overlay).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QpsSide {
    /// Median query-arrival (hop) latency, simulated ms.
    pub hop_p50_ms: f64,
    /// 99th-percentile hop latency, simulated ms.
    pub hop_p99_ms: f64,
    /// Median first-response round trip, simulated ms.
    pub response_p50_ms: f64,
    /// 99th-percentile first-response round trip, simulated ms.
    pub response_p99_ms: f64,
    /// Mean search scope per served query.
    pub mean_scope: f64,
    /// Mean traffic cost per served query.
    pub traffic_per_query: f64,
    /// Mean duplicate receipts per served query.
    pub duplicates_per_query: f64,
    /// Fraction of served queries that found a responder.
    pub success: f64,
    /// Queries skipped (dead source) — 0 here, the serving worlds are
    /// static; the field keeps the artifact honest if churn is added.
    pub skipped: u64,
    /// Heaviest per-peer inbox load of the sweep.
    pub max_inbox: u64,
    /// Batch digest — reproducibility pin for the whole side.
    pub digest: u64,
}

impl QpsSide {
    fn from_report(r: &ServeReport) -> Self {
        let served = r.served.max(1) as f64;
        QpsSide {
            // Serving sweeps always propagate; an empty histogram can
            // only mean zero served queries, where 0 ms is the honest
            // sentinel for the JSON schema.
            hop_p50_ms: r.hop_latency.quantile_ms(0.5).unwrap_or(0.0),
            hop_p99_ms: r.hop_latency.quantile_ms(0.99).unwrap_or(0.0),
            response_p50_ms: r.response_latency.quantile_ms(0.5).unwrap_or(0.0),
            response_p99_ms: r.response_latency.quantile_ms(0.99).unwrap_or(0.0),
            mean_scope: r.mean_scope,
            traffic_per_query: r.traffic_cost / served,
            duplicates_per_query: r.duplicates as f64 / served,
            success: r.success,
            skipped: r.skipped,
            max_inbox: r.max_inbox(),
            digest: r.digest(),
        }
    }
}

/// One population of the serving curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QpsPoint {
    /// Logical peers.
    pub peers: usize,
    /// Queries served per side.
    pub queries: usize,
    /// Blind flooding on the initial (mismatched) overlay.
    pub flood: QpsSide,
    /// ACE tree forwarding on the optimized overlay.
    pub ace: QpsSide,
    /// `ace.traffic_per_query / flood.traffic_per_query` — the paper's
    /// traffic claim, restated on the serving plane.
    pub traffic_ratio: f64,
    /// `ace.mean_scope / flood.mean_scope` — scope retention.
    pub scope_ratio: f64,
}

/// The whole committed artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QpsBench {
    /// ACE rounds run before the optimized side.
    pub rounds: usize,
    /// Shard size of the serving engine.
    pub chunk: usize,
    /// The curve.
    pub points: Vec<QpsPoint>,
}

impl QpsBench {
    /// The point for a population, if present.
    pub fn point(&self, peers: usize) -> Option<&QpsPoint> {
        self.points.iter().find(|p| p.peers == peers)
    }
}

/// Share of flooding's mean search scope the optimized side must keep
/// for [`check`] to pass — the paper's scope-retention claim.
pub const SCOPE_FLOOR: f64 = 0.9;

/// The `--check` rule, over simulated quantities only: the serving
/// digests must equal the committed baseline's (they are deterministic,
/// so drift means the serving semantics changed), the traffic ratio must
/// still be a reduction, and the scope ratio must clear [`SCOPE_FLOOR`].
/// Returns the failures; empty means the gate holds.
pub fn check(point: &QpsPoint, baseline: &QpsBench) -> Vec<String> {
    let Some(base) = baseline.point(point.peers) else {
        return vec![format!("baseline has no {}-peer point", point.peers)];
    };
    let mut failures = Vec::new();
    if point.flood.digest != base.flood.digest || point.ace.digest != base.ace.digest {
        failures.push(format!(
            "serving digests drifted from the baseline (flood {} vs {}, ace {} vs {})",
            point.flood.digest, base.flood.digest, point.ace.digest, base.ace.digest
        ));
    }
    if point.traffic_ratio >= 1.0 {
        failures.push(format!(
            "ACE stopped reducing per-query traffic (ratio {:.3})",
            point.traffic_ratio
        ));
    }
    if point.scope_ratio < SCOPE_FLOOR {
        failures.push(format!(
            "ACE kept {:.3} of flooding's search scope, under the {SCOPE_FLOOR} floor",
            point.scope_ratio
        ));
    }
    failures
}

fn serve_side<P: ForwardPolicy + Sync + ?Sized>(
    overlay: &ace_overlay::Overlay,
    plane: &dyn DistancePlane,
    policy: &P,
    placement: &Placement,
    specs: &[QuerySpec],
) -> ServeReport {
    let cfg = ServeConfig {
        query: QueryConfig {
            ttl: TTL,
            stop_at_responder: false,
        },
        ..ServeConfig::default()
    };
    serve_batch(
        overlay,
        plane,
        policy,
        specs,
        &|obj, peer| placement.is_holder(obj, peer),
        &cfg,
    )
}

/// Measures one population: same world and hybrid plane as the scale
/// curve, one Zipf workload, served by both sides.
pub fn run_point(peers: usize) -> QpsPoint {
    let (graph, overlay, mut rng) = build_world(peers, SEED);
    let members: Vec<NodeId> = overlay.peers().map(|p| overlay.host(p)).collect();
    let plane = HybridOracle::build(graph, &members, &HybridConfig::default());

    let catalog = Catalog::new(OBJECTS, ZIPF);
    let placement = Placement::random(OBJECTS, REPLICAS, &overlay, &mut rng);
    let queries = queries_for(peers);
    let specs = zipf_workload(&overlay, &catalog, queries, &mut rng);

    // Unoptimized side: blind flooding on the initial overlay.
    let flood_report = serve_side(&overlay, &plane, &FloodAll, &placement, &specs);

    // Optimized side: the same workload after ACE rounds.
    let mut optimized = overlay;
    let mut ace = AceEngine::new(
        optimized.peer_count(),
        AceConfig {
            parallel: true,
            ..AceConfig::paper_default()
        },
    );
    for _ in 0..QPS_ROUNDS {
        ace.round(&mut optimized, &plane, &mut rng);
    }
    let ace_report = serve_side(
        &optimized,
        &plane,
        &AceForward::new(&ace),
        &placement,
        &specs,
    );

    let flood = QpsSide::from_report(&flood_report);
    let ace_side = QpsSide::from_report(&ace_report);
    QpsPoint {
        peers,
        queries,
        traffic_ratio: ace_side.traffic_per_query / flood.traffic_per_query.max(1e-9),
        scope_ratio: ace_side.mean_scope / flood.mean_scope.max(1e-9),
        flood,
        ace: ace_side,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_one_failure, committed};

    #[test]
    fn check_holds_on_the_committed_curve_and_catches_digest_drift() {
        let baseline: QpsBench = committed("BENCH_qps.json");
        for point in &baseline.points {
            assert_eq!(check(point, &baseline), Vec::<String>::new());
            let mut flood = point.clone();
            flood.flood.digest ^= 1;
            assert_one_failure(&check(&flood, &baseline), "digests drifted");
            let mut ace = point.clone();
            ace.ace.digest ^= 1;
            assert_one_failure(&check(&ace, &baseline), "digests drifted");
        }
        let mut missing = baseline.points[0].clone();
        missing.peers = 123;
        assert_one_failure(&check(&missing, &baseline), "no 123-peer point");
    }

    /// The scope floor binds at 0.9 exactly.
    #[test]
    fn check_catches_scope_under_the_floor_and_lost_traffic_reduction() {
        let baseline: QpsBench = committed("BENCH_qps.json");
        let mut point = baseline.points[0].clone();
        point.scope_ratio = SCOPE_FLOOR;
        assert_eq!(check(&point, &baseline), Vec::<String>::new());
        point.scope_ratio = 0.89;
        assert_one_failure(&check(&point, &baseline), "kept 0.890 of flooding's");

        point.scope_ratio = 1.0;
        point.traffic_ratio = 1.0;
        assert_one_failure(&check(&point, &baseline), "stopped reducing");
    }

    /// A miniature point (not a committed population): the optimized side
    /// must cut per-query traffic while retaining scope, and both sides
    /// must actually serve.
    #[test]
    fn tiny_point_reduces_traffic_and_retains_scope() {
        let point = run_point_sized(300, 256);
        assert_eq!(point.flood.skipped, 0);
        assert_eq!(point.ace.skipped, 0);
        assert!(point.flood.mean_scope > 0.0);
        assert!(point.ace.mean_scope > 0.0);
        assert!(
            point.traffic_ratio < 0.95,
            "ACE must cut per-query traffic: ratio {}",
            point.traffic_ratio
        );
        assert!(
            point.scope_ratio > 0.9,
            "scope must be retained: ratio {}",
            point.scope_ratio
        );
    }

    /// Same world, same seed → same digests (the serving side of the
    /// reproducibility guarantee).
    #[test]
    fn points_are_reproducible() {
        let a = run_point_sized(200, 128);
        let b = run_point_sized(200, 128);
        assert_eq!(a.flood.digest, b.flood.digest);
        assert_eq!(a.ace.digest, b.ace.digest);
    }

    /// Test-only variant of [`run_point`] on an arbitrary (small)
    /// population with a custom query count.
    fn run_point_sized(peers: usize, queries: usize) -> QpsPoint {
        use ace_overlay::clustered_overlay;
        use ace_topology::generate::{two_level, TwoLevelConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(7);
        let topo = two_level(
            &TwoLevelConfig {
                as_count: 4,
                nodes_per_as: 200,
                ..TwoLevelConfig::default()
            },
            &mut rng,
        );
        let hosts = topo.graph.nodes().take(peers).collect();
        let overlay = clustered_overlay(hosts, 6, 0.7, Some(12), &mut rng);
        let members: Vec<NodeId> = overlay.peers().map(|p| overlay.host(p)).collect();
        let plane = HybridOracle::build(topo.graph, &members, &HybridConfig::default());

        let catalog = Catalog::new(OBJECTS, ZIPF);
        let placement = Placement::random(OBJECTS, REPLICAS, &overlay, &mut rng);
        let specs = zipf_workload(&overlay, &catalog, queries, &mut rng);

        let flood_report = serve_side(&overlay, &plane, &FloodAll, &placement, &specs);
        let mut optimized = overlay;
        let mut ace = AceEngine::new(optimized.peer_count(), AceConfig::paper_default());
        for _ in 0..QPS_ROUNDS {
            ace.round(&mut optimized, &plane, &mut rng);
        }
        let ace_report = serve_side(
            &optimized,
            &plane,
            &AceForward::new(&ace),
            &placement,
            &specs,
        );
        let flood = QpsSide::from_report(&flood_report);
        let ace_side = QpsSide::from_report(&ace_report);
        QpsPoint {
            peers,
            queries,
            traffic_ratio: ace_side.traffic_per_query / flood.traffic_per_query.max(1e-9),
            scope_ratio: ace_side.mean_scope / flood.mean_scope.max(1e-9),
            flood,
            ace: ace_side,
        }
    }
}
