//! Reusable experiment drivers behind every figure/table reproduction.
//!
//! The binaries in `ace-bench` are thin wrappers over this module, so the
//! same code paths are exercised by unit/integration tests at small scale
//! and by the figure harness at paper scale.

mod depth;
pub mod differential;
mod dynamic_env;
mod static_env;

pub use depth::{depth_sweep, DepthPoint, DepthSweepConfig};
pub use differential::{
    differential_run, ChurnKind, ChurnStep, DifferentialConfig, DifferentialOutcome, SideOutcome,
};
pub use dynamic_env::{dynamic_run, DynamicConfig, DynamicResult, DynamicWindow};
pub use static_env::{static_run, StaticConfig, StaticResult, StepStats};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ace_engine::rng::sample_distinct;
use ace_overlay::{
    clustered_overlay, pref_attach_overlay, random_overlay, run_query_into, Catalog, ForwardPolicy,
    Overlay, PeerId, Placement, QueryConfig, QueryOutcome, QueryScratch, QuerySpec,
};
use ace_topology::generate::{two_level, TwoLevelConfig};
use ace_topology::{DistanceOracle, DistancePlane, LandmarkOracle, NodeId};

/// Which overlay construction to use.
#[derive(Clone, Copy, Debug, Default)]
pub enum OverlayKind {
    /// Friend-of-friend attachment (small-world clustering, the measured
    /// Gnutella shape the paper assumes). Default.
    #[default]
    Clustered,
    /// Random-attachment arrivals (uniform-ish degrees, no clustering) —
    /// the control that shows ACE needs neighborhood structure.
    Random,
    /// Preferential attachment (power-law degrees, Gnutella-like).
    PrefAttach,
}

/// Full description of one simulated world. The physical network is a
/// two-level AS/router hierarchy ([`two_level`]), the strongest mismatch
/// signal.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Number of ASes of the physical network.
    pub as_count: usize,
    /// Routers per AS.
    pub nodes_per_as: usize,
    /// Number of logical peers.
    pub peers: usize,
    /// Average logical degree `C` (the paper sweeps 4–10).
    pub avg_degree: usize,
    /// Overlay construction.
    pub overlay: OverlayKind,
    /// Catalog size (distinct objects).
    pub objects: usize,
    /// Replicas per object.
    pub replicas: usize,
    /// Zipf skew of query popularity.
    pub zipf: f64,
    /// Master seed; every run is a pure function of its config.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    /// A laptop-scale default: 2,000-router two-level topology, 500 peers,
    /// C = 6.
    fn default() -> Self {
        ScenarioConfig {
            as_count: 10,
            nodes_per_as: 200,
            peers: 500,
            avg_degree: 6,
            overlay: OverlayKind::Clustered,
            objects: 500,
            replicas: 8,
            zipf: 0.8,
            seed: 1,
        }
    }
}

/// A built world: physical distances, overlay, content and a seeded RNG.
#[derive(Debug)]
pub struct Scenario {
    /// Physical distance oracle.
    pub oracle: DistanceOracle,
    /// The logical overlay.
    pub overlay: Overlay,
    /// Query popularity.
    pub catalog: Catalog,
    /// Object placement.
    pub placement: Placement,
    /// RNG carrying the run's remaining randomness.
    pub rng: StdRng,
}

impl Scenario {
    /// Builds the world described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if there are more peers than physical nodes.
    pub fn build(cfg: &ScenarioConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let graph = two_level(
            &TwoLevelConfig {
                as_count: cfg.as_count,
                nodes_per_as: cfg.nodes_per_as,
            },
            &mut rng,
        )
        .graph;
        assert!(
            cfg.peers <= graph.node_count(),
            "more peers ({}) than physical nodes ({})",
            cfg.peers,
            graph.node_count()
        );
        let hosts: Vec<NodeId> = sample_distinct(&mut rng, graph.node_count(), cfg.peers)
            .into_iter()
            .map(|i| NodeId::new(i as u32))
            .collect();
        let oracle = DistanceOracle::new(graph);
        // Gnutella servents cap their connection count; 2C bounds the
        // degree drift that phase-3 "keep both" additions could cause.
        let cap = Some(2 * cfg.avg_degree);
        let overlay = match cfg.overlay {
            OverlayKind::Clustered => clustered_overlay(hosts, cfg.avg_degree, 0.7, cap, &mut rng),
            OverlayKind::Random => random_overlay(hosts, cfg.avg_degree, cap, &mut rng),
            OverlayKind::PrefAttach => pref_attach_overlay(hosts, cfg.avg_degree, cap, &mut rng),
        };
        let catalog = Catalog::new(cfg.objects, cfg.zipf);
        let placement = Placement::random(cfg.objects, cfg.replicas, &overlay, &mut rng);
        Scenario {
            oracle,
            overlay,
            catalog,
            placement,
            rng,
        }
    }
}

/// Averages over a batch of measured queries.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QuerySample {
    /// Mean traffic cost per query.
    pub traffic: f64,
    /// Mean first-response round trip in milliseconds (over answered
    /// queries).
    pub response_ms: f64,
    /// Mean search scope (peers reached).
    pub scope: f64,
    /// Mean duplicate transmissions per query.
    pub duplicates: f64,
    /// Fraction of queries that found at least one responder.
    pub success: f64,
}

/// Runs one query per spec under `policy` and averages the outcomes. Only
/// holders that are currently alive respond. An empty workload (say,
/// drawn when every peer had departed) measures nothing and returns the
/// all-zero sample.
pub fn measure_queries<P: ForwardPolicy + ?Sized>(
    overlay: &Overlay,
    oracle: &dyn DistancePlane,
    placement: &Placement,
    specs: &[QuerySpec],
    ttl: u8,
    policy: &P,
) -> QuerySample {
    if specs.is_empty() {
        return QuerySample::default();
    }
    let cfg = QueryConfig {
        ttl,
        stop_at_responder: false,
    };
    let mut out = QuerySample::default();
    let mut responded = 0u64;
    // One scratch + outcome amortizes the heap and per-peer vectors over
    // the whole batch instead of reallocating them per query.
    let mut scratch = QueryScratch::new();
    let mut q = QueryOutcome::default();
    for &QuerySpec { source, object } in specs {
        run_query_into(
            overlay,
            oracle,
            source,
            &cfg,
            policy,
            |p| placement.is_holder(object, p),
            &mut scratch,
            &mut q,
        );
        out.traffic += q.traffic_cost;
        out.scope += q.scope as f64;
        out.duplicates += q.duplicates as f64;
        if let Some(rt) = q.first_response {
            out.response_ms += rt.as_millis_f64();
            responded += 1;
        }
    }
    let n = specs.len() as f64;
    out.traffic /= n;
    out.scope /= n;
    out.duplicates /= n;
    out.success = responded as f64 / n;
    out.response_ms = if responded > 0 {
        out.response_ms / responded as f64
    } else {
        0.0
    };
    out
}

/// Builds a landmark-clustered overlay for the related-work ablation: each
/// arriving peer connects to the `avg_degree / 2` *landmark-closest*
/// already-arrived peers instead of random ones. This is the "measure
/// distance to a few landmarks, cluster by coordinates" approach the paper
/// argues is less accurate than direct probing.
///
/// # Panics
///
/// Panics if fewer than 2 hosts or `avg_degree < 2`.
pub fn landmark_overlay<R: Rng + ?Sized>(
    hosts: Vec<NodeId>,
    avg_degree: usize,
    landmarks: &LandmarkOracle,
    rng: &mut R,
) -> Overlay {
    assert!(hosts.len() >= 2, "need at least two peers");
    assert!(avg_degree >= 2, "average degree must be at least 2");
    let attach = (avg_degree / 2).max(1);
    let n = hosts.len();
    let host_of = hosts.clone();
    let mut ov = Overlay::new(hosts, None);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for (pos, &pi) in order.iter().enumerate().skip(1) {
        let p = PeerId::new(pi as u32);
        // Rank earlier arrivals by landmark-estimated distance.
        let mut ranked: Vec<(u32, PeerId)> = order[..pos]
            .iter()
            .map(|&qi| {
                let q = PeerId::new(qi as u32);
                (landmarks.estimate(host_of[pi], host_of[qi]), q)
            })
            .collect();
        ranked.sort_unstable();
        for &(_, q) in ranked.iter().take(attach) {
            let _ = ov.connect(p, q);
        }
    }
    // The greedy clustering can fragment the overlay; bridge like Gnutella
    // bootstrap servers would.
    loop {
        let alive: Vec<PeerId> = ov.alive_peers().collect();
        let first = alive[0];
        let mut seen = vec![false; ov.peer_count()];
        let mut stack = vec![first];
        seen[first.index()] = true;
        while let Some(u) = stack.pop() {
            for &v in ov.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        match alive.iter().find(|p| !seen[p.index()]) {
            Some(&outside) => {
                let inside = alive[rng.gen_range(0..alive.len())];
                if seen[inside.index()] {
                    let _ = ov.connect(outside, inside);
                }
            }
            None => break,
        }
    }
    ov
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_overlay::{zipf_workload, FloodAll};

    fn tiny() -> ScenarioConfig {
        ScenarioConfig {
            as_count: 3,
            nodes_per_as: 40,
            peers: 60,
            avg_degree: 4,
            objects: 50,
            replicas: 4,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn scenario_build_is_deterministic() {
        let a = Scenario::build(&tiny());
        let b = Scenario::build(&tiny());
        assert_eq!(a.overlay.edge_count(), b.overlay.edge_count());
        assert_eq!(a.overlay.peer_count(), 60);
        assert!(a.overlay.is_connected());
        let ea: Vec<_> = a
            .overlay
            .peers()
            .map(|p| a.overlay.neighbors(p).to_vec())
            .collect();
        let eb: Vec<_> = b
            .overlay
            .peers()
            .map(|p| b.overlay.neighbors(p).to_vec())
            .collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn measure_queries_reports_full_scope_under_flooding() {
        let mut s = Scenario::build(&tiny());
        let specs = zipf_workload(&s.overlay, &s.catalog, 20, &mut s.rng);
        let m = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, 32, &FloodAll);
        assert!((m.scope - 60.0).abs() < 1e-9, "scope {}", m.scope);
        assert!(m.traffic > 0.0);
        assert!(m.success > 0.9, "replicated objects should be found");
    }

    /// With everyone departed the workload is empty, and measuring it is
    /// the all-zero sample, not a panic.
    #[test]
    fn measure_queries_on_a_departed_population_is_the_zero_sample() {
        let mut s = Scenario::build(&tiny());
        let everyone: Vec<PeerId> = s.overlay.peers().collect();
        for p in everyone {
            s.overlay.leave(p).expect("alive peer leaves");
        }
        let specs = zipf_workload(&s.overlay, &s.catalog, 20, &mut s.rng);
        assert!(specs.is_empty());
        let m = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, 32, &FloodAll);
        assert_eq!(m, QuerySample::default());
    }

    #[test]
    fn landmark_overlay_is_connected() {
        let mut s = Scenario::build(&tiny());
        let hosts: Vec<NodeId> = s.overlay.peers().map(|p| s.overlay.host(p)).collect();
        let lms = vec![NodeId::new(0), NodeId::new(40), NodeId::new(80)];
        let lm = LandmarkOracle::new(s.oracle.graph(), lms);
        let ov = landmark_overlay(hosts, 4, &lm, &mut s.rng);
        assert!(ov.is_connected());
        assert_eq!(ov.peer_count(), 60);
        ov.check_invariants().unwrap();
    }
}
