//! Set-up: everything a workload builds before its first pass — the
//! physical topology, the overlay, the distance plane, the content
//! placement, the query specs and the script of units. All of it is
//! derived from the seed; the program under test only ever receives
//! these generated inputs.
//!
//! Worlds are the scale-curve worlds of `crates/bench` (`two_level` +
//! `clustered_overlay`, C = 6, locality 0.7, degree cap 12), re-created
//! here from public API because that crate's builder is private to it.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

use ace_core::protocol::ProtoConfig;
use ace_core::{AceConfig, AutoRateConfig, NetemConfig};
use ace_engine::SimTime;
use ace_overlay::{
    clustered_overlay, zipf_workload, Catalog, Overlay, PeerId, Placement, QueryConfig, QuerySpec,
};
use ace_topology::generate::{two_level, TwoLevelConfig};
use ace_topology::{DistanceOracle, DistancePlane, Graph, HybridConfig, HybridOracle, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{PlaneKind, Schedule, Workload, BATCH};

/// Overlay degree of every world (the paper's default C = 6).
const AVG_DEGREE: usize = 6;
/// Friend-of-friend attachment probability of `clustered_overlay`.
const LOCALITY: f64 = 0.7;
/// Content catalogue: the workspace's standard Gnutella-like workload.
const OBJECTS: usize = 500;
const ZIPF: f64 = 0.8;
const REPLICAS: usize = 8;
/// Links a (re)joining peer attaches with.
pub const JOIN_ATTACH: usize = 3;

/// Query parameters of every serve batch, single query and probe: a TTL
/// that covers every generated overlay, no early stop.
pub const QUERY: QueryConfig = QueryConfig {
    ttl: 32,
    stop_at_responder: false,
};

/// How a lifecycle event treats its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Churn {
    /// `Overlay::leave` + `AceEngine::on_leave`.
    Leave,
    /// `Overlay::leave` + `AceEngine::on_crash` (no goodbye).
    Crash,
    /// `Overlay::join(p, 3)` + `AceEngine::on_join`.
    Join,
}

/// One unit of a pass. A pass replays the script's steps in order and
/// times each one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// One `AceEngine::round`.
    Round,
    /// One lifecycle event: overlay mutation plus engine hook.
    Event(PeerId, Churn),
    /// `serve_batch` of these specs under `AceForward` on the current
    /// overlay.
    BatchAce(Range<usize>),
    /// `serve_batch` of these specs under `FloodAll` on the initial
    /// overlay.
    BatchFlood(Range<usize>),
    /// One `run_query_into` of this spec under `AceForward`.
    Query(usize),
    /// `AsyncAceSim::run_until` this simulated second.
    AsyncRun(u64),
    /// Flip these peers in the simulator (`peer_leave` if alive, else
    /// `peer_join`).
    AsyncFlip(Vec<PeerId>),
}

impl Step {
    /// Name of the unit's outer span.
    pub fn span_name(&self) -> &'static str {
        match self {
            Step::Round => "unit.round",
            Step::Event(..) => "unit.event",
            Step::BatchAce(_) => "unit.batch_ace",
            Step::BatchFlood(_) => "unit.batch_flood",
            Step::Query(_) => "unit.query",
            Step::AsyncRun(_) => "unit.async_run",
            Step::AsyncFlip(_) => "unit.async_flip",
        }
    }
}

/// Wall time of the two set-up stages the per-layer ledger names.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `two_level` + host sampling + `clustered_overlay`.
    pub world_ms: f64,
    /// `HybridOracle::build`, or `DistanceOracle::new` plus one
    /// `distances_from` per peer host.
    pub plane_ms: f64,
}

/// Everything set-up produces.
pub struct World {
    /// The workload this world was built for.
    pub workload: Workload,
    /// The seed it was built from.
    pub seed: u64,
    /// The overlay as generated (all peers alive, nothing optimised).
    pub overlay0: Overlay,
    /// The distance plane ([`Workload::plane`] says which kind).
    pub plane: Box<dyn DistancePlane>,
    /// Which peers hold which objects.
    pub placement: Placement,
    /// Query specs: serve batches first, the single queries are a prefix.
    pub specs: Vec<QuerySpec>,
    /// The units every pass replays.
    pub script: Vec<Step>,
    /// RNG stream the rounds draw from (cloned per pass).
    pub rng: StdRng,
    /// Stage timings of this set-up.
    pub times: SetupTimes,
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

/// Physical graph and clustered overlay of a workload.
fn build_world(w: &Workload, seed: u64) -> (Graph, Overlay, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = two_level(
        &TwoLevelConfig {
            as_count: w.as_count,
            nodes_per_as: w.nodes_per_as,
            ..TwoLevelConfig::default()
        },
        &mut rng,
    );
    let hosts = sample_hosts(&mut rng, topo.graph.node_count(), w.peers);
    let overlay = clustered_overlay(hosts, AVG_DEGREE, LOCALITY, Some(2 * AVG_DEGREE), &mut rng);
    (topo.graph, overlay, rng)
}

/// Hosts of all peers, in peer-id order (the hybrid plane's member set).
pub fn member_hosts(overlay: &Overlay) -> Vec<NodeId> {
    overlay.peers().map(|p| overlay.host(p)).collect()
}

/// An independent RNG stream for one purpose (`tag`) of one seed.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One complete set-up of `w` from `seed`.
pub fn setup(w: &Workload, seed: u64) -> World {
    let t0 = Instant::now();
    let (graph, overlay0, mut rng) = build_world(w, seed);
    let world_ms = t0.elapsed().as_secs_f64() * 1e3;

    let members = member_hosts(&overlay0);
    let t1 = Instant::now();
    let plane: Box<dyn DistancePlane> = match w.plane {
        PlaneKind::Hybrid => Box::new(HybridOracle::build(
            graph,
            &members,
            &HybridConfig::default(),
        )),
        PlaneKind::Exact => {
            let oracle = DistanceOracle::new(graph);
            for &m in &members {
                oracle.distances_from(m);
            }
            Box::new(oracle)
        }
    };
    let plane_ms = t1.elapsed().as_secs_f64() * 1e3;

    let catalog = Catalog::new(OBJECTS, ZIPF);
    let placement = Placement::random(OBJECTS, REPLICAS, &overlay0, &mut rng);
    let n_specs = (w.serve_batches * BATCH).max(w.single_queries);
    let specs = zipf_workload(&overlay0, &catalog, n_specs, &mut rng);
    let script = build_script(w, seed);

    World {
        workload: *w,
        seed,
        overlay0,
        plane,
        placement,
        specs,
        script,
        rng,
        times: SetupTimes { world_ms, plane_ms },
    }
}

/// The probe set the simulated metrics are taken on: Zipf queries from
/// peers alive in `overlay` (the end state of the first pass).
pub fn probe_specs(world: &World, overlay: &Overlay) -> Vec<QuerySpec> {
    let catalog = Catalog::new(OBJECTS, ZIPF);
    zipf_workload(
        overlay,
        &catalog,
        world.workload.probe_queries,
        &mut stream(world.seed, 3),
    )
}

/// Draws the targets of lifecycle events. A target is uniform over all
/// ids and flips: alive peers go, offline peers come back. So that the
/// join path runs even when a script is short next to the population,
/// every third draw instead brings back the peer offline the longest.
/// Nothing but these events changes liveness (rounds run without fault
/// injection), so it is tracked here, ahead of time.
struct ChurnDraw {
    rng: StdRng,
    alive: Vec<bool>,
    offline: VecDeque<usize>,
    draws: usize,
}

impl ChurnDraw {
    fn new(peers: usize, rng: StdRng) -> Self {
        ChurnDraw {
            rng,
            alive: vec![true; peers],
            offline: VecDeque::new(),
            draws: 0,
        }
    }

    /// The next target and whether it was alive before the event.
    fn next(&mut self) -> (PeerId, bool) {
        self.draws += 1;
        let p = match self.offline.front() {
            Some(&longest) if self.draws.is_multiple_of(3) => longest,
            _ => self.rng.gen_range(0..self.alive.len()),
        };
        let was_alive = self.alive[p];
        self.alive[p] = !was_alive;
        if was_alive {
            self.offline.push_back(p);
        } else {
            self.offline.retain(|&q| q != p);
        }
        (PeerId::new(p as u32), was_alive)
    }
}

/// Lays out a pass: head rounds, serving (batches under both policies,
/// then single queries) while every source is still alive, the churn
/// blocks (each closed by a round, so the pass ends on a repaired
/// engine), then the message-level protocol on a simulator of its own.
fn build_script(w: &Workload, seed: u64) -> Vec<Step> {
    let mut script = vec![Step::Round; w.head_rounds];
    let batch = |b: usize| b * BATCH..(b + 1) * BATCH;
    script.extend((0..w.serve_batches).map(|b| Step::BatchAce(batch(b))));
    script.extend((0..w.serve_batches).map(|b| Step::BatchFlood(batch(b))));
    script.extend((0..w.single_queries).map(Step::Query));

    let mut churn = ChurnDraw::new(w.peers, stream(seed, 1));
    for _ in 0..w.churn_blocks {
        for _ in 0..w.events_per_block {
            let (p, was_alive) = churn.next();
            let kind = if !was_alive {
                Churn::Join
            } else if churn.rng.gen_range(0..4) == 0 {
                Churn::Crash
            } else {
                Churn::Leave
            };
            script.push(Step::Event(p, kind));
        }
        script.push(Step::Round);
    }

    let mut churn = ChurnDraw::new(w.peers, stream(seed, 2));
    for unit in 1..=w.async_units {
        if unit > 1 && w.async_flips > 0 {
            let flips = (0..w.async_flips).map(|_| churn.next().0).collect();
            script.push(Step::AsyncFlip(flips));
        }
        script.push(Step::AsyncRun(unit as u64 * w.async_unit_secs));
    }
    script
}

/// Engine configuration of a workload. Every wall-clock figure is
/// single-threaded: `workers` is 1 wherever the pool is used.
pub fn ace_config(w: &Workload) -> AceConfig {
    let base = AceConfig {
        workers: 1,
        ..AceConfig::paper_default()
    };
    match w.schedule {
        Schedule::Planned => AceConfig {
            parallel: true,
            ..base
        },
        Schedule::PlannedAutorate => AceConfig {
            parallel: true,
            autorate: Some(AutoRateConfig::default()),
            ..base
        },
        Schedule::SerialH2 => AceConfig { depth: 2, ..base },
    }
}

/// Protocol configuration of the async section: defaults plus a lossy,
/// duplicating, reordering wire.
pub fn proto_config(seed: u64) -> ProtoConfig {
    ProtoConfig {
        netem: Some(NetemConfig {
            loss: 0.02,
            duplicate: 0.01,
            reorder_jitter: SimTime::from_millis(50).as_ticks(),
            seed,
            ..NetemConfig::default()
        }),
        ..ProtoConfig::default()
    }
}
