//! The scenario matrix — one harness over the cross-product of content
//! popularity × replication × search strategy × ACE on/off, written to
//! `BENCH_matrix.json`.
//!
//! Every earlier artifact demonstrates ACE's traffic cut under *one*
//! search primitive at a time (flooding in the figures, serving in the
//! qps curve). This module runs the same seeded world through every
//! combination of:
//!
//! * **Zipf skew** of the query workload ([`ZIPF_POINTS`]),
//! * **replication factor** of the placed content ([`REPLICA_POINTS`]),
//! * **search strategy** ([`Strategy`]: blind flooding, k-walker random
//!   walks, a KaZaA-style supernode core, response index caching),
//! * **ACE on/off**,
//!
//! and reports per cell: recall, first-response latency percentiles
//! (via [`LatencyHistogram`]), traffic cost, and per-link stress
//! (max/mean messages per overlay link, from [`LinkLoad`]). Mid-cell
//! churn bursts (alternating graceful leaves and silent crashes, with
//! later rejoins) drive the `LifecycleEvent` purge taxonomy through the
//! index caches and the supernode tier, so the matrix exercises exactly
//! the stale-state paths the PR's bugfixes harden.
//!
//! Determinism is cell-local: every RNG stream a cell uses derives from
//! the cell's *parameters* (never from its position in a run), so any
//! subset of cells — the CI slice — reproduces the committed artifact
//! digest-for-digest at any worker count. Streams deliberately exclude
//! the replication factor: cells differing only in `replicas` see the
//! same churn schedule, the same ACE rounds, the same query sources and
//! the same walker trajectories, and placements are *nested* (per object
//! one holder permutation, replication factors take prefixes), which
//! makes recall provably monotone in replication for every strategy
//! without evolving per-query state (the index cache is the documented
//! exception).

use ace_core::{purge_index_cache, AceConfig, AceEngine, AceForward, LifecycleEvent};
use ace_engine::pool::{effective_workers, plan_parallel};
use ace_engine::rng::{sample_distinct, splitmix64};
use ace_overlay::{
    random_walk_query_traced, run_query_traced, Catalog, FloodAll, ForwardPolicy, IndexCache,
    LatencyHistogram, LinkLoad, ObjectId, Overlay, PeerId, Placement, QueryConfig, QueryOutcome,
    TierRole, TwoTierConfig, TwoTierNetwork, WalkConfig,
};
use ace_topology::{DistancePlane, HybridConfig, HybridOracle, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::scale::build_world_sized;

/// Zipf skews of the query workload: a mild head and a heavy head,
/// bracketing the ~0.8 the measured-Gnutella experiments use.
pub const ZIPF_POINTS: [f64; 2] = [0.6, 1.1];

/// Replication factors; prefixes of one nested holder permutation.
pub const REPLICA_POINTS: [usize; 2] = [2, 8];

/// ACE optimization rounds before a cell's queries (plus one repair
/// round after each churn burst).
pub const MATRIX_ROUNDS: usize = 5;

/// Query TTL (covers every generated overlay even under tree dilation).
const TTL: u8 = 32;

/// Overlay attach degree for rejoining peers (the workspace default).
const AVG_DEGREE: usize = 6;

/// k-walker parameters: walkers per query × hop budget per walker. Each
/// walker draws from its own RNG stream so trajectories are independent
/// of placement (the monotonicity argument needs walker `w`'s path to be
/// a fixed function of the cell and query, not of earlier hits).
const WALKERS: usize = 16;
const WALK_HOPS: usize = 64;

/// Per-peer response index cache capacity for [`Strategy::Cache`].
const CACHE_CAP: usize = 200;

/// World seed of the committed matrix.
const SEED: u64 = 313;

/// The search strategies of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Blind Gnutella flooding (ACE on = tree forwarding).
    Flood,
    /// k-walker random walks (ACE on = walks over the optimized
    /// topology; walks have no forwarding policy to replace).
    Walk,
    /// KaZaA-style supernode core: leaves publish their index to a
    /// supernode, queries flood the core (ACE on = core optimization
    /// plus tree forwarding among supernodes).
    TwoTier,
    /// Flooding plus the §5.2 response index cache (queries stop at the
    /// first responder; caches follow the lifecycle purge taxonomy).
    Cache,
}

impl Strategy {
    /// Every strategy, in matrix order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Flood,
        Strategy::Walk,
        Strategy::TwoTier,
        Strategy::Cache,
    ];

    /// Stable lowercase name (artifact and display key).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Flood => "flood",
            Strategy::Walk => "walk",
            Strategy::TwoTier => "two_tier",
            Strategy::Cache => "cache",
        }
    }

    fn tag(self) -> u64 {
        match self {
            Strategy::Flood => 1,
            Strategy::Walk => 2,
            Strategy::TwoTier => 3,
            Strategy::Cache => 4,
        }
    }
}

/// Minimum recall the CI gate demands per strategy, from the committed
/// 800-peer artifact with headroom. Flooding-family strategies cover the
/// whole (connected) population, so only churn-killed holders cost
/// recall; walks are budget-bounded and legitimately miss rare objects.
pub fn recall_floor(s: Strategy) -> f64 {
    match s {
        Strategy::Flood | Strategy::TwoTier | Strategy::Cache => 0.9,
        Strategy::Walk => 0.7,
    }
}

/// One cell of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellConfig {
    /// Search strategy.
    pub strategy: Strategy,
    /// Zipf skew of the query workload.
    pub zipf: f64,
    /// Replicas per object (a prefix of the nested holder pool).
    pub replicas: usize,
    /// Whether ACE optimizes the overlay (and forwards on trees where
    /// the strategy floods).
    pub ace: bool,
}

/// The world description a matrix runs on.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Logical peers.
    pub peers: usize,
    /// Two-level physical topology: autonomous systems.
    pub as_count: usize,
    /// Nodes per AS.
    pub nodes_per_as: usize,
    /// Catalog size.
    pub objects: usize,
    /// Depth of the nested holder pool (max replication factor usable).
    pub max_replicas: usize,
    /// Queries per cell.
    pub queries: usize,
    /// World seed (every cell stream derives from it).
    pub seed: u64,
}

impl WorldConfig {
    /// The committed 800-peer matrix world (the scale curve's smallest
    /// point dimensions).
    pub fn committed() -> Self {
        WorldConfig {
            peers: 800,
            as_count: 10,
            nodes_per_as: 400,
            objects: 400,
            max_replicas: 8,
            queries: 512,
            seed: SEED,
        }
    }

    /// A small world for (property) tests: same construction, minutes
    /// cheaper.
    pub fn small(peers: usize, queries: usize, seed: u64) -> Self {
        WorldConfig {
            peers,
            as_count: 4,
            nodes_per_as: 100,
            objects: 60,
            max_replicas: 8,
            queries,
            seed,
        }
    }
}

/// A built matrix world: the pristine overlay, the hybrid distance
/// plane, and the nested holder pool every cell's placements are
/// prefixes of.
pub struct MatrixWorld {
    cfg: WorldConfig,
    overlay: Overlay,
    plane: HybridOracle,
    /// `holder_pool[object]` = `max_replicas` distinct peers in draw
    /// order; `placement(r)` takes each object's first `r`.
    holder_pool: Vec<Vec<PeerId>>,
}

impl MatrixWorld {
    /// Builds the world (topology, overlay, hybrid plane, holder pool).
    pub fn build(cfg: &WorldConfig) -> Self {
        let (graph, overlay, mut rng) =
            build_world_sized(cfg.peers, cfg.as_count, cfg.nodes_per_as, cfg.seed);
        let members: Vec<NodeId> = overlay.peers().map(|p| overlay.host(p)).collect();
        let plane = HybridOracle::build(graph, &members, &HybridConfig::default());
        let alive: Vec<PeerId> = overlay.alive_peers().collect();
        let depth = cfg.max_replicas.min(alive.len());
        let holder_pool = (0..cfg.objects)
            .map(|_| {
                sample_distinct(&mut rng, alive.len(), depth)
                    .into_iter()
                    .map(|i| alive[i])
                    .collect()
            })
            .collect();
        MatrixWorld {
            cfg: *cfg,
            overlay,
            plane,
            holder_pool,
        }
    }

    /// The world description.
    pub fn cfg(&self) -> &WorldConfig {
        &self.cfg
    }

    /// The pristine overlay cells start from.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The placement for a replication factor: each object's first
    /// `replicas` pool entries, so placements nest across factors.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is 0.
    pub fn placement(&self, replicas: usize) -> Placement {
        assert!(replicas > 0, "need at least one replica");
        Placement::from_lists(
            self.holder_pool
                .iter()
                .map(|hs| hs[..replicas.min(hs.len())].to_vec())
                .collect(),
        )
    }
}

/// Everything measured about one cell.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Search strategy.
    pub strategy: Strategy,
    /// Zipf skew.
    pub zipf: f64,
    /// Replication factor.
    pub replicas: usize,
    /// ACE on/off.
    pub ace: bool,
    /// Queries drawn.
    pub drawn: u64,
    /// Queries that found a responder.
    pub served: u64,
    /// Queries that found none (`served + failed == drawn` always).
    pub failed: u64,
    /// `served / drawn`.
    pub recall: f64,
    /// Median first-response round trip over served queries, simulated ms.
    pub response_p50_ms: f64,
    /// 95th percentile.
    pub response_p95_ms: f64,
    /// 99th percentile.
    pub response_p99_ms: f64,
    /// Total traffic cost over all queries (access links included for
    /// the two-tier strategy).
    pub traffic_total: f64,
    /// `traffic_total / drawn`.
    pub traffic_per_query: f64,
    /// Query transmissions sent (== the link tally's message total).
    pub messages: u64,
    /// Distinct overlay links that carried at least one message.
    pub links_used: usize,
    /// Σ cost over the per-link tally — reconciles with `traffic_total`
    /// (same transmissions, accumulated per link instead of per query).
    pub link_total_cost: f64,
    /// Messages over the single busiest link — the hot-spot stress
    /// metric ACE must not blow up while cutting totals.
    pub link_max_messages: u64,
    /// Mean messages per used link.
    pub link_mean_messages: f64,
    /// Join/leave events executed mid-cell.
    pub churn_events: u64,
    /// Deterministic digest of the cell's full per-query trace.
    pub digest: u64,
}

/// The whole committed artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MatrixBench {
    /// Logical peers of the matrix world.
    pub peers: usize,
    /// Queries per cell.
    pub queries_per_cell: usize,
    /// ACE rounds per optimized cell.
    pub rounds: usize,
    /// Every measured cell.
    pub cells: Vec<CellResult>,
}

impl MatrixBench {
    /// Looks up a cell by its coordinates.
    pub fn cell(
        &self,
        strategy: Strategy,
        zipf: f64,
        replicas: usize,
        ace: bool,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.strategy == strategy
                && (c.zipf - zipf).abs() < 1e-12
                && c.replicas == replicas
                && c.ace == ace
        })
    }

    /// `(off, on)` pairs of cells differing only in the ACE flag — the
    /// traffic-reduction claim is checked per pair.
    pub fn ace_pairs(&self) -> Vec<(&CellResult, &CellResult)> {
        self.cells
            .iter()
            .filter(|c| !c.ace)
            .filter_map(|off| {
                self.cell(off.strategy, off.zipf, off.replicas, true)
                    .map(|on| (off, on))
            })
            .collect()
    }
}

/// The `--check` rule: every measured cell must exist in the committed
/// artifact with the same digest (digests are parameter-derived, so a
/// slice reproduces the committed cells exactly regardless of which
/// other cells ran), clear its strategy's [`recall_floor`], and ACE
/// must not raise traffic in any `(off, on)` pair. Returns the
/// failures; empty means the gate holds.
pub fn check(measured: &MatrixBench, baseline: &MatrixBench) -> Vec<String> {
    let mut failures = Vec::new();
    let key = |c: &CellResult| {
        format!(
            "{} zipf={} r={} ace={}",
            c.strategy.name(),
            c.zipf,
            c.replicas,
            c.ace
        )
    };
    for c in &measured.cells {
        match baseline.cell(c.strategy, c.zipf, c.replicas, c.ace) {
            None => failures.push(format!("{}: missing from the committed artifact", key(c))),
            Some(b) if b.digest != c.digest => failures.push(format!(
                "{}: digest drifted (committed {:#x}, measured {:#x})",
                key(c),
                b.digest,
                c.digest
            )),
            Some(_) => {}
        }
        let floor = recall_floor(c.strategy);
        if c.recall < floor {
            failures.push(format!(
                "{}: recall {:.3} below the {} floor {floor}",
                key(c),
                c.recall,
                c.strategy.name()
            ));
        }
    }
    for (off, on) in measured.ace_pairs() {
        if on.traffic_total > off.traffic_total {
            failures.push(format!(
                "{} zipf={} r={}: ACE increased traffic ({:.1} -> {:.1})",
                off.strategy.name(),
                off.zipf,
                off.replicas,
                off.traffic_total,
                on.traffic_total
            ));
        }
    }
    failures
}

/// The full committed cross-product: 4 strategies × 2 Zipf points × 2
/// replication points × ACE on/off = 32 cells.
pub fn committed_cells() -> Vec<CellConfig> {
    let mut cells = Vec::new();
    for &strategy in &Strategy::ALL {
        for &zipf in &ZIPF_POINTS {
            for &replicas in &REPLICA_POINTS {
                for ace in [false, true] {
                    cells.push(CellConfig {
                        strategy,
                        zipf,
                        replicas,
                        ace,
                    });
                }
            }
        }
    }
    cells
}

/// The CI slice: the first Zipf point only — 16 cells, every strategy ×
/// replication × ACE combination, each digest-comparable against the
/// committed artifact (cell streams never depend on which other cells
/// run).
pub fn slice_cells() -> Vec<CellConfig> {
    committed_cells()
        .into_iter()
        .filter(|c| (c.zipf - ZIPF_POINTS[0]).abs() < 1e-12)
        .collect()
}

/// Runs `cells` over one world, cell-parallel, in input order. Results
/// are bit-identical for any `workers` (0 = one per core): each cell is
/// sequential and fully determined by its parameters.
pub fn run_matrix(world: &MatrixWorld, cells: &[CellConfig], workers: usize) -> Vec<CellResult> {
    plan_parallel(cells.len(), effective_workers(workers), |i| {
        run_cell(world, &cells[i])
    })
}

/// RNG stream ids a cell derives from its parameters.
const STREAM_ACE: u64 = 1;
const STREAM_CHURN: u64 = 2;
const STREAM_SETUP: u64 = 3;
const STREAM_QUERY: u64 = 4;

/// Seed of one of a cell's streams. Deliberately a function of the cell
/// *parameters minus the replication factor* (see the module docs): the
/// overlay's whole evolution — ACE rounds, churn schedule, query sources,
/// walker paths — must be identical across replication factors for the
/// nested-placement monotonicity argument to hold.
fn stream_seed(world: &WorldConfig, cell: &CellConfig, stream: u64) -> u64 {
    let mut h = splitmix64(world.seed ^ 0xACE0_ACE0_ACE0_ACE0);
    h = splitmix64(h ^ cell.strategy.tag());
    h = splitmix64(h ^ cell.zipf.to_bits());
    h = splitmix64(h ^ (cell.ace as u64 + 1));
    splitmix64(h ^ stream)
}

/// Per-cell digest accumulator.
struct Digest(u64);

impl Digest {
    fn new(seed: u64) -> Self {
        Digest(splitmix64(seed))
    }
    fn mix(&mut self, w: u64) {
        self.0 = splitmix64(self.0 ^ w);
    }
}

/// Tracks one cell's measurement state shared by all strategies.
struct CellTrace {
    load: LinkLoad,
    hist: LatencyHistogram,
    served: u64,
    traffic_total: f64,
    churn_events: u64,
    digest: Digest,
}

impl CellTrace {
    fn new(world: &WorldConfig, cell: &CellConfig) -> Self {
        CellTrace {
            load: LinkLoad::new(),
            hist: LatencyHistogram::new(),
            served: 0,
            traffic_total: 0.0,
            churn_events: 0,
            digest: Digest::new(stream_seed(world, cell, 0) ^ cell.replicas as u64),
        }
    }

    /// Records one finished query: response round trip in ticks (`None`
    /// = failed), its traffic cost, and identifying draws for the digest.
    fn record_query(
        &mut self,
        src: PeerId,
        obj: ObjectId,
        rt_ticks: Option<u64>,
        traffic: f64,
        messages: u64,
        responder: Option<PeerId>,
    ) {
        self.traffic_total += traffic;
        if let Some(t) = rt_ticks {
            self.hist.record(t);
            self.served += 1;
        }
        self.digest.mix(u64::from(src.raw()));
        self.digest.mix(u64::from(obj));
        self.digest.mix(rt_ticks.unwrap_or(u64::MAX));
        self.digest.mix(traffic.to_bits());
        self.digest.mix(messages);
        self.digest
            .mix(responder.map_or(0, |r| u64::from(r.raw()) + 1));
    }

    fn finish(mut self, cell: &CellConfig, drawn: u64) -> CellResult {
        self.digest.mix(self.load.messages());
        self.digest.mix(self.load.total_cost().to_bits());
        self.digest.mix(self.load.max_messages());
        self.digest.mix(self.load.links_used() as u64);
        self.digest.mix(self.churn_events);
        CellResult {
            strategy: cell.strategy,
            zipf: cell.zipf,
            replicas: cell.replicas,
            ace: cell.ace,
            drawn,
            served: self.served,
            failed: drawn - self.served,
            recall: self.served as f64 / drawn.max(1) as f64,
            // Matrix cells always serve queries, but an all-failed cell
            // would yield an empty histogram; report 0 ms explicitly.
            response_p50_ms: self.hist.quantile_ms(0.5).unwrap_or(0.0),
            response_p95_ms: self.hist.quantile_ms(0.95).unwrap_or(0.0),
            response_p99_ms: self.hist.quantile_ms(0.99).unwrap_or(0.0),
            traffic_total: self.traffic_total,
            traffic_per_query: self.traffic_total / drawn.max(1) as f64,
            messages: self.load.messages(),
            links_used: self.load.links_used(),
            link_total_cost: self.load.total_cost(),
            link_max_messages: self.load.max_messages(),
            link_mean_messages: self.load.mean_messages(),
            churn_events: self.churn_events,
            digest: self.digest.0,
        }
    }
}

/// Runs one cell from the pristine world. Sequential and self-contained:
/// the result depends only on `world` and `cell`.
pub fn run_cell(world: &MatrixWorld, cell: &CellConfig) -> CellResult {
    match cell.strategy {
        Strategy::TwoTier => run_two_tier_cell(world, cell),
        _ => run_flat_cell(world, cell),
    }
}

fn ace_config() -> AceConfig {
    AceConfig {
        // Cells already run in parallel; nesting the round pipeline's
        // threads inside plan_parallel workers would only oversubscribe.
        parallel: false,
        ..AceConfig::paper_default()
    }
}

/// Flood, Walk and Cache share one driver: a flat overlay, churn bursts
/// at ⅓ and ⅔ of the query budget, per-query derived RNG streams.
fn run_flat_cell(world: &MatrixWorld, cell: &CellConfig) -> CellResult {
    let cfg = world.cfg;
    let mut overlay = world.overlay.clone();
    let plane: &dyn DistancePlane = &world.plane;
    let placement = world.placement(cell.replicas);
    let catalog = Catalog::new(cfg.objects, cell.zipf);
    let mut trace = CellTrace::new(&cfg, cell);

    let mut ace_rng = StdRng::seed_from_u64(stream_seed(&cfg, cell, STREAM_ACE));
    let mut ace = cell
        .ace
        .then(|| AceEngine::new(overlay.peer_count(), ace_config()));
    if let Some(eng) = &mut ace {
        for _ in 0..MATRIX_ROUNDS {
            eng.round(&mut overlay, plane, &mut ace_rng);
        }
    }

    let mut cache = (cell.strategy == Strategy::Cache)
        .then(|| IndexCache::new(overlay.peer_count(), CACHE_CAP));
    let qc = QueryConfig {
        ttl: TTL,
        stop_at_responder: cache.is_some(),
    };
    let mut churn_rng = StdRng::seed_from_u64(stream_seed(&cfg, cell, STREAM_CHURN));
    let burst = (cfg.peers / 100).max(2);
    let mut departed: Vec<PeerId> = Vec::new();

    let queries = cfg.queries as u64;
    for qi in 0..queries {
        // Churn bursts: down at ⅓, back up at ⅔ — stale-state soak in
        // between, repaired state afterwards.
        if qi == queries / 3 {
            for j in 0..burst {
                if overlay.alive_count() <= 2 {
                    break;
                }
                let alive: Vec<PeerId> = overlay.alive_peers().collect();
                let p = alive[churn_rng.gen_range(0..alive.len())];
                if overlay.leave(p).is_err() {
                    continue;
                }
                let graceful = j % 2 == 0;
                if let Some(eng) = &mut ace {
                    if graceful {
                        eng.on_leave(p);
                    } else {
                        eng.on_crash(p);
                    }
                }
                if let Some(c) = &mut cache {
                    let ev = if graceful {
                        LifecycleEvent::GracefulLeave
                    } else {
                        LifecycleEvent::Crash
                    };
                    purge_index_cache(c, p, ev);
                }
                departed.push(p);
                trace.churn_events += 1;
            }
            if let Some(eng) = &mut ace {
                eng.round(&mut overlay, plane, &mut ace_rng);
            }
        }
        if qi == 2 * queries / 3 {
            for p in departed.drain(..) {
                if overlay.join(p, AVG_DEGREE, &mut churn_rng).is_err() {
                    continue;
                }
                if let Some(eng) = &mut ace {
                    eng.on_join(p);
                }
                if let Some(c) = &mut cache {
                    purge_index_cache(c, p, LifecycleEvent::Rejoin);
                }
                trace.churn_events += 1;
            }
            if let Some(eng) = &mut ace {
                eng.round(&mut overlay, plane, &mut ace_rng);
            }
        }

        let qseed = splitmix64(stream_seed(&cfg, cell, STREAM_QUERY) ^ (qi + 1));
        let mut qrng = StdRng::seed_from_u64(qseed);
        let alive: Vec<PeerId> = overlay.alive_peers().collect();
        let src = alive[qrng.gen_range(0..alive.len())];
        let obj = catalog.draw(&mut qrng);

        if cell.strategy == Strategy::Walk {
            walk_query(world, &overlay, &placement, src, obj, qseed, &mut trace);
            continue;
        }

        let outcome = {
            let responder = |x: PeerId| match &mut cache {
                Some(c) => {
                    placement.is_holder(obj, x)
                        || c.lookup_alive(x, obj, |h| overlay.is_alive(h)).is_some()
                }
                None => placement.is_holder(obj, x),
            };
            match &ace {
                Some(eng) => tallied_query(
                    &overlay,
                    plane,
                    &AceForward::new(eng),
                    src,
                    &qc,
                    &mut trace.load,
                    responder,
                ),
                None => tallied_query(
                    &overlay,
                    plane,
                    &FloodAll,
                    src,
                    &qc,
                    &mut trace.load,
                    responder,
                ),
            }
        };
        // Feed response indices along the return path (Cache only).
        if let (Some(c), Some(responder)) = (&mut cache, outcome.first_responder) {
            let holder = if placement.is_holder(obj, responder) {
                Some(responder)
            } else {
                c.lookup_alive(responder, obj, |h| overlay.is_alive(h))
            };
            if let Some(h) = holder {
                if let Some(path) = outcome.reverse_path(src, responder) {
                    for hop in path {
                        c.insert(hop, obj, h);
                    }
                }
            }
        }
        trace.record_query(
            src,
            obj,
            outcome.first_response.map(|t| t.as_ticks()),
            outcome.traffic_cost,
            outcome.messages,
            outcome.first_responder,
        );
    }
    trace.finish(cell, queries)
}

/// One traced query, its transmissions recorded straight into the
/// cell's load accumulator at the price the kernel charged.
fn tallied_query<P: ForwardPolicy + ?Sized>(
    overlay: &Overlay,
    plane: &dyn DistancePlane,
    policy: &P,
    src: PeerId,
    qc: &QueryConfig,
    load: &mut LinkLoad,
    is_responder: impl FnMut(PeerId) -> bool,
) -> QueryOutcome {
    let on_send = |from, to, cost| load.record_peers(from, to, f64::from(cost));
    run_query_traced(overlay, plane, src, qc, policy, is_responder, on_send)
}

/// One k-walker query: [`WALKERS`] single-walker searches, each on its
/// own RNG stream derived from the query seed, merged into one outcome.
fn walk_query(
    world: &MatrixWorld,
    overlay: &Overlay,
    placement: &Placement,
    src: PeerId,
    obj: ObjectId,
    qseed: u64,
    trace: &mut CellTrace,
) {
    let wc = WalkConfig {
        walkers: 1,
        max_hops: WALK_HOPS,
        avoid_backtrack: true,
    };
    let mut best: Option<(u64, PeerId)> = None;
    let (mut traffic, mut messages) = (0.0f64, 0u64);
    for w in 0..WALKERS {
        let mut wrng = StdRng::seed_from_u64(splitmix64(qseed ^ (0x1000 + w as u64)));
        let out = random_walk_query_traced(
            overlay,
            &world.plane,
            src,
            &wc,
            |x| placement.is_holder(obj, x),
            &mut wrng,
            |a, b, c| trace.load.record_peers(a, b, f64::from(c)),
        );
        traffic += out.traffic_cost;
        messages += out.messages;
        if let (Some(rt), Some(r)) = (out.first_response, out.first_responder) {
            let t = rt.as_ticks();
            if best.is_none_or(|(cur, _)| t < cur) {
                best = Some((t, r));
            }
        }
    }
    trace.record_query(
        src,
        obj,
        best.map(|(t, _)| t),
        traffic,
        messages,
        best.map(|(_, r)| r),
    );
}

/// The supernode cell: the same input hosts split into a flooding core
/// and leaves; content stays placed on the flat peer ids, and a
/// supernode answers for itself and for every leaf currently published
/// to it. Churn removes and rejoins *supernodes*; orphaned leaves
/// re-attach (and implicitly re-publish — the responder check reads the
/// live assignment).
fn run_two_tier_cell(world: &MatrixWorld, cell: &CellConfig) -> CellResult {
    let cfg = world.cfg;
    let plane: &dyn DistancePlane = &world.plane;
    let placement = world.placement(cell.replicas);
    let catalog = Catalog::new(cfg.objects, cell.zipf);
    let mut trace = CellTrace::new(&cfg, cell);

    let hosts: Vec<NodeId> = world
        .overlay
        .peers()
        .map(|p| world.overlay.host(p))
        .collect();
    let tt_cfg = TwoTierConfig::default();
    let mut setup_rng = StdRng::seed_from_u64(stream_seed(&cfg, cell, STREAM_SETUP));
    let mut tt = TwoTierNetwork::build(hosts, &tt_cfg, plane, &mut setup_rng);
    let core_ids = tt.supernode_count() as u32; // access links keyed past core ids

    let mut ace_rng = StdRng::seed_from_u64(stream_seed(&cfg, cell, STREAM_ACE));
    let mut ace = cell
        .ace
        .then(|| AceEngine::new(tt.core.peer_count(), ace_config()));
    if let Some(eng) = &mut ace {
        for _ in 0..MATRIX_ROUNDS {
            eng.round(&mut tt.core, plane, &mut ace_rng);
        }
    }

    let qc = QueryConfig {
        ttl: TTL,
        stop_at_responder: false,
    };
    let mut churn_rng = StdRng::seed_from_u64(stream_seed(&cfg, cell, STREAM_CHURN));
    let burst = (tt.supernode_count() / 40).max(1);
    let mut departed: Vec<PeerId> = Vec::new();

    // A supernode answers when it or one of its current leaves holds the
    // object. Holder lists are short, so the check walks them directly.
    let answers = |tt: &TwoTierNetwork, sn: PeerId, obj: ObjectId| -> bool {
        placement
            .holders(obj)
            .iter()
            .any(|&h| match tt.role_of(h.index()) {
                TierRole::Supernode(s) => s == sn && tt.core.is_alive(s),
                TierRole::Leaf(l) => tt.supernode_of(l) == sn,
            })
    };

    let queries = cfg.queries as u64;
    for qi in 0..queries {
        if qi == queries / 3 {
            for j in 0..burst {
                if tt.core.alive_count() <= 2 {
                    break;
                }
                let alive: Vec<PeerId> = tt.core.alive_peers().collect();
                let sn = alive[churn_rng.gen_range(0..alive.len())];
                if tt.core.leave(sn).is_err() {
                    continue;
                }
                if let Some(eng) = &mut ace {
                    if j % 2 == 0 {
                        eng.on_leave(sn);
                    } else {
                        eng.on_crash(sn);
                    }
                }
                // Orphans re-attach (randomly, like the initial attach)
                // and their index entries move with them — the
                // supernode-state purge of the lifecycle taxonomy.
                tt.reattach_leaves(sn, false, plane, &mut churn_rng);
                departed.push(sn);
                trace.churn_events += 1;
            }
            if let Some(eng) = &mut ace {
                eng.round(&mut tt.core, plane, &mut ace_rng);
            }
        }
        if qi == 2 * queries / 3 {
            for sn in departed.drain(..) {
                if tt
                    .core
                    .join(sn, tt_cfg.core_degree, &mut churn_rng)
                    .is_err()
                {
                    continue;
                }
                if let Some(eng) = &mut ace {
                    eng.on_join(sn);
                }
                trace.churn_events += 1;
            }
            if let Some(eng) = &mut ace {
                eng.round(&mut tt.core, plane, &mut ace_rng);
            }
        }

        let qseed = splitmix64(stream_seed(&cfg, cell, STREAM_QUERY) ^ (qi + 1));
        let mut qrng = StdRng::seed_from_u64(qseed);
        let leaf = qrng.gen_range(0..tt.leaf_count());
        let obj = catalog.draw(&mut qrng);
        let sn = tt.supernode_of(leaf);
        let access = tt.access_cost(plane, leaf);

        let outcome = {
            let responder = |x: PeerId| answers(&tt, x, obj);
            let load = &mut trace.load;
            match &ace {
                Some(eng) => {
                    let policy = AceForward::new(eng);
                    tallied_query(&tt.core, plane, &policy, sn, &qc, load, responder)
                }
                None => tallied_query(&tt.core, plane, &FloodAll, sn, &qc, load, responder),
            }
        };
        // The access link carried the query up to the supernode: one
        // message, keyed past the core id space so it cannot collide
        // with a core link.
        trace
            .load
            .record(core_ids + leaf as u32, sn.raw(), f64::from(access));
        trace.record_query(
            PeerId::new(core_ids + leaf as u32),
            obj,
            outcome
                .first_response
                .map(|t| t.as_ticks() + 2 * u64::from(access)),
            outcome.traffic_cost + f64::from(access),
            outcome.messages + 1,
            outcome.first_responder,
        );
    }
    trace.finish(cell, queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_one_failure, committed};

    #[test]
    fn check_holds_on_the_committed_matrix_and_catches_each_cell_rule() {
        let baseline: MatrixBench = committed("BENCH_matrix.json");
        assert_eq!(check(&baseline, &baseline), Vec::<String>::new());

        let mut drifted = baseline.clone();
        drifted.cells[5].digest ^= 1;
        assert_one_failure(&check(&drifted, &baseline), "digest drifted");

        let mut shrunk = baseline.clone();
        let gone = shrunk.cells.remove(7);
        let failures = check(&baseline, &shrunk);
        assert_one_failure(&failures, "missing from the committed artifact");
        assert!(failures[0].starts_with(gone.strategy.name()));

        for strategy in Strategy::ALL {
            let mut low = baseline.clone();
            let cell = low
                .cells
                .iter_mut()
                .find(|c| c.strategy == strategy)
                .expect("every strategy is in the matrix");
            cell.recall = recall_floor(strategy) - 0.001;
            assert_one_failure(&check(&low, &baseline), "recall");
        }
    }

    #[test]
    fn check_catches_an_ace_pair_that_raised_traffic() {
        let baseline: MatrixBench = committed("BENCH_matrix.json");
        let mut raised = baseline.clone();
        let off_total = raised.cells.iter().find(|c| !c.ace).unwrap().traffic_total;
        let on = raised
            .cells
            .iter_mut()
            .find(|c| c.ace)
            .expect("matrix has ACE cells");
        on.traffic_total = off_total + 1.0;
        assert_one_failure(&check(&raised, &baseline), "ACE increased traffic");
    }

    #[test]
    fn committed_cells_cover_the_cross_product() {
        let cells = committed_cells();
        assert_eq!(cells.len(), 32);
        let slice = slice_cells();
        assert_eq!(slice.len(), 16);
        for c in &slice {
            assert!(cells.contains(c), "slice must be a subset");
        }
    }

    #[test]
    fn cell_reruns_are_bit_identical() {
        let world = MatrixWorld::build(&WorldConfig::small(80, 24, 5));
        let cell = CellConfig {
            strategy: Strategy::Cache,
            zipf: 0.8,
            replicas: 3,
            ace: true,
        };
        let a = run_cell(&world, &cell);
        let b = run_cell(&world, &cell);
        assert_eq!(a, b);
        assert_eq!(a.drawn, 24);
        assert_eq!(a.served + a.failed, a.drawn);
        assert!(a.churn_events > 0, "cells must churn");
    }

    #[test]
    fn ace_pairs_match_off_and_on() {
        let cells: Vec<CellResult> = committed_cells()
            .iter()
            .enumerate()
            .map(|(i, c)| CellResult {
                strategy: c.strategy,
                zipf: c.zipf,
                replicas: c.replicas,
                ace: c.ace,
                drawn: 1,
                served: 1,
                failed: 0,
                recall: 1.0,
                response_p50_ms: 0.0,
                response_p95_ms: 0.0,
                response_p99_ms: 0.0,
                traffic_total: i as f64,
                traffic_per_query: i as f64,
                messages: 0,
                links_used: 0,
                link_total_cost: 0.0,
                link_max_messages: 0,
                link_mean_messages: 0.0,
                churn_events: 0,
                digest: i as u64,
            })
            .collect();
        let bench = MatrixBench {
            peers: 0,
            queries_per_cell: 1,
            rounds: MATRIX_ROUNDS,
            cells,
        };
        let pairs = bench.ace_pairs();
        assert_eq!(pairs.len(), 16);
        for (off, on) in pairs {
            assert!(!off.ace && on.ace);
            assert_eq!(off.strategy, on.strategy);
            assert_eq!(off.replicas, on.replicas);
            assert_eq!(off.zipf.to_bits(), on.zipf.to_bits());
        }
    }
}
