//! Batched query serving: thousands of concurrent queries at rate.
//!
//! [`crate::run_query_into`] measures *one* query; this module drives a whole
//! workload through the overlay and reports its simulated totals. Both
//! are drivers over the one propagation kernel in `search.rs` — same
//! loop, same event order, same totals — and differ only in what they
//! record of the receipts it reports. The design:
//!
//! * **SoA batch state** — per-query measurements live in flat arrays of
//!   [`BatchOutcome`], indexed by query slot, instead of one
//!   [`QueryOutcome`] struct per query;
//! * **receipts, not a visited set** — the kernel owns the visited set
//!   and drops a certain duplicate when it is sent; a shard only counts
//!   the receipts it reports (every one into the inbox, each first
//!   arrival's delay into the hop histogram);
//! * **links priced once** — before sharding, the batch prices every
//!   directed overlay link through the distance plane into one table
//!   (per peer, its neighbors and their costs side by side), which every
//!   shard reads; a send looks its cost up in the sender's row instead of
//!   asking the plane. The overlay and the plane are borrowed immutably
//!   for the whole call and a distance is a pure function of its pair, so
//!   the table holds exactly what the plane would answer;
//! * **worker-sharded forwarding** — the workload is cut into
//!   fixed-size shards of [`ServeConfig::chunk`] query slots, and shards
//!   are distributed over the PR 1 worker pool
//!   ([`ace_engine::pool::plan_parallel`]); every worker owns its shard's
//!   slice of the SoA state plus a per-peer inbox accumulator, so no two
//!   threads ever share a cache line of mutable state;
//! * **determinism** — shard boundaries depend only on `chunk`, never on
//!   the worker count, each slot is a pure function of the (read-only)
//!   overlay, and shards are merged in index order. The batch digest is
//!   therefore bit-identical for any worker count *and* to a sequential
//!   sweep of the single-query driver ([`serve_sequential`]), extending
//!   the PR 1/PR 2 determinism guarantee to the serving plane.
//!
//! Sources are drawn when the workload is generated; on a churning
//! overlay they may be dead by the time their slot is served. The kernel
//! propagates nothing from a dead source, and both batch drivers record
//! such a slot as skipped and count it in [`ServeReport::skipped`] — one
//! crashed peer must not abort a million-query measurement sweep.

use rand::Rng;

use ace_engine::digest::Digest;
use ace_engine::pool::{effective_workers, plan_parallel};
use ace_engine::SimTime;
use ace_topology::{Delay, DistancePlane};

use crate::content::{Catalog, ObjectId};
use crate::network::Overlay;
use crate::peer::PeerId;
use crate::search::{
    propagate, query_into, ForwardPolicy, QueryConfig, QueryOutcome, QueryScratch, QueryTotals,
};

/// One query of a serving workload: who asks for what.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QuerySpec {
    /// The querying peer (alive when the spec was drawn; may have died
    /// since).
    pub source: PeerId,
    /// The requested object.
    pub object: ObjectId,
}

/// Draws a Zipf-popularity workload of `count` query specs: sources
/// uniform over the currently alive peers, objects from `catalog`'s
/// Zipf distribution. Deterministic given the RNG state. An overlay with
/// no alive peer has nobody to query from: the workload is empty and the
/// RNG is not drawn from.
pub fn zipf_workload<R: Rng + ?Sized>(
    overlay: &Overlay,
    catalog: &Catalog,
    count: usize,
    rng: &mut R,
) -> Vec<QuerySpec> {
    let alive: Vec<PeerId> = overlay.alive_peers().collect();
    if alive.is_empty() {
        return Vec::new();
    }
    (0..count)
        .map(|_| QuerySpec {
            source: alive[rng.gen_range(0..alive.len())],
            object: catalog.draw(rng),
        })
        .collect()
}

/// Configuration of a serving run.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Per-query propagation parameters (TTL, responder stop).
    pub query: QueryConfig,
    /// Worker threads; `0` means one per available hardware thread.
    /// Never affects results, only wall time.
    pub workers: usize,
    /// Query slots per worker shard; `0` means the default, 256. Shard
    /// boundaries are a function of this knob alone — NOT of the worker
    /// count — which is what keeps the batch digest
    /// worker-count-independent.
    pub chunk: usize,
}

/// The shard size [`ServeConfig::default`] uses, and what a `chunk` of
/// `0` stands for.
const DEFAULT_CHUNK: usize = 256;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            query: QueryConfig::default(),
            workers: 0,
            chunk: DEFAULT_CHUNK,
        }
    }
}

/// Per-query measurements of a batch, struct-of-arrays: field `i` of
/// every vector describes query slot `i`. Skipped slots (dead source at
/// serve time) hold zeros and `skipped[i] == true`.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// Distinct peers reached (including the source).
    pub scope: Vec<u32>,
    /// Query transmissions sent.
    pub messages: Vec<u64>,
    /// Transmissions that arrived at an already-visited peer.
    pub duplicates: Vec<u64>,
    /// Total traffic cost (Σ link delay × unit size, duplicates
    /// included).
    pub traffic_cost: Vec<f64>,
    /// Round trip until the first query hit (`None` = unanswered).
    pub first_response: Vec<Option<SimTime>>,
    /// The peer whose hit arrives first.
    pub first_responder: Vec<Option<PeerId>>,
    /// Responders reached.
    pub responders_hit: Vec<u32>,
    /// Slot was skipped because its source was dead at serve time.
    pub skipped: Vec<bool>,
}

impl BatchOutcome {
    fn with_capacity(n: usize) -> Self {
        BatchOutcome {
            scope: Vec::with_capacity(n),
            messages: Vec::with_capacity(n),
            duplicates: Vec::with_capacity(n),
            traffic_cost: Vec::with_capacity(n),
            first_response: Vec::with_capacity(n),
            first_responder: Vec::with_capacity(n),
            responders_hit: Vec::with_capacity(n),
            skipped: Vec::with_capacity(n),
        }
    }

    /// Number of query slots recorded.
    pub fn len(&self) -> usize {
        self.scope.len()
    }

    /// True when no slots were recorded.
    pub fn is_empty(&self) -> bool {
        self.scope.is_empty()
    }

    /// Appends one slot: the kernel's totals, or a skipped (dead-source)
    /// slot of zeros for `None`.
    fn push(&mut self, slot: Option<QueryTotals>) {
        self.skipped.push(slot.is_none());
        let q = slot.unwrap_or_default();
        self.scope.push(q.scope as u32);
        self.messages.push(q.messages);
        self.duplicates.push(q.duplicates);
        self.traffic_cost.push(q.traffic_cost);
        self.first_response.push(q.first_response);
        self.first_responder.push(q.first_responder);
        self.responders_hit.push(q.responders_hit as u32);
    }

    /// Appends every slot of `other` (shard merge, index order).
    fn append(&mut self, other: &mut BatchOutcome) {
        self.scope.append(&mut other.scope);
        self.messages.append(&mut other.messages);
        self.duplicates.append(&mut other.duplicates);
        self.traffic_cost.append(&mut other.traffic_cost);
        self.first_response.append(&mut other.first_response);
        self.first_responder.append(&mut other.first_responder);
        self.responders_hit.append(&mut other.responders_hit);
        self.skipped.append(&mut other.skipped);
    }

    /// Order-sensitive digest over every slot's measurements. Equal
    /// digests mean bit-identical per-query results — the yardstick of
    /// the worker-count and batched-vs-sequential equivalence tests.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new(0x9E37_79B9_7F4A_7C15);
        for i in 0..self.len() {
            d.word(u64::from(self.scope[i]))
                .word(self.messages[i])
                .word(self.duplicates[i])
                .word(self.traffic_cost[i].to_bits())
                .word(self.first_response[i].map_or(u64::MAX, SimTime::as_ticks))
                .word(self.first_responder[i].map_or(u64::MAX, |p| u64::from(p.raw())))
                .word(u64::from(self.responders_hit[i]))
                .word(u64::from(self.skipped[i]));
        }
        d.finish()
    }
}

/// Fixed-size latency histogram over [`SimTime`] ticks with 4 mantissa
/// bits per power of two (≤ 6.25% relative bucket width) — counts merge
/// across worker shards by plain addition, so quantiles are
/// worker-count-independent.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

/// Mantissa bits of a histogram bucket.
const SUB_BITS: u32 = 4;
/// Buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: 16 exact low buckets + 16 per exponent 4..=63.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(ticks: u64) -> usize {
        if ticks < SUB as u64 {
            return ticks as usize;
        }
        let exp = 63 - ticks.leading_zeros(); // >= SUB_BITS
        let sub = ((ticks >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + (exp - SUB_BITS) as usize * SUB + sub
    }

    /// Upper bound (inclusive) of a bucket's value range.
    fn bucket_upper(idx: usize) -> u64 {
        if idx < 2 * SUB {
            // Exponents below SUB_BITS+1 are exact: one value per bucket.
            return idx as u64;
        }
        let exp = SUB_BITS + ((idx - SUB) / SUB) as u32;
        let sub = ((idx - SUB) % SUB) as u64;
        let width = 1u64 << (exp - SUB_BITS);
        (SUB as u64 + sub) * width + width - 1
    }

    /// Records one sample.
    pub fn record(&mut self, ticks: u64) {
        self.counts[Self::bucket(ticks)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q <= 1`) in ticks, as the upper bound of
    /// the bucket holding that rank.
    ///
    /// An empty histogram has **no** quantiles: every percentile of zero
    /// samples is undefined, so the answer is `None` rather than a silent
    /// `0` a caller could mistake for "all samples were instant". This
    /// matters to consumers that merge per-window histograms (the soak
    /// harness) where quiet windows are legitimately empty — merging any
    /// number of empty histograms stays empty, and `quantile` keeps
    /// reporting `None` until a real sample lands.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(idx));
            }
        }
        Some(Self::bucket_upper(BUCKETS - 1))
    }

    /// The `q`-quantile in milliseconds; `None` when the histogram is
    /// empty (see [`LatencyHistogram::quantile`]).
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantile(q)
            .map(|t| SimTime::from_ticks(t).as_millis_f64())
    }
}

/// Everything one serving run measured, in simulated units only (the
/// repo benchmark times the call itself).
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-slot measurements (SoA).
    pub outcome: BatchOutcome,
    /// Slots actually propagated.
    pub served: u64,
    /// Slots dropped because the source was dead at serve time.
    pub skipped: u64,
    /// Total query transmissions across served slots.
    pub messages: u64,
    /// Total duplicate receipts across served slots.
    pub duplicates: u64,
    /// Total traffic cost across served slots (summed in slot order).
    pub traffic_cost: f64,
    /// Mean search scope over served slots.
    pub mean_scope: f64,
    /// Fraction of served slots that reached at least one responder.
    pub success: f64,
    /// Arrival delay of every first receipt at a non-source peer —
    /// "how long until the query reached peer X".
    pub hop_latency: LatencyHistogram,
    /// First-response round trip of every answered query.
    pub response_latency: LatencyHistogram,
    /// Per-peer receipts (first arrivals + duplicates): the inbox load
    /// each peer absorbed over the whole batch.
    pub inbox_load: Vec<u64>,
}

impl ServeReport {
    /// Heaviest per-peer inbox load.
    pub fn max_inbox(&self) -> u64 {
        self.inbox_load.iter().copied().max().unwrap_or(0)
    }

    /// The batch digest (see [`BatchOutcome::digest`]).
    pub fn digest(&self) -> u64 {
        self.outcome.digest()
    }
}

/// The cost of every directed overlay link, priced once per batch: per
/// peer, its neighbors and their [`Overlay::link_cost`] side by side, one
/// row after another (CSR).
struct LinkPrices {
    /// Peer `p`'s row is `links[start[p]..start[p + 1]]`.
    start: Vec<usize>,
    links: Vec<(PeerId, Delay)>,
}

impl LinkPrices {
    /// Prices every link of `overlay`: Σ degree = 2 × `edge_count` calls
    /// of `plane.distance`.
    fn new(overlay: &Overlay, plane: &dyn DistancePlane) -> Self {
        let mut start = Vec::with_capacity(overlay.peer_count() + 1);
        let mut links = Vec::with_capacity(2 * overlay.edge_count());
        start.push(0);
        for p in overlay.peers() {
            let row = overlay.neighbors(p);
            links.extend(row.iter().map(|&n| (n, overlay.link_cost(plane, p, n))));
            start.push(links.len());
        }
        LinkPrices { start, links }
    }

    /// The cost of `from → to`, read from `from`'s row. A pair that is not
    /// a link (a policy breaking the neighbors-only contract, which the
    /// kernel's debug check reports) is priced through the plane.
    #[inline]
    fn price(
        &self,
        overlay: &Overlay,
        plane: &dyn DistancePlane,
        from: PeerId,
        to: PeerId,
    ) -> Delay {
        let row = &self.links[self.start[from.index()]..self.start[from.index() + 1]];
        match row.iter().find(|&&(n, _)| n == to) {
            Some(&(_, cost)) => cost,
            None => overlay.link_cost(plane, from, to),
        }
    }
}

/// One worker shard's output, merged into the report in shard order.
struct ShardOut {
    outcome: BatchOutcome,
    inbox: Vec<u64>,
    hop: LatencyHistogram,
    response: LatencyHistogram,
}

/// Serves `specs` through the overlay in parallel and measures the run.
///
/// Every slot runs the same kernel as [`crate::run_query_into`] — one
/// loop, so the same event ordering and measurements — checked by the
/// digest equivalence with [`serve_sequential`]. Every directed overlay
/// link is priced through `plane` once per call, before any slot runs,
/// and the shards share that table (see the module docs). Slots whose
/// source is dead are skipped and counted.
pub fn serve_batch<P, R>(
    overlay: &Overlay,
    plane: &dyn DistancePlane,
    policy: &P,
    specs: &[QuerySpec],
    is_responder: &R,
    cfg: &ServeConfig,
) -> ServeReport
where
    P: ForwardPolicy + Sync + ?Sized,
    R: Fn(ObjectId, PeerId) -> bool + Sync,
{
    let chunk = if cfg.chunk == 0 {
        DEFAULT_CHUNK
    } else {
        cfg.chunk
    };
    let peers = overlay.peer_count();
    let shards = specs.len().div_ceil(chunk);
    let workers = effective_workers(cfg.workers);
    let prices = LinkPrices::new(overlay, plane);

    let mut shard_outs = plan_parallel(shards, workers, |s| {
        let lo = s * chunk;
        let hi = (lo + chunk).min(specs.len());
        let specs = &specs[lo..hi];
        run_shard(overlay, plane, &prices, policy, specs, is_responder, cfg)
    });

    let mut outcome = BatchOutcome::with_capacity(specs.len());
    let mut inbox_load = vec![0u64; peers];
    let mut hop_latency = LatencyHistogram::new();
    let mut response_latency = LatencyHistogram::new();
    for shard in &mut shard_outs {
        outcome.append(&mut shard.outcome);
        for (total, part) in inbox_load.iter_mut().zip(&shard.inbox) {
            *total += part;
        }
        hop_latency.merge(&shard.hop);
        response_latency.merge(&shard.response);
    }

    // Totals walk the SoA arrays in slot order, so float summation order
    // is fixed no matter how shards were scheduled.
    let mut report = ServeReport {
        served: 0,
        skipped: 0,
        messages: 0,
        duplicates: 0,
        traffic_cost: 0.0,
        mean_scope: 0.0,
        success: 0.0,
        hop_latency,
        response_latency,
        inbox_load,
        outcome,
    };
    let mut scope_sum = 0u64;
    let mut answered = 0u64;
    for i in 0..report.outcome.len() {
        if report.outcome.skipped[i] {
            report.skipped += 1;
            continue;
        }
        report.served += 1;
        report.messages += report.outcome.messages[i];
        report.duplicates += report.outcome.duplicates[i];
        report.traffic_cost += report.outcome.traffic_cost[i];
        scope_sum += u64::from(report.outcome.scope[i]);
        if report.outcome.first_response[i].is_some() {
            answered += 1;
        }
    }
    if report.served > 0 {
        report.mean_scope = scope_sum as f64 / report.served as f64;
        report.success = answered as f64 / report.served as f64;
    }
    report
}

/// Runs one shard of slots on the calling worker thread: the kernel,
/// pricing sends from the batch's `prices`, counting every receipt into
/// the shard's inbox and every first receipt's delay into its hop
/// histogram.
fn run_shard<P, R>(
    overlay: &Overlay,
    plane: &dyn DistancePlane,
    prices: &LinkPrices,
    policy: &P,
    specs: &[QuerySpec],
    is_responder: &R,
    cfg: &ServeConfig,
) -> ShardOut
where
    P: ForwardPolicy + Sync + ?Sized,
    R: Fn(ObjectId, PeerId) -> bool + Sync,
{
    let peers = overlay.peer_count();
    let mut scratch = QueryScratch::new();
    let mut out = ShardOut {
        outcome: BatchOutcome::with_capacity(specs.len()),
        inbox: vec![0u64; peers],
        hop: LatencyHistogram::new(),
        response: LatencyHistogram::new(),
    };
    for spec in specs {
        let totals = propagate(
            overlay,
            |from, to| prices.price(overlay, plane, from, to),
            spec.source,
            &cfg.query,
            policy,
            |p| is_responder(spec.object, p),
            &mut scratch,
            |to, from, t, first| {
                if from.is_some() {
                    out.inbox[to.index()] += 1;
                    if first {
                        out.hop.record(t.as_ticks());
                    }
                }
            },
            |_, _, _| {},
        );
        if let Some(rtt) = totals.and_then(|q| q.first_response) {
            out.response.record(rtt.as_ticks());
        }
        out.outcome.push(totals);
    }
    out
}

/// Sequential reference: the same workload swept with the single-query
/// driver (the body of [`crate::run_query_into`], one reused
/// [`QueryScratch`] and [`QueryOutcome`]) under the same dead-source rule.
/// The batched engine must match this slot for slot —
/// `serve_sequential(..).digest() == serve_batch(..).digest()` is the
/// equivalence the proptests pin.
pub fn serve_sequential<P, R>(
    overlay: &Overlay,
    plane: &dyn DistancePlane,
    policy: &P,
    specs: &[QuerySpec],
    is_responder: &R,
    cfg: &ServeConfig,
) -> BatchOutcome
where
    P: ForwardPolicy + ?Sized,
    R: Fn(ObjectId, PeerId) -> bool,
{
    let mut scratch = QueryScratch::new();
    let mut q = QueryOutcome::default();
    let mut out = BatchOutcome::with_capacity(specs.len());
    for spec in specs {
        out.push(query_into(
            overlay,
            plane,
            spec.source,
            &cfg.query,
            policy,
            |p| is_responder(spec.object, p),
            &mut scratch,
            &mut q,
            |_, _, _| {},
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpf::{HpfWeight, PartialFlood};
    use crate::kernel_model::{reference_query, SmallWorld};
    use crate::network::random_overlay;
    use crate::search::FloodAll;
    use ace_engine::rng::splitmix64;
    use ace_topology::generate::{ba, BaConfig};
    use ace_topology::{DistanceOracle, Graph, NodeId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn world(peers: usize, seed: u64) -> (Overlay, DistanceOracle, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let phys = ba(
            &BaConfig {
                nodes: peers * 3,
                ..BaConfig::default()
            },
            &mut rng,
        );
        let oracle = DistanceOracle::new(phys);
        let hosts = oracle.graph().nodes().take(peers).collect();
        let ov = random_overlay(hosts, 5, None, &mut rng);
        (ov, oracle, rng)
    }

    fn workload(ov: &Overlay, rng: &mut StdRng, count: usize) -> (Catalog, Vec<QuerySpec>) {
        let catalog = Catalog::new(40, 0.8);
        let specs = zipf_workload(ov, &catalog, count, rng);
        (catalog, specs)
    }

    /// Deterministic stand-in placement: peer holds object iff their ids
    /// hash together to a small residue.
    fn holder(object: ObjectId, peer: PeerId) -> bool {
        splitmix64((u64::from(object) << 32) | u64::from(peer.raw())).is_multiple_of(7)
    }

    #[test]
    fn batched_matches_sequential_across_worker_counts() {
        let (ov, oracle, mut rng) = world(60, 3);
        let (_cat, specs) = workload(&ov, &mut rng, 300);
        let reference = serve_sequential(
            &ov,
            &oracle,
            &FloodAll,
            &specs,
            &holder,
            &ServeConfig::default(),
        );
        for workers in [1, 2, 3, 4] {
            for chunk in [1, 7, 64, 1024] {
                let cfg = ServeConfig {
                    workers,
                    chunk,
                    ..ServeConfig::default()
                };
                let report = serve_batch(&ov, &oracle, &FloodAll, &specs, &holder, &cfg);
                assert_eq!(
                    report.digest(),
                    reference.digest(),
                    "workers={workers} chunk={chunk} diverged from sequential"
                );
                assert_eq!(report.served, 300);
                assert_eq!(report.skipped, 0);
            }
        }
    }

    #[test]
    fn inbox_and_histograms_are_worker_count_independent() {
        let (ov, oracle, mut rng) = world(50, 9);
        let (_cat, specs) = workload(&ov, &mut rng, 200);
        let run = |workers| {
            serve_batch(
                &ov,
                &oracle,
                &FloodAll,
                &specs,
                &holder,
                &ServeConfig {
                    workers,
                    ..ServeConfig::default()
                },
            )
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.inbox_load, four.inbox_load);
        assert_eq!(one.hop_latency.counts, four.hop_latency.counts);
        assert_eq!(one.response_latency.counts, four.response_latency.counts);
        assert_eq!(one.messages, four.messages);
        assert_eq!(one.traffic_cost, four.traffic_cost);
    }

    #[test]
    fn dead_sources_are_skipped_and_counted() {
        let (mut ov, oracle, mut rng) = world(40, 5);
        let (_cat, mut specs) = workload(&ov, &mut rng, 120);
        // Kill some sources after the workload was drawn, and name one
        // that never existed — the serving engine must skip their slots,
        // not abort the sweep.
        specs.push(QuerySpec {
            source: PeerId::new(4_000),
            ..specs[0]
        });
        let mut dead = Vec::new();
        for spec in specs.iter().step_by(11) {
            if ov.is_alive(spec.source) {
                ov.leave(spec.source).unwrap();
                dead.push(spec.source);
            }
        }
        let expect_skipped = specs.iter().filter(|s| !ov.is_alive(s.source)).count() as u64;
        assert!(expect_skipped > 0, "churn must have killed some source");
        let report = serve_batch(
            &ov,
            &oracle,
            &FloodAll,
            &specs,
            &holder,
            &ServeConfig::default(),
        );
        assert_eq!(report.skipped, expect_skipped);
        assert_eq!(report.served + report.skipped, specs.len() as u64);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(report.outcome.skipped[i], !ov.is_alive(spec.source));
        }
        // The sequential reference applies the same rule, so digests
        // still agree.
        let reference = serve_sequential(
            &ov,
            &oracle,
            &FloodAll,
            &specs,
            &holder,
            &ServeConfig::default(),
        );
        assert_eq!(report.digest(), reference.digest());
    }

    #[test]
    fn empty_workload_serves_nothing() {
        let (ov, oracle, _) = world(10, 1);
        let report = serve_batch(
            &ov,
            &oracle,
            &FloodAll,
            &[],
            &holder,
            &ServeConfig::default(),
        );
        assert_eq!(report.served, 0);
        assert!(report.outcome.is_empty());
    }

    /// `chunk: 0` is the default shard size, as `workers: 0` is the
    /// default worker count: same shards, same report.
    #[test]
    fn chunk_zero_serves_like_the_default_chunk() {
        let (ov, oracle, mut rng) = world(50, 4);
        let (_cat, specs) = workload(&ov, &mut rng, 600);
        let run = |chunk| {
            let cfg = ServeConfig {
                workers: 2,
                chunk,
                ..ServeConfig::default()
            };
            serve_batch(&ov, &oracle, &FloodAll, &specs, &holder, &cfg)
        };
        let (zero, default) = (run(0), run(DEFAULT_CHUNK));
        assert_eq!(zero.digest(), default.digest());
        assert_eq!(zero.inbox_load, default.inbox_load);
        assert_eq!(zero.served, 600);
    }

    /// With every peer departed there is nobody to query from: the
    /// workload is empty, and serving it serves nothing.
    #[test]
    fn workload_on_an_overlay_with_nobody_alive_is_empty() {
        let (mut ov, oracle, mut rng) = world(12, 6);
        for p in ov.peers().collect::<Vec<_>>() {
            ov.leave(p).unwrap();
        }
        let (_cat, specs) = workload(&ov, &mut rng, 50);
        assert!(specs.is_empty());
        let report = serve_batch(
            &ov,
            &oracle,
            &FloodAll,
            &specs,
            &holder,
            &ServeConfig::default(),
        );
        assert_eq!((report.served, report.skipped), (0, 0));
    }

    #[test]
    fn inbox_load_counts_every_receipt() {
        // Line 0-1-2-3: peer 1 and 2 receive exactly one transmission
        // each; 3 receives one; source 0 receives none.
        let mut g = Graph::new(4);
        for i in 1..4u32 {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i), 10).unwrap();
        }
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..4).map(NodeId::new).collect(), None);
        for i in 1..4u32 {
            ov.connect(PeerId::new(i - 1), PeerId::new(i)).unwrap();
        }
        let specs = [QuerySpec {
            source: PeerId::new(0),
            object: 0,
        }];
        let report = serve_batch(
            &ov,
            &oracle,
            &FloodAll,
            &specs,
            &|_, _| false,
            &ServeConfig::default(),
        );
        assert_eq!(report.inbox_load, vec![0, 1, 1, 1]);
        assert_eq!(report.messages, 3);
        assert_eq!(report.hop_latency.count(), 3);
        // Hop latencies on the line are 10, 20, 30 ticks; p50 rounds into
        // the 20-tick bucket, which is exact at this magnitude.
        assert_eq!(report.hop_latency.quantile(0.5), Some(20));
    }

    /// A plane that counts its `distance` calls.
    struct CountingPlane<'a> {
        inner: &'a DistanceOracle,
        calls: AtomicU64,
    }

    impl DistancePlane for CountingPlane<'_> {
        fn graph(&self) -> &Graph {
            self.inner.graph()
        }

        fn distance(&self, a: NodeId, b: NodeId) -> Delay {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.distance(a, b)
        }
    }

    /// A batch asks the plane once per directed overlay link — 2 ×
    /// `edge_count` calls — whatever it serves and however many workers
    /// serve it, not once per send, and its report is still the
    /// sequential sweep's.
    #[test]
    fn a_batch_prices_each_overlay_link_once() {
        let (mut ov, oracle, mut rng) = world(60, 3);
        ov.leave(PeerId::new(5)).unwrap();
        let (_cat, specs) = workload(&ov, &mut rng, 300);
        let links = 2 * ov.edge_count() as u64;
        for count in [0, 1, 37, 300] {
            let specs = &specs[..count];
            let sequential = serve_sequential(
                &ov,
                &oracle,
                &FloodAll,
                specs,
                &holder,
                &ServeConfig::default(),
            );
            for workers in [1, 2, 4] {
                let plane = CountingPlane {
                    inner: &oracle,
                    calls: AtomicU64::new(0),
                };
                let cfg = ServeConfig {
                    workers,
                    chunk: 16,
                    ..ServeConfig::default()
                };
                let report = serve_batch(&ov, &plane, &FloodAll, specs, &holder, &cfg);
                let calls = plane.calls.into_inner();
                assert_eq!(calls, links, "{count} queries, {workers} workers");
                assert_eq!(report.digest(), sequential.digest());
                if count == 300 {
                    assert!(report.messages > links, "sends outnumber links");
                }
            }
        }
    }

    /// `serve_batch` of one query from every source (out-of-range and
    /// departed ones included) against the push-every-message model
    /// (`kernel_model`): same digest, same inbox loads and the same
    /// histogram buckets, so a duplicate dropped at send time is still
    /// counted once, at the peer it was sent to.
    fn check_batch<P: ForwardPolicy + Sync>(
        w: &SmallWorld,
        policy: &P,
        cfg: &ServeConfig,
    ) -> Result<(), String> {
        let n = w.overlay.peer_count() as u32;
        let specs: Vec<QuerySpec> = (0..=n)
            .map(|s| QuerySpec {
                source: PeerId::new(s),
                object: 0,
            })
            .collect();
        let responds = |_: ObjectId, p: PeerId| w.is_responder(p);
        let report = serve_batch(&w.overlay, &w.oracle, policy, &specs, &responds, cfg);

        let mut want = BatchOutcome::default();
        let mut inbox = vec![0u64; n as usize];
        let (mut hop, mut response) = (LatencyHistogram::new(), LatencyHistogram::new());
        for spec in &specs {
            let model = reference_query(
                &w.overlay,
                &w.oracle,
                spec.source,
                &cfg.query,
                policy,
                |p| w.is_responder(p),
                |to, from, t, first| {
                    if from.is_some() {
                        inbox[to.index()] += 1;
                        if first {
                            hop.record(t.as_ticks());
                        }
                    }
                },
                |_, _, _| {},
            );
            if let Some(rtt) = model.as_ref().and_then(|o| o.first_response) {
                response.record(rtt.as_ticks());
            }
            want.push(model.map(|o| QueryTotals {
                scope: o.scope,
                traffic_cost: o.traffic_cost,
                messages: o.messages,
                duplicates: o.duplicates,
                first_response: o.first_response,
                first_responder: o.first_responder,
                responders_hit: o.responders_hit,
            }));
        }
        prop_assert_eq!(report.digest(), want.digest());
        prop_assert_eq!(&report.inbox_load, &inbox);
        prop_assert_eq!(&report.hop_latency.counts, &hop.counts);
        prop_assert_eq!(&report.response_latency.counts, &response.counts);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn batch_matches_the_push_every_message_model(
            seed in any::<u64>(),
            ttl in 0u8..=4,
            stop in any::<bool>(),
            chunk in 1usize..=5,
        ) {
            let w = SmallWorld::draw(seed);
            let cfg = ServeConfig {
                query: QueryConfig { ttl, stop_at_responder: stop },
                workers: 2,
                chunk,
            };
            check_batch(&w, &FloodAll, &cfg)?;
            check_batch(&w, &PartialFlood::new(&w.oracle, 0.5, 1, HpfWeight::Cheapest), &cfg)?;
        }
    }

    #[test]
    fn histogram_buckets_round_trip() {
        for t in [0u64, 1, 15, 16, 31, 32, 100, 1000, 65_535, 1 << 40] {
            let idx = LatencyHistogram::bucket(t);
            let upper = LatencyHistogram::bucket_upper(idx);
            assert!(upper >= t, "upper {upper} < sample {t}");
            // ≤ 6.25% relative bucket width.
            assert!(
                upper - t <= t / SUB as u64 + 1,
                "bucket too wide at {t}: upper {upper}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_order() {
        let mut h = LatencyHistogram::new();
        for t in 1..=1000u64 {
            h.record(t);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((480..=540).contains(&p50), "p50 {p50}");
        assert!((950..=1024).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0).unwrap() >= p99);
    }

    #[test]
    fn empty_histogram_quantiles_are_undefined_not_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.quantile_ms(0.5), None);

        // Merging empties keeps them empty: quiet measurement windows
        // folded into a run-level histogram must not invent samples.
        let mut merged = LatencyHistogram::new();
        merged.merge(&h);
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged.count(), 0);
        assert_eq!(merged.quantile(0.5), None);

        // The first real sample makes quantiles defined again.
        merged.record(7);
        assert_eq!(merged.quantile(0.5), Some(7));
        assert_eq!(merged.quantile(1.0), Some(7));
    }
}
