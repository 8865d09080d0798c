//! Query propagation and traffic accounting.
//!
//! Implements the paper's search model: a query is relayed peer-to-peer;
//! a peer forwards on *first* receipt (to all neighbors under blind
//! flooding, or to a policy-selected subset under ACE) and drops
//! duplicates — but a duplicate transmission still burned bandwidth, so
//! its cost is charged at send time. Propagation is time-ordered, so the
//! same run yields search scope, per-peer arrival times, total traffic
//! cost and the first-responder response time.
//!
//! One kernel, two drivers, one tracer. [`propagate`] is the only
//! propagation loop in the workspace: it owns the arrival queue and its
//! order, the visited set, TTL, responder handling and the per-query
//! totals. It asks its caller one thing — *the price of this link* — and
//! tells it two — *this peer received the query, first or not* and *here
//! is a transmission and its cost*. The kernel owns the visited set; the
//! drivers price links and record receipts: [`run_query_into`] prices
//! each send through the distance plane and keeps first-arrival times
//! and parents, [`crate::serve_batch`] prices each overlay link once per
//! batch and keeps per-peer inbox counts and a hop histogram. Per-link
//! load is what [`run_query_traced`]'s `on_send` sees, an output of the
//! kernel rather than a policy wrapped around it.
//!
//! The queue is the engine's [`EventQueue`]: it pops in non-decreasing
//! arrival time and, among equal times, in push order, and the kernel
//! meets its one precondition (a send arrives at `t + cost >= t`, never
//! before the pop that sent it). A transmission is queued only while it can
//! still be a first arrival: one to a peer that was already reached, or
//! that arrives no earlier than a message pushed before it for that
//! peer, is a duplicate the moment it is sent, and is counted (and
//! reported) then instead of being popped later only to be dropped.
//!
//! A source that is not alive (departed, or out of range) propagates
//! nothing: the single-query entry points leave a freshly reset outcome
//! (scope 0), the batch drivers record the slot as skipped.

use ace_engine::{EventQueue, SimTime};
use ace_topology::{Delay, DistancePlane};

use crate::network::Overlay;
use crate::peer::PeerId;

/// Chooses which neighbors a peer relays a query to.
pub trait ForwardPolicy {
    /// Writes the peers that `peer` forwards to into `out` (cleared
    /// first), given the query arrived from `from` (`None` when `peer` is
    /// the query source). Implementations must only produce current
    /// logical neighbors of `peer`. The query kernel calls this once per
    /// visited peer with one reused buffer.
    fn forward_targets_into(
        &self,
        overlay: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
        out: &mut Vec<PeerId>,
    );

    /// Allocating convenience over [`ForwardPolicy::forward_targets_into`].
    fn forward_targets(
        &self,
        overlay: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
    ) -> Vec<PeerId> {
        let mut out = Vec::new();
        self.forward_targets_into(overlay, peer, from, &mut out);
        out
    }
}

/// Blind flooding: forward to every neighbor except the sender.
///
/// # Examples
///
/// ```
/// use ace_overlay::{FloodAll, ForwardPolicy, Overlay, PeerId};
/// use ace_topology::NodeId;
/// let mut ov = Overlay::new(vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)], None);
/// ov.connect(PeerId::new(0), PeerId::new(1)).unwrap();
/// ov.connect(PeerId::new(0), PeerId::new(2)).unwrap();
/// let t = FloodAll.forward_targets(&ov, PeerId::new(0), Some(PeerId::new(1)));
/// assert_eq!(t, vec![PeerId::new(2)]);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FloodAll;

impl ForwardPolicy for FloodAll {
    fn forward_targets_into(
        &self,
        overlay: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) {
        out.clear();
        out.extend(
            overlay
                .neighbors(peer)
                .iter()
                .copied()
                .filter(|&n| Some(n) != from),
        );
    }
}

/// Query parameters.
#[derive(Clone, Copy, Debug)]
pub struct QueryConfig {
    /// Initial TTL (hops). Gnutella's default is 7.
    pub ttl: u8,
    /// When true, a responding peer answers and does not relay further
    /// (transparent-caching semantics); when false the query keeps
    /// spreading to cover the full scope, as in the paper's main
    /// experiments.
    pub stop_at_responder: bool,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            ttl: 7,
            stop_at_responder: false,
        }
    }
}

/// Everything measured about one query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Distinct peers reached (including the source).
    pub scope: usize,
    /// Total traffic cost: Σ (physical link delay × message size units)
    /// over every query transmission, duplicates included.
    pub traffic_cost: f64,
    /// Query transmissions sent.
    pub messages: u64,
    /// Transmissions that arrived at a peer which had already seen the
    /// query (pure waste — the paper's "unnecessary traffic").
    pub duplicates: u64,
    /// First arrival time per peer (`None` = never reached).
    pub arrivals: Vec<Option<SimTime>>,
    /// The neighbor each peer first heard the query from (query path
    /// tree; `None` for the source and unreached peers).
    pub parents: Vec<Option<PeerId>>,
    /// Round-trip time until the source hears the first query hit
    /// (`None` when no responder was reached).
    pub first_response: Option<SimTime>,
    /// The peer whose hit arrives first (`None` when no responder).
    pub first_responder: Option<PeerId>,
    /// Number of responders reached.
    pub responders_hit: usize,
    /// Transmissions sent by each peer — the per-peer forwarding load.
    pub sent_by: Vec<u32>,
}

impl Default for QueryOutcome {
    fn default() -> Self {
        QueryOutcome {
            scope: 0,
            traffic_cost: 0.0,
            messages: 0,
            duplicates: 0,
            arrivals: Vec::new(),
            parents: Vec::new(),
            first_response: None,
            first_responder: None,
            responders_hit: 0,
            sent_by: Vec::new(),
        }
    }
}

impl QueryOutcome {
    /// Resets all measurements for a fresh query over `n` peers, reusing
    /// the per-peer vectors' allocations.
    pub fn reset(&mut self, n: usize) {
        self.scope = 0;
        self.traffic_cost = 0.0;
        self.messages = 0;
        self.duplicates = 0;
        self.arrivals.clear();
        self.arrivals.resize(n, None);
        self.parents.clear();
        self.parents.resize(n, None);
        self.first_response = None;
        self.first_responder = None;
        self.responders_hit = 0;
        self.sent_by.clear();
        self.sent_by.resize(n, 0);
    }

    /// Reverse path from `peer` back to the source (inclusive), following
    /// first-arrival parents; `None` if `peer` was not reached.
    ///
    /// Out-of-range peer ids also answer `None`: an outcome describes the
    /// overlay *as it was when the query ran*, and callers routinely hold
    /// outcomes across churn — a peer that joined after the measurement
    /// simply was not part of it.
    pub fn reverse_path(&self, source: PeerId, peer: PeerId) -> Option<Vec<PeerId>> {
        (*self.arrivals.get(peer.index())?)?;
        let mut path = vec![peer];
        let mut cur = peer;
        while cur != source {
            cur = (*self.parents.get(cur.index())?)?;
            path.push(cur);
        }
        Some(path)
    }
}

/// Reusable buffers of the propagation kernel: the arrival queue, the
/// per-hop forwarding-target list and the per-peer visited state. One
/// scratch amortizes all transient allocations across the thousands of
/// queries a measurement sweep runs.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    queue: EventQueue<Hop>,
    targets: Vec<PeerId>,
    /// Peers whose first arrival has popped, one bit per peer.
    seen: Vec<u64>,
    /// Per peer, the earliest arrival time still queued (`SimTime::MAX`
    /// when none is).
    best: Vec<SimTime>,
}

impl QueryScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The per-query totals the kernel accumulates (the scalar fields of
/// [`QueryOutcome`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct QueryTotals {
    pub scope: usize,
    pub traffic_cost: f64,
    pub messages: u64,
    pub duplicates: u64,
    pub first_response: Option<SimTime>,
    pub first_responder: Option<PeerId>,
    pub responders_hit: usize,
}

/// Word index and mask of peer `i` in a one-bit-per-peer set.
#[inline]
fn bit(i: usize) -> (usize, u64) {
    (i / 64, 1u64 << (i % 64))
}

/// One queued transmission, keyed by its arrival time: target, sender,
/// remaining TTL.
#[derive(Clone, Copy, Debug)]
struct Hop {
    to: u32,
    from: u32,
    ttl: u8,
}

/// The propagation kernel: spreads one query from `source` under `policy`
/// in arrival-time order and returns its totals, or `None` — nothing
/// propagated, no callback called — when `source` is not alive.
///
/// `price(from, to)` is the link cost of a transmission; the kernel asks
/// once per send. `on_receipt(to, from, t, first)` reports every receipt
/// (`from` is `None` for the source's own t = 0 event); `first` is true
/// exactly once per reached peer, at its first arrival, and those calls
/// come in arrival order. A duplicate is reported when the kernel knows
/// it is one: at send time when the target was already reached or
/// already has a message queued that arrives no later, otherwise when it
/// pops. `on_send(from, to, cost)` reports every transmission —
/// duplicates included — in send order, after the kernel has charged it.
///
/// Why eliding a send is exact: the queue pops in non-decreasing time
/// and, among equal times, in push order, so a message to a peer that
/// already popped, or one arriving no earlier than a message pushed
/// before it, can only ever pop as a duplicate. Everything the first
/// arrivals decide — scope, TTL, forwarding, responders, send order — is
/// therefore what pushing every message would decide.
///
/// Totals live in locals and the kernel is inlined into each driver so
/// the callbacks compile down to the field updates they are: flooding is
/// three-quarters duplicate receipts, so this loop is the serving cost.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn propagate<C, P, F, A, S>(
    overlay: &Overlay,
    mut price: C,
    source: PeerId,
    config: &QueryConfig,
    policy: &P,
    mut is_responder: F,
    scratch: &mut QueryScratch,
    mut on_receipt: A,
    mut on_send: S,
) -> Option<QueryTotals>
where
    C: FnMut(PeerId, PeerId) -> Delay,
    P: ForwardPolicy + ?Sized,
    F: FnMut(PeerId) -> bool,
    A: FnMut(PeerId, Option<PeerId>, SimTime, bool),
    S: FnMut(PeerId, PeerId, Delay),
{
    if !overlay.is_alive(source) {
        return None;
    }
    let QueryScratch {
        queue,
        targets,
        seen,
        best,
    } = scratch;
    let peers = overlay.peer_count();
    queue.clear();
    seen.clear();
    seen.resize(peers.div_ceil(64), 0);
    best.clear();
    best.resize(peers, SimTime::MAX);
    let (mut scope, mut responders_hit) = (0usize, 0usize);
    let (mut messages, mut duplicates) = (0u64, 0u64);
    let mut traffic_cost = 0.0f64;
    let mut first_response: Option<SimTime> = None;
    let mut first_responder = None;
    // Source "receives" its own query at t=0 with the full TTL.
    best[source.index()] = SimTime::ZERO;
    queue.push(
        SimTime::ZERO,
        Hop {
            to: source.raw(),
            from: source.raw(),
            ttl: config.ttl,
        },
    );

    while let Some((t, Hop { to, from, ttl })) = queue.pop() {
        let peer = PeerId::new(to);
        let from_peer = (to != from).then(|| PeerId::new(from));
        let (word, mask) = bit(peer.index());
        let first = seen[word] & mask == 0;
        on_receipt(peer, from_peer, t, first);
        if !first {
            duplicates += 1;
            continue;
        }
        seen[word] |= mask;
        scope += 1;

        let mut stop_here = false;
        if peer != source && is_responder(peer) {
            responders_hit += 1;
            // Hit travels back along the inverse path with symmetric delay.
            let rtt = SimTime::from_ticks(2 * t.as_ticks());
            if first_response.is_none_or(|cur| rtt < cur) {
                first_response = Some(rtt);
                first_responder = Some(peer);
            }
            stop_here = config.stop_at_responder;
        }
        if ttl == 0 || stop_here {
            continue;
        }
        policy.forward_targets_into(overlay, peer, from_peer, targets);
        for &target in targets.iter() {
            debug_assert!(overlay.are_neighbors(peer, target));
            let cost = price(peer, target);
            traffic_cost += f64::from(cost); // query = 1.0 size units
            messages += 1;
            on_send(peer, target, cost);
            let at = t + u64::from(cost);
            let (word, mask) = bit(target.index());
            if seen[word] & mask != 0 || at >= best[target.index()] {
                // Already reached, or beaten by a message pushed earlier
                // that arrives no later: a certain duplicate.
                duplicates += 1;
                on_receipt(target, Some(peer), at, false);
                continue;
            }
            best[target.index()] = at;
            queue.push(
                at,
                Hop {
                    to: target.raw(),
                    from: peer.raw(),
                    ttl: ttl - 1,
                },
            );
        }
    }
    Some(QueryTotals {
        scope,
        traffic_cost,
        messages,
        duplicates,
        first_response,
        first_responder,
        responders_hit,
    })
}

/// Runs one query from `source` and measures it.
///
/// `is_responder(peer)` reports whether a reached peer can answer the
/// query (the source itself is never treated as a responder). A source
/// that is not alive yields an outcome of scope 0 (see the module docs).
pub fn run_query<P, F>(
    overlay: &Overlay,
    oracle: &dyn DistancePlane,
    source: PeerId,
    config: &QueryConfig,
    policy: &P,
    is_responder: F,
) -> QueryOutcome
where
    P: ForwardPolicy + ?Sized,
    F: FnMut(PeerId) -> bool,
{
    run_query_traced(
        overlay,
        oracle,
        source,
        config,
        policy,
        is_responder,
        |_, _, _| {},
    )
}

/// [`run_query`] with a per-transmission tracer: `on_send(from, to, cost)`
/// fires for every query transmission, duplicates included, in send
/// order — the flooding counterpart of
/// [`crate::random_walk_query_traced`]. The calls number the outcome's
/// `messages`, their costs sum to its `traffic_cost` and their per-sender
/// counts are its `sent_by`, so a caller accounting per-link load (see
/// [`crate::LinkLoad`]) prices nothing itself.
pub fn run_query_traced<P, F, S>(
    overlay: &Overlay,
    oracle: &dyn DistancePlane,
    source: PeerId,
    config: &QueryConfig,
    policy: &P,
    is_responder: F,
    on_send: S,
) -> QueryOutcome
where
    P: ForwardPolicy + ?Sized,
    F: FnMut(PeerId) -> bool,
    S: FnMut(PeerId, PeerId, Delay),
{
    let mut out = QueryOutcome::default();
    query_into(
        overlay,
        oracle,
        source,
        config,
        policy,
        is_responder,
        &mut QueryScratch::new(),
        &mut out,
        on_send,
    );
    out
}

/// Allocation-reusing form of [`run_query`]: writes the measurements into
/// `out` (reset first) and draws all transient storage from `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn run_query_into<P, F>(
    overlay: &Overlay,
    oracle: &dyn DistancePlane,
    source: PeerId,
    config: &QueryConfig,
    policy: &P,
    is_responder: F,
    scratch: &mut QueryScratch,
    out: &mut QueryOutcome,
) where
    P: ForwardPolicy + ?Sized,
    F: FnMut(PeerId) -> bool,
{
    query_into(
        overlay,
        oracle,
        source,
        config,
        policy,
        is_responder,
        scratch,
        out,
        |_, _, _| {},
    );
}

/// The single-query driver behind every `run_query*` entry point: the
/// kernel, recording each first arrival's time and sender into `out`.
/// Returns the totals it wrote into `out`, `None` (and `out` freshly
/// reset) for a dead source.
#[allow(clippy::too_many_arguments)]
pub(crate) fn query_into<P, F, S>(
    overlay: &Overlay,
    oracle: &dyn DistancePlane,
    source: PeerId,
    config: &QueryConfig,
    policy: &P,
    is_responder: F,
    scratch: &mut QueryScratch,
    out: &mut QueryOutcome,
    mut on_send: S,
) -> Option<QueryTotals>
where
    P: ForwardPolicy + ?Sized,
    F: FnMut(PeerId) -> bool,
    S: FnMut(PeerId, PeerId, Delay),
{
    out.reset(overlay.peer_count());
    let totals = propagate(
        overlay,
        |a, b| overlay.link_cost(oracle, a, b),
        source,
        config,
        policy,
        is_responder,
        scratch,
        |to, from, t, first| {
            if first {
                out.arrivals[to.index()] = Some(t);
                out.parents[to.index()] = from;
            }
        },
        |from, to, cost| {
            out.sent_by[from.index()] += 1;
            on_send(from, to, cost);
        },
    )?;
    out.scope = totals.scope;
    out.traffic_cost = totals.traffic_cost;
    out.messages = totals.messages;
    out.duplicates = totals.duplicates;
    out.first_response = totals.first_response;
    out.first_responder = totals.first_responder;
    out.responders_hit = totals.responders_hit;
    Some(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_topology::{DistanceOracle, Graph, NodeId};

    /// Line physical net 0-1-2-3 (weight 10 each); overlay mirrors it.
    fn line_env() -> (Overlay, DistanceOracle) {
        let mut g = Graph::new(4);
        for i in 1..4u32 {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i), 10).unwrap();
        }
        let oracle = DistanceOracle::new(g);
        let hosts = (0..4).map(NodeId::new).collect();
        let mut ov = Overlay::new(hosts, None);
        for i in 1..4u32 {
            ov.connect(PeerId::new(i - 1), PeerId::new(i)).unwrap();
        }
        (ov, oracle)
    }

    #[test]
    fn line_flood_reaches_all_without_duplicates() {
        let (ov, oracle) = line_env();
        let out = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |_| false,
        );
        assert_eq!(out.scope, 4);
        assert_eq!(out.duplicates, 0);
        assert_eq!(out.messages, 3);
        assert_eq!(out.traffic_cost, 30.0);
        assert_eq!(out.arrivals[3], Some(SimTime::from_ticks(30)));
        assert_eq!(out.first_response, None);
        assert_eq!(out.responders_hit, 0);
    }

    #[test]
    fn ttl_limits_scope() {
        let (ov, oracle) = line_env();
        let cfg = QueryConfig {
            ttl: 1,
            stop_at_responder: false,
        };
        let out = run_query(&ov, &oracle, PeerId::new(0), &cfg, &FloodAll, |_| false);
        assert_eq!(out.scope, 2); // source + 1 hop
    }

    #[test]
    fn response_time_is_round_trip_of_nearest_responder() {
        let (ov, oracle) = line_env();
        let out = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |p| p == PeerId::new(2) || p == PeerId::new(3),
        );
        // Nearest responder at distance 20 -> RTT 40.
        assert_eq!(out.first_response, Some(SimTime::from_ticks(40)));
        assert_eq!(out.first_responder, Some(PeerId::new(2)));
        assert_eq!(out.responders_hit, 2);
    }

    #[test]
    fn source_is_not_a_responder() {
        let (ov, oracle) = line_env();
        let out = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |_| true,
        );
        assert_eq!(out.responders_hit, 3);
        assert_eq!(out.first_response, Some(SimTime::from_ticks(20)));
    }

    #[test]
    fn stop_at_responder_prunes_forwarding() {
        let (ov, oracle) = line_env();
        let cfg = QueryConfig {
            ttl: 7,
            stop_at_responder: true,
        };
        let out = run_query(&ov, &oracle, PeerId::new(0), &cfg, &FloodAll, |p| {
            p == PeerId::new(1)
        });
        assert_eq!(out.scope, 2); // responder does not relay onward
        assert_eq!(out.messages, 1);
    }

    /// Triangle overlay: flooding must produce duplicate transmissions.
    #[test]
    fn triangle_flood_counts_duplicates() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), 5).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 5).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2), 5).unwrap();
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..3).map(NodeId::new).collect(), None);
        ov.connect(PeerId::new(0), PeerId::new(1)).unwrap();
        ov.connect(PeerId::new(1), PeerId::new(2)).unwrap();
        ov.connect(PeerId::new(0), PeerId::new(2)).unwrap();
        let out = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |_| false,
        );
        assert_eq!(out.scope, 3);
        // 0 sends to 1,2; each of 1,2 forwards to the other -> 4 messages, 2 dups.
        assert_eq!(out.messages, 4);
        assert_eq!(out.duplicates, 2);
        assert_eq!(out.traffic_cost, 20.0);
    }

    #[test]
    fn per_peer_load_sums_to_messages() {
        let (ov, oracle) = line_env();
        let out = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |_| false,
        );
        let total: u32 = out.sent_by.iter().sum();
        assert_eq!(u64::from(total), out.messages);
        assert_eq!(out.sent_by[0], 1, "line head forwards once");
        assert_eq!(out.sent_by[3], 0, "line tail forwards nothing");
    }

    #[test]
    fn reverse_path_walks_parents() {
        let (ov, oracle) = line_env();
        let out = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |_| false,
        );
        let path = out.reverse_path(PeerId::new(0), PeerId::new(3)).unwrap();
        assert_eq!(
            path,
            vec![
                PeerId::new(3),
                PeerId::new(2),
                PeerId::new(1),
                PeerId::new(0)
            ]
        );
        assert_eq!(
            out.reverse_path(PeerId::new(0), PeerId::new(0)).unwrap(),
            vec![PeerId::new(0)]
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        let (ov, oracle) = line_env();
        let mut scratch = QueryScratch::new();
        let mut out = QueryOutcome::default();
        for src in 0..4u32 {
            let source = PeerId::new(src);
            let fresh = run_query(
                &ov,
                &oracle,
                source,
                &QueryConfig::default(),
                &FloodAll,
                |_| false,
            );
            run_query_into(
                &ov,
                &oracle,
                source,
                &QueryConfig::default(),
                &FloodAll,
                |_| false,
                &mut scratch,
                &mut out,
            );
            assert_eq!(out.scope, fresh.scope);
            assert_eq!(out.messages, fresh.messages);
            assert_eq!(out.traffic_cost, fresh.traffic_cost);
            assert_eq!(out.arrivals, fresh.arrivals);
            assert_eq!(out.parents, fresh.parents);
            assert_eq!(out.sent_by, fresh.sent_by);
        }
    }

    /// Regression: `reverse_path` used to index `arrivals`/`parents`
    /// directly, so asking about a peer id beyond the measured population
    /// (e.g. a peer that joined after the outcome was recorded) aborted
    /// the caller instead of answering `None`.
    #[test]
    fn reverse_path_answers_none_for_out_of_range_peers() {
        let (ov, oracle) = line_env();
        let out = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |_| false,
        );
        // A peer beyond the measured population: not reached, not a panic.
        assert_eq!(out.reverse_path(PeerId::new(0), PeerId::new(99)), None);
        // An out-of-range *source* is equally unanswerable, whether asked
        // about directly or reached by walking parents off the tree root.
        assert_eq!(out.reverse_path(PeerId::new(99), PeerId::new(99)), None);
        assert_eq!(out.reverse_path(PeerId::new(99), PeerId::new(3)), None);
        // A default (empty) outcome holds no paths at all.
        let empty = QueryOutcome::default();
        assert_eq!(empty.reverse_path(PeerId::new(0), PeerId::new(0)), None);
    }

    /// One scratch + outcome pair must serve a whole sweep even when the
    /// overlays change size mid-sweep: `QueryOutcome::reset` rewrites the
    /// per-peer vectors, and the kernel's per-peer `seen` and `best`
    /// arrays live in the scratch. Carried from a 300-peer overlay to a
    /// 40-peer one, back to 300, and through a query from a departed
    /// source, it must give every query exactly the outcome a fresh
    /// scratch gives: a `best` entry or `seen` bit left over from a
    /// larger or earlier query would elide a first arrival.
    #[test]
    fn scratch_reuse_across_different_peer_counts_leaves_no_stale_state() {
        use crate::kernel_model::outcome_key;
        use crate::network::random_overlay;
        use ace_topology::generate::{ba, BaConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut scratch = QueryScratch::new();
        let mut reused = QueryOutcome::default();
        for (peers, seed) in [(300usize, 1u64), (40, 2), (300, 3)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let phys = ba(
                &BaConfig {
                    nodes: peers * 2,
                    ..BaConfig::default()
                },
                &mut rng,
            );
            let oracle = DistanceOracle::new(phys);
            let hosts = oracle.graph().nodes().take(peers).collect();
            let mut ov = random_overlay(hosts, 4, None, &mut rng);
            let dead = PeerId::new(7);
            ov.leave(dead).unwrap();
            let cfg = QueryConfig::default();
            let responds = |p: PeerId| p.raw() % 11 == 5;
            for source in [0u32, 7, 1, 39, peers as u32 - 1].map(PeerId::new) {
                let fresh = run_query(&ov, &oracle, source, &cfg, &FloodAll, responds);
                run_query_into(
                    &ov,
                    &oracle,
                    source,
                    &cfg,
                    &FloodAll,
                    responds,
                    &mut scratch,
                    &mut reused,
                );
                // Bit-identical to a from-scratch run, per-peer vectors
                // sized to this overlay: nothing leaked.
                assert_eq!(
                    outcome_key(&reused),
                    outcome_key(&fresh),
                    "{peers} peers, source {source:?}"
                );
                assert_eq!(fresh.scope == 0, source == dead);
            }
        }
    }

    #[test]
    fn unreached_peers_have_no_arrival() {
        let (mut ov, oracle) = line_env();
        ov.disconnect(PeerId::new(1), PeerId::new(2)).unwrap();
        let out = run_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &QueryConfig::default(),
            &FloodAll,
            |_| false,
        );
        assert_eq!(out.scope, 2);
        assert_eq!(out.arrivals[2], None);
        assert_eq!(out.reverse_path(PeerId::new(0), PeerId::new(3)), None);
    }

    /// The tracer sees exactly the transmissions the outcome accounts for —
    /// duplicates of a cyclic overlay included — in send order.
    #[test]
    fn tracer_reconciles_with_query_outcome() {
        let mut g = Graph::new(4);
        for (a, b, w) in [(0, 1, 5), (1, 2, 7), (2, 3, 3), (3, 0, 2)] {
            g.add_edge(NodeId::new(a), NodeId::new(b), w).unwrap();
        }
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..4).map(NodeId::new).collect(), None);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            ov.connect(PeerId::new(a), PeerId::new(b)).unwrap();
        }
        let qc = QueryConfig {
            ttl: 8,
            stop_at_responder: false,
        };
        let mut sends = Vec::new();
        let out = run_query_traced(
            &ov,
            &oracle,
            PeerId::new(0),
            &qc,
            &FloodAll,
            |_| false,
            |from, to, cost| sends.push((from, to, cost)),
        );
        assert!(out.duplicates > 0, "ring flooding produces duplicates");
        assert_eq!(sends.len() as u64, out.messages);
        let cost: u64 = sends.iter().map(|&(_, _, c)| u64::from(c)).sum();
        assert_eq!(cost as f64, out.traffic_cost);
        let mut sent_by = vec![0u32; ov.peer_count()];
        for &(from, to, c) in &sends {
            assert_eq!(c, ov.link_cost(&oracle, from, to));
            sent_by[from.index()] += 1;
        }
        assert_eq!(sent_by, out.sent_by);
        // Send order: the source's two sends first, then each relay's in
        // arrival order (3 hears at t=2, 1 at t=5, 2 at t=5 via 3).
        let p = PeerId::new;
        assert_eq!(
            sends.iter().map(|&(f, t, _)| (f, t)).collect::<Vec<_>>(),
            [
                (p(0), p(1)),
                (p(0), p(3)),
                (p(3), p(2)),
                (p(1), p(2)),
                (p(2), p(1))
            ]
        );
        // The untraced entry point is the same run.
        let plain = run_query(&ov, &oracle, PeerId::new(0), &qc, &FloodAll, |_| false);
        assert_eq!(plain.arrivals, out.arrivals);
        assert_eq!(plain.traffic_cost, out.traffic_cost);
    }

    /// Skip-and-count: a departed or out-of-range source propagates
    /// nothing and leaves a freshly reset outcome on every entry point.
    #[test]
    fn dead_source_yields_an_empty_outcome() {
        let (mut ov, oracle) = line_env();
        ov.leave(PeerId::new(1)).unwrap();
        let cfg = QueryConfig::default();
        let mut scratch = QueryScratch::new();
        let mut reused = run_query(&ov, &oracle, PeerId::new(0), &cfg, &FloodAll, |_| true);
        assert_eq!(reused.scope, 1);
        for source in [PeerId::new(1), PeerId::new(40)] {
            let fresh = run_query(&ov, &oracle, source, &cfg, &FloodAll, |_| true);
            let traced = run_query_traced(&ov, &oracle, source, &cfg, &FloodAll, |_| true, {
                |_, _, _| panic!("a dead source sends nothing")
            });
            run_query_into(
                &ov,
                &oracle,
                source,
                &cfg,
                &FloodAll,
                |_| true,
                &mut scratch,
                &mut reused,
            );
            for out in [&fresh, &traced, &reused] {
                assert_eq!((out.scope, out.messages, out.duplicates), (0, 0, 0));
                assert_eq!(out.arrivals, vec![None; ov.peer_count()]);
                assert_eq!(out.sent_by, vec![0; ov.peer_count()]);
                assert_eq!(out.first_response, None);
            }
        }
    }
}
