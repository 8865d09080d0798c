//! Message-level, asynchronous ACE — the protocol as it would actually be
//! deployed.
//!
//! [`AceEngine`](crate::AceEngine) executes the paper's phases in tidy
//! synchronous rounds; this module drops that idealization: every probe,
//! cost table, probe request, forward (un)subscription and reconnection
//! is a real [`Message`] scheduled on an [`EventQueue`] and delivered
//! after its physical in-flight delay. Peers are independent state
//! machines woken by their own jittered timers; information is stale
//! exactly as long as the network makes it. The *decisions* — Figure-4,
//! tree construction, watch triage, forwarding-target selection, the
//! churn purge taxonomy — are not re-implemented here: they come from
//! the shared [`policy`] core, the same code the
//! round-based engine runs, so the two execution models cannot diverge.
//! The differential harness (`tests/differential.rs`) holds them to
//! that: same seeded world, N sync rounds vs. an equivalent async
//! horizon, equivalent convergence.
//!
//! One optimization cycle of a node `C` (depth `h = 1`, the paper's base):
//!
//! 1. timer fires → `Probe` each neighbor;
//! 2. all `ProbeReply`s in → send own `CostTable` + `ProbeRequest` (the
//!    other neighbors) to every neighbor;
//! 3. all report `CostTable`s in → Prim over {C} ∪ N(C) with the reported
//!    pairwise costs → `ForwardRequest` / `ForwardCancel` diffs;
//! 4. phase 3: probe one candidate from a non-flooding neighbor's table
//!    and apply the Figure-4 rules via `Connect` / `ConnectOk` /
//!    `Disconnect`.
//!
//! # Churn
//!
//! [`AsyncAceSim::peer_leave`] is a *graceful* departure in the shared
//! taxonomy ([`LifecycleEvent::GracefulLeave`]): survivors purge every
//! reference to the leaver immediately — including mid-cycle state
//! (`awaiting_reports`, `serving`, outstanding probes), whose removal
//! may *complete* a blocked step: the last awaited report gone closes
//! the cycle, the last outstanding on-behalf probe gone flushes the
//! report to its requester. [`AsyncAceSim::peer_join`] purges any
//! leftovers of the previous incarnation ([`LifecycleEvent::Rejoin`])
//! and every event is incarnation-tagged, so a message or timer from a
//! dead incarnation can never act on its successor's state.
//!
//! # Adversarial wire
//!
//! With a [`NetemConfig`] installed ([`ProtoConfig::netem`]), every
//! transmission is subjected to deterministic loss, duplication, extra
//! delivery jitter and scheduled partitions, and the protocol hardens
//! accordingly (see `DESIGN.md` §12):
//!
//! * every delivery carries a globally unique wire sequence number; the
//!   receiver keeps a per-sender `seen` filter, so duplicates (injected
//!   or retransmitted) are delivered once — handlers never observe them;
//! * reliable control messages (everything except `Connect`/`ConnectOk`)
//!   are retransmitted after an exponential backoff with deterministic
//!   jitter, up to [`RETRY_CAP`] times, each retransmission
//!   charged to the ledger ([`OverheadKind::ProbeRetry`] for probe
//!   traffic, [`OverheadKind::ControlRetry`] for the rest) — no message
//!   ever moves for free;
//! * the per-cycle timer already abandons stalled cycles; under netem it
//!   additionally runs soft-state repair: cost rows for vanished
//!   neighbors are pruned, forward-request slots that no refresh
//!   confirmed for [`REPAIR_PERIODS`] cycles expire, and
//!   stranded on-behalf probes are written off (flushing the partial
//!   report so the requester is not held hostage);
//! * [`AsyncAceSim::check_invariants`] tolerates cross-peer disagreement
//!   exactly while a covering message is in flight, a lost copy is
//!   within its repair window, or the pair was recently separated by a
//!   scheduled partition — and the chaos harness re-checks *strictly*
//!   after the last heal plus the repair window, so deferral is a grace
//!   period, not a blank check.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ace_engine::digest::Digest;
use ace_engine::{EventQueue, SimTime};
use ace_overlay::{ForwardPolicy, Message, Overlay, PeerId};
use ace_topology::{Delay, DistancePlane};

use crate::audit::{self, AuditView, ConfigError, Gap, InvariantViolation, ViolationKind};
use crate::autorate::{AutoRateConfig, ControllerStats, RateController, RateSample, R_MAX};
use crate::cost_table::CostTable;
use crate::mst::{PrimScratch, SlotEdge};
use crate::netem::NetemConfig;
use crate::overhead::{OverheadKind, OverheadLedger};
use crate::peer_state::{fold_peers, fold_sorted, fold_watches, PeerState};
use crate::policy::{self, Figure4Action, LifecycleEvent, WatchVerdict};
use crate::probe::ProbeModel;

/// Uniform start jitter, in ticks, so nodes do not fire in lockstep.
const START_JITTER: u64 = SimTime::from_secs(30).as_ticks();
/// Retransmissions attempted per reliable message after the original
/// transmission is lost or cut.
pub const RETRY_CAP: u8 = 3;
/// Base retransmit delay in ticks; attempt `k` waits
/// `BACKOFF_BASE · 2^k` plus jitter.
const BACKOFF_BASE: u64 = SimTime::from_secs(2).as_ticks();
/// Upper bound (inclusive) on the deterministic per-retry jitter added
/// to the backoff, in ticks.
const BACKOFF_JITTER: u64 = SimTime::from_secs(1).as_ticks();
/// How many cycle periods of cross-peer disagreement a wire fault may
/// excuse before the auditor treats it as a real violation; also the
/// horizon after which unrefreshed soft state expires.
pub const REPAIR_PERIODS: u64 = 4;
/// Minimum flooding links kept (scope guard, as in the engine).
const MIN_FLOODING: usize = 2;

/// Timer tuning of the asynchronous driver. The ARQ and repair tuning
/// are the constants [`RETRY_CAP`] and [`REPAIR_PERIODS`].
#[derive(Clone, Copy, Debug)]
pub struct AsyncConfig {
    /// Ticks between a node's optimization cycles (paper: 30 s).
    pub cycle_period: u64,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            cycle_period: SimTime::from_secs(30).as_ticks(),
        }
    }
}

impl AsyncConfig {
    /// Validates the timer tuning.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cycle_period == 0 {
            return Err(ConfigError::new(
                "cycle_period",
                "cycle_period must be at least one tick".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration of the asynchronous protocol. Its loss model is the
/// adversarial wire ([`ProtoConfig::netem`]); the engine's injected
/// [`FaultConfig`](crate::FaultConfig) does not reach this driver.
#[derive(Clone, Debug, Default)]
pub struct ProtoConfig {
    /// Timer tuning (cycle period).
    pub timing: AsyncConfig,
    /// Adversarial wire model (loss, duplication, reordering,
    /// partitions); `None` keeps the wire perfect and the simulator's
    /// behavior bit-identical to the pre-netem protocol.
    pub netem: Option<NetemConfig>,
    /// Per-peer autonomic optimization-rate control
    /// ([`RateController`]); `None` keeps the static `cycle_period`
    /// timer chain (and folds no controller word into the state
    /// digest). When set, each peer's next timer fires after
    /// `cycle_period × interval`, where the interval comes from the
    /// shared decision core ([`policy::next_opt_interval`]).
    pub autorate: Option<AutoRateConfig>,
}

impl ProtoConfig {
    /// Validates the whole configuration (timing, netem).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.timing.validate()?;
        if let Some(n) = &self.netem {
            n.validate()?;
        }
        Ok(())
    }
}

/// Why a probe was sent (drives the reply handler).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ProbePurpose {
    /// Phase-1 neighbor measurement.
    Neighbor,
    /// Phase-3 candidate `H`, with its origin `far` neighbor and the
    /// `B–H` cost from `far`'s table.
    Candidate { far: PeerId, far_near: Delay },
    /// A measurement done on someone else's behalf (`ProbeRequest`); the
    /// reply is folded into a report for `requester`.
    OnBehalf { requester: PeerId },
}

/// One outstanding probe: whom it measures, why, and when it left (the
/// send time drives the netem-mode expiry of stranded on-behalf probes).
#[derive(Clone, Copy, Debug)]
struct PendingProbe {
    target: PeerId,
    purpose: ProbePurpose,
    sent_at: SimTime,
}

/// One node's protocol state: the [`PeerState`] the round-based engine
/// keeps too, plus what only a message-level run needs.
#[derive(Debug)]
struct NodeState {
    peer: PeerState,
    /// Latest table/report received from each neighbor (merged entries).
    neighbor_tables: HashMap<PeerId, CostTable>,
    /// Outstanding probes (by nonce).
    pending_probes: HashMap<u64, PendingProbe>,
    /// Neighbors whose pairwise report we still await this cycle.
    awaiting_reports: Vec<PeerId>,
    /// Measurements collected for an open `ProbeRequest` we are serving,
    /// keyed by requester.
    serving: HashMap<PeerId, (Vec<(PeerId, Delay)>, usize)>,
    /// Cache of measurements made on others' behalf (never advertised in
    /// our own table — a table entry implies a logical link).
    pair_cache: HashMap<PeerId, Delay>,
    /// True between timer fire and tree build.
    cycle_open: bool,
    cycles_done: u64,
    /// Per-sender wire sequence numbers already delivered — the dedup
    /// filter. Sequence numbers are globally unique, so on a perfect
    /// wire every insert succeeds and the filter is pure bookkeeping.
    seen: HashMap<PeerId, HashSet<u64>>,
    /// When each forward-request slot was last confirmed by a
    /// `ForwardRequest` (netem mode refreshes them every cycle); slots
    /// unconfirmed for a repair window expire — their `ForwardCancel`
    /// was lost for good.
    requested_at: HashMap<PeerId, SimTime>,
}

impl NodeState {
    fn new(owner: PeerId) -> Self {
        NodeState {
            peer: PeerState::new(owner),
            neighbor_tables: HashMap::new(),
            pending_probes: HashMap::new(),
            awaiting_reports: Vec::new(),
            serving: HashMap::new(),
            pair_cache: HashMap::new(),
            cycle_open: false,
            cycles_done: 0,
            seen: HashMap::new(),
            requested_at: HashMap::new(),
        }
    }

    /// Forgets a partner after a link cut ([`PeerState::forget_link`]
    /// plus the request's refresh stamp), applied per endpoint: the
    /// cutter at send time, the partner when the `Disconnect` arrives.
    fn forget_link(&mut self, partner: PeerId) {
        self.peer.forget_link(partner);
        self.requested_at.remove(&partner);
    }

    /// One on-behalf probe for `requester` is settled — answered with
    /// `measured`, or written off (`None`). Counts its `serving` entry
    /// down and, at zero, removes it and returns the report to flush.
    fn settle_serving(
        &mut self,
        requester: PeerId,
        measured: Option<(PeerId, Delay)>,
    ) -> Option<Vec<(PeerId, Delay)>> {
        let (entries, left) = self.serving.get_mut(&requester)?;
        entries.extend(measured);
        *left -= 1;
        if *left > 0 {
            return None;
        }
        self.serving.remove(&requester).map(|(entries, _)| entries)
    }
}

/// Message classes tracked while in flight, giving the auditor its
/// tolerance windows: a cut or forward-set change is *in progress* —
/// not an invariant violation — exactly while the notifying message has
/// left the sender but not reached the receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum InFlightKind {
    Disconnect,
    ForwardRequest,
    ForwardCancel,
}

impl InFlightKind {
    fn of(msg: &Message) -> Option<Self> {
        match msg {
            Message::Disconnect => Some(InFlightKind::Disconnect),
            Message::ForwardRequest => Some(InFlightKind::ForwardRequest),
            Message::ForwardCancel => Some(InFlightKind::ForwardCancel),
            _ => None,
        }
    }
}

/// Control messages the hardened protocol retransmits when the wire
/// destroys a copy. Probes and replies are worth retrying too: losing
/// one silently stalls the whole cycle for a period (at 15 % loss and
/// six neighbors, best-effort phase 1 would complete ~14 % of cycles).
/// `Connect`/`ConnectOk` stay best-effort — the simulator's overlay
/// mutates both adjacency lists atomically at the initiator, so a lost
/// handshake message costs nothing but the acknowledgment.
fn reliable(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Probe { .. }
            | Message::ProbeReply { .. }
            | Message::ProbeRequest { .. }
            | Message::CostTable { .. }
            | Message::ForwardRequest
            | Message::ForwardCancel
            | Message::Disconnect
    )
}

/// Ledger kind for a retransmission: probe-plane traffic retries under
/// [`OverheadKind::ProbeRetry`] (the same bucket as the engine's lost
/// probe attempts), everything else under [`OverheadKind::ControlRetry`].
fn retry_kind(msg: &Message) -> OverheadKind {
    match msg {
        Message::Probe { .. } | Message::ProbeReply { .. } => OverheadKind::ProbeRetry,
        _ => OverheadKind::ControlRetry,
    }
}

enum NetEvent {
    Deliver {
        from: PeerId,
        to: PeerId,
        /// Sender/receiver incarnations at send time; a mismatch at
        /// delivery means one endpoint died (and possibly rejoined)
        /// while the message was in flight — it is dropped.
        from_inc: u32,
        to_inc: u32,
        /// Wire sequence number, globally unique per *logical* message:
        /// retransmits and injected duplicates carry the original's, so
        /// the receiver's dedup filter spots them.
        seq: u64,
        msg: Message,
    },
    OptimizeTimer {
        peer: PeerId,
        /// Incarnation that scheduled this chain; a stale chain dies at
        /// its next fire instead of doubling up with the rejoin's chain.
        inc: u32,
        /// Timer-chain generation (see [`AsyncAceSim::timer_gens`]); a
        /// chain superseded by a churn snap dies at its next fire the
        /// same way a stale incarnation's does.
        gen: u32,
    },
    /// ARQ retransmission attempt for a reliable message whose previous
    /// copy the wire destroyed. Fires after the backoff; incarnation-
    /// checked like a delivery, charged to the retry ledger, then sent
    /// through the adversarial wire again (netem mode only).
    Retransmit {
        from: PeerId,
        to: PeerId,
        from_inc: u32,
        to_inc: u32,
        seq: u64,
        attempt: u8,
        msg: Message,
    },
}

/// A completed on-behalf report: `(server, requester, measured entries)`.
type ServingReply = (PeerId, PeerId, Vec<(PeerId, Delay)>);

/// Cycle steps unblocked by a churn purge, applied after the pure state
/// sweep (borrow-wise the sweep cannot send).
#[derive(Default)]
struct DrainEffects {
    /// Peers whose last outstanding phase-1 probe targeted the leaver:
    /// their probe sweep is now complete → exchange tables.
    phase1_complete: Vec<PeerId>,
    /// Peers whose last awaited report came from the leaver: their
    /// cycle closes now instead of stalling until the next timer.
    finished_cycles: Vec<PeerId>,
    /// Completed `serving` reports whose last outstanding on-behalf
    /// probe targeted the leaver.
    serving_replies: Vec<ServingReply>,
}

impl DrainEffects {
    fn is_empty(&self) -> bool {
        self.phase1_complete.is_empty()
            && self.finished_cycles.is_empty()
            && self.serving_replies.is_empty()
    }
}

/// Wire-level accounting of the adversarial network model. With netem
/// off, only `sent` moves. The chaos harness holds the ledger to these
/// numbers: `ledger.total_count() == sent + duplicated + retransmits` —
/// every transmission, wasted or not, is charged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetemStats {
    /// Logical control messages handed to the wire (originals only).
    pub sent: u64,
    /// Transmissions destroyed by random loss.
    pub lost: u64,
    /// Transmissions destroyed crossing an active partition.
    pub cut_dropped: u64,
    /// Extra copies injected by the duplicating wire.
    pub duplicated: u64,
    /// ARQ retransmissions performed after a loss or cut.
    pub retransmits: u64,
    /// Deliveries suppressed by the receiver's dedup filter.
    pub deduped: u64,
    /// Forward-request slots expired for lack of refresh.
    pub expired_forwards: u64,
    /// Stranded on-behalf probes written off by their server.
    pub expired_probes: u64,
}

/// The asynchronous simulator: overlay + per-node protocol state + the
/// in-flight message queue.
///
/// # Examples
///
/// ```
/// use ace_core::protocol::{AsyncAceSim, ProtoConfig};
/// use ace_engine::SimTime;
/// use ace_overlay::clustered_overlay;
/// use ace_topology::generate::{two_level, TwoLevelConfig};
/// use ace_topology::DistanceOracle;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(4);
/// let topo = two_level(&TwoLevelConfig { as_count: 3, nodes_per_as: 30 }, &mut rng);
/// let oracle = DistanceOracle::new(topo.graph);
/// let hosts = oracle.graph().nodes().take(30).collect();
/// let ov = clustered_overlay(hosts, 6, 0.7, None, &mut rng);
///
/// let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 5);
/// sim.run_until(&oracle, SimTime::from_secs(90));
/// assert!(sim.messages_delivered() > 0);
/// assert!(sim.overlay().is_connected());
/// sim.check_invariants().unwrap();
/// ```
pub struct AsyncAceSim {
    overlay: Overlay,
    nodes: Vec<NodeState>,
    /// Monotonic per-peer incarnation counters, bumped on every rejoin;
    /// deliveries and timers carry the incarnations they were created
    /// under and are dropped on mismatch.
    incarnations: Vec<u32>,
    queue: EventQueue<NetEvent>,
    cfg: ProtoConfig,
    rng: StdRng,
    now: SimTime,
    ledger: OverheadLedger,
    nonce: u64,
    messages_delivered: u64,
    /// Outstanding `(from, to, kind)` message counts for the tracked
    /// [`InFlightKind`]s (incremented at send, decremented at delivery
    /// *or* drop — the counter follows the wire, not the handler).
    in_flight: HashMap<(PeerId, PeerId, InFlightKind), usize>,
    /// Monotonic wire sequence counter (see [`NetEvent::Deliver::seq`]).
    wire_seq: u64,
    /// Auditor tolerance for messages the wire destroyed: a tracked
    /// message lost on `(from, to)` leaves the endpoints free to
    /// disagree until the recorded deadline (drop time — or partition
    /// heal — plus the repair window), by which time retransmits or the
    /// next cycle's refresh must have reconciled them.
    drop_covers: HashMap<(PeerId, PeerId, InFlightKind), SimTime>,
    netem_stats: NetemStats,
    /// Optional optimization-rate controller (see
    /// [`ProtoConfig::autorate`]); observations are fed when a peer's
    /// cycle finishes, and the timer chain stretches its reschedule by
    /// the decided interval.
    controller: Option<RateController>,
    /// Harness-fed query arrivals per peer, drained into the controller
    /// at the peer's next cycle completion (see
    /// [`AsyncAceSim::note_queries`]).
    pending_queries: Vec<f64>,
    /// Harness-fed `(flood, ace)` per-query traffic for the gain
    /// estimate; sticky until replaced.
    pending_traffic: Option<(f64, f64)>,
    /// Lifecycle events (leaves + joins) so far; each peer's delta since
    /// its last finished cycle is its churn sample.
    churn_events: u64,
    /// Per-peer snapshots of `churn_events` and of the ledger's
    /// `(retry cost, total cost)` at the peer's last cycle completion —
    /// the deltas are that cycle's churn and retry-pressure samples.
    churn_marks: Vec<u64>,
    retry_marks: Vec<(f64, f64)>,
    /// Per-peer optimization-timer chain generation. A churn snap
    /// ([`AsyncAceSim::snap_neighbors`]) bumps the generation and pushes
    /// an immediate timer; the superseded chain's next fire sees a stale
    /// generation and dies, so a peer never runs two chains. Pure
    /// schedule state, like the dedup filter — not part of the digest.
    timer_gens: Vec<u32>,
    /// Reusable phase-3 selection buffers (flooding set, non-flooding
    /// complement); transient, cleared on use, never part of the digest.
    flood_scratch: Vec<PeerId>,
    nonflood_scratch: Vec<PeerId>,
    /// Reusable tree-step state (Prim arenas, scope-guard padding
    /// candidates); transient, never part of the digest.
    prim_scratch: PrimScratch,
    extras_scratch: Vec<(Delay, PeerId)>,
}

impl AsyncAceSim {
    /// Wraps an overlay and schedules every alive node's first cycle with
    /// uniform jitter.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ProtoConfig::validate`].
    pub fn new(overlay: Overlay, cfg: ProtoConfig, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ProtoConfig: {e}");
        }
        let nodes: Vec<NodeState> = (0..overlay.peer_count())
            .map(|i| NodeState::new(PeerId::new(i as u32)))
            .collect();
        let incarnations = vec![0; nodes.len()];
        let peer_count = nodes.len();
        let controller = cfg.autorate.map(|_| RateController::default());
        let mut sim = AsyncAceSim {
            overlay,
            nodes,
            incarnations,
            queue: EventQueue::new(),
            cfg,
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            ledger: OverheadLedger::new(),
            nonce: 0,
            messages_delivered: 0,
            in_flight: HashMap::new(),
            wire_seq: 0,
            drop_covers: HashMap::new(),
            netem_stats: NetemStats::default(),
            controller,
            pending_queries: vec![0.0; peer_count],
            pending_traffic: None,
            churn_events: 0,
            churn_marks: vec![0; peer_count],
            retry_marks: vec![(0.0, 0.0); peer_count],
            timer_gens: vec![0; peer_count],
            flood_scratch: Vec::new(),
            nonflood_scratch: Vec::new(),
            prim_scratch: PrimScratch::default(),
            extras_scratch: Vec::new(),
        };
        let peers: Vec<PeerId> = sim.overlay.alive_peers().collect();
        for p in peers {
            let jitter = sim.rng.gen_range(0..=START_JITTER);
            sim.queue.push(
                SimTime::from_ticks(jitter),
                NetEvent::OptimizeTimer {
                    peer: p,
                    inc: 0,
                    gen: 0,
                },
            );
        }
        sim
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The overlay (mutated in place as the protocol reconnects links).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Accumulated control overhead.
    pub fn ledger(&self) -> &OverheadLedger {
        &self.ledger
    }

    /// Total messages delivered so far (messages to/from peers that died
    /// or rejoined mid-flight are dropped, not delivered; copies the
    /// dedup filter suppressed are not delivered either).
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Wire-level accounting of the netem model (all zero except `sent`
    /// when no [`NetemConfig`] is installed).
    pub fn netem_stats(&self) -> &NetemStats {
        &self.netem_stats
    }

    /// Reports `count` query arrivals at `peer` since the last report;
    /// drained into the controller's EWMA when the peer's current cycle
    /// completes. No-op without a controller; non-finite or negative
    /// counts are ignored (the controller would reject them anyway).
    pub fn note_queries(&mut self, peer: PeerId, count: f64) {
        if self.controller.is_some() && count.is_finite() && count > 0.0 {
            if let Some(slot) = self.pending_queries.get_mut(peer.index()) {
                *slot += count;
            }
        }
    }

    /// Reports the latest measured per-query traffic of blind flooding
    /// vs. ACE forwarding; sticky until the next report, feeding every
    /// peer's gain estimate. No-op without a controller.
    pub fn note_traffic(&mut self, flood_per_query: f64, ace_per_query: f64) {
        if self.controller.is_some() {
            self.pending_traffic = Some((flood_per_query, ace_per_query));
        }
    }

    /// The optimization-rate controller, when enabled.
    pub fn controller(&self) -> Option<&RateController> {
        self.controller.as_ref()
    }

    /// Controller bookkeeping counters (all zero without a controller).
    pub fn controller_stats(&self) -> ControllerStats {
        self.controller
            .as_ref()
            .map(RateController::stats)
            .unwrap_or_default()
    }

    /// Digest of all per-node protocol state plus the ledger bit
    /// patterns — the async twin of
    /// [`AceEngine::state_digest`](crate::AceEngine::state_digest). Per
    /// node it folds, each keyed map sorted and every collection framed
    /// by its length: the cost table, the neighbor tables, own tree,
    /// forward requests and their timestamps, watches, outstanding
    /// probes, awaited reports, served requests, the pair-cost cache and
    /// the cycle flags; then every ledger kind and the controller's
    /// digest when there is one. The receiver-side dedup filter (`seen`)
    /// is deliberately excluded: it records wire history, not protocol
    /// state, and the idempotence tests assert digests unchanged
    /// *because* a suppressed duplicate touches nothing else.
    pub fn state_digest(&self) -> u64 {
        let mut d = Digest::new(0);
        for n in &self.nodes {
            fold_sorted(&mut d, n.peer.table.iter().map(|(p, c)| (p, u64::from(c))));
            let mut tables: Vec<(&PeerId, &CostTable)> = n.neighbor_tables.iter().collect();
            tables.sort_unstable_by_key(|&(&o, _)| o);
            d.word(tables.len() as u64);
            for (&o, t) in tables {
                d.word(u64::from(o.raw()));
                fold_sorted(&mut d, t.iter().map(|(p, c)| (p, u64::from(c))));
            }
            fold_peers(&mut d, &n.peer.own_tree);
            fold_peers(&mut d, &n.peer.requested);
            fold_sorted(
                &mut d,
                n.requested_at.iter().map(|(&p, &t)| (p, t.as_ticks())),
            );
            fold_watches(&mut d, &n.peer.watches);
            let mut pending: Vec<(&u64, &PendingProbe)> = n.pending_probes.iter().collect();
            pending.sort_unstable_by_key(|&(&nonce, _)| nonce);
            d.word(pending.len() as u64);
            for (&nonce, pp) in pending {
                d.word(nonce).word(u64::from(pp.target.raw()));
                match pp.purpose {
                    ProbePurpose::Neighbor => d.word(0),
                    ProbePurpose::Candidate { far, far_near } => d
                        .word(1)
                        .word(u64::from(far.raw()))
                        .word(u64::from(far_near)),
                    ProbePurpose::OnBehalf { requester } => {
                        d.word(2).word(u64::from(requester.raw()))
                    }
                };
                d.word(pp.sent_at.as_ticks());
            }
            fold_peers(&mut d, &n.awaiting_reports);
            let mut serving: Vec<_> = n.serving.iter().collect();
            serving.sort_unstable_by_key(|&(&req, _)| req);
            d.word(serving.len() as u64);
            for (&req, (entries, left)) in serving {
                d.word(u64::from(req.raw()));
                d.word(entries.len() as u64);
                for &(p, c) in entries {
                    d.word(u64::from(p.raw())).word(u64::from(c));
                }
                d.word(*left as u64);
            }
            fold_sorted(
                &mut d,
                n.pair_cache.iter().map(|(&p, &c)| (p, u64::from(c))),
            );
            d.word(u64::from(n.cycle_open)).word(n.cycles_done);
        }
        for kind in OverheadKind::ALL {
            d.word(self.ledger.cost_of(kind).to_bits())
                .word(self.ledger.count_of(kind));
        }
        if let Some(c) = &self.controller {
            d.word(c.digest());
        }
        d.finish()
    }

    /// Completed optimization cycles per node (min over alive nodes).
    pub fn min_cycles_done(&self) -> u64 {
        self.overlay
            .alive_peers()
            .map(|p| self.nodes[p.index()].cycles_done)
            .min()
            .unwrap_or(0)
    }

    /// A node's current flooding set (own tree ∪ forward requests);
    /// empty for a peer the simulator does not know.
    pub fn flooding_neighbors(&self, peer: PeerId) -> Vec<PeerId> {
        let mut out = Vec::new();
        if let Some(n) = self.nodes.get(peer.index()) {
            n.peer.flooding_into(&mut out);
        }
        out
    }

    /// True once `peer` has completed at least one tree build; false
    /// for a peer the simulator does not know.
    pub fn tree_built(&self, peer: PeerId) -> bool {
        self.nodes
            .get(peer.index())
            .is_some_and(|n| n.peer.tree_built)
    }

    /// Completed optimization cycles of one peer (the soak harness sums
    /// these to price a timer chain's total control activity); 0 for a
    /// peer the simulator does not know.
    pub fn cycles_done(&self, peer: PeerId) -> u64 {
        self.nodes.get(peer.index()).map_or(0, |n| n.cycles_done)
    }

    /// Takes `peer` offline (graceful leave in the shared taxonomy —
    /// [`LifecycleEvent::GracefulLeave`]): drops its links and local
    /// protocol state, and purges every reference survivors hold to it,
    /// *draining* mid-cycle dependencies instead of stalling on them —
    /// a cycle whose last awaited report was the leaver's closes now, a
    /// `serving` report whose last outstanding probe targeted the leaver
    /// is flushed to its requester now. Needs the `oracle` because those
    /// completions send real messages. In-flight messages from or to
    /// the leaver are discarded at delivery time. Returns false if the
    /// peer was already offline.
    pub fn peer_leave(&mut self, oracle: &dyn DistancePlane, peer: PeerId) -> bool {
        // Captured before the leave tears the links down: these are the
        // peers whose neighborhood the churn disturbs.
        let nbrs: Vec<PeerId> = self.overlay.neighbors(peer).to_vec();
        if self.overlay.leave(peer).is_err() {
            return false;
        }
        let event = LifecycleEvent::GracefulLeave;
        if event.clears_own_state() {
            self.nodes[peer.index()] = NodeState::new(peer);
        }
        if event.purges_survivor_refs() {
            let fx = self.purge_refs_to(peer);
            self.apply_drain(oracle, fx);
        }
        self.churn_events += 1;
        if let Some(c) = &mut self.controller {
            c.on_lifecycle(peer, event);
        }
        if let Some(slot) = self.pending_queries.get_mut(peer.index()) {
            *slot = 0.0;
        }
        self.snap_neighbors(&nbrs);
        true
    }

    /// Brings `peer` back online under a fresh incarnation, attaching to
    /// up to `attach` peers (cached addresses first, then random) and
    /// scheduling its first optimization cycle. Any stale references to
    /// the previous incarnation are purged ([`LifecycleEvent::Rejoin`]),
    /// and messages or timers from it are dropped by the incarnation
    /// check at delivery. Returns false if it was already online.
    pub fn peer_join(&mut self, peer: PeerId, attach: usize) -> bool {
        let joined = {
            let rng = &mut self.rng;
            self.overlay.join(peer, attach, rng).is_ok()
        };
        if !joined {
            return false;
        }
        let event = LifecycleEvent::Rejoin;
        self.incarnations[peer.index()] = self.incarnations[peer.index()].wrapping_add(1);
        if event.clears_own_state() {
            self.nodes[peer.index()] = NodeState::new(peer);
        }
        if event.purges_survivor_refs() {
            // A leave already drained everything, so the purge can have
            // no cycle completions left to apply — it is pure hygiene
            // against a dead incarnation shadowing the new one.
            let fx = self.purge_refs_to(peer);
            debug_assert!(
                fx.is_empty(),
                "rejoin purge found undrained references to a dead incarnation"
            );
        }
        self.churn_events += 1;
        if let Some(c) = &mut self.controller {
            c.on_lifecycle(peer, event);
        }
        let jitter = self.rng.gen_range(0..=START_JITTER);
        let inc = self.incarnations[peer.index()];
        let gen = self.timer_gens[peer.index()];
        self.queue.push(
            self.now + jitter,
            NetEvent::OptimizeTimer { peer, inc, gen },
        );
        let nbrs: Vec<PeerId> = self.overlay.neighbors(peer).to_vec();
        self.snap_neighbors(&nbrs);
        true
    }

    /// Local churn response: a lifecycle event at a peer snaps each
    /// disturbed neighbor's schedule back to the floor
    /// ([`RateController::snap_to_floor`]) and fires its optimization
    /// timer *now*, superseding any stretched chain via a generation
    /// bump. The static schedule repairs a churned neighborhood on its
    /// next tick for free because it always runs at the floor; the
    /// adaptive schedule buys that locality back explicitly here. No-op
    /// without a controller, so the static arm's event stream is
    /// byte-identical to before.
    fn snap_neighbors(&mut self, neighbors: &[PeerId]) {
        if self.controller.is_none() {
            return;
        }
        let period = self.now.as_ticks() / self.cfg.timing.cycle_period;
        for &n in neighbors {
            if !self.overlay.is_alive(n) {
                continue;
            }
            let inc = self.incarnations[n.index()];
            if let Some(c) = &mut self.controller {
                c.snap_to_floor(n, inc, period);
            }
            self.timer_gens[n.index()] = self.timer_gens[n.index()].wrapping_add(1);
            let gen = self.timer_gens[n.index()];
            self.queue
                .push(self.now, NetEvent::OptimizeTimer { peer: n, inc, gen });
        }
    }

    /// Removes every reference survivors hold to `dead` — tree slots,
    /// forward requests, watches, cost rows, received tables (as key and
    /// inside entries), pair caches, serving ledgers, awaited reports
    /// and outstanding probes — and collects the cycle steps those
    /// removals unblocked. Deterministic: nodes are swept in peer-id
    /// order and dropped probes in nonce order.
    fn purge_refs_to(&mut self, dead: PeerId) -> DrainEffects {
        let mut fx = DrainEffects::default();
        for i in 0..self.nodes.len() {
            if i == dead.index() {
                continue;
            }
            let owner = PeerId::new(i as u32);
            let node = &mut self.nodes[i];
            node.peer.forget(dead);
            node.requested_at.remove(&dead);
            node.seen.remove(&dead);
            node.neighbor_tables.remove(&dead);
            for t in node.neighbor_tables.values_mut() {
                t.remove(dead);
            }
            node.pair_cache.remove(&dead);
            node.serving.remove(&dead);
            for (entries, _) in node.serving.values_mut() {
                entries.retain(|&(t, _)| t != dead);
            }
            if let Some(pos) = node.awaiting_reports.iter().position(|&r| r == dead) {
                node.awaiting_reports.remove(pos);
                if node.awaiting_reports.is_empty() && node.cycle_open {
                    fx.finished_cycles.push(owner);
                }
            }
            // Outstanding probes that touch the leaver: as target, as the
            // far end of a candidate probe, or as an on-behalf requester.
            let mut dropped: Vec<(u64, PeerId, ProbePurpose)> = node
                .pending_probes
                .iter()
                .filter(|&(_, pp)| {
                    pp.target == dead
                        || matches!(pp.purpose, ProbePurpose::Candidate { far, .. } if far == dead)
                        || matches!(pp.purpose, ProbePurpose::OnBehalf { requester } if requester == dead)
                })
                .map(|(&nonce, pp)| (nonce, pp.target, pp.purpose))
                .collect();
            dropped.sort_unstable_by_key(|&(nonce, ..)| nonce);
            let mut neighbor_dropped = false;
            for (nonce, target, purpose) in dropped {
                node.pending_probes.remove(&nonce);
                match purpose {
                    ProbePurpose::Neighbor => neighbor_dropped = true,
                    ProbePurpose::Candidate { .. } => {}
                    ProbePurpose::OnBehalf { requester } => {
                        // The probe that will never be answered still
                        // counts down its serving entry; at zero the
                        // report is complete (without the dead pair) and
                        // is flushed rather than left waiting forever.
                        if requester != dead && target == dead {
                            if let Some(entries) = node.settle_serving(requester, None) {
                                fx.serving_replies.push((owner, requester, entries));
                            }
                        }
                    }
                }
            }
            if neighbor_dropped
                && node.cycle_open
                && !node
                    .pending_probes
                    .values()
                    .any(|pp| matches!(pp.purpose, ProbePurpose::Neighbor))
            {
                fx.phase1_complete.push(owner);
            }
        }
        self.drop_covers
            .retain(|&(a, b, _), _| a != dead && b != dead);
        fx
    }

    /// Applies the cycle completions a purge unblocked.
    fn apply_drain(&mut self, oracle: &dyn DistancePlane, fx: DrainEffects) {
        for (server, requester, entries) in fx.serving_replies {
            if self.overlay.is_alive(server) && self.overlay.is_alive(requester) {
                self.send(
                    oracle,
                    server,
                    requester,
                    Message::CostTable {
                        owner: server,
                        entries,
                    },
                );
            }
        }
        for p in fx.phase1_complete {
            if self.overlay.is_alive(p) {
                self.exchange_tables(oracle, p);
            }
        }
        for p in fx.finished_cycles {
            if self.overlay.is_alive(p) {
                self.finish_cycle(oracle, p);
            }
        }
    }

    fn fresh_nonce(&mut self) -> u64 {
        self.nonce += 1;
        self.nonce
    }

    /// Sends `msg`, charging its size over the physical path and handing
    /// it to the (possibly adversarial) wire. Classification comes from
    /// the shared taxonomy ([`policy::control_overhead_kind`]);
    /// search-plane messages have no business on the control plane. The
    /// charge happens *here*, before the wire decides the message's
    /// fate: a lost transmission cost real traffic too.
    fn send(&mut self, oracle: &dyn DistancePlane, from: PeerId, to: PeerId, msg: Message) {
        let dist = self.overlay.link_cost(oracle, from, to);
        let Some(kind) = policy::control_overhead_kind(&msg) else {
            unreachable!("search-plane message {msg:?} routed into the control plane")
        };
        self.ledger.charge(kind, f64::from(dist) * msg.size_units());
        self.netem_stats.sent += 1;
        self.wire_seq += 1;
        let seq = self.wire_seq;
        self.transmit(from, to, seq, 0, dist, msg);
    }

    /// One transmission attempt over the wire. With netem installed the
    /// copy can be destroyed by a partition cut or random loss (both
    /// schedule an ARQ retransmit for reliable kinds and record an
    /// auditor drop cover), duplicated (the extra copy is charged as
    /// real traffic and jittered independently, so the copies can swap
    /// order), or delayed by extra jitter. Without netem it is simply
    /// delivered after the physical delay.
    fn transmit(
        &mut self,
        from: PeerId,
        to: PeerId,
        seq: u64,
        attempt: u8,
        dist: Delay,
        msg: Message,
    ) {
        let Some(net) = self.cfg.netem.clone() else {
            self.enqueue_delivery(from, to, seq, dist, 0, msg);
            return;
        };
        let tick = self.now.as_ticks();
        if net.cut(tick, from, to) {
            self.netem_stats.cut_dropped += 1;
            self.note_wire_drop(from, to, &msg, net.heals_at(tick, from, to));
            self.schedule_retransmit(&net, from, to, seq, attempt, msg);
            return;
        }
        if net.lost(from, to, seq, attempt) {
            self.netem_stats.lost += 1;
            self.note_wire_drop(from, to, &msg, None);
            self.schedule_retransmit(&net, from, to, seq, attempt, msg);
            return;
        }
        if net.duplicated(from, to, seq, attempt) {
            let kind = policy::control_overhead_kind(&msg).expect("control-plane message");
            self.ledger.charge(kind, f64::from(dist) * msg.size_units());
            self.netem_stats.duplicated += 1;
            let jitter = net.extra_delay(from, to, seq, 1);
            self.enqueue_delivery(from, to, seq, dist, jitter, msg.clone());
        }
        let jitter = net.extra_delay(from, to, seq, 0);
        self.enqueue_delivery(from, to, seq, dist, jitter, msg);
    }

    fn enqueue_delivery(
        &mut self,
        from: PeerId,
        to: PeerId,
        seq: u64,
        dist: Delay,
        extra: u64,
        msg: Message,
    ) {
        if let Some(k) = InFlightKind::of(&msg) {
            *self.in_flight.entry((from, to, k)).or_insert(0) += 1;
        }
        self.queue.push(
            self.now + (u64::from(dist) + extra),
            NetEvent::Deliver {
                from,
                to,
                from_inc: self.incarnations[from.index()],
                to_inc: self.incarnations[to.index()],
                seq,
                msg,
            },
        );
    }

    /// The auditor's repair window: how long a wire fault may excuse
    /// cross-peer disagreement. Repairs ride the per-peer timer chain,
    /// so when the rate controller may stretch that chain the window
    /// stretches with it — a peer optimizing every [`R_MAX`] periods
    /// legitimately refreshes (and re-requests, and expires) soft state
    /// that much more slowly.
    fn repair_window(&self) -> u64 {
        let stretch = match self.cfg.autorate {
            Some(_) => R_MAX.ceil() as u64,
            None => 1,
        };
        REPAIR_PERIODS * self.cfg.timing.cycle_period * stretch
    }

    /// Records the auditor tolerance for a tracked message the wire
    /// destroyed: the endpoints may disagree until the repair window
    /// past now (loss) or past the partition's heal (cut).
    fn note_wire_drop(&mut self, from: PeerId, to: PeerId, msg: &Message, heal: Option<u64>) {
        let Some(kind) = InFlightKind::of(msg) else {
            return;
        };
        let base = heal.map_or(self.now, SimTime::from_ticks);
        let deadline = base + self.repair_window();
        let slot = self.drop_covers.entry((from, to, kind)).or_insert(deadline);
        if deadline > *slot {
            *slot = deadline;
        }
    }

    /// Schedules the ARQ retransmit of a reliable message after an
    /// exponential backoff with deterministic jitter; best-effort kinds
    /// (`Connect`/`ConnectOk` — the overlay records the link atomically
    /// at the initiator, so their loss costs nothing but the
    /// acknowledgment) are simply gone.
    fn schedule_retransmit(
        &mut self,
        net: &NetemConfig,
        from: PeerId,
        to: PeerId,
        seq: u64,
        attempt: u8,
        msg: Message,
    ) {
        if attempt >= RETRY_CAP || !reliable(&msg) {
            return;
        }
        let backoff = BACKOFF_BASE << attempt;
        let delay = backoff + net.retry_jitter(seq, attempt, BACKOFF_JITTER);
        self.queue.push(
            self.now + delay,
            NetEvent::Retransmit {
                from,
                to,
                from_inc: self.incarnations[from.index()],
                to_inc: self.incarnations[to.index()],
                seq,
                attempt: attempt + 1,
                msg,
            },
        );
    }

    /// True while a tracked message is on the wire from `from` to `to`.
    fn in_flight(&self, from: PeerId, to: PeerId, kind: InFlightKind) -> bool {
        self.in_flight
            .get(&(from, to, kind))
            .is_some_and(|&c| c > 0)
    }

    /// Auditor tolerance for one directed notification: it is still on
    /// the wire, or the wire destroyed a copy and the repair window has
    /// not yet elapsed (retransmits or the next cycle's refresh get that
    /// long to reconcile the endpoints).
    fn wire_cover(&self, from: PeerId, to: PeerId, kind: InFlightKind) -> bool {
        self.in_flight(from, to, kind)
            || self
                .drop_covers
                .get(&(from, to, kind))
                .is_some_and(|&deadline| deadline >= self.now)
    }

    /// True while a `Disconnect` between `a` and `b` (either direction)
    /// is in flight or within its post-drop repair window: the endpoints
    /// legitimately disagree about the link.
    fn cut_cover(&self, a: PeerId, b: PeerId) -> bool {
        self.wire_cover(a, b, InFlightKind::Disconnect)
            || self.wire_cover(b, a, InFlightKind::Disconnect)
    }

    /// True if a scheduled partition separated `a` and `b` within the
    /// last repair window. Covers the disagreements no drop record can:
    /// a sender whose whole cycle stalled during the cut recorded no
    /// drops toward the other side, yet its partner's soft state may
    /// have expired meanwhile.
    fn recently_separated(&self, a: PeerId, b: PeerId) -> bool {
        self.cfg.netem.as_ref().is_some_and(|net| {
            net.separated_within(self.now.as_ticks(), self.repair_window(), a, b)
        })
    }

    /// Runs the protocol until `until` (absolute simulation time); an
    /// `until` already past leaves the clock where it is. The queue's
    /// `peek_time` leaves its base at the last pop, so events the caller
    /// schedules after `until` but before the earliest pending one still
    /// pop first.
    pub fn run_until(&mut self, oracle: &dyn DistancePlane, until: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked event");
            self.now = t;
            match ev {
                NetEvent::OptimizeTimer { peer, inc, gen } => {
                    // A chain scheduled by a dead incarnation dies here;
                    // the rejoin scheduled its own (single) successor. A
                    // stale generation dies the same way — a churn snap
                    // superseded this chain with an immediate one.
                    if inc == self.incarnations[peer.index()]
                        && gen == self.timer_gens[peer.index()]
                    {
                        self.on_timer(oracle, peer, inc);
                    }
                }
                NetEvent::Deliver {
                    from,
                    to,
                    from_inc,
                    to_inc,
                    seq,
                    msg,
                } => {
                    if let Some(k) = InFlightKind::of(&msg) {
                        if let Some(c) = self.in_flight.get_mut(&(from, to, k)) {
                            *c -= 1;
                            if *c == 0 {
                                self.in_flight.remove(&(from, to, k));
                            }
                        }
                    }
                    // Both endpoints must still be the incarnations the
                    // message was addressed between; otherwise it is lost
                    // on the floor, as a closed TCP connection would
                    // lose it.
                    let fresh = self.overlay.is_alive(to)
                        && self.overlay.is_alive(from)
                        && from_inc == self.incarnations[from.index()]
                        && to_inc == self.incarnations[to.index()];
                    if fresh {
                        self.deliver(oracle, from, to, seq, msg);
                    }
                }
                NetEvent::Retransmit {
                    from,
                    to,
                    from_inc,
                    to_inc,
                    seq,
                    attempt,
                    msg,
                } => {
                    // An endpoint that died or rejoined since the
                    // original send voids the ARQ chain, like the
                    // freshness check voids the delivery.
                    let fresh = self.overlay.is_alive(to)
                        && self.overlay.is_alive(from)
                        && from_inc == self.incarnations[from.index()]
                        && to_inc == self.incarnations[to.index()];
                    if fresh {
                        let dist = self.overlay.link_cost(oracle, from, to);
                        self.ledger
                            .charge(retry_kind(&msg), f64::from(dist) * msg.size_units());
                        self.netem_stats.retransmits += 1;
                        self.transmit(from, to, seq, attempt, dist, msg);
                    }
                }
            }
        }
        // Never backwards: a push at `now + d` must not precede the last
        // pop (the event queue's one precondition).
        self.now = self.now.max(until);
    }

    /// Final delivery step behind the freshness check: the per-sender
    /// dedup filter first (sequence numbers are globally unique, so the
    /// filter is inert on a perfect wire), then the handler. A
    /// suppressed duplicate touches nothing — the idempotence tests
    /// assert node-state digests are unchanged by it.
    fn deliver(
        &mut self,
        oracle: &dyn DistancePlane,
        from: PeerId,
        to: PeerId,
        seq: u64,
        msg: Message,
    ) {
        if !self.nodes[to.index()]
            .seen
            .entry(from)
            .or_default()
            .insert(seq)
        {
            self.netem_stats.deduped += 1;
            return;
        }
        self.messages_delivered += 1;
        self.on_message(oracle, from, to, msg);
    }

    fn on_timer(&mut self, oracle: &dyn DistancePlane, peer: PeerId, inc: u32) {
        if self.overlay.is_alive(peer) {
            if self.cfg.netem.is_some() {
                self.wire_repair(oracle, peer);
            }
            // Abandon any stalled cycle and start fresh — but keep
            // on-behalf probes: they serve *other* peers' cycles, and
            // dropping them would strand the matching `serving` entries
            // (their replies still count down via `on_probe_reply`).
            {
                let node = &mut self.nodes[peer.index()];
                node.pending_probes
                    .retain(|_, pp| matches!(pp.purpose, ProbePurpose::OnBehalf { .. }));
                node.awaiting_reports.clear();
                node.cycle_open = true;
            }
            let nbrs: Vec<PeerId> = self.overlay.neighbors(peer).to_vec();
            if nbrs.is_empty() {
                self.nodes[peer.index()].cycle_open = false;
            } else {
                for n in nbrs {
                    let nonce = self.fresh_nonce();
                    self.nodes[peer.index()].pending_probes.insert(
                        nonce,
                        PendingProbe {
                            target: n,
                            purpose: ProbePurpose::Neighbor,
                            sent_at: self.now,
                        },
                    );
                    self.send(oracle, peer, n, Message::Probe { nonce });
                }
            }
            // The timer chain's tempo: a controller stretches the
            // reschedule by the peer's decided interval (≥ R_MIN ≥ 1
            // base period); without one the chain keeps the static
            // `cycle_period` exactly as before.
            let factor = self
                .controller
                .as_ref()
                .and_then(|c| c.interval_of(peer))
                .unwrap_or(1.0);
            let wait = ((self.cfg.timing.cycle_period as f64 * factor).round() as u64).max(1);
            let next = self.now + wait;
            let gen = self.timer_gens[peer.index()];
            self.queue
                .push(next, NetEvent::OptimizeTimer { peer, inc, gen });
        }
    }

    /// Per-timer soft-state repair, active only under the adversarial
    /// wire: prunes expired drop covers, expires forward-request slots
    /// no refresh confirmed within the repair window (their cancel was
    /// destroyed beyond the ARQ's patience), writes off stranded
    /// on-behalf probes (flushing the partial report so the requester's
    /// phase 2 is not held hostage), and re-syncs the cost table to the
    /// current neighbor set (a `Disconnect` lost for good would
    /// otherwise leave a stale row advertised forever).
    fn wire_repair(&mut self, oracle: &dyn DistancePlane, peer: PeerId) {
        let now = self.now;
        self.drop_covers.retain(|_, &mut deadline| deadline >= now);
        let cutoff = SimTime::from_ticks(now.as_ticks().saturating_sub(self.repair_window()));
        let nbrs: Vec<PeerId> = self.overlay.neighbors(peer).to_vec();
        {
            let node = &mut self.nodes[peer.index()];
            let requested = &mut node.peer.requested;
            let requested_at = &mut node.requested_at;
            let before = requested.len();
            requested.retain(|r| requested_at.get(r).is_none_or(|&t| t >= cutoff));
            requested_at.retain(|r, _| requested.contains(r));
            self.netem_stats.expired_forwards += (before - requested.len()) as u64;
            node.peer.table.retain_neighbors(&nbrs);
        }
        // Stranded on-behalf probes: their reply has been gone past any
        // ARQ horizon; write them off in nonce order.
        let mut expired: Vec<(u64, PeerId)> = self.nodes[peer.index()]
            .pending_probes
            .iter()
            .filter_map(|(&nonce, pp)| match pp.purpose {
                ProbePurpose::OnBehalf { requester } if pp.sent_at < cutoff => {
                    Some((nonce, requester))
                }
                _ => None,
            })
            .collect();
        expired.sort_unstable_by_key(|&(nonce, _)| nonce);
        for (nonce, requester) in expired {
            self.nodes[peer.index()].pending_probes.remove(&nonce);
            self.netem_stats.expired_probes += 1;
            let flushed = self.nodes[peer.index()].settle_serving(requester, None);
            if let Some(entries) = flushed {
                if self.overlay.is_alive(requester) {
                    self.send(
                        oracle,
                        peer,
                        requester,
                        Message::CostTable {
                            owner: peer,
                            entries,
                        },
                    );
                }
            }
        }
    }

    fn on_message(&mut self, oracle: &dyn DistancePlane, from: PeerId, to: PeerId, msg: Message) {
        match msg {
            Message::Probe { nonce } => {
                self.send(oracle, to, from, Message::ProbeReply { nonce });
            }
            Message::ProbeReply { nonce } => self.on_probe_reply(oracle, from, to, nonce),
            Message::CostTable { owner, entries } => {
                let node = &mut self.nodes[to.index()];
                let table = node
                    .neighbor_tables
                    .entry(owner)
                    .or_insert_with(|| CostTable::new(owner));
                for (p, c) in entries {
                    // Entries about peers that died while the table was
                    // in flight are stale on arrival; recording them
                    // would resurrect a purged incarnation.
                    if p != owner && self.overlay.is_alive(p) {
                        table.set(p, c);
                    }
                }
                // A report we were waiting on?
                if let Some(pos) = node.awaiting_reports.iter().position(|&r| r == from) {
                    node.awaiting_reports.remove(pos);
                    if node.awaiting_reports.is_empty() && node.cycle_open {
                        self.finish_cycle(oracle, to);
                    }
                }
            }
            Message::ProbeRequest { targets } => self.on_probe_request(oracle, from, to, targets),
            Message::ForwardRequest => {
                // Only honor a request the sender still stands behind and
                // that travels a live link — the simulator peeks at the
                // sender's current tree as a stand-in for the sequence
                // number a real implementation would carry, so a request
                // overtaken by a cut-and-reconnect cannot install a
                // forward slot nobody wants anymore.
                if self.overlay.are_neighbors(to, from)
                    && self.nodes[from.index()].peer.own_tree.contains(&to)
                {
                    let now = self.now;
                    let node = &mut self.nodes[to.index()];
                    if !node.peer.requested.contains(&from) {
                        node.peer.requested.push(from);
                    }
                    // Refresh stamp: netem-mode senders re-send their
                    // whole tree every cycle, and slots unrefreshed for
                    // a repair window expire (`wire_repair`).
                    node.requested_at.insert(from, now);
                }
            }
            Message::ForwardCancel => {
                let node = &mut self.nodes[to.index()];
                node.peer.requested.retain(|&p| p != from);
                node.requested_at.remove(&from);
            }
            Message::Connect => {
                // Accept whenever the overlay allows it.
                if self.overlay.connect(to, from).is_ok() {
                    self.send(oracle, to, from, Message::ConnectOk);
                }
            }
            // The initiator already recorded the link when it sent
            // `Connect` (our `Overlay` mutates both adjacency lists
            // atomically); the acknowledgment is pure wire traffic.
            Message::ConnectOk => {}
            Message::Disconnect => {
                let _ = self.overlay.disconnect(to, from);
                self.nodes[to.index()].forget_link(from);
            }
            // Search-plane messages are not simulated here.
            Message::Ping
            | Message::Pong { .. }
            | Message::Query { .. }
            | Message::QueryHit { .. } => {}
        }
    }

    fn on_probe_reply(&mut self, oracle: &dyn DistancePlane, from: PeerId, to: PeerId, nonce: u64) {
        let Some(PendingProbe {
            target, purpose, ..
        }) = self.nodes[to.index()].pending_probes.remove(&nonce)
        else {
            return; // stale reply from an abandoned cycle
        };
        debug_assert_eq!(target, from);
        let measured =
            ProbeModel::EXACT.perturb(to, from, self.overlay.link_cost(oracle, to, from));
        match purpose {
            ProbePurpose::Neighbor => {
                if self.overlay.are_neighbors(to, from) {
                    self.nodes[to.index()].peer.table.set(from, measured);
                }
                // All phase-1 probes answered → exchange tables + request
                // pairwise measurements.
                let done = {
                    let node = &self.nodes[to.index()];
                    node.cycle_open
                        && !node
                            .pending_probes
                            .values()
                            .any(|pp| matches!(pp.purpose, ProbePurpose::Neighbor))
                };
                if done {
                    self.exchange_tables(oracle, to);
                }
            }
            ProbePurpose::Candidate { far, far_near } => {
                self.apply_figure4(oracle, to, far, from, measured, far_near);
            }
            ProbePurpose::OnBehalf { requester } => {
                let node = &mut self.nodes[to.index()];
                // Cache the measurement: later ProbeRequests for the same
                // peer are answered without a fresh round trip.
                node.pair_cache.insert(from, measured);
                if let Some(entries) = node.settle_serving(requester, Some((from, measured))) {
                    self.send(
                        oracle,
                        to,
                        requester,
                        Message::CostTable { owner: to, entries },
                    );
                }
            }
        }
    }

    /// Step 2: own table to all neighbors + pairwise probe requests.
    fn exchange_tables(&mut self, oracle: &dyn DistancePlane, peer: PeerId) {
        let nbrs: Vec<PeerId> = self.overlay.neighbors(peer).to_vec();
        let own = self.nodes[peer.index()].peer.table.clone();
        self.nodes[peer.index()].awaiting_reports = nbrs.clone();
        for &n in &nbrs {
            let others: Vec<PeerId> = nbrs.iter().copied().filter(|&o| o != n).collect();
            self.send(oracle, peer, n, own.to_message());
            self.send(oracle, peer, n, Message::ProbeRequest { targets: others });
        }
        if nbrs.is_empty() && self.nodes[peer.index()].cycle_open {
            self.finish_cycle(oracle, peer);
        }
    }

    /// Serve a pairwise probe request: measure unknown targets, then report.
    fn on_probe_request(
        &mut self,
        oracle: &dyn DistancePlane,
        from: PeerId,
        to: PeerId,
        targets: Vec<PeerId>,
    ) {
        if self.cfg.netem.is_some() {
            // Under the adversarial wire a requester can abandon a cycle
            // and re-request while the previous request's probes are
            // still stranded on a cut link. The new request supersedes
            // them: drop the stale serving state so its countdown can't
            // be corrupted by replies to a request nobody awaits.
            let node = &mut self.nodes[to.index()];
            let mut stale: Vec<u64> = node
                .pending_probes
                .iter()
                .filter(|(_, pp)| {
                    matches!(pp.purpose, ProbePurpose::OnBehalf { requester } if requester == from)
                })
                .map(|(&nonce, _)| nonce)
                .collect();
            stale.sort_unstable();
            for nonce in stale {
                node.pending_probes.remove(&nonce);
            }
            node.serving.remove(&from);
        }
        let mut known: Vec<(PeerId, Delay)> = Vec::new();
        let mut unknown: Vec<PeerId> = Vec::new();
        for t in targets {
            // A target that died while the request was in flight is
            // dropped from the report: probing it would hang forever (a
            // real stack gets a connection refusal here).
            if t == to || !self.overlay.is_alive(t) {
                continue;
            }
            let node = &self.nodes[to.index()];
            match node
                .peer
                .table
                .get(t)
                .or_else(|| node.pair_cache.get(&t).copied())
            {
                Some(c) => known.push((t, c)),
                None => unknown.push(t),
            }
        }
        if unknown.is_empty() {
            self.send(
                oracle,
                to,
                from,
                Message::CostTable {
                    owner: to,
                    entries: known,
                },
            );
            return;
        }
        let count = unknown.len();
        self.nodes[to.index()].serving.insert(from, (known, count));
        for t in unknown {
            let nonce = self.fresh_nonce();
            self.nodes[to.index()].pending_probes.insert(
                nonce,
                PendingProbe {
                    target: t,
                    purpose: ProbePurpose::OnBehalf { requester: from },
                    sent_at: self.now,
                },
            );
            self.send(oracle, to, t, Message::Probe { nonce });
        }
    }

    /// Step 3: Prim over {peer} ∪ N(peer) with everything learned, then
    /// forward-set diffs and one phase-3 attempt. Tree construction and
    /// the `min_flooding` scope guard come from the shared core
    /// ([`policy::tree_with_scope_guard_scratch`]) — the engine's, over
    /// the closure slots 0 = `peer`, 1 + i = its i-th neighbor.
    fn finish_cycle(&mut self, oracle: &dyn DistancePlane, peer: PeerId) {
        self.nodes[peer.index()].cycle_open = false;
        let mut members = vec![peer];
        members.extend_from_slice(self.overlay.neighbors(peer));
        let nbrs = &members[1..];
        let node = &self.nodes[peer.index()];
        let mut edges: Vec<SlotEdge> = Vec::new();
        for (i, &n) in nbrs.iter().enumerate() {
            if let Some(cost) = node.peer.table.get(n) {
                let (a, b) = (0, 1 + i as u32);
                edges.push(SlotEdge { a, b, cost });
            }
        }
        // Pairwise costs among neighbors from their reports.
        for (i, &a) in nbrs.iter().enumerate() {
            if let Some(t) = node.neighbor_tables.get(&a) {
                for (b, cost) in t.iter().filter(|&(b, _)| a < b) {
                    if let Some(j) = nbrs.iter().position(|&n| n == b) {
                        let (a, b) = (1 + i as u32, 1 + j as u32);
                        edges.push(SlotEdge { a, b, cost });
                    }
                }
            }
        }
        let mut new_tree = Vec::new();
        policy::tree_with_scope_guard_scratch(
            peer,
            &members,
            &edges,
            nbrs,
            MIN_FLOODING,
            |n| node.peer.table.get(n),
            &mut self.prim_scratch,
            &mut self.extras_scratch,
            &mut new_tree,
        );
        let old_tree = std::mem::take(&mut self.nodes[peer.index()].peer.own_tree);
        self.nodes[peer.index()].peer.own_tree = new_tree.clone();
        // On a perfect wire only the diffs travel; under netem the whole
        // tree is re-requested every cycle — the refresh that keeps the
        // partner's `requested_at` stamps alive and re-installs slots
        // whose original request the wire destroyed for good.
        let refresh = self.cfg.netem.is_some();
        for &f in new_tree.iter().filter(|f| refresh || !old_tree.contains(f)) {
            self.send(oracle, peer, f, Message::ForwardRequest);
        }
        for &f in old_tree.iter().filter(|f| !new_tree.contains(f)) {
            self.send(oracle, peer, f, Message::ForwardCancel);
        }
        let node = &mut self.nodes[peer.index()];
        node.cycles_done += 1;
        node.peer.tree_built = true;

        self.process_watches(oracle, peer);
        self.start_phase3(oracle, peer);
        self.feed_controller(peer);
    }

    /// Feeds the controller one observation for a peer that just
    /// finished a cycle (`ran = true` in the controller's terms): the
    /// queries the harness reported since the peer's last completion,
    /// the churn events and the ledger's retry-vs-total cost over the
    /// same window, and the latest measured flood/ACE traffic. Periods
    /// are wall-clock cycle periods (`now / cycle_period`) — a global,
    /// deterministic clock shared by every peer's EWMA bookkeeping.
    fn feed_controller(&mut self, peer: PeerId) {
        let Some(ctrl) = &mut self.controller else {
            return;
        };
        let period = self.now.as_ticks() / self.cfg.timing.cycle_period;
        let retry_cost = self.ledger.cost_of(OverheadKind::ProbeRetry)
            + self.ledger.cost_of(OverheadKind::ControlRetry);
        let total_cost: f64 = OverheadKind::ALL
            .iter()
            .map(|&k| self.ledger.cost_of(k))
            .sum();
        let (retry_mark, total_mark) = self.retry_marks[peer.index()];
        let d_total = (total_cost - total_mark).max(0.0);
        let d_retry = (retry_cost - retry_mark).max(0.0);
        let retry_pressure = if d_total > 0.0 {
            d_retry / d_total
        } else {
            0.0
        };
        let churn = self.churn_events - self.churn_marks[peer.index()];
        let (flood, ace) = self.pending_traffic.unwrap_or((0.0, 0.0));
        // The window's cost is global; attribute an even per-peer share
        // so the gain estimate matches the engine's per-peer scale.
        let alive = self.overlay.alive_count().max(1) as f64;
        let sample = RateSample {
            queries: self.pending_queries[peer.index()],
            churn_events: churn as f64,
            flood_traffic: flood,
            ace_traffic: ace,
            overhead: d_total / alive,
            retry_pressure,
        };
        let inc = self.incarnations[peer.index()];
        ctrl.observe(peer, inc, period, &sample, true);
        ctrl.end_period(period);
        self.pending_queries[peer.index()] = 0.0;
        self.churn_marks[peer.index()] = self.churn_events;
        self.retry_marks[peer.index()] = (retry_cost, total_cost);
    }

    /// §3.3 keep-both follow-up, decided by the shared
    /// [`policy::triage_watch`] over the freshest table received from
    /// each watched far neighbor.
    fn process_watches(&mut self, oracle: &dyn DistancePlane, peer: PeerId) {
        let watches = std::mem::take(&mut self.nodes[peer.index()].peer.watches);
        let own_tree = self.nodes[peer.index()].peer.own_tree.clone();
        let mut keep = Vec::new();
        for (far, near) in watches {
            let verdict = policy::triage_watch(
                &self.overlay,
                peer,
                far,
                near,
                &own_tree,
                self.nodes[peer.index()].neighbor_tables.get(&far),
            );
            match verdict {
                WatchVerdict::Expire => {}
                WatchVerdict::Keep => keep.push((far, near)),
                WatchVerdict::Cut => {
                    if self.overlay.disconnect(peer, far).is_ok() {
                        self.nodes[peer.index()].forget_link(far);
                        self.send(oracle, peer, far, Message::Disconnect);
                    }
                }
            }
        }
        self.nodes[peer.index()].peer.watches = keep;
    }

    fn start_phase3(&mut self, oracle: &dyn DistancePlane, peer: PeerId) {
        // Reused selection buffers: same draws and decisions as the
        // allocating version, without the per-cycle Vec churn.
        let mut flooding = std::mem::take(&mut self.flood_scratch);
        let mut non_flooding = std::mem::take(&mut self.nonflood_scratch);
        flooding.clear();
        self.nodes[peer.index()].peer.flooding_into(&mut flooding);
        non_flooding.clear();
        non_flooding.extend(
            self.overlay
                .neighbors(peer)
                .iter()
                .copied()
                .filter(|n| !flooding.contains(n)),
        );
        let far = if non_flooding.is_empty() {
            None
        } else {
            Some(non_flooding[self.rng.gen_range(0..non_flooding.len())])
        };
        self.flood_scratch = flooding;
        self.nonflood_scratch = non_flooding;
        let Some(far) = far else {
            return;
        };
        let mut candidates = Vec::new();
        match self.nodes[peer.index()].neighbor_tables.get(&far) {
            Some(t) => policy::phase3_candidates_into(&self.overlay, peer, t, &mut candidates),
            None => return,
        }
        if candidates.is_empty() {
            return;
        }
        let (near, far_near) = candidates[self.rng.gen_range(0..candidates.len())];
        let nonce = self.fresh_nonce();
        self.nodes[peer.index()].pending_probes.insert(
            nonce,
            PendingProbe {
                target: near,
                purpose: ProbePurpose::Candidate { far, far_near },
                sent_at: self.now,
            },
        );
        self.send(oracle, peer, near, Message::Probe { nonce });
    }

    /// Applies the shared Figure-4 rule ([`policy::figure4_decide`]) to
    /// a probed candidate, translating the verdict into wire traffic.
    fn apply_figure4(
        &mut self,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        far: PeerId,
        near: PeerId,
        near_cost: Delay,
        far_near: Delay,
    ) {
        if !self.overlay.are_neighbors(peer, far) || self.overlay.are_neighbors(peer, near) {
            return; // world moved on while the probe was in flight
        }
        let Some(far_cost) = self.nodes[peer.index()].peer.table.get(far) else {
            return;
        };
        match policy::figure4_decide(
            near_cost,
            far_cost,
            far_near,
            self.overlay.are_neighbors(far, near),
        ) {
            Figure4Action::Replace => {
                if self.overlay.connect(peer, near).is_ok() {
                    self.send(oracle, peer, near, Message::Connect);
                    self.nodes[peer.index()].peer.table.set(near, near_cost);
                    if self.overlay.disconnect(peer, far).is_ok() {
                        self.nodes[peer.index()].forget_link(far);
                        self.send(oracle, peer, far, Message::Disconnect);
                    }
                }
            }
            Figure4Action::Add => {
                if self.overlay.connect(peer, near).is_ok() {
                    self.send(oracle, peer, near, Message::Connect);
                    self.nodes[peer.index()].peer.table.set(near, near_cost);
                    self.nodes[peer.index()].peer.watches.push((far, near));
                }
            }
            Figure4Action::Keep => {}
        }
    }

    /// Audits the simulator's cross-peer state against the overlay — the
    /// async mirror of [`AceEngine::check_invariants`]. The async-only
    /// clauses run first for each alive peer:
    ///
    /// [`AceEngine::check_invariants`]: crate::AceEngine::check_invariants
    ///
    /// 1. **No offline references** — graceful leaves drain eagerly, so
    ///    *no* surviving state may reference an offline peer: trees,
    ///    requests, watches, tables (own and received), pair caches,
    ///    pending probes, awaited reports or serving ledgers.
    /// 2. **Cycle bookkeeping** — awaited reports imply an open cycle.
    /// 3. **Serving consistency** — every `serving` countdown equals its
    ///    outstanding on-behalf probes (a zero countdown would be a
    ///    report that was never flushed).
    ///
    /// Then the clauses shared with the engine (`audit::check_peer`:
    /// forwarding liveness, list hygiene, tree ⊆ neighbors, request
    /// mirroring, cost symmetry; `audit::check_ledger`). Where the
    /// engine demands exact agreement, the simulator excuses a stale or
    /// unmirrored pair exactly while the notifying message is still on
    /// the wire (tracked per `InFlightKind`), a destroyed copy is within
    /// its repair window ([`REPAIR_PERIODS`]), or a
    /// scheduled partition separated the pair within that window — the
    /// chaos harness re-checks strictly once the window past the last
    /// heal has elapsed. Violations are typed ([`InvariantViolation`]);
    /// `Display` renders the same message text the `String` era
    /// produced.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let viol = |kind, peer, partner, message: String| {
            Err(InvariantViolation::new(kind, peer, partner, message))
        };
        let ov = &self.overlay;
        for p in ov.alive_peers() {
            let n = &self.nodes[p.index()];
            for (name, list) in [("tree", &n.peer.own_tree), ("request", &n.peer.requested)] {
                for &e in list {
                    if !ov.is_alive(e) {
                        return viol(
                            ViolationKind::OfflineReference,
                            Some(p),
                            Some(e),
                            format!("peer {p} {name} list references offline {e}"),
                        );
                    }
                }
            }
            for &(far, near) in &n.peer.watches {
                if !ov.is_alive(far) || !ov.is_alive(near) {
                    return viol(
                        ViolationKind::OfflineReference,
                        Some(p),
                        None,
                        format!("peer {p} watch ({far},{near}) references offline peer"),
                    );
                }
            }
            for (q, _) in n.peer.table.iter() {
                if !ov.is_alive(q) {
                    return viol(
                        ViolationKind::OfflineReference,
                        Some(p),
                        Some(q),
                        format!("peer {p} cost table references offline {q}"),
                    );
                }
            }
            for (&owner, t) in &n.neighbor_tables {
                if !ov.is_alive(owner) {
                    return viol(
                        ViolationKind::OfflineReference,
                        Some(p),
                        Some(owner),
                        format!("peer {p} keeps a table of offline {owner}"),
                    );
                }
                for (q, _) in t.iter() {
                    if !ov.is_alive(q) {
                        return viol(
                            ViolationKind::OfflineReference,
                            Some(p),
                            Some(q),
                            format!("peer {p} table of {owner} references offline {q}"),
                        );
                    }
                }
            }
            for &q in n.pair_cache.keys() {
                if !ov.is_alive(q) {
                    return viol(
                        ViolationKind::OfflineReference,
                        Some(p),
                        Some(q),
                        format!("peer {p} pair cache references offline {q}"),
                    );
                }
            }
            for pp in n.pending_probes.values() {
                let target = pp.target;
                if !ov.is_alive(target) {
                    return viol(
                        ViolationKind::OfflineReference,
                        Some(p),
                        Some(target),
                        format!("peer {p} pending probe targets offline {target}"),
                    );
                }
                match pp.purpose {
                    ProbePurpose::Neighbor => {}
                    ProbePurpose::Candidate { far, .. } => {
                        if !ov.is_alive(far) {
                            return viol(
                                ViolationKind::OfflineReference,
                                Some(p),
                                Some(far),
                                format!("peer {p} candidate probe references offline far {far}"),
                            );
                        }
                    }
                    ProbePurpose::OnBehalf { requester } => {
                        if !ov.is_alive(requester) {
                            return viol(
                                ViolationKind::OfflineReference,
                                Some(p),
                                Some(requester),
                                format!("peer {p} serves probe for offline requester {requester}"),
                            );
                        }
                    }
                }
            }
            for &r in &n.awaiting_reports {
                if !ov.is_alive(r) {
                    return viol(
                        ViolationKind::OfflineReference,
                        Some(p),
                        Some(r),
                        format!("peer {p} awaits a report from offline {r}"),
                    );
                }
            }
            if !n.awaiting_reports.is_empty() && !n.cycle_open {
                return viol(
                    ViolationKind::CycleBookkeeping,
                    Some(p),
                    None,
                    format!("peer {p} awaits reports outside an open cycle"),
                );
            }
            for (&req, &(ref entries, left)) in &n.serving {
                if !ov.is_alive(req) {
                    return viol(
                        ViolationKind::OfflineReference,
                        Some(p),
                        Some(req),
                        format!("peer {p} serving ledger for offline {req}"),
                    );
                }
                for &(t, _) in entries {
                    if !ov.is_alive(t) {
                        return viol(
                            ViolationKind::OfflineReference,
                            Some(p),
                            Some(t),
                            format!("peer {p} serving entry for {req} references offline {t}"),
                        );
                    }
                }
                let outstanding = n
                    .pending_probes
                    .values()
                    .filter(
                        |pp| matches!(pp.purpose, ProbePurpose::OnBehalf { requester } if requester == req),
                    )
                    .count();
                if left != outstanding {
                    return viol(
                        ViolationKind::ServingLedger,
                        Some(p),
                        Some(req),
                        format!(
                            "peer {p} serving {req}: countdown {left} vs {outstanding} outstanding probes"
                        ),
                    );
                }
                if left == 0 {
                    return viol(
                        ViolationKind::ServingLedger,
                        Some(p),
                        Some(req),
                        format!("peer {p} serving {req}: completed report never flushed"),
                    );
                }
            }
            audit::check_peer(p, &n.peer, self)?;
        }
        audit::check_ledger(&self.ledger)?;
        if let Some(c) = &self.controller {
            c.audit(|p| ov.is_alive(p), |p| self.incarnations[p.index()])?;
        }
        Ok(())
    }
}

/// The simulator's audit view: a pair may disagree while the message
/// that reconciles it is in flight or within its repair window, or when
/// a partition recently separated the two.
impl AuditView for AsyncAceSim {
    fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    fn state(&self, p: PeerId) -> &PeerState {
        &self.nodes[p.index()].peer
    }

    fn excuses(&self, gap: Gap, p: PeerId, q: PeerId) -> bool {
        self.recently_separated(p, q)
            || match gap {
                Gap::Stale => self.cut_cover(p, q),
                Gap::TreeUnmirrored => self.wire_cover(p, q, InFlightKind::ForwardRequest),
                Gap::RequestUnmirrored => {
                    self.wire_cover(q, p, InFlightKind::ForwardCancel) || self.cut_cover(p, q)
                }
            }
    }
}

/// [`ForwardPolicy`] over the asynchronous simulator's current state,
/// built on the shared [`policy::select_forward_targets`] — including
/// the stale-tree blind-flooding fallback with sender exclusion applied
/// *after* the fallback decision, exactly like the engine's
/// [`AceForward`](crate::AceForward).
#[derive(Clone, Copy)]
pub struct AsyncForward<'a> {
    sim: &'a AsyncAceSim,
}

impl<'a> AsyncForward<'a> {
    /// Wraps the simulator for query forwarding.
    pub fn new(sim: &'a AsyncAceSim) -> Self {
        AsyncForward { sim }
    }
}

impl ForwardPolicy for AsyncForward<'_> {
    fn forward_targets_into(
        &self,
        overlay: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) {
        policy::select_forward_targets(
            overlay,
            peer,
            from,
            self.sim.tree_built(peer),
            |buf| self.sim.nodes[peer.index()].peer.flooding_into(buf),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::provoke::{self, Clause, StatesMut};
    use crate::autorate::{BYTE_BUDGET, R_MIN};
    use crate::netem::{Partition, PartitionKind};
    use ace_overlay::{clustered_overlay, run_query, FloodAll, QueryConfig};
    use ace_topology::generate::{two_level, TwoLevelConfig};
    use ace_topology::{DistanceOracle, NodeId};

    fn world(peers: usize, seed: u64) -> (DistanceOracle, Overlay) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = two_level(
            &TwoLevelConfig {
                as_count: 5,
                nodes_per_as: 60,
            },
            &mut rng,
        );
        let oracle = DistanceOracle::new(topo.graph);
        let hosts: Vec<NodeId> = oracle.graph().nodes().take(peers).collect();
        let ov = clustered_overlay(hosts, 6, 0.7, Some(12), &mut rng);
        (oracle, ov)
    }

    #[test]
    fn cycles_complete_and_trees_form() {
        let (oracle, ov) = world(60, 1);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 2);
        sim.run_until(&oracle, SimTime::from_secs(120));
        assert!(
            sim.min_cycles_done() >= 2,
            "min cycles {}",
            sim.min_cycles_done()
        );
        assert!(sim.messages_delivered() > 1000);
        assert!(sim.ledger().total_cost() > 0.0);
        for p in sim.overlay().alive_peers() {
            assert!(sim.tree_built(p), "{p} never built a tree");
        }
        sim.check_invariants().unwrap();
    }

    /// A bound earlier than the clock does not rewind it, so a peer that
    /// joins afterwards schedules after the events already delivered.
    #[test]
    fn run_until_an_earlier_bound_keeps_the_clock() {
        let (oracle, ov) = world(60, 1);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 2);
        sim.run_until(&oracle, SimTime::from_secs(120));
        sim.run_until(&oracle, SimTime::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(120));
        sim.peer_leave(&oracle, PeerId::new(3));
        sim.peer_join(PeerId::new(3), 3);
        sim.run_until(&oracle, SimTime::from_secs(200));
        assert_eq!(sim.now(), SimTime::from_secs(200));
        sim.check_invariants().unwrap();
    }

    /// Every per-node map and flag `state_digest` folds moves it when
    /// changed alone, so a field dropped from the fold fails here.
    #[test]
    fn state_digest_moves_with_every_async_map() {
        let (oracle, ov) = world(30, 1);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 2);
        sim.run_until(&oracle, SimTime::from_secs(30));
        fn p(i: u32) -> PeerId {
            PeerId::new(i)
        }
        type Edit = (&'static str, fn(&mut NodeState));
        let edits: [Edit; 13] = [
            ("table", |n| {
                n.peer.table.set(p(29), 12_345);
            }),
            ("neighbor_tables", |n| {
                n.neighbor_tables.insert(p(28), CostTable::new(p(28)));
            }),
            ("own_tree", |n| n.peer.own_tree.push(p(27))),
            ("requested", |n| n.peer.requested.push(p(27))),
            ("requested_at", |n| {
                n.requested_at.insert(p(27), SimTime::from_secs(2));
            }),
            ("watches", |n| n.peer.watches.push((p(26), p(27)))),
            ("pending_probes", |n| {
                let probe = PendingProbe {
                    target: p(5),
                    purpose: ProbePurpose::Neighbor,
                    sent_at: SimTime::from_secs(1),
                };
                n.pending_probes.insert(1 << 40, probe);
            }),
            ("probe purpose", |n| {
                let pp = n.pending_probes.get_mut(&(1 << 40)).unwrap();
                pp.purpose = ProbePurpose::OnBehalf { requester: p(4) };
            }),
            ("awaiting_reports", |n| n.awaiting_reports.push(p(25))),
            ("serving", |n| {
                n.serving.insert(p(24), (vec![(p(1), 3)], 2));
            }),
            ("pair_cache", |n| {
                n.pair_cache.insert(p(23), 9);
            }),
            ("cycle_open", |n| n.cycle_open ^= true),
            ("cycles_done", |n| n.cycles_done += 1),
        ];
        let mut last = sim.state_digest();
        for (what, edit) in edits {
            edit(&mut sim.nodes[0]);
            let now = sim.state_digest();
            assert_ne!(now, last, "{what} is not folded");
            last = now;
        }
        sim.ledger.charge(OverheadKind::ControlRetry, 1.0);
        assert_ne!(sim.state_digest(), last, "ledger is not folded");
    }

    impl StatesMut for AsyncAceSim {
        fn state_mut(&mut self, p: PeerId) -> &mut PeerState {
            &mut self.nodes[p.index()].peer
        }
    }

    fn audited_sim() -> (DistanceOracle, AsyncAceSim) {
        let (oracle, ov) = world(60, 1);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 2);
        sim.run_until(&oracle, SimTime::from_secs(120));
        sim.check_invariants().unwrap();
        (oracle, sim)
    }

    #[test]
    fn auditor_reports_each_shared_clause_at_its_pair() {
        for clause in Clause::ALL {
            let (_, mut sim) = audited_sim();
            let pick = provoke::pick(&sim);
            let want = clause.apply(&mut sim, pick);
            let v = sim.check_invariants().expect_err("corruption missed");
            assert_eq!((v.kind(), v.peer(), v.partner()), want, "{clause:?}");
        }
    }

    /// The engine rejects this state (`cut_heard_by_one_end_only_is_a_
    /// stale_slot`); here the `Disconnect` on its way to the other end
    /// excuses it, and only that does.
    #[test]
    fn disconnect_in_flight_excuses_the_stale_slot() {
        let (oracle, mut sim) = audited_sim();
        let (p, f, _) = provoke::pick(&sim);
        sim.overlay.disconnect(p, f).unwrap();
        sim.nodes[p.index()].forget_link(f);
        sim.send(&oracle, p, f, Message::Disconnect);
        sim.check_invariants().unwrap();

        let key = (p, f, InFlightKind::Disconnect);
        let copies = sim.in_flight.remove(&key).expect("cut in flight");
        let v = sim.check_invariants().unwrap_err();
        assert_eq!(
            (v.kind(), v.peer(), v.partner()),
            (ViolationKind::StaleLink, Some(f), Some(p))
        );
        sim.in_flight.insert(key, copies);

        sim.run_until(&oracle, sim.now() + SimTime::from_secs(5).as_ticks());
        assert!(
            !sim.in_flight(p, f, InFlightKind::Disconnect),
            "cut delivered"
        );
        sim.check_invariants().unwrap();
    }

    #[test]
    fn accessors_answer_an_unknown_id() {
        let (_, sim) = audited_sim();
        for unknown in [PeerId::new(sim.nodes.len() as u32), PeerId::new(u32::MAX)] {
            assert!(!sim.tree_built(unknown));
            assert_eq!(sim.cycles_done(unknown), 0);
            assert!(sim.flooding_neighbors(unknown).is_empty());
        }
    }

    #[test]
    fn async_protocol_reduces_traffic_and_keeps_scope() {
        let (oracle, ov) = world(80, 3);
        let qc = QueryConfig {
            ttl: 32,
            stop_at_responder: false,
        };
        let before = run_query(&ov, &oracle, PeerId::new(0), &qc, &FloodAll, |_| false);

        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 4);
        sim.run_until(&oracle, SimTime::from_secs(300));
        assert!(sim.overlay().is_connected(), "async ACE never disconnects");
        let after = run_query(
            sim.overlay(),
            &oracle,
            PeerId::new(0),
            &qc,
            &AsyncForward::new(&sim),
            |_| false,
        );
        assert!(
            (after.scope as f64) >= 0.9 * before.scope as f64,
            "scope {} vs {}",
            after.scope,
            before.scope
        );
        assert!(
            after.traffic_cost < 0.6 * before.traffic_cost,
            "traffic {} vs {}",
            after.traffic_cost,
            before.traffic_cost
        );
    }

    #[test]
    fn churn_during_async_run_is_safe() {
        let (oracle, ov) = world(60, 9);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 10);
        let mut lrng = StdRng::seed_from_u64(11);
        for step in 1..=12u64 {
            sim.run_until(&oracle, SimTime::from_secs(step * 15));
            // Alternate leaves and rejoins of random peers mid-protocol.
            let victim = PeerId::new(lrng.gen_range(0..60));
            if sim.overlay().is_alive(victim) {
                assert!(sim.peer_leave(&oracle, victim));
                assert!(!sim.peer_leave(&oracle, victim), "double leave rejected");
            } else {
                sim.peer_join(victim, 3);
            }
            sim.overlay().check_invariants().unwrap();
            sim.check_invariants().unwrap();
        }
        // Protocol keeps making progress for the survivors.
        sim.run_until(&oracle, SimTime::from_secs(400));
        sim.check_invariants().unwrap();
        let alive_with_trees = sim
            .overlay()
            .alive_peers()
            .filter(|&p| sim.tree_built(p))
            .count();
        assert!(
            alive_with_trees * 10 >= sim.overlay().alive_count() * 9,
            "{} of {} alive peers have trees",
            alive_with_trees,
            sim.overlay().alive_count()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (oracle, ov) = world(50, 5);
            let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 6);
            sim.run_until(&oracle, SimTime::from_secs(90));
            (
                sim.messages_delivered(),
                sim.ledger().total_cost() as u64,
                sim.overlay().edge_count(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn churny_runs_are_deterministic() {
        let run = || {
            let (oracle, ov) = world(50, 5);
            let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 6);
            let mut lrng = StdRng::seed_from_u64(7);
            for step in 1..=8u64 {
                sim.run_until(&oracle, SimTime::from_secs(step * 20));
                let victim = PeerId::new(lrng.gen_range(0..50));
                if sim.overlay().is_alive(victim) {
                    sim.peer_leave(&oracle, victim);
                } else {
                    sim.peer_join(victim, 3);
                }
            }
            sim.run_until(&oracle, SimTime::from_secs(240));
            (
                sim.messages_delivered(),
                sim.ledger().total_cost().to_bits(),
                sim.overlay().edge_count(),
            )
        };
        assert_eq!(run(), run());
    }

    /// Quiet adaptive run: every interval stays inside the window, most
    /// peers stretch off the R_MIN floor (nothing creates demand), and
    /// the stretched chain completes fewer cycles — i.e. spends less
    /// control overhead — than the static chain over the same horizon.
    #[test]
    fn adaptive_timer_chain_stretches_quiet_peers_and_stays_bounded() {
        let cfg = ProtoConfig {
            autorate: Some(AutoRateConfig),
            ..ProtoConfig::default()
        };
        let (oracle, ov) = world(50, 13);
        let mut sim = AsyncAceSim::new(ov, cfg, 14);
        // A measured flood/ACE gap with zero query arrivals is evidence
        // of zero realized gain — the cue to coast. (Without any
        // measurement the demand-neutral prior holds R_MIN.)
        sim.note_traffic(100.0, 40.0);
        sim.run_until(&oracle, SimTime::from_secs(600));
        sim.check_invariants().unwrap();

        let ctrl = sim.controller().expect("controller enabled");
        let stats = sim.controller_stats();
        assert!(stats.entries > 0, "controller never observed a peer");
        assert!(
            stats.high_water_bytes <= BYTE_BUDGET,
            "high water {} over budget {BYTE_BUDGET}",
            stats.high_water_bytes
        );
        let (mut stretched, mut alive) = (0usize, 0usize);
        for p in sim.overlay().alive_peers() {
            alive += 1;
            if let Some(iv) = ctrl.interval_of(p) {
                assert!(
                    (R_MIN..=R_MAX).contains(&iv),
                    "interval {iv} escapes [{R_MIN}, {R_MAX}]"
                );
                if iv > R_MIN {
                    stretched += 1;
                }
            }
        }
        assert!(
            stretched * 2 > alive,
            "quiet peers should stretch: {stretched}/{alive}"
        );

        let (oracle2, ov2) = world(50, 13);
        let mut static_sim = AsyncAceSim::new(ov2, ProtoConfig::default(), 14);
        static_sim.run_until(&oracle2, SimTime::from_secs(600));
        let cycles = |s: &AsyncAceSim| {
            s.overlay()
                .alive_peers()
                .map(|p| s.nodes[p.index()].cycles_done)
                .sum::<u64>()
        };
        assert!(
            cycles(&sim) < cycles(&static_sim),
            "adaptive {} cycles vs static {}",
            cycles(&sim),
            cycles(&static_sim)
        );
    }

    /// Harness-reported demand (queries + a measured flood/ACE gap)
    /// pulls intervals back toward R_MIN, and churn purges controller
    /// entries without tripping the auditor.
    #[test]
    fn fed_demand_pulls_intervals_down_and_churn_purges_cleanly() {
        let cfg = ProtoConfig {
            autorate: Some(AutoRateConfig),
            ..ProtoConfig::default()
        };
        let (oracle, ov) = world(40, 17);
        let mut sim = AsyncAceSim::new(ov, cfg, 18);
        // Quiet warm-up: a measured gap but no query arrivals (zero
        // realized gain) stretches everyone off the floor.
        sim.note_traffic(12.0, 4.0);
        sim.run_until(&oracle, SimTime::from_secs(600));
        let mean_interval = |s: &AsyncAceSim| {
            let c = s.controller().unwrap();
            let (mut sum, mut n) = (0.0, 0usize);
            for p in s.overlay().alive_peers() {
                if let Some(iv) = c.interval_of(p) {
                    sum += iv;
                    n += 1;
                }
            }
            sum / n.max(1) as f64
        };
        let quiet_mean = mean_interval(&sim);
        assert!(quiet_mean > R_MIN, "warm-up never stretched");

        // Sustained demand: plenty of queries per peer per window and a
        // clearly profitable flood-vs-ACE gap.
        sim.note_traffic(12.0, 4.0);
        for step in 1..=20u64 {
            let peers: Vec<PeerId> = sim.overlay().alive_peers().collect();
            for p in peers {
                sim.note_queries(p, 500.0);
            }
            sim.run_until(&oracle, SimTime::from_secs(600 + step * 60));
        }
        let busy_mean = mean_interval(&sim);
        assert!(
            busy_mean < quiet_mean,
            "demand must pull intervals down: {busy_mean} vs {quiet_mean}"
        );
        sim.check_invariants().unwrap();

        // Churn: the leaver's controller entry dies with it.
        let victim = sim.overlay().alive_peers().next().unwrap();
        assert!(sim.peer_leave(&oracle, victim));
        assert!(sim.controller().unwrap().interval_of(victim).is_none());
        assert!(sim.controller_stats().purges >= 1);
        sim.check_invariants().unwrap();
        sim.peer_join(victim, 3);
        sim.run_until(&oracle, SimTime::from_secs(600 + 21 * 60));
        sim.check_invariants().unwrap();
    }

    /// Adaptive runs stay deterministic (same seed → same digest), and
    /// the digest without a controller is unchanged by the feature —
    /// the controller hash is mixed only when enabled.
    #[test]
    fn adaptive_runs_are_deterministic_and_static_digest_is_preserved() {
        let run = |adaptive: bool| {
            let cfg = ProtoConfig {
                autorate: adaptive.then_some(AutoRateConfig),
                ..ProtoConfig::default()
            };
            let (oracle, ov) = world(40, 19);
            let mut sim = AsyncAceSim::new(ov, cfg, 20);
            let mut lrng = StdRng::seed_from_u64(23);
            for step in 1..=6u64 {
                sim.run_until(&oracle, SimTime::from_secs(step * 40));
                let victim = PeerId::new(lrng.gen_range(0..40));
                if sim.overlay().is_alive(victim) {
                    sim.peer_leave(&oracle, victim);
                } else {
                    sim.peer_join(victim, 3);
                }
            }
            sim.run_until(&oracle, SimTime::from_secs(300));
            sim.state_digest()
        };
        assert_eq!(run(true), run(true), "adaptive digest not reproducible");
        assert_eq!(run(false), run(false), "static digest not reproducible");
    }

    #[test]
    fn overlay_invariants_hold_throughout() {
        let (oracle, ov) = world(50, 7);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 8);
        for step in 1..=10 {
            sim.run_until(&oracle, SimTime::from_secs(step * 20));
            sim.overlay().check_invariants().unwrap();
            sim.check_invariants().unwrap();
            assert!(sim.overlay().is_connected());
        }
    }

    /// Regression (async black hole): a tree leaf whose every flooding
    /// link died must blind-flood its surviving neighbors instead of
    /// silently swallowing queries.
    #[test]
    fn stale_async_tree_falls_back_to_blind_flooding() {
        let (oracle, ov) = world(60, 21);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 22);
        sim.run_until(&oracle, SimTime::from_secs(120));
        let peer = sim
            .overlay
            .alive_peers()
            .find(|&p| {
                let fl = sim.flooding_neighbors(p);
                sim.tree_built(p)
                    && !fl.is_empty()
                    && sim.overlay.neighbors(p).iter().any(|n| !fl.contains(n))
            })
            .expect("some peer keeps a non-flooding link");
        // Churn cuts every flooding link behind the protocol's back;
        // only non-flooding links survive.
        for f in sim.flooding_neighbors(peer) {
            if sim.overlay.are_neighbors(peer, f) {
                sim.overlay.disconnect(peer, f).unwrap();
            }
        }
        assert!(
            !sim.overlay.neighbors(peer).is_empty(),
            "non-flooding links remain"
        );
        // This used to return an empty set — a query black hole.
        let mut targets = AsyncForward::new(&sim).forward_targets(&sim.overlay, peer, None);
        targets.sort_unstable();
        let mut expect = sim.overlay.neighbors(peer).to_vec();
        expect.sort_unstable();
        assert_eq!(targets, expect, "stale tree must fall back to flooding");
        // And a query routed through the damaged peer escapes it.
        let qc = QueryConfig::default();
        let out = run_query(
            &sim.overlay,
            &oracle,
            peer,
            &qc,
            &AsyncForward::new(&sim),
            |_| false,
        );
        assert!(out.scope > 1, "query must escape the damaged peer");
    }

    /// Regression (fallback ordering): sender exclusion must come *after*
    /// the fallback decision — a leaf whose only live tree link is the
    /// query's sender is an endpoint, not a black hole.
    #[test]
    fn async_sender_exclusion_applies_after_fallback_decision() {
        let (oracle, ov) = world(60, 21);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 22);
        sim.run_until(&oracle, SimTime::from_secs(120));
        let (peer, live) = sim
            .overlay
            .alive_peers()
            .find_map(|p| {
                let live: Vec<PeerId> = sim
                    .flooding_neighbors(p)
                    .into_iter()
                    .filter(|&f| sim.overlay.are_neighbors(p, f))
                    .collect();
                let has_non_flooding = sim.overlay.neighbors(p).iter().any(|n| !live.contains(n));
                (sim.tree_built(p) && live.len() >= 2 && has_non_flooding).then_some((p, live))
            })
            .expect("peer with two live flooding links and a spare");
        // Cut all but one flooding link: `peer` becomes a tree leaf whose
        // only tree partner is the query's sender.
        for &f in &live[1..] {
            sim.overlay.disconnect(peer, f).unwrap();
        }
        let sender = live[0];
        let targets = AsyncForward::new(&sim).forward_targets(&sim.overlay, peer, Some(sender));
        assert!(
            targets.is_empty(),
            "leaf must not flood back past its sender: {targets:?}"
        );
    }

    /// Regression (stale incarnation): a leave purges every reference
    /// survivors hold — including cached measurements — and a rejoin
    /// starts from a clean slate instead of inheriting its predecessor's
    /// numbers.
    #[test]
    fn rejoin_does_not_reuse_dead_incarnation_measurements() {
        let (oracle, ov) = world(60, 31);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 32);
        sim.run_until(&oracle, SimTime::from_secs(150));
        // Pick a victim someone has cached measurements about.
        let victim = sim
            .overlay
            .alive_peers()
            .find(|&v| {
                sim.nodes.iter().any(|n| {
                    n.peer.table.owner() != v
                        && (n.pair_cache.contains_key(&v) || n.neighbor_tables.contains_key(&v))
                })
            })
            .expect("some victim is cached somewhere");
        assert!(sim.peer_leave(&oracle, victim));
        for node in &sim.nodes {
            if node.peer.table.owner() == victim {
                continue;
            }
            assert!(!node.peer.own_tree.contains(&victim), "tree ref survived");
            assert!(
                !node.peer.requested.contains(&victim),
                "request ref survived"
            );
            assert!(
                !node
                    .peer
                    .watches
                    .iter()
                    .any(|&(f, n)| f == victim || n == victim),
                "watch ref survived"
            );
            assert!(node.peer.table.get(victim).is_none(), "cost row survived");
            assert!(
                !node.pair_cache.contains_key(&victim),
                "pair-cache measurement survived"
            );
            assert!(
                !node.neighbor_tables.contains_key(&victim),
                "received table survived"
            );
            assert!(
                !node
                    .neighbor_tables
                    .values()
                    .any(|t| t.get(victim).is_some()),
                "table entry about the dead incarnation survived"
            );
            assert!(
                !node.awaiting_reports.contains(&victim),
                "awaited report survived"
            );
            assert!(
                !node.serving.contains_key(&victim),
                "serving ledger survived"
            );
        }
        sim.check_invariants().unwrap();
        assert!(sim.peer_join(victim, 3));
        sim.check_invariants().unwrap();
        // The rejoined incarnation re-measures everything it needs.
        sim.run_until(&oracle, SimTime::from_secs(300));
        sim.check_invariants().unwrap();
        assert!(sim.overlay().is_alive(victim));
    }

    /// Regression (mid-cycle stall + serving leak): a neighbor leaving
    /// while awaited drains the blocked step instead of stalling the
    /// cycle until the next timer, and on-behalf probes to the leaver
    /// count down their serving ledgers instead of leaking them.
    #[test]
    fn leave_mid_cycle_drains_blocked_state() {
        let (oracle, ov) = world(60, 41);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 42);
        // Scan for a moment where some node awaits a report (reports
        // cross the wire for whole link delays, so fine-grained stepping
        // lands inside such a window).
        let mut found = None;
        'scan: for step in 1..=3000u64 {
            sim.run_until(&oracle, SimTime::from_ticks(step * 40));
            for node in &sim.nodes {
                if let Some(&victim) = node.awaiting_reports.first() {
                    found = Some((node.peer.table.owner(), victim));
                    break 'scan;
                }
            }
        }
        let (holder, victim) = found.expect("caught a node mid-cycle");
        let open_before = sim.nodes[holder.index()].cycle_open;
        assert!(open_before, "awaiting reports implies an open cycle");
        assert!(sim.peer_leave(&oracle, victim));
        let holder_node = &sim.nodes[holder.index()];
        assert!(
            !holder_node.awaiting_reports.contains(&victim),
            "drained the dead report dependency"
        );
        // If the victim was the last awaited report, the cycle must have
        // closed immediately (drain), not stalled until the next timer.
        if holder_node.awaiting_reports.is_empty() {
            assert!(!holder_node.cycle_open, "cycle closed by the drain");
        }
        sim.check_invariants().unwrap();
        // No serving ledger anywhere still waits on the dead peer, and
        // survivors keep completing cycles.
        for node in &sim.nodes {
            for (&req, &(_, left)) in &node.serving {
                assert_ne!(req, victim, "serving ledger for the dead requester");
                assert!(left > 0, "zero-countdown serving entry leaked");
            }
        }
        let cycles_before = sim.min_cycles_done();
        sim.run_until(&oracle, SimTime::from_secs(200));
        sim.check_invariants().unwrap();
        assert!(
            sim.min_cycles_done() > cycles_before,
            "survivors keep making progress"
        );
    }

    /// The overhead taxonomy is exhaustive: an async run classifies all
    /// control traffic into probe / table-exchange / reconnect, and the
    /// engine-only kinds stay untouched.
    #[test]
    fn async_overhead_taxonomy_is_exact() {
        let (oracle, ov) = world(50, 51);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 52);
        sim.run_until(&oracle, SimTime::from_secs(200));
        let ledger = sim.ledger();
        assert!(ledger.count_of(OverheadKind::Probe) > 0);
        assert!(ledger.count_of(OverheadKind::TableExchange) > 0);
        assert!(ledger.count_of(OverheadKind::Reconnect) > 0);
        assert_eq!(
            ledger.count_of(OverheadKind::ClosureRelay),
            0,
            "depth-1 async protocol never relays closures"
        );
        assert_eq!(
            ledger.count_of(OverheadKind::ProbeRetry),
            0,
            "perfect wire: no probe retries charged"
        );
        assert_eq!(
            ledger.count_of(OverheadKind::ControlRetry),
            0,
            "netem default off: no control-plane retransmits charged"
        );
    }

    /// Hands a crafted frame to the wire at the current instant and
    /// drains it, bypassing `send`: the test's stand-in for a duplicated
    /// or replayed delivery. In-flight bookkeeping is pre-incremented so
    /// the drain's decrement balances, like a real extra copy's would.
    fn inject(
        sim: &mut AsyncAceSim,
        oracle: &dyn DistancePlane,
        from: PeerId,
        to: PeerId,
        seq: u64,
        stale_from: bool,
        msg: Message,
    ) {
        if let Some(k) = InFlightKind::of(&msg) {
            *sim.in_flight.entry((from, to, k)).or_insert(0) += 1;
        }
        let t = sim.now;
        let from_inc = sim.incarnations[from.index()].wrapping_add(u32::from(stale_from));
        let to_inc = sim.incarnations[to.index()];
        sim.queue.push(
            t,
            NetEvent::Deliver {
                from,
                to,
                from_inc,
                to_inc,
                seq,
                msg,
            },
        );
        sim.run_until(oracle, t);
    }

    fn neighbor_pair(sim: &AsyncAceSim) -> (PeerId, PeerId) {
        sim.overlay()
            .alive_peers()
            .find_map(|p| sim.overlay().neighbors(p).first().map(|&n| (n, p)))
            .expect("warm overlay has links")
    }

    fn non_neighbor_pair(sim: &AsyncAceSim) -> (PeerId, PeerId) {
        let alive: Vec<PeerId> = sim.overlay().alive_peers().collect();
        for &a in &alive {
            for &b in &alive {
                if a != b && !sim.overlay().are_neighbors(a, b) {
                    return (a, b);
                }
            }
        }
        panic!("overlay is a clique");
    }

    /// Every message variant, delivered a second time as an exact wire
    /// duplicate (same sequence number) and once more from a stale
    /// incarnation: neither extra copy may move the state digest, the
    /// delivery count, or (for the stale copy) even the dedup counter —
    /// the hardened handlers are idempotent under duplication and replay.
    #[test]
    fn duplicate_and_stale_deliveries_are_idempotent() {
        let (oracle, ov) = world(30, 61);
        let mut sim = AsyncAceSim::new(ov, ProtoConfig::default(), 62);
        sim.run_until(&oracle, SimTime::from_secs(120));

        let nonce = 0xDEAD_0000u64;
        let third = PeerId::new(3);
        let variants: Vec<(&str, Message)> = vec![
            ("Ping", Message::Ping),
            ("Pong", Message::Pong { addrs: vec![third] }),
            (
                "Query",
                Message::Query {
                    id: 9001,
                    ttl: 4,
                    object: 7,
                },
            ),
            (
                "QueryHit",
                Message::QueryHit {
                    id: 9001,
                    responder: third,
                },
            ),
            ("Probe", Message::Probe { nonce }),
            ("ProbeReply", Message::ProbeReply { nonce }),
            ("Connect", Message::Connect),
            ("ConnectOk", Message::ConnectOk),
            ("Disconnect", Message::Disconnect),
            ("ForwardRequest", Message::ForwardRequest),
            ("ForwardCancel", Message::ForwardCancel),
        ];
        // Sequence numbers far above anything the warm run handed out.
        let mut seq = 1 << 40;
        let mut run =
            |sim: &mut AsyncAceSim, name: &str, from: PeerId, to: PeerId, msg: Message| {
                seq += 2;
                inject(sim, &oracle, from, to, seq, false, msg.clone());
                let digest = sim.state_digest();
                let delivered = sim.messages_delivered();
                let deduped = sim.netem_stats().deduped;

                inject(sim, &oracle, from, to, seq, false, msg.clone());
                assert_eq!(sim.state_digest(), digest, "{name}: duplicate moved state");
                assert_eq!(
                    sim.messages_delivered(),
                    delivered,
                    "{name}: duplicate delivered"
                );
                assert_eq!(
                    sim.netem_stats().deduped,
                    deduped + 1,
                    "{name}: not deduped"
                );

                inject(sim, &oracle, from, to, seq + 1, true, msg);
                assert_eq!(sim.state_digest(), digest, "{name}: stale copy moved state");
                assert_eq!(
                    sim.messages_delivered(),
                    delivered,
                    "{name}: stale copy delivered"
                );
                assert_eq!(
                    sim.netem_stats().deduped,
                    deduped + 1,
                    "{name}: stale copy deduped"
                );
            };
        for (name, msg) in variants {
            let (from, to) = if matches!(msg, Message::Connect) {
                non_neighbor_pair(&sim)
            } else {
                neighbor_pair(&sim)
            };
            if matches!(msg, Message::ProbeReply { .. }) {
                // A reply only means something to a peer with the probe
                // still outstanding.
                sim.nodes[to.index()].pending_probes.insert(
                    nonce,
                    PendingProbe {
                        target: from,
                        purpose: ProbePurpose::Neighbor,
                        sent_at: sim.now,
                    },
                );
            }
            run(&mut sim, name, from, to, msg);
        }
        // The two payload-carrying ACE variants, built against live state.
        let (from, to) = neighbor_pair(&sim);
        let entries: Vec<(PeerId, Delay)> = vec![(third, 5)];
        run(
            &mut sim,
            "CostTable",
            from,
            to,
            Message::CostTable {
                owner: from,
                entries,
            },
        );
        let (from, to) = neighbor_pair(&sim);
        let targets: Vec<PeerId> = sim.overlay().neighbors(to).to_vec();
        run(
            &mut sim,
            "ProbeRequest",
            from,
            to,
            Message::ProbeRequest { targets },
        );
        // No final strict audit: the forged unilateral `Disconnect` has
        // no sender-side cleanup, which is exactly the one-sided state a
        // real sender never produces. Idempotence is the contract here.
    }

    /// [`RETRY_CAP`] at the bound and one past it: a reliable message
    /// lost on attempt `RETRY_CAP - 1` is retransmitted once more, one
    /// lost on attempt `RETRY_CAP` is not, and a best-effort `Connect`
    /// never is.
    #[test]
    fn arq_retransmits_up_to_retry_cap() {
        let (_, ov) = world(10, 111);
        let net = NetemConfig::default();
        let cfg = ProtoConfig {
            netem: Some(net.clone()),
            ..ProtoConfig::default()
        };
        let mut sim = AsyncAceSim::new(ov, cfg, 112);
        let (a, b) = (PeerId::new(0), PeerId::new(1));
        let probe = Message::Probe { nonce: 0 };
        let queued = sim.queue.len();
        sim.schedule_retransmit(&net, a, b, 1, RETRY_CAP - 1, probe.clone());
        assert_eq!(sim.queue.len(), queued + 1, "last retry is scheduled");
        sim.schedule_retransmit(&net, a, b, 1, RETRY_CAP, probe);
        assert_eq!(sim.queue.len(), queued + 1, "no retry past the cap");
        sim.schedule_retransmit(&net, a, b, 2, 0, Message::Connect);
        assert_eq!(sim.queue.len(), queued + 1, "Connect is best-effort");
    }

    /// [`REPAIR_PERIODS`] at the bound and one past it: a destroyed
    /// `Disconnect` excuses the endpoints' disagreement for exactly
    /// `REPAIR_PERIODS` cycle periods (`R_MAX` times that with the rate
    /// controller on), and not one tick longer.
    #[test]
    fn wire_drop_cover_lasts_repair_periods() {
        for autorate in [None, Some(AutoRateConfig)] {
            let (_, ov) = world(10, 113);
            let cfg = ProtoConfig {
                netem: Some(NetemConfig::default()),
                autorate,
                ..ProtoConfig::default()
            };
            let stretch = if autorate.is_some() { R_MAX as u64 } else { 1 };
            let window = REPAIR_PERIODS * cfg.timing.cycle_period * stretch;
            let mut sim = AsyncAceSim::new(ov, cfg, 114);
            let (a, b) = (PeerId::new(0), PeerId::new(1));
            sim.note_wire_drop(a, b, &Message::Disconnect, None);
            sim.now = SimTime::from_ticks(window);
            assert!(sim.cut_cover(a, b), "covered at the bound");
            sim.now = SimTime::from_ticks(window + 1);
            assert!(!sim.cut_cover(a, b), "uncovered one tick past it");
        }
    }

    /// A lossy, duplicating, reordering wire: the protocol still
    /// converges, the dedup filter and ARQ visibly engage, and the
    /// chaos ledger identity holds — every transmission (original,
    /// duplicate, retransmission) is charged.
    #[test]
    fn lossy_wire_converges_and_accounts_every_copy() {
        let (oracle, ov) = world(60, 91);
        let cfg = ProtoConfig {
            netem: Some(NetemConfig {
                loss: 0.10,
                duplicate: 0.05,
                reorder_jitter: 40,
                seed: 92,
                ..NetemConfig::default()
            }),
            ..ProtoConfig::default()
        };
        let mut sim = AsyncAceSim::new(ov, cfg, 93);
        sim.run_until(&oracle, SimTime::from_secs(300));
        let st = *sim.netem_stats();
        assert!(st.lost > 0, "10% loss never fired");
        assert!(st.duplicated > 0, "5% duplication never fired");
        assert!(st.retransmits > 0, "losses never retransmitted");
        assert!(st.deduped > 0, "duplicates never suppressed");
        assert_eq!(
            sim.ledger().total_count(),
            st.sent + st.duplicated + st.retransmits,
            "chaos ledger identity"
        );
        assert!(
            sim.overlay().is_connected(),
            "lossy wire disconnected overlay"
        );
        assert!(sim.min_cycles_done() >= 2, "cycles stalled under loss");
        for p in sim.overlay().alive_peers() {
            assert!(sim.tree_built(p), "{p} never built a tree under loss");
        }
        sim.check_invariants().unwrap();
    }

    /// A scheduled bipartition: during the cut the auditor defers
    /// cross-cut disagreements, and within a repair window of the heal
    /// the soft-state refresh reconciles both sides — the strict audit
    /// passes again.
    #[test]
    fn bipartition_heals_within_repair_window() {
        let (oracle, ov) = world(50, 101);
        let start = SimTime::from_secs(60).as_ticks();
        let duration = SimTime::from_secs(60).as_ticks();
        let cfg = ProtoConfig {
            netem: Some(NetemConfig {
                partitions: vec![Partition {
                    start,
                    duration,
                    kind: PartitionKind::Bipartition { salt: 5 },
                }],
                seed: 102,
                ..NetemConfig::default()
            }),
            ..ProtoConfig::default()
        };
        let repair = REPAIR_PERIODS * cfg.timing.cycle_period;
        let mut sim = AsyncAceSim::new(ov, cfg, 103);
        // Mid-partition: messages die crossing the cut, auditor stays
        // green thanks to the deferral windows.
        sim.run_until(&oracle, SimTime::from_ticks(start + duration / 2));
        assert!(sim.netem_stats().cut_dropped > 0, "partition cut nothing");
        sim.check_invariants()
            .expect("auditor must defer cross-cut disagreements");
        // Heal + repair window + one settling period: strictly clean.
        let settle = start + duration + repair + SimTime::from_secs(30).as_ticks();
        sim.run_until(&oracle, SimTime::from_ticks(settle));
        sim.check_invariants()
            .expect("auditor must be strictly clean after the repair window");
        assert!(sim.overlay().is_connected());
    }
}
