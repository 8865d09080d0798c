//! The ACE protocol engine: the paper's three phases, executed per peer.
//!
//! * **Phase 1** ([`AceEngine::phase1_probe`]) — probe direct neighbors
//!   and build the neighbor cost table.
//! * **Phase 2** (inside [`AceEngine::optimize_peer`]) — collect the
//!   h-neighbor closure's cost tables (charging exchange/relay overhead),
//!   build the Prim spanning tree, and classify neighbors into *flooding*
//!   and *non-flooding*.
//! * **Phase 3** (inside [`AceEngine::optimize_peer`]) — probe a
//!   candidate `H` drawn from a non-flooding neighbor `B`'s table and
//!   apply the paper's Figure-4 rules: replace `C–B` by `C–H` when
//!   `CH < CB`; keep `H` as an extra neighbor when `CH < BH`; otherwise
//!   leave the topology alone.
//!
//! The engine mutates only the [`Overlay`] and its own per-peer state; it
//! never uses global knowledge — every decision is based on probed costs
//! and exchanged tables, exactly as in the distributed protocol.
//!
//! Phases 2 and 3 each exist once, as a pair *plan* (read-only on the
//! engine, charging a caller-supplied [`OverheadLedger`]) → *commit*:
//! `plan_tree` → `commit_tree`, `plan_phase3` → `commit_proposal`. The
//! two round schedules ([`AceConfig::parallel`]) only order those pairs.
//! Schedule-specific on purpose: the serial watch sweep
//! (`process_watches`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ace_engine::digest::Digest;
use ace_engine::pool::{self, plan_parallel_scratch, ScratchPool};

use ace_overlay::{DepartureKind, Message, Overlay, OverlayError, PeerId};
use ace_topology::{Delay, DistancePlane};

use crate::audit::{self, AuditView, Gap, InvariantViolation, ViolationKind};
use crate::autorate::{AutoRateConfig, ControllerStats, RateController, RateSample};
use crate::closure::Closure;
use crate::core_cache::{CoreCache, CoreCacheStats};
use crate::cost_table::CostTable;
use crate::fault::{FaultConfig, REJOIN_ATTACH};
use crate::forward_rows::ForwardRows;
use crate::mst::SlotEdge;
use crate::overhead::{OverheadKind, OverheadLedger};
use crate::peer_state::{fold_peers, fold_sorted, fold_watches, PeerState};
use crate::plan::{KnownSnap, PlanScratch, NO_PARENT};
use crate::policy::{self, Figure4Action, LifecycleEvent, WatchVerdict};
use crate::probe::ProbeModel;
use crate::reverse_refs::ReverseRefs;

/// How phase 3 picks the non-flooding neighbor to improve and the
/// replacement candidate (§6 of the paper; `Random` is what the paper's
/// own simulations use, the others are the alternatives it sketches).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReplacePolicy {
    /// Random non-flooding neighbor, random candidate from its table.
    #[default]
    Random,
    /// Most expensive non-flooding neighbor, random candidate.
    Naive,
    /// Most expensive non-flooding neighbor; probe *all* of its neighbors
    /// and take the closest (more probes, better picks).
    Closest,
}

/// ACE configuration. [`Default`] is [`AceConfig::paper_default`].
#[derive(Clone, Copy, Debug)]
pub struct AceConfig {
    /// Closure depth `h` (>= 1); 0 is normalized to 1 by [`AceEngine::new`].
    pub depth: u8,
    /// Phase-3 selection policy.
    pub policy: ReplacePolicy,
    /// Probe measurement model.
    pub probe: ProbeModel,
    /// Minimum number of flooding neighbors a peer keeps: if the spanning
    /// tree would leave fewer, the cheapest non-tree neighbors are kept as
    /// flooding links too. Guards the search scope against forwarding
    /// islands on sparse overlays (the paper's scope-retention claim).
    pub min_flooding: usize,
    /// Selects the commit order of [`AceEngine::round`]; every phase has
    /// one implementation. `false` is the paper's serial schedule: peers
    /// run phases 2–3 one after another in shuffled order, each observing
    /// earlier peers' rewiring within the same round. `true` is the
    /// planned schedule: every due peer *plans* concurrently against a
    /// snapshot of the overlay, then the plans are *committed* in
    /// peer-id order — bit-identical for any worker count (including 1),
    /// but a different outcome from the serial order.
    pub parallel: bool,
    /// Worker threads for the parallel pipeline; `0` means one per
    /// available core. Has no effect on results — only on wall time.
    pub workers: usize,
    /// Deterministic fault injection (probe loss, crashes, mid-round
    /// departures); `None` disables all faults. Fault decisions are pure
    /// hashes, so they preserve the parallel pipeline's bit-identical
    /// worker-count guarantee.
    pub faults: Option<FaultConfig>,
    /// Autonomic per-peer optimization-rate control
    /// ([`crate::autorate`]); `None` keeps the static every-round
    /// schedule (and folds no controller word into the state digest).
    /// When set, each round only peers the controller marks
    /// *due* run phases 1–3; the controller is fed deterministic
    /// observation streams at round end, so the worker-count digest
    /// guarantee still holds.
    pub autorate: Option<AutoRateConfig>,
    /// Byte budget for the pairwise-core probe cache
    /// (`core_cache.rs`); `0` selects the 256 MiB default. When
    /// the budget is exceeded, oldest-inserted pairs are evicted and
    /// will be re-probed (and re-charged) if needed again.
    pub core_cache_budget: usize,
}

impl AceConfig {
    /// The paper's base configuration: `h = 1`, random policy, exact
    /// probes, scope guard of 2 flooding links, serial rounds.
    pub fn paper_default() -> Self {
        AceConfig {
            depth: 1,
            policy: ReplacePolicy::Random,
            probe: ProbeModel::default(),
            min_flooding: 2,
            parallel: false,
            workers: 0,
            faults: None,
            autorate: None,
            core_cache_budget: 0,
        }
    }
}

impl Default for AceConfig {
    /// [`AceConfig::paper_default`] — a derived all-zero value would turn
    /// the scope guard (`min_flooding`) off.
    fn default() -> Self {
        Self::paper_default()
    }
}

/// What one phase-3 attempt did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdaptOutcome {
    /// Cut the link to `far` and connected to `near` instead (`CH < CB`).
    Replaced {
        /// The disconnected non-flooding neighbor.
        far: PeerId,
        /// The newly connected closer peer.
        near: PeerId,
    },
    /// Connected to `near` while keeping the old neighbor (`CH < BH`).
    Added {
        /// The newly connected peer.
        near: PeerId,
    },
    /// No topology change (no candidate, probes unfavorable, or caps hit).
    KeptAll,
}

/// Aggregate outcome of one optimization round over all alive peers.
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// Number of replace operations.
    pub replaced: usize,
    /// Number of keep-both additions.
    pub added: usize,
    /// Number of spanning trees (re)built.
    pub trees_built: usize,
    /// Peers that crashed mid-round (injected faults; no goodbye).
    pub crashed: usize,
    /// Peers that left gracefully mid-round (injected faults).
    pub left: usize,
    /// Dead peers that rejoined mid-round (injected faults).
    pub rejoined: usize,
    /// Control-traffic overhead incurred during the round.
    pub overhead: OverheadLedger,
    /// Always 0: both schedules plan every due peer's tree. It counted
    /// the tree plans the planned schedule once replayed from a
    /// per-peer cache; replay saved less than its bookkeeping cost and
    /// is gone. The field stays while the repo benchmark still reads it
    /// (its `core.engine.plan_skip_ratio`).
    pub plans_skipped: usize,
    /// Cumulative pairwise-core cache counters as of the end of the
    /// round (hits/misses/evictions are totals since engine
    /// construction, mirroring [`ControllerStats`]' style).
    pub core_cache: CoreCacheStats,
}

impl RoundStats {
    /// True when the round made no phase-3 replacement and no keep-both
    /// addition (`replaced == 0 && added == 0`). That is all it checks:
    /// a round whose only changes are watch cuts, rebuilt spanning trees
    /// or changed forward requests still counts, so this is not a fixed
    /// point of the whole engine state.
    pub fn converged(&self) -> bool {
        self.replaced == 0 && self.added == 0
    }

    fn count_outcome(&mut self, outcome: AdaptOutcome) {
        match outcome {
            AdaptOutcome::Replaced { .. } => self.replaced += 1,
            AdaptOutcome::Added { .. } => self.added += 1,
            AdaptOutcome::KeptAll => {}
        }
    }
}

/// Per-peer ACE state plus the shared overhead ledger.
///
/// # Examples
///
/// ```
/// use ace_core::{AceConfig, AceEngine};
/// use ace_overlay::{random_overlay, PeerId};
/// use ace_topology::generate::{ba, BaConfig};
/// use ace_topology::DistanceOracle;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let phys = ba(&BaConfig { nodes: 120, ..BaConfig::default() }, &mut rng);
/// let oracle = DistanceOracle::new(phys);
/// let hosts = oracle.graph().nodes().take(40).collect();
/// let mut ov = random_overlay(hosts, 4, None, &mut rng);
///
/// let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
/// let stats = ace.round(&mut ov, &oracle, &mut rng);
/// assert_eq!(stats.trees_built, 40);
/// assert!(ace.tree_built(PeerId::new(0)));
/// assert!(stats.overhead.total_cost() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct AceEngine {
    cfg: AceConfig,
    states: Vec<PeerState>,
    /// Who may name a peer in `own_tree` / `requested` / `watches` /
    /// `table`, so a lifecycle purge visits those instead of everyone:
    /// pushed to wherever such a reference is *created* (updating or
    /// dropping one needs no call — the index is a superset). Kept
    /// beside the states, not in them: [`PeerState`] is read per visited
    /// peer on the query path and stays as small as it was.
    referrers: ReverseRefs,
    /// Each peer's live forward targets as of its last rebuild, so a
    /// query visit copies a slice ([`Self::forward_targets_into`]).
    /// Every write below to a peer's `own_tree`, `requested` or
    /// `tree_built` invalidates that peer's row; rounds rebuild the rows
    /// that no longer match.
    rows: ForwardRows,
    /// Cache of pairwise probe results for the phase-2 neighbor core.
    /// Physical distances are stable, so a measured pair is never
    /// re-probed: once known, the value rides along in the periodic table
    /// exchange instead of costing a fresh round trip. This is what keeps
    /// the steady-state optimization overhead at the paper's level.
    /// Bounded by [`AceConfig::core_cache_budget`], oldest pair first.
    core_cache: CoreCache,
    /// Reusable per-worker plan arenas, shared by the parallel pipeline
    /// and the serial round path.
    scratch: ScratchPool<PlanScratch>,
    ledger: OverheadLedger,
    /// Completed optimization rounds; indexes the fault hash streams so
    /// every round draws fresh (but reproducible) fault decisions.
    rounds_run: u64,
    probe_units: f64,
    probe_req_units: f64,
    connect_units: f64,
    disconnect_units: f64,
    notify_units: f64,
    /// Autonomic `R` controller ([`AceConfig::autorate`]); `None` keeps
    /// the static schedule.
    controller: Option<RateController>,
    /// Query arrivals reported via [`AceEngine::note_queries`] since the
    /// last round — the controller's per-peer load observation stream.
    pending_queries: Vec<f64>,
    /// Latest measured per-query traffic (flood, ace) reported via
    /// [`AceEngine::note_traffic`]; feeds the realized-gain estimate.
    pending_traffic: Option<(f64, f64)>,
}

impl AceEngine {
    /// Creates engine state for `peer_count` peers. A `depth` of 0 is
    /// normalized to 1.
    ///
    /// # Panics
    ///
    /// Panics if [`AceConfig::faults`] is set to an invalid
    /// [`FaultConfig`] (see [`FaultConfig::validate`]).
    pub fn new(peer_count: usize, cfg: AceConfig) -> Self {
        let mut cfg = cfg;
        if cfg.depth == 0 {
            cfg.depth = 1;
        }
        if let Some(f) = cfg.faults {
            if let Err(e) = f.validate() {
                panic!("invalid fault config: {e}");
            }
        }
        let states = (0..peer_count)
            .map(|i| PeerState::new(PeerId::new(i as u32)))
            .collect();
        let mut core_cache = CoreCache::with_budget(cfg.core_cache_budget);
        // Steady-state pair population: each peer's h-closure contributes
        // ~C(degree_cap, 2) non-adjacent pairs shared between endpoints;
        // 48 per peer covers the committed worlds with slack, and the
        // budget clamp keeps tiny-budget configurations tiny.
        core_cache.reserve_pairs(peer_count.saturating_mul(48));
        AceEngine {
            controller: cfg.autorate.map(|_| RateController::default()),
            pending_queries: vec![0.0; peer_count],
            pending_traffic: None,
            core_cache,
            referrers: ReverseRefs::new(peer_count),
            rows: ForwardRows::new(peer_count),
            scratch: ScratchPool::new(),
            cfg,
            states,
            ledger: OverheadLedger::new(),
            rounds_run: 0,
            probe_units: Message::Probe { nonce: 0 }.size_units()
                + Message::ProbeReply { nonce: 0 }.size_units(),
            probe_req_units: Message::Probe { nonce: 0 }.size_units(),
            connect_units: Message::Connect.size_units() + Message::ConnectOk.size_units(),
            disconnect_units: Message::Disconnect.size_units(),
            notify_units: Message::Ping.size_units(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AceConfig {
        &self.cfg
    }

    /// The accumulated overhead ledger.
    pub fn ledger(&self) -> &OverheadLedger {
        &self.ledger
    }

    /// Reports `count` query arrivals observed at `peer` since the last
    /// round — the controller's per-peer load stream (harnesses feed it
    /// from per-peer inbox accounting). No-op without
    /// [`AceConfig::autorate`]; counts are consumed by the next round.
    pub fn note_queries(&mut self, peer: PeerId, count: f64) {
        if self.controller.is_none() {
            return;
        }
        if let Some(q) = self.pending_queries.get_mut(peer.index()) {
            if count.is_finite() && count >= 0.0 {
                *q += count;
            }
        }
    }

    /// Reports the latest measured mean per-query traffic under blind
    /// flooding vs. ACE forwarding; the controller's realized-gain
    /// inputs. Sticky until replaced. No-op without
    /// [`AceConfig::autorate`].
    pub fn note_traffic(&mut self, flood_per_query: f64, ace_per_query: f64) {
        if self.controller.is_some() {
            self.pending_traffic = Some((flood_per_query, ace_per_query));
        }
    }

    /// The autonomic `R` controller, when enabled.
    pub fn controller(&self) -> Option<&RateController> {
        self.controller.as_ref()
    }

    /// Controller bookkeeping counters; all-zero when disabled.
    pub fn controller_stats(&self) -> ControllerStats {
        self.controller
            .as_ref()
            .map(RateController::stats)
            .unwrap_or_default()
    }

    /// Whether `peer` runs its optimization in the upcoming round
    /// (always true without a controller).
    fn peer_due(&self, peer: PeerId) -> bool {
        self.controller
            .as_ref()
            .is_none_or(|c| c.is_due(peer, self.rounds_run))
    }

    /// Feeds the controller one round's observations, in peer-id order
    /// (all inputs are computed serially, preserving the worker-count
    /// digest guarantee), and runs its end-of-period maintenance.
    /// `ran` says which peers actually optimized this round.
    fn feed_controller(&mut self, ov: &Overlay, stats: &RoundStats, ran: &[bool]) {
        let Some(ctrl) = self.controller.as_mut() else {
            return;
        };
        let period = self.rounds_run;
        let churn = (stats.crashed + stats.left + stats.rejoined) as f64;
        let total = stats.overhead.total_cost();
        let retry = stats.overhead.cost_of(OverheadKind::ProbeRetry)
            + stats.overhead.cost_of(OverheadKind::ControlRetry);
        let retry_pressure = if total > 0.0 { retry / total } else { 0.0 };
        let (flood, ace) = self.pending_traffic.unwrap_or((0.0, 0.0));
        let alive: Vec<PeerId> = ov.alive_peers().collect();
        let per_peer_overhead = if alive.is_empty() {
            0.0
        } else {
            total / alive.len() as f64
        };
        for p in alive {
            let queries = self.pending_queries.get(p.index()).copied().unwrap_or(0.0);
            let sample = RateSample {
                queries,
                churn_events: churn,
                flood_traffic: flood,
                ace_traffic: ace,
                overhead: per_peer_overhead,
                retry_pressure,
            };
            // The engine has no incarnation numbers: lifecycle purges
            // already cleared departed entries, so incarnation 0 stands
            // for "the current life of this peer".
            ctrl.observe(
                p,
                0,
                period,
                &sample,
                ran.get(p.index()).copied().unwrap_or(false),
            );
        }
        ctrl.end_period(period);
        for q in &mut self.pending_queries {
            *q = 0.0;
        }
    }

    /// True once `peer` has built a spanning tree; false for an id the
    /// engine was not built for.
    pub fn tree_built(&self, peer: PeerId) -> bool {
        self.states.get(peer.index()).is_some_and(|s| s.tree_built)
    }

    /// `peer`'s flooding neighbors, written into a caller buffer (cleared
    /// first): its own tree neighbors plus peers that requested
    /// forwarding because their trees attach through `peer`. May contain
    /// stale entries after topology changes; forwarding filters against
    /// current neighbors. Forwarding calls this once per visited peer per
    /// query, hence the reused buffer. Empty for an id the engine was
    /// not built for.
    pub fn flooding_neighbors_into(&self, peer: PeerId, out: &mut Vec<PeerId>) {
        out.clear();
        if let Some(s) = self.states.get(peer.index()) {
            s.flooding_into(out);
        }
    }

    /// `peer`'s own-tree neighbors only (without symmetrization
    /// requests); empty for an id the engine was not built for.
    pub fn tree_neighbors_of(&self, peer: PeerId) -> &[PeerId] {
        self.states.get(peer.index()).map_or(&[], |s| &s.own_tree)
    }

    /// `peer`'s probed cost to `neighbor`, if it has one recorded;
    /// `None` for an id the engine was not built for.
    pub fn probed_cost(&self, peer: PeerId, neighbor: PeerId) -> Option<Delay> {
        self.states.get(peer.index())?.table.get(neighbor)
    }

    /// Graceful leave: `peer`'s goodbye reaches every partner, so both
    /// its own state and every reference other peers hold to it (tree
    /// membership, forward requests, watches, cost rows, cached core
    /// probes) are invalidated immediately — at a cost of `peer`'s
    /// referrers plus its cached pairs, not of the population. A no-op
    /// for an id the engine was not built for (like the other two
    /// lifecycle calls; [`Overlay::leave`] answers `UnknownPeer`).
    pub fn on_leave(&mut self, peer: PeerId) {
        self.apply_lifecycle(peer, LifecycleEvent::GracefulLeave);
    }

    /// Silent crash: no goodbye is sent, so partners keep their (now
    /// stale) references until phase 1 prunes them; only the crashed
    /// process's own state disappears. [`AceEngine::check_invariants`]
    /// tolerates references to dead peers for exactly this reason. A
    /// no-op for an id the engine was not built for.
    pub fn on_crash(&mut self, peer: PeerId) {
        self.apply_lifecycle(peer, LifecycleEvent::Crash);
    }

    /// (Re)join: the joiner starts as a plain flooding Gnutella node, and
    /// any references surviving from a previous incarnation (e.g. after a
    /// crash) are purged — an alive peer must never be shadowed by stale
    /// state recorded about its predecessor. A no-op for an id the
    /// engine was not built for.
    pub fn on_join(&mut self, peer: PeerId) {
        self.apply_lifecycle(peer, LifecycleEvent::Rejoin);
    }

    /// Applies the shared purge taxonomy ([`LifecycleEvent`]) to `peer`.
    fn apply_lifecycle(&mut self, peer: PeerId, event: LifecycleEvent) {
        if peer.index() >= self.states.len() {
            return;
        }
        if event.purges_survivor_refs() {
            self.purge_peer_refs(peer);
        }
        if event.clears_own_state() {
            self.states[peer.index()].reset();
            self.rows.invalidate(peer);
        }
        if let Some(c) = self.controller.as_mut() {
            c.on_lifecycle(peer, event);
        }
        self.pending_queries[peer.index()] = 0.0;
    }

    /// Local churn response: with a controller, each disturbed
    /// neighbor's schedule snaps back to the floor
    /// ([`RateController::snap_to_floor`]) so the next round
    /// re-optimizes the neighborhood instead of coasting through it on a
    /// stretched interval — the static schedule gets exactly that for
    /// free by always running. The sync engine has a single incarnation
    /// (0) per peer; fault injection runs serially in both round paths,
    /// so the snaps are worker-count invariant.
    fn snap_neighbors(&mut self, ov: &Overlay, neighbors: &[PeerId]) {
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        for &n in neighbors {
            if ov.is_alive(n) {
                c.snap_to_floor(n, 0, self.rounds_run);
            }
        }
    }

    /// Rebuilds the reverse references from the states once stale and
    /// repeated records make up half of them. Only valid between
    /// mutations — every list in place — so the two stages that create
    /// references run it on entry, not each `referrers.push` mid-commit.
    fn shed_stale_refs(&mut self) {
        if self.referrers.overgrown() {
            let states = self.states.iter().enumerate();
            self.referrers.rebuild(states.flat_map(|(q, s)| {
                let q = PeerId::new(q as u32);
                s.mentioned().map(move |p| (q, p))
            }));
        }
    }

    /// Removes every reference other peers hold to `peer`, plus cached
    /// core probes with `peer` as an endpoint.
    fn purge_peer_refs(&mut self, peer: PeerId) {
        for q in self.referrers.holders(peer) {
            #[cfg(test)]
            crate::steps::bump();
            self.states[q.index()].forget(peer);
            self.rows.invalidate(q);
        }
        self.referrers.clear(peer);
        self.core_cache.purge_endpoint(peer);
    }

    /// Both endpoints of a just-cut link forget it
    /// ([`PeerState::forget_link`]). Keeps the tree⊆neighbors and
    /// request-symmetry invariants true after engine-initiated cuts
    /// (phase-3 replaces, watch cuts).
    fn note_link_down(&mut self, a: PeerId, b: PeerId) {
        self.states[a.index()].forget_link(b);
        self.states[b.index()].forget_link(a);
        self.rows.invalidate(a);
        self.rows.invalidate(b);
    }

    /// Measures `a`↔`b`, charging `ledger`. Read-only on `self` and
    /// pair-deterministic ([`ProbeModel::perturb`], the fault hashes), so
    /// plan-stage workers call it concurrently. Fault handling is delegated
    /// to [`policy::probe_exchange_survives_faults`]: each attempt can be lost (decided by a
    /// pure hash, so both endpoints and every worker schedule agree), a
    /// lost attempt wastes the request leg — charged as
    /// [`OverheadKind::ProbeRetry`], scaled by the backoff factor to
    /// model the lengthening timeout — and the prober retries up to
    /// `MAX_RETRIES` times before giving up with `None`.
    /// The successful attempt is charged as a normal probe.
    fn probe_with_faults(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        ledger: &mut OverheadLedger,
        a: PeerId,
        b: PeerId,
    ) -> Option<Delay> {
        let true_cost = ov.link_cost(oracle, a, b);
        if !policy::probe_exchange_survives_faults(
            self.cfg.faults.as_ref(),
            self.rounds_run,
            a,
            b,
            true_cost,
            self.probe_req_units,
            ledger,
        ) {
            return None;
        }
        ledger.charge(OverheadKind::Probe, f64::from(true_cost) * self.probe_units);
        Some(self.cfg.probe.perturb(a, b, true_cost))
    }

    /// Per-peer state is indexed by peer id: name a size mismatch here
    /// instead of an out-of-bounds index deep inside a phase.
    fn assert_sized_for(&self, ov: &Overlay) {
        assert!(
            ov.peer_count() == self.states.len(),
            "engine built for {} peers was handed an overlay of {} peers",
            self.states.len(),
            ov.peer_count()
        );
    }

    /// Phase 1: probe all current neighbors of `peer` and refresh its
    /// neighbor cost table. Stale entries (ex-neighbors) are dropped —
    /// from the cost table and from the forward-request list, which is
    /// where references to crashed partners go to die. A neighbor whose
    /// probe is lost to fault injection on every retry gets no table
    /// entry this round.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is offline or the engine was built for a
    /// different peer count than `ov`.
    pub fn phase1_probe(&mut self, ov: &Overlay, oracle: &dyn DistancePlane, peer: PeerId) {
        self.assert_sized_for(ov);
        assert!(ov.is_alive(peer), "cannot probe from an offline peer");
        self.shed_stale_refs();
        let nbrs = ov.neighbors(peer);
        {
            let s = &mut self.states[peer.index()];
            s.table.retain_neighbors(nbrs);
            let requests = s.requested.len();
            s.requested.retain(|r| nbrs.contains(r));
            if s.requested.len() != requests {
                self.rows.invalidate(peer);
            }
        }
        let mut ledger = self.ledger;
        for &n in nbrs {
            // Only the lower-id endpoint pays for the shared probe; both
            // ends learn the (symmetric) RTT from the same exchange.
            let measured = if peer < n || self.states[n.index()].table.get(peer).is_none() {
                self.probe_with_faults(ov, oracle, &mut ledger, peer, n)
            } else {
                Some(
                    self.cfg
                        .probe
                        .perturb(peer, n, ov.link_cost(oracle, peer, n)),
                )
            };
            match measured {
                Some(m) => {
                    if self.states[peer.index()].table.set(n, m) {
                        self.referrers.push(peer, n);
                    }
                }
                None => self.states[peer.index()].table.remove(n),
            }
        }
        self.ledger = ledger;
    }

    /// Charges the table-exchange/relay overhead for collecting the
    /// closure in `scratch` into `ledger`: one message of the member's
    /// table size per relay hop, in member (BFS) order — hop-1 members
    /// are plain [`OverheadKind::TableExchange`], deeper members are
    /// [`OverheadKind::ClosureRelay`].
    ///
    /// Each member's link to its BFS parent is priced once, into
    /// `scratch.uplink_cost`; every relay path through it reads that
    /// price. A parent precedes its children in BFS order, so a path's
    /// prices are all known when it is walked. Each hop is still its own
    /// charge, in walk order, so the ledger's float sums are the per-hop
    /// loop's.
    fn charge_closure_exchange(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        scratch: &mut PlanScratch,
        ledger: &mut OverheadLedger,
    ) {
        let PlanScratch {
            members,
            hops,
            parent,
            uplink_cost,
            ..
        } = scratch;
        uplink_cost.clear();
        uplink_cost.push(0); // the source relays nothing
        for i in 1..members.len() {
            let up = members[parent[i] as usize];
            uplink_cost.push(ov.link_cost(oracle, members[i], up));
            let units = self.states[members[i].index()].table.message_size_units();
            let kind = if hops[i] <= 1 {
                OverheadKind::TableExchange
            } else {
                OverheadKind::ClosureRelay
            };
            let mut hop = i;
            while parent[hop] != NO_PARENT {
                ledger.charge(kind, f64::from(uplink_cost[hop]) * units);
                hop = parent[hop] as usize;
            }
        }
    }

    // ----- phase 2, the tree stage: plan → commit -------------------------

    /// Stages `peer`'s non-adjacent neighbor pairs into `scratch.pairs`
    /// and their cached core costs into `scratch.core_costs`, consulting
    /// the core cache exactly once per pair. Batched on purpose: each
    /// pair is staged with a prefetch (the adjacency tests hit neighbor
    /// lists the closure walk just pulled in), then all are resolved
    /// against lines already in flight.
    fn stage_core_pairs(&self, ov: &Overlay, peer: PeerId, scratch: &mut PlanScratch) {
        scratch.core_costs.clear();
        scratch.pairs.clear();
        let nbrs = ov.neighbors(peer);
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                let (a, b) = (nbrs[i], nbrs[j]);
                if ov.are_neighbors(a, b) {
                    continue; // already covered by its exchanged table cost
                }
                self.core_cache.prefetch(a, b);
                scratch.pairs.push((a, b));
            }
        }
        for k in 0..scratch.pairs.len() {
            let (a, b) = scratch.pairs[k];
            scratch.core_costs.push(self.core_cache.get(a, b));
        }
    }

    /// Plans `peer`'s phase 2 — the one tree body both schedules run.
    /// Expects the closure collected and the core pairs staged in
    /// `scratch`; charges the closure exchange and every probe to
    /// `ledger`, and leaves the planned tree in `scratch.tree` and the
    /// freshly measured core pairs in `scratch.core_probes` for
    /// [`Self::commit_tree`]. Read-only on `self`.
    fn plan_tree(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        scratch: &mut PlanScratch,
        ledger: &mut OverheadLedger,
    ) {
        self.charge_closure_exchange(ov, oracle, scratch, ledger);
        // Prim MST over the closure subgraph. Edge costs come from the
        // members' exchanged tables, falling back to a charged probe when
        // neither endpoint has reported the link yet (`None` — probe lost
        // to fault injection — drops the edge and the MST routes around
        // it).
        scratch.collect_internal_edges(ov, |a, b| {
            self.states[a.index()]
                .table
                .get(b)
                .or_else(|| self.states[b.index()].table.get(a))
                .or_else(|| self.probe_with_faults(ov, oracle, ledger, a, b))
        });
        // Besides the logical links, the peer knows the cost between *any
        // pair* of its direct neighbors (§3.3 phase 1): it ships its
        // neighbor list to each neighbor, which probes the others and
        // reports back — the O(m²) pairwise core that lets the tree
        // bypass expensive neighbors even when they share no logical
        // link. Physical distances are stable, so measured pairs come
        // from the bounded core cache; concurrent planners may both pay
        // for a missing pair (as real concurrent peers would).
        scratch.core_probes.clear();
        for k in 0..scratch.pairs.len() {
            let (a, b) = scratch.pairs[k];
            let cost = scratch.core_costs[k].or_else(|| {
                let c = self.probe_with_faults(ov, oracle, ledger, a, b)?;
                scratch.core_probes.push((a, b, c));
                Some(c)
            });
            if let Some(cost) = cost {
                let sa = scratch.slot(a).expect("direct neighbor is a member");
                let sb = scratch.slot(b).expect("direct neighbor is a member");
                scratch.edges.push(SlotEdge { a: sa, b: sb, cost });
            }
        }
        policy::tree_with_scope_guard_scratch(
            peer,
            &scratch.members,
            &scratch.edges,
            ov.neighbors(peer),
            self.cfg.min_flooding,
            |n| Some(self.link_cost_estimate(ov, oracle, peer, n)),
            &mut scratch.prim,
            &mut scratch.extras,
            &mut scratch.tree,
        );
    }

    /// The table of `w` that `peer`'s closure exchange delivered: from the
    /// fault-time snapshot stage A took, else the live table of a current
    /// neighbor — what the serial schedule reads, and the planned one too
    /// when nothing can mutate tables between its stages (no clone).
    fn known_table<'a>(
        &'a self,
        ov: &Overlay,
        peer: PeerId,
        snap: Option<&'a KnownSnap>,
        w: PeerId,
    ) -> Option<&'a CostTable> {
        match snap {
            Some(snap) => snap.get(w),
            None => (w == peer || ov.are_neighbors(peer, w)).then(|| &self.states[w.index()].table),
        }
    }

    /// `peer`'s recorded cost to its neighbor `n`, or — when the probe was
    /// lost this round — what the probe model would have measured.
    fn link_cost_estimate(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        n: PeerId,
    ) -> Delay {
        self.states[peer.index()].table.get(n).unwrap_or_else(|| {
            self.cfg
                .probe
                .perturb(peer, n, ov.link_cost(oracle, peer, n))
        })
    }

    /// Commits a planned tree: fills the pairwise-core cache (first value
    /// wins, so the cache stays deterministic when two plans paid for the
    /// same pair), then diffs `new_tree` against `peer`'s previous tree
    /// and (un)subscribes forwarding with the affected partners; each
    /// notification is one tiny control message on that logical link.
    fn commit_tree(
        &mut self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        core_probes: &[(PeerId, PeerId, Delay)],
        new_tree: &[PeerId],
    ) {
        self.shed_stale_refs();
        for &(a, b, c) in core_probes {
            self.core_cache.insert_if_absent(a, b, c);
        }
        let mut old_tree = std::mem::take(&mut self.states[peer.index()].own_tree);
        for &f in new_tree.iter().filter(|f| !old_tree.contains(f)) {
            let req = &mut self.states[f.index()].requested;
            if !req.contains(&peer) {
                req.push(peer);
                self.referrers.push(f, peer);
                self.rows.invalidate(f);
            }
            self.referrers.push(peer, f); // `f` enters `peer`'s own tree below
            let cost = ov.link_cost(oracle, peer, f);
            self.ledger.charge(
                OverheadKind::TableExchange,
                f64::from(cost) * self.notify_units,
            );
        }
        for &f in old_tree.iter().filter(|f| !new_tree.contains(f)) {
            self.states[f.index()].requested.retain(|&p| p != peer);
            self.rows.invalidate(f);
            let cost = ov.link_cost(oracle, peer, f);
            self.ledger.charge(
                OverheadKind::TableExchange,
                f64::from(cost) * self.notify_units,
            );
        }
        let s = &mut self.states[peer.index()];
        if !s.tree_built || old_tree != new_tree {
            self.rows.invalidate(peer);
        }
        // Reuse the old tree's allocation for the new one.
        old_tree.clear();
        old_tree.extend_from_slice(new_tree);
        s.own_tree = old_tree;
        s.tree_built = true;
    }

    /// Phase 2 only, committed at once (the serial schedule's tree step):
    /// collect the closure tables, build the spanning tree and reclassify
    /// flooding/non-flooding neighbors — without any phase-3 adaptation.
    /// Useful for the trees-only ablation and the paper's Table 1/2
    /// examples.
    ///
    /// The plan charges a copy of the engine ledger, written back before
    /// the commit charges, so float sums accumulate plan-then-commit,
    /// peer by peer.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is offline or the engine was built for a
    /// different peer count than `ov`.
    pub fn build_tree(&mut self, ov: &Overlay, oracle: &dyn DistancePlane, peer: PeerId) {
        self.assert_sized_for(ov);
        assert!(ov.is_alive(peer), "cannot optimize an offline peer");
        let mut scratch = self.scratch.take().unwrap_or_default();
        scratch.collect_closure(ov, peer, self.cfg.depth);
        self.stage_core_pairs(ov, peer, &mut scratch);
        let mut ledger = self.ledger;
        self.plan_tree(ov, oracle, peer, &mut scratch, &mut ledger);
        self.ledger = ledger;
        self.commit_tree(ov, oracle, peer, &scratch.core_probes, &scratch.tree);
        self.scratch.put(scratch);
    }

    /// The serial schedule's watch sweep (§3.3 follow-up of the keep-both
    /// case): once the watched far neighbor has dropped its link to the
    /// peer we adopted, cut the far link too. Safe: the link is
    /// non-flooding (not on our fresh MST), so the tree provides an
    /// alternate path to `far`.
    ///
    /// Kept apart from the planned schedule's triage-all/commit-all
    /// (`plan_adapt`), though both decide with [`policy::triage_watch`]:
    /// this sweep re-triages each watch against the *current* overlay, so
    /// one made moot by an earlier cut of the same sweep expires now; the
    /// planned schedule keeps it one more round. Sharing the sweep would
    /// move `watches` in the serial state digests.
    fn process_watches(&mut self, ov: &mut Overlay, oracle: &dyn DistancePlane, peer: PeerId) {
        if self.states[peer.index()].watches.is_empty() {
            return;
        }
        let watches = std::mem::take(&mut self.states[peer.index()].watches);
        let own_tree = self.states[peer.index()].own_tree.clone();
        let mut keep = Vec::new();
        for (far, near) in watches {
            // `far`'s table is only visible while it is a neighbor (it
            // arrived with the closure exchange); until then, keep watching.
            let far_table = self.known_table(ov, peer, None, far);
            match policy::triage_watch(ov, peer, far, near, &own_tree, far_table) {
                WatchVerdict::Expire => {}
                WatchVerdict::Keep => keep.push((far, near)),
                WatchVerdict::Cut => {
                    if ov.disconnect(peer, far).is_ok() {
                        self.charge_disconnect(ov, oracle, peer, far);
                        self.note_link_down(peer, far);
                    }
                }
            }
        }
        self.states[peer.index()].watches = keep;
    }

    // ----- phase 3, the adaptation stage: plan → commit -------------------

    /// Plans `peer`'s phase-3 attempt — the one Figure-4 body both
    /// schedules run. Probes charge `ledger`; the chosen action is
    /// returned for [`Self::commit_proposal`]. Read-only on `self`. The
    /// serial schedule passes the round's shared `rng`, the planned one
    /// each peer's own seed-derived stream.
    #[allow(clippy::too_many_arguments)]
    fn plan_phase3<R: Rng + ?Sized>(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        known: Option<&KnownSnap>,
        scratch: &mut PlanScratch,
        ledger: &mut OverheadLedger,
        rng: &mut R,
    ) -> Option<Proposal> {
        let PlanScratch {
            flooding,
            non_flooding,
            candidates,
            ..
        } = scratch;
        // Non-flooding neighbors = current neighbors not on the tree (and
        // not requested by a partner's tree).
        self.flooding_neighbors_into(peer, flooding);
        non_flooding.clear();
        non_flooding.extend(
            ov.neighbors(peer)
                .iter()
                .copied()
                .filter(|n| !flooding.contains(n)),
        );
        if non_flooding.is_empty() {
            return None;
        }

        // Pick the non-flooding neighbor B to improve.
        let far = match self.cfg.policy {
            ReplacePolicy::Random => non_flooding[rng.gen_range(0..non_flooding.len())],
            ReplacePolicy::Naive | ReplacePolicy::Closest => {
                let mut best: Option<(Delay, PeerId)> = None;
                for &b in non_flooding.iter() {
                    let c = self.link_cost_estimate(ov, oracle, peer, b);
                    if best.is_none_or(|(bc, bp)| (c, b) > (bc, bp)) {
                        best = Some((c, b));
                    }
                }
                best.expect("non_flooding is non-empty").1
            }
        };

        // Candidates: B's neighbors (from the table it exchanged) that we
        // don't already know directly.
        let far_table = self.known_table(ov, peer, known, far)?;
        policy::phase3_candidates_into(ov, peer, far_table, candidates);
        if candidates.is_empty() {
            return None;
        }

        // Probe the candidate(s): CH. Lost probes drop the candidate.
        let (near, near_cost, far_near_cost) = match self.cfg.policy {
            ReplacePolicy::Closest => {
                let mut best: Option<(Delay, PeerId, Delay)> = None;
                for &(h, bh) in candidates.iter() {
                    let Some(ch) = self.probe_with_faults(ov, oracle, ledger, peer, h) else {
                        continue;
                    };
                    if best.is_none_or(|(bc, bp, _)| (ch, h) < (bc, bp)) {
                        best = Some((ch, h, bh));
                    }
                }
                let (ch, h, bh) = best?;
                (h, ch, bh)
            }
            _ => {
                let (h, bh) = candidates[rng.gen_range(0..candidates.len())];
                (h, self.probe_with_faults(ov, oracle, ledger, peer, h)?, bh)
            }
        };

        let far_cost = self.link_cost_estimate(ov, oracle, peer, far);
        let far_near_alive = ov.are_neighbors(far, near);
        let action = policy::figure4_decide(near_cost, far_cost, far_near_cost, far_near_alive);
        (action != Figure4Action::Keep).then_some(Proposal {
            action,
            far,
            near,
            near_cost,
        })
    }

    /// Commits a phase-3 proposal — the one place a Figure-4 action
    /// touches the overlay. Preconditions are revalidated against the
    /// *current* overlay: under the planned schedule an earlier commit
    /// may have consumed a link or degree slot the plan relied on, and
    /// the plan degrades to keep-all, as a lost race would in a real
    /// deployment. Under the serial schedule the checks always hold.
    fn commit_proposal(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        proposal: Option<Proposal>,
    ) -> AdaptOutcome {
        let Some(p) = proposal else {
            return AdaptOutcome::KeptAll;
        };
        let (far, near) = (p.far, p.near);
        match p.action {
            Figure4Action::Replace => {
                let valid = ov.is_alive(near)
                    && ov.are_neighbors(peer, far)
                    && !ov.are_neighbors(peer, near)
                    && ov.are_neighbors(far, near);
                if valid && self.replace_link(ov, oracle, peer, far, near).is_ok() {
                    self.note_link_down(peer, far);
                    self.states[peer.index()].table.set(near, p.near_cost);
                    self.referrers.push(peer, near);
                    return AdaptOutcome::Replaced { far, near };
                }
            }
            Figure4Action::Add => {
                let valid = ov.is_alive(near) && !ov.are_neighbors(peer, near);
                if valid && ov.connect(peer, near).is_ok() {
                    self.charge_connect(ov, oracle, peer, near);
                    let st = &mut self.states[peer.index()];
                    st.table.set(near, p.near_cost);
                    st.watches.push((far, near));
                    self.referrers.push(peer, far);
                    self.referrers.push(peer, near);
                    return AdaptOutcome::Added { near };
                }
            }
            Figure4Action::Keep => {}
        }
        AdaptOutcome::KeptAll
    }

    /// Atomically swap `peer–far` for `peer–near`, tolerating degree caps.
    fn replace_link(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        far: PeerId,
        near: PeerId,
    ) -> Result<(), OverlayError> {
        match ov.connect(peer, near) {
            Ok(()) => {
                self.charge_connect(ov, oracle, peer, near);
                ov.disconnect(peer, far)?;
                self.charge_disconnect(ov, oracle, peer, far);
                Ok(())
            }
            Err(OverlayError::DegreeCapReached(p)) if p == peer => {
                // Free our own slot first, then connect; roll back on failure.
                ov.disconnect(peer, far)?;
                match ov.connect(peer, near) {
                    Ok(()) => {
                        self.charge_disconnect(ov, oracle, peer, far);
                        self.charge_connect(ov, oracle, peer, near);
                        Ok(())
                    }
                    Err(e) => {
                        ov.connect(peer, far).expect("restoring just-removed link");
                        Err(e)
                    }
                }
            }
            Err(e) => Err(e),
        }
    }

    fn charge_connect(&mut self, ov: &Overlay, oracle: &dyn DistancePlane, a: PeerId, b: PeerId) {
        let cost = ov.link_cost(oracle, a, b);
        self.ledger.charge(
            OverheadKind::Reconnect,
            f64::from(cost) * self.connect_units,
        );
    }

    fn charge_disconnect(
        &mut self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        a: PeerId,
        b: PeerId,
    ) {
        let cost = ov.link_cost(oracle, a, b);
        self.ledger.charge(
            OverheadKind::Reconnect,
            f64::from(cost) * self.disconnect_units,
        );
    }

    /// Phases 2+3 for one peer, each committed at once — one step of the
    /// serial schedule: [`Self::build_tree`], the watch sweep, then one
    /// adaptive-connection attempt planned against the live tables and
    /// committed. Returns what phase 3 did.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is offline or the engine was built for a
    /// different peer count than `ov`.
    pub fn optimize_peer<R: Rng + ?Sized>(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        rng: &mut R,
    ) -> AdaptOutcome {
        self.build_tree(ov, oracle, peer);
        self.process_watches(ov, oracle, peer);
        let mut scratch = self.scratch.take().unwrap_or_default();
        let mut ledger = self.ledger;
        let proposal = self.plan_phase3(ov, oracle, peer, None, &mut scratch, &mut ledger, rng);
        self.ledger = ledger;
        self.scratch.put(scratch);
        self.commit_proposal(ov, oracle, peer, proposal)
    }

    // ----- rounds: two commit orders over the stages above ----------------

    /// One full optimization round: every due peer probes (phase 1), then
    /// runs phases 2–3 under the schedule [`AceConfig::parallel`]
    /// selects. The serial schedule draws the peer order and every
    /// phase-3 choice from `rng`; the planned one draws a single `u64`
    /// round seed, so its outcome is independent of thread scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the engine was built for a different peer count than
    /// `ov`.
    pub fn round<R: Rng + ?Sized>(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        rng: &mut R,
    ) -> RoundStats {
        self.assert_sized_for(ov);
        let before = self.ledger;
        let mut stats = RoundStats::default();
        // The controller's due-gating, decided before any peer runs so
        // every worker count sees the same work list; without a
        // controller every alive peer is due.
        let due: Vec<PeerId> = ov.alive_peers().filter(|&p| self.peer_due(p)).collect();
        let mut ran = vec![false; self.states.len()];
        for &p in &due {
            ran[p.index()] = true;
            self.phase1_probe(ov, oracle, p);
        }
        if self.cfg.parallel {
            self.round_planned(ov, oracle, &due, rng.gen(), &mut stats);
        } else {
            self.round_serial(ov, oracle, due, rng, &mut stats);
        }
        stats.overhead = self.ledger.since(&before);
        stats.core_cache = self.core_cache.stats();
        self.feed_controller(ov, &stats, &ran);
        self.rounds_run += 1;
        self.refresh_rows(ov);
        debug_assert!(ov.check_invariants().is_ok());
        debug_assert_eq!(self.check_invariants(ov), Ok(()));
        stats
    }

    /// The serial schedule — the paper's "random asynchronous order":
    /// each due peer, in shuffled order, runs [`Self::optimize_peer`], so
    /// it observes every earlier peer's rewiring within the same round.
    fn round_serial<R: Rng + ?Sized>(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        mut due: Vec<PeerId>,
        rng: &mut R,
        stats: &mut RoundStats,
    ) {
        for i in (1..due.len()).rev() {
            due.swap(i, rng.gen_range(0..=i));
        }
        // Injected departures/rejoins strike once halfway through the
        // optimization sweep — peers that already optimized saw the old
        // population, the rest see the new one, like real churn would.
        if due.is_empty() {
            self.apply_mid_round_faults(ov, stats);
        }
        let fault_point = due.len() / 2;
        for (i, p) in due.into_iter().enumerate() {
            if i == fault_point {
                self.apply_mid_round_faults(ov, stats);
            }
            if !ov.is_alive(p) {
                continue; // departed mid-round
            }
            let outcome = self.optimize_peer(ov, oracle, p, rng);
            stats.count_outcome(outcome);
            stats.trees_built += 1;
        }
    }

    /// A trees-only round: phase 1 probing and phase 2 tree building for
    /// every alive peer, with no phase-3 rewiring. Quantifies how much of
    /// ACE's gain comes from forwarding trees alone (ablation) and renders
    /// the paper's Table 1/2 examples on an unmodified topology.
    pub fn tree_round(&mut self, ov: &Overlay, oracle: &dyn DistancePlane) -> RoundStats {
        let before = self.ledger;
        let mut stats = RoundStats::default();
        let alive: Vec<PeerId> = ov.alive_peers().collect();
        for p in &alive {
            self.phase1_probe(ov, oracle, *p);
        }
        for p in alive {
            self.build_tree(ov, oracle, p);
            stats.trees_built += 1;
        }
        stats.overhead = self.ledger.since(&before);
        stats.core_cache = self.core_cache.stats();
        self.rounds_run += 1;
        self.refresh_rows(ov);
        stats
    }

    /// The planned schedule: plan every due peer's tree in parallel
    /// against the post-phase-1 snapshot, commit in peer-id order, then
    /// the same for watch triage + phase 3. Each plan charges a fresh
    /// ledger merged at commit, so sums are worker-count invariant.
    fn round_planned(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        due: &[PeerId],
        round_seed: u64,
        stats: &mut RoundStats,
    ) {
        let workers = pool::effective_workers(self.cfg.workers);

        let trees: Vec<TreePlan> = {
            let this = &*self;
            let ov_ref = &*ov;
            plan_parallel_scratch(
                &this.scratch,
                due.len(),
                workers,
                PlanScratch::default,
                |scratch, i| this.plan_stage_a(ov_ref, oracle, due[i], scratch),
            )
        };
        self.commit_trees(ov, oracle, &trees, stats);

        // Injected departures/rejoins strike between the tree commit and
        // the adaptation stage: stage B plans only the survivors, against
        // the post-churn overlay — the planned analogue of the serial
        // schedule's halfway fault point. Decisions are pure hashes of
        // (fault seed, round, peer), so worker count stays irrelevant.
        self.apply_mid_round_faults(ov, stats);
        let survivors: Vec<usize> = (0..due.len()).filter(|&i| ov.is_alive(due[i])).collect();

        let adapt_plans: Vec<AdaptPlan> = {
            let this = &*self;
            let ov_ref = &*ov;
            plan_parallel_scratch(
                &this.scratch,
                survivors.len(),
                workers,
                PlanScratch::default,
                |scratch, k| {
                    let i = survivors[k];
                    let peer = due[i];
                    let known = trees[i].known.as_ref();
                    // Per-peer stream: distinct per `(round_seed, peer)`
                    // and independent of which worker runs the plan.
                    let mut rng = StdRng::seed_from_u64(
                        round_seed ^ (peer.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    this.plan_adapt(ov_ref, oracle, peer, known, scratch, &mut rng)
                },
            )
        };
        drop(trees);
        self.commit_adaptations(ov, oracle, adapt_plans, stats);
    }

    // ----- planned schedule: the stages' plan and commit halves ----------

    /// Stage A of the planned schedule: [`Self::plan_tree`] for one peer
    /// against the round-start snapshot, charging a fresh ledger merged
    /// at commit. With faults configured the closure tables are
    /// snapshotted for stage B: mid-round faults can mutate tables after
    /// the tree commit, and stage B must read what stage A saw
    /// (faultless rounds read live).
    fn plan_stage_a(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        scratch: &mut PlanScratch,
    ) -> TreePlan {
        scratch.collect_closure(ov, peer, self.cfg.depth);
        // The plan body touches, per member, four lines scattered
        // across peer-count-sized vecs (state header, table data,
        // neighbor-list header and data). Left to the walk itself those
        // misses serialize behind each pointer chase; two batched
        // opaque-read sweeps — headers first, then the data the headers
        // point at — overlap them across the whole member set instead.
        for &m in &scratch.members {
            std::hint::black_box(self.states[m.index()].table.len());
            ov.prefetch_neighbors(m);
        }
        for &m in &scratch.members {
            std::hint::black_box(ov.neighbors(m).first().copied());
            std::hint::black_box(self.states[m.index()].table.as_slice().first().copied());
        }
        self.stage_core_pairs(ov, peer, scratch);
        let snap = |w: PeerId| self.states[w.index()].table.clone();
        let known = self.cfg.faults.map(|_| KnownSnap::capture(scratch, snap));
        let mut ledger = OverheadLedger::new();
        self.plan_tree(ov, oracle, peer, scratch, &mut ledger);
        TreePlan {
            peer,
            known,
            new_tree: scratch.tree.clone(),
            core_probes: scratch.core_probes.clone(),
            ledger,
        }
    }

    /// Commit of stage A, in plan (peer-id) order: merge each plan's
    /// ledger, then [`Self::commit_tree`], which diffs against the
    /// *current* own-tree, so a partner's intervening rewiring is
    /// handled.
    fn commit_trees(
        &mut self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        plans: &[TreePlan],
        stats: &mut RoundStats,
    ) {
        for plan in plans {
            self.ledger.merge(&plan.ledger);
            self.commit_tree(ov, oracle, plan.peer, &plan.core_probes, &plan.new_tree);
            stats.trees_built += 1;
        }
    }

    /// Stage B of the planned schedule: triage one peer's watches and
    /// plan its phase-3 attempt ([`Self::plan_phase3`]). Reads the
    /// committed trees (post stage A) and the round-start overlay;
    /// randomness comes from the peer's own seed-derived stream.
    fn plan_adapt(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        known: Option<&KnownSnap>,
        scratch: &mut PlanScratch,
        rng: &mut StdRng,
    ) -> AdaptPlan {
        let mut ledger = OverheadLedger::new();
        let state = &self.states[peer.index()];

        // Watch triage against the snapshot; cuts are revalidated at
        // commit because earlier commits may rewire links.
        let mut watch_cuts = Vec::new();
        let mut watch_keeps = Vec::new();
        for &(far, near) in &state.watches {
            let far_table = self.known_table(ov, peer, known, far);
            match policy::triage_watch(ov, peer, far, near, &state.own_tree, far_table) {
                WatchVerdict::Expire => {}
                WatchVerdict::Keep => watch_keeps.push((far, near)),
                WatchVerdict::Cut => watch_cuts.push((far, near)),
            }
        }

        let proposal = self.plan_phase3(ov, oracle, peer, known, scratch, &mut ledger, rng);
        AdaptPlan {
            peer,
            watch_cuts,
            watch_keeps,
            proposal,
            ledger,
        }
    }

    /// Commit of stage B, in plan (peer-id) order: merge each plan's
    /// ledger, apply its watch cuts (revalidated — the link may have
    /// expired, or its detour vanished, since planning), then
    /// [`Self::commit_proposal`].
    fn commit_adaptations(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        plans: Vec<AdaptPlan>,
        stats: &mut RoundStats,
    ) {
        for plan in plans {
            self.ledger.merge(&plan.ledger);
            let peer = plan.peer;

            let mut keep = plan.watch_keeps;
            for (far, near) in plan.watch_cuts {
                if !ov.are_neighbors(peer, far) || !ov.are_neighbors(peer, near) {
                    continue; // expired since planning
                }
                let has_detour = ov
                    .neighbors(peer)
                    .iter()
                    .any(|&n| n != far && ov.are_neighbors(n, far));
                if !has_detour {
                    keep.push((far, near));
                    continue;
                }
                if ov.disconnect(peer, far).is_ok() {
                    self.charge_disconnect(ov, oracle, peer, far);
                    self.note_link_down(peer, far);
                }
            }
            self.states[peer.index()].watches = keep;

            let outcome = self.commit_proposal(ov, oracle, peer, plan.proposal);
            stats.count_outcome(outcome);
        }
    }

    /// Applies the configured mid-round departures and rejoins, in
    /// peer-id order. Crashes clear only the crasher's state (no
    /// goodbye); graceful leaves purge both sides; rejoins bootstrap from
    /// the overlay's address cache with a per-`(round, peer)` seeded RNG,
    /// so no shared RNG stream is consumed and the parallel pipeline's
    /// determinism guarantee holds.
    fn apply_mid_round_faults(&mut self, ov: &mut Overlay, stats: &mut RoundStats) {
        let Some(f) = self.cfg.faults else { return };
        let round = self.rounds_run;
        let peers: Vec<PeerId> = ov.peers().collect();
        for p in peers {
            if ov.is_alive(p) {
                if ov.alive_count() <= 1 {
                    continue; // never empty the population
                }
                match f.departure(round, p) {
                    Some(DepartureKind::Crash) => {
                        let nbrs: Vec<PeerId> = ov.neighbors(p).to_vec();
                        ov.leave(p).expect("alive peer can leave");
                        self.on_crash(p);
                        self.snap_neighbors(ov, &nbrs);
                        stats.crashed += 1;
                    }
                    Some(DepartureKind::Graceful) => {
                        let nbrs: Vec<PeerId> = ov.neighbors(p).to_vec();
                        ov.leave(p).expect("alive peer can leave");
                        self.on_leave(p);
                        self.snap_neighbors(ov, &nbrs);
                        stats.left += 1;
                    }
                    None => {}
                }
            } else if f.rejoins(round, p) {
                let mut rng = StdRng::seed_from_u64(f.rejoin_seed(round, p));
                if ov.join(p, REJOIN_ATTACH, &mut rng).is_ok() {
                    self.on_join(p);
                    let nbrs: Vec<PeerId> = ov.neighbors(p).to_vec();
                    self.snap_neighbors(ov, &nbrs);
                    stats.rejoined += 1;
                }
            }
        }
    }

    /// Rebuilds the forwarding row of every alive peer whose row no
    /// longer matches: an input was written (row invalidated) or its
    /// neighbor list changed (stamp moved). Finding them compares one
    /// stamp per peer; only the stale rows are rebuilt.
    fn refresh_rows(&mut self, ov: &Overlay) {
        for p in ov.alive_peers() {
            let stamp = ov.neighbors_stamp(p);
            if self.rows.get(p, stamp).is_some() {
                continue;
            }
            #[cfg(test)]
            crate::steps::bump();
            let s = &self.states[p.index()];
            self.rows.rebuild(p, stamp, |out| {
                policy::select_forward_targets(
                    ov,
                    p,
                    None,
                    s.tree_built,
                    |b| s.flooding_into(b),
                    out,
                )
            });
        }
        self.rows.compact_if_sparse();
    }

    /// Live forward targets for `peer`: its flooding set filtered to
    /// current neighbors. When the peer has a tree but *every* tree entry
    /// is stale (churn cut them all since the tree was built), it falls
    /// back to blind flooding over its current neighbors — an empty
    /// target set would silently black-hole every query routed through
    /// it. The query's sender is excluded only after that fallback
    /// decision: a tree leaf whose one live link is the sender is a
    /// legitimate endpoint, not a black hole, and must not start
    /// flooding.
    ///
    /// The answer is [`policy::select_forward_targets`]'s. While `peer`'s
    /// forwarding row matches — built against this very neighbor list,
    /// no input changed since — it is the row minus `from`; otherwise
    /// the rule runs on the spot.
    pub fn forward_targets_into(
        &self,
        ov: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) {
        if let Some(row) = self.rows.get(peer, ov.neighbors_stamp(peer)) {
            out.clear();
            out.extend(row.iter().copied().filter(|&n| Some(n) != from));
            return;
        }
        policy::select_forward_targets(
            ov,
            peer,
            from,
            self.tree_built(peer),
            |buf| self.flooding_neighbors_into(peer, buf),
            out,
        );
    }

    /// Audits the engine's cross-peer state against the overlay; rounds
    /// run it under `debug_assert` and the churn tests call it directly.
    ///
    /// 1.–5. The clauses shared with the async simulator
    ///    (`audit::check_peer`: forwarding liveness, list hygiene,
    ///    tree ⊆ neighbors, request symmetry, cost symmetry;
    ///    `audit::check_ledger`), held strictly: a round leaves no
    ///    message in flight, so nothing excuses a disagreement. References
    ///    to dead peers are skipped — a crash sends no goodbye, and
    ///    phase 1 prunes them on the holder's next probe sweep.
    /// 6. **Controller hygiene**, 7. **maintenance indexes** (the
    ///    reverse-reference lists and the core cache's endpoint chains
    ///    cover every live reference and pair; every forwarding row that
    ///    answers equals the rule) and 8. **closure coherence** —
    ///    described where they are checked.
    ///
    /// Violations are typed ([`InvariantViolation`]); `Display` renders
    /// the same message text the `String`-returning era produced.
    pub fn check_invariants(&self, ov: &Overlay) -> Result<(), InvariantViolation> {
        let viol = |kind, peer, partner, message: String| {
            Err(InvariantViolation::new(kind, peer, partner, message))
        };
        let view = Strict {
            ov,
            states: &self.states,
        };
        for p in ov.alive_peers() {
            audit::check_peer(p, &self.states[p.index()], &view)?;
        }
        audit::check_ledger(&self.ledger)?;
        // 6. **Controller hygiene** — autorate soft state never
        //    references a departed peer (the purge taxonomy clears
        //    entries on every lifecycle event) and never exceeds its
        //    byte budget.
        if let Some(c) = &self.controller {
            c.audit(|p| ov.is_alive(p), |_| 0)?;
        }
        // 7. **Maintenance indexes** — every mention of a peer in
        //    another's lists is covered by `referrers`, and the core
        //    cache's endpoint chains reach every live pair: a lifecycle
        //    purge that walks the indexes misses nothing a sweep over
        //    everyone would find.
        for (q, s) in self.states.iter().enumerate() {
            let q = PeerId::new(q as u32);
            for p in s.mentioned() {
                if !self.referrers.holders(p).any(|holder| holder == q) {
                    return viol(
                        ViolationKind::IndexGap,
                        Some(q),
                        Some(p),
                        format!("peer {q} mentions {p} but is not among {p}'s referrers"),
                    );
                }
            }
        }
        if let Err(message) = self.core_cache.check_index() {
            return viol(ViolationKind::IndexGap, None, None, message);
        }
        //    A forwarding row that still matches its peer's neighbor list
        //    is exactly what the rule computes: no write to a row input
        //    skipped its invalidation.
        let mut want = Vec::new();
        for p in ov.peers() {
            let Some(row) = self.rows.get(p, ov.neighbors_stamp(p)) else {
                continue;
            };
            let s = &self.states[p.index()];
            let fill = |b: &mut Vec<PeerId>| s.flooding_into(b);
            policy::select_forward_targets(ov, p, None, s.tree_built, fill, &mut want);
            if row != want {
                return viol(
                    ViolationKind::IndexGap,
                    Some(p),
                    None,
                    format!("peer {p}: forwarding row {row:?}, the rule gives {want:?}"),
                );
            }
        }
        // 8. **Closure coherence** — the dense BFS arenas reproduce the
        //    canonical `Closure` exactly (members, order), and every
        //    member's relay path is well-formed: it starts at the member,
        //    ends at the source, and each hop crosses a live overlay
        //    edge. Walked with one reused buffer per audit.
        let mut scratch = self.scratch.take().unwrap_or_default();
        let mut path = Vec::new();
        for p in ov.alive_peers() {
            let closure = Closure::collect(ov, p, self.cfg.depth);
            scratch.collect_closure(ov, p, self.cfg.depth);
            if scratch.members != closure.members() {
                return viol(
                    ViolationKind::ListCorrupt,
                    Some(p),
                    None,
                    format!("peer {p}: dense closure BFS diverged from Closure::collect"),
                );
            }
            for &m in closure.members() {
                if !closure.relay_path_into(m, &mut path) {
                    return viol(
                        ViolationKind::ListCorrupt,
                        Some(p),
                        Some(m),
                        format!("peer {p}: member {m} has no relay path"),
                    );
                }
                let hop = closure.hop_of(m).expect("member has a hop depth") as usize;
                if path.len() != hop + 1 || path[0] != m || *path.last().unwrap() != p {
                    return viol(
                        ViolationKind::ListCorrupt,
                        Some(p),
                        Some(m),
                        format!("peer {p}: member {m} relay path malformed: {path:?}"),
                    );
                }
                for w in path.windows(2) {
                    if !ov.are_neighbors(w[0], w[1]) {
                        return viol(
                            ViolationKind::StaleLink,
                            Some(w[0]),
                            Some(w[1]),
                            format!("peer {p}: relay hop {}-{} is not an edge", w[0], w[1]),
                        );
                    }
                }
            }
        }
        self.scratch.put(scratch);
        Ok(())
    }

    /// Digest of all per-peer ACE state plus the ledger bit patterns:
    /// per peer, its sorted cost table, own tree, forward requests,
    /// watches and `tree_built`; then each ledger kind's cost bits and
    /// count; then the rate controller's digest when there is one. Two
    /// engines with equal digests made bit-identical decisions — the
    /// equivalence tests compare worker counts this way. Folded through
    /// [`ace_engine::digest`], so the value is stable across toolchains.
    pub fn state_digest(&self) -> u64 {
        let mut d = Digest::new(0);
        for s in &self.states {
            fold_sorted(&mut d, s.table.iter().map(|(p, c)| (p, u64::from(c))));
            fold_peers(&mut d, &s.own_tree);
            fold_peers(&mut d, &s.requested);
            fold_watches(&mut d, &s.watches);
            d.word(u64::from(s.tree_built));
        }
        // ControlRetry belongs to the async wire model; the engine never
        // charges it.
        for kind in OverheadKind::ALL {
            if kind == OverheadKind::ControlRetry {
                continue;
            }
            d.word(self.ledger.cost_of(kind).to_bits())
                .word(self.ledger.count_of(kind));
        }
        if let Some(c) = &self.controller {
            d.word(c.digest());
        }
        d.finish()
    }
}

/// The engine's audit view: exact agreement, nothing excused — a round
/// leaves no message in flight.
struct Strict<'a> {
    ov: &'a Overlay,
    states: &'a [PeerState],
}

impl AuditView for Strict<'_> {
    fn overlay(&self) -> &Overlay {
        self.ov
    }

    fn state(&self, p: PeerId) -> &PeerState {
        &self.states[p.index()]
    }

    fn excuses(&self, _: Gap, _: PeerId, _: PeerId) -> bool {
        false
    }
}

/// One peer's planned phase 2: the tree it wants, the core probes it had
/// to pay for, and the overhead it incurred.
struct TreePlan {
    peer: PeerId,
    /// The closure tables as stage A saw them (fault configs only).
    known: Option<KnownSnap>,
    new_tree: Vec<PeerId>,
    core_probes: Vec<(PeerId, PeerId, Delay)>,
    ledger: OverheadLedger,
}

/// One peer's planned phase 3 plus watch triage.
struct AdaptPlan {
    peer: PeerId,
    watch_cuts: Vec<(PeerId, PeerId)>,
    watch_keeps: Vec<(PeerId, PeerId)>,
    proposal: Option<Proposal>,
    ledger: OverheadLedger,
}

/// A planned Figure-4 `Replace` or `Add`, applied (after revalidation)
/// at commit; a plan that keeps everything proposes nothing.
struct Proposal {
    action: Figure4Action,
    far: PeerId,
    near: PeerId,
    near_cost: Delay,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::provoke::{self, Clause, StatesMut};
    use ace_topology::{DistanceOracle, Graph, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The paper's Figure 2: peers 0,1 at "MSU", peers 2,3 at "Tsinghua";
    /// physical: 0-1 cheap (1), 2-3 cheap (1), 1-2 expensive (100).
    /// Mismatched overlay: three cross-ocean links (0-2, 0-3, 1-3) plus
    /// the local 2-3; ACE should rewire toward 0-1 + 2-3 + one crossing.
    fn mismatch_env() -> (Overlay, DistanceOracle) {
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 100).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3), 1).unwrap();
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..4).map(NodeId::new).collect(), None);
        ov.connect(PeerId::new(0), PeerId::new(2)).unwrap();
        ov.connect(PeerId::new(0), PeerId::new(3)).unwrap();
        ov.connect(PeerId::new(1), PeerId::new(3)).unwrap();
        ov.connect(PeerId::new(2), PeerId::new(3)).unwrap();
        (ov, oracle)
    }

    /// Config for the 4-peer example: the scope guard would keep every
    /// link flooding on such a tiny world, so relax it to 1.
    fn tiny_cfg() -> AceConfig {
        AceConfig {
            min_flooding: 1,
            ..AceConfig::paper_default()
        }
    }

    fn total_link_cost(ov: &Overlay, oracle: &dyn DistancePlane) -> u64 {
        let mut sum = 0u64;
        for p in ov.peers() {
            for &n in ov.neighbors(p) {
                if p < n {
                    sum += u64::from(ov.link_cost(oracle, p, n));
                }
            }
        }
        sum
    }

    /// Every component `state_digest` folds moves it when changed alone,
    /// so a field dropped from the fold fails here.
    #[test]
    fn state_digest_moves_with_every_component() {
        let (mut ov, oracle) = mismatch_env();
        let cfg = AceConfig {
            autorate: Some(AutoRateConfig),
            ..tiny_cfg()
        };
        let mut ace = AceEngine::new(4, cfg);
        ace.round(&mut ov, &oracle, &mut StdRng::seed_from_u64(1));
        fn p(i: u32) -> PeerId {
            PeerId::new(i)
        }
        type Edit = (&'static str, fn(&mut AceEngine));
        let edits: [Edit; 7] = [
            ("table entry", |e| {
                e.states[0].table.set(p(3), 12_345);
            }),
            ("own_tree", |e| e.states[0].own_tree.push(p(3))),
            ("requested", |e| e.states[0].requested.push(p(3))),
            ("watches", |e| e.states[0].watches.push((p(1), p(3)))),
            ("tree_built", |e| e.states[0].tree_built ^= true),
            ("ledger", |e| e.ledger.charge(OverheadKind::Reconnect, 1.0)),
            ("controller", |e| {
                let c = e.controller.as_mut().unwrap();
                c.observe(p(3), 7, 9, &RateSample::default(), true);
            }),
        ];
        let mut last = ace.state_digest();
        for (what, edit) in edits {
            edit(&mut ace);
            let now = ace.state_digest();
            assert_ne!(now, last, "{what} is not folded");
            last = now;
        }
    }

    #[test]
    fn phase1_builds_symmetric_tables() {
        let (ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, AceConfig::paper_default());
        for p in ov.alive_peers() {
            ace.phase1_probe(&ov, &oracle, p);
        }
        assert_eq!(ace.probed_cost(PeerId::new(0), PeerId::new(2)), Some(101));
        assert_eq!(ace.probed_cost(PeerId::new(2), PeerId::new(0)), Some(101));
        assert!(ace.ledger().cost_of(OverheadKind::Probe) > 0.0);
    }

    #[test]
    fn rounds_reduce_total_link_cost_and_keep_connectivity() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, tiny_cfg());
        let mut rng = StdRng::seed_from_u64(42);
        let before = total_link_cost(&ov, &oracle);
        for _ in 0..6 {
            ace.round(&mut ov, &oracle, &mut rng);
            assert!(ov.is_connected(), "ACE must never disconnect the overlay");
            ov.check_invariants().unwrap();
        }
        let after = total_link_cost(&ov, &oracle);
        assert!(after < before, "total cost {before} -> {after}");
        // The far links collapse: only one crossing should remain.
        let crossings = [(0u32, 2u32), (0, 3), (1, 2), (1, 3)]
            .iter()
            .filter(|&&(a, b)| ov.are_neighbors(PeerId::new(a), PeerId::new(b)))
            .count();
        assert!(crossings <= 2, "crossings left: {crossings}");
    }

    #[test]
    fn flooding_neighbors_are_current_neighbors() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, AceConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(7);
        ace.round(&mut ov, &oracle, &mut rng);
        let mut fl = Vec::new();
        for p in ov.alive_peers() {
            assert!(ace.tree_built(p));
            ace.flooding_neighbors_into(p, &mut fl);
            // Every cut of the round went through `note_link_down`, so
            // the tree⊆neighbors invariant holds entry by entry.
            for &f in &fl {
                assert!(ov.are_neighbors(p, f), "{p}: flooding entry {f}");
            }
        }
    }

    #[test]
    fn leave_clears_own_state() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, AceConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(1);
        ace.round(&mut ov, &oracle, &mut rng);
        ace.on_leave(PeerId::new(0));
        assert!(!ace.tree_built(PeerId::new(0)));
        let mut fl = vec![PeerId::new(9)];
        ace.flooding_neighbors_into(PeerId::new(0), &mut fl);
        assert!(fl.is_empty());
        assert_eq!(ace.probed_cost(PeerId::new(0), PeerId::new(2)), None);
    }

    #[test]
    fn depth_zero_normalizes_to_one() {
        let ace = AceEngine::new(
            2,
            AceConfig {
                depth: 0,
                ..AceConfig::paper_default()
            },
        );
        assert_eq!(ace.config().depth, 1);
    }

    #[test]
    fn deeper_closures_cost_more_overhead() {
        let mk = |depth| {
            let (mut ov, oracle) = mismatch_env();
            let mut ace = AceEngine::new(
                4,
                AceConfig {
                    depth,
                    ..AceConfig::paper_default()
                },
            );
            let mut rng = StdRng::seed_from_u64(5);
            let stats = ace.round(&mut ov, &oracle, &mut rng);
            stats.overhead.total_cost()
        };
        let h1 = mk(1);
        let h2 = mk(2);
        assert!(h2 > h1, "h=2 overhead {h2} vs h=1 {h1}");
    }

    /// Counts the plane's answers, so a test can count what a stage prices.
    struct CountingPlane<'a> {
        inner: &'a DistanceOracle,
        calls: AtomicU64,
    }

    impl CountingPlane<'_> {
        fn take_calls(&self) -> u64 {
            self.calls.swap(0, Ordering::Relaxed)
        }
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

    /// The closure exchange as it was before uplinks were priced once:
    /// every relay hop asks the plane. It is the reference for the
    /// ledger the exchange must still produce.
    fn per_hop_exchange(
        ace: &AceEngine,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        scratch: &PlanScratch,
        ledger: &mut OverheadLedger,
    ) {
        for i in 1..scratch.members.len() {
            let units = ace.states[scratch.members[i].index()]
                .table
                .message_size_units();
            let kind = if scratch.hops[i] <= 1 {
                OverheadKind::TableExchange
            } else {
                OverheadKind::ClosureRelay
            };
            let mut hop = i;
            while scratch.parent[hop] != NO_PARENT {
                let up = scratch.parent[hop] as usize;
                let cost = ov.link_cost(oracle, scratch.members[hop], scratch.members[up]);
                ledger.charge(kind, f64::from(cost) * units);
                hop = up;
            }
        }
    }

    /// The closure exchange asks the plane once per non-source member —
    /// for its link to its BFS parent — where the per-hop loop asks once
    /// per relay hop, and it charges the per-hop loop's ledger bit for
    /// bit.
    #[test]
    fn closure_exchange_prices_each_member_uplink_once() {
        for depth in 1..=3u8 {
            let (mut ov, oracle, mut rng) = ba_env(11);
            let mut ace = AceEngine::new(
                ov.peer_count(),
                AceConfig {
                    depth,
                    ..AceConfig::paper_default()
                },
            );
            ace.round(&mut ov, &oracle, &mut rng);
            let plane = CountingPlane {
                inner: &oracle,
                calls: AtomicU64::new(0),
            };
            let mut scratch = PlanScratch::default();
            let (mut ledger, mut reference) = (OverheadLedger::new(), OverheadLedger::new());
            let (mut priced, mut relay_hops) = (0u64, 0u64);
            for peer in ov.alive_peers() {
                scratch.collect_closure(&ov, peer, depth);
                ace.charge_closure_exchange(&ov, &plane, &mut scratch, &mut ledger);
                let members = scratch.members.len() as u64;
                assert_eq!(plane.take_calls(), members - 1, "h={depth} peer {peer:?}");
                per_hop_exchange(&ace, &ov, &plane, &scratch, &mut reference);
                let hops: u64 = scratch.hops[1..].iter().map(|&h| u64::from(h)).sum();
                assert_eq!(plane.take_calls(), hops, "h={depth} peer {peer:?}");
                (priced, relay_hops) = (priced + members - 1, relay_hops + hops);
            }
            for kind in OverheadKind::ALL {
                assert_eq!(ledger.count_of(kind), reference.count_of(kind), "{kind:?}");
                assert_eq!(
                    ledger.cost_of(kind).to_bits(),
                    reference.cost_of(kind).to_bits(),
                    "h={depth} {kind:?}"
                );
            }
            if depth == 1 {
                assert_eq!(priced, relay_hops);
            } else {
                assert!(priced < relay_hops, "h={depth}: {priced} vs {relay_hops}");
            }
        }
    }

    #[test]
    fn converged_round_reports_no_changes() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, AceConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut converged = false;
        for _ in 0..12 {
            if ace.round(&mut ov, &oracle, &mut rng).converged() {
                converged = true;
                break;
            }
        }
        assert!(converged, "small topology should converge quickly");
    }

    /// Canonical snapshot of the overlay's adjacency for equality checks.
    fn overlay_adjacency(ov: &Overlay) -> Vec<Vec<PeerId>> {
        ov.peers()
            .map(|p| {
                let mut n = ov.neighbors(p).to_vec();
                n.sort_unstable();
                n
            })
            .collect()
    }

    /// The determinism contract: a parallel round's outcome (engine state,
    /// overlay wiring, and exact ledger bits) must not depend on how many
    /// worker threads planned it — with or without fault injection, since
    /// every fault decision is a pure hash, never a thread-dependent draw.
    #[test]
    fn parallel_round_is_bit_identical_across_worker_counts() {
        use ace_overlay::random_overlay;
        use ace_topology::generate::{ba, BaConfig};

        let run = |workers: usize, faults: Option<FaultConfig>| {
            let mut rng = StdRng::seed_from_u64(9);
            let phys = ba(
                &BaConfig {
                    nodes: 120,
                    ..BaConfig::default()
                },
                &mut rng,
            );
            let oracle = DistanceOracle::new(phys);
            let hosts = oracle.graph().nodes().take(40).collect();
            let mut ov = random_overlay(hosts, 4, None, &mut rng);
            let cfg = AceConfig {
                parallel: true,
                workers,
                faults,
                ..AceConfig::paper_default()
            };
            let mut ace = AceEngine::new(ov.peer_count(), cfg);
            for _ in 0..3 {
                ace.round(&mut ov, &oracle, &mut rng);
            }
            ace.check_invariants(&ov).unwrap();
            (
                ace.state_digest(),
                overlay_adjacency(&ov),
                ace.ledger().total_cost().to_bits(),
            )
        };
        for faults in [None, Some(faulty(77))] {
            let one = run(1, faults);
            let four = run(4, faults);
            let three = run(3, faults);
            assert_eq!(one, four, "workers=4 diverged from workers=1");
            assert_eq!(one, three, "workers=3 diverged from workers=1");
        }
    }

    #[test]
    fn parallel_rounds_reduce_cost_and_keep_connectivity() {
        let (mut ov, oracle) = mismatch_env();
        let cfg = AceConfig {
            parallel: true,
            workers: 2,
            ..tiny_cfg()
        };
        let mut ace = AceEngine::new(4, cfg);
        let mut rng = StdRng::seed_from_u64(42);
        let before = total_link_cost(&ov, &oracle);
        for _ in 0..6 {
            ace.round(&mut ov, &oracle, &mut rng);
            assert!(
                ov.is_connected(),
                "parallel ACE must never disconnect the overlay"
            );
            ov.check_invariants().unwrap();
        }
        let after = total_link_cost(&ov, &oracle);
        assert!(after < before, "total cost {before} -> {after}");
    }

    #[test]
    fn flooding_neighbors_into_is_tree_then_new_requesters() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, AceConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(6);
        ace.round(&mut ov, &oracle, &mut rng);
        let mut buf = vec![PeerId::new(99)]; // stale content must be cleared
        for p in ov.alive_peers() {
            ace.flooding_neighbors_into(p, &mut buf);
            let tree = ace.tree_neighbors_of(p);
            assert_eq!(&buf[..tree.len()], tree);
            let mut requesters = buf[tree.len()..].to_vec();
            requesters.sort_unstable();
            // `q` requested forwarding from `p` iff `p` is on `q`'s tree.
            let want: Vec<PeerId> = ov
                .alive_peers()
                .filter(|&q| ace.tree_neighbors_of(q).contains(&p) && !tree.contains(&q))
                .collect();
            assert_eq!(requesters, want);
        }
    }

    #[test]
    fn default_config_is_the_paper_default() {
        let (d, p) = (AceConfig::default(), AceConfig::paper_default());
        assert_eq!(format!("{d:?}"), format!("{p:?}"));
        // What a derived `Default` would silently turn off.
        assert_eq!((d.depth, d.min_flooding), (1, 2));
    }

    #[test]
    #[should_panic(expected = "engine built for 3 peers was handed an overlay of 4 peers")]
    fn undersized_engine_is_rejected_by_name() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(3, AceConfig::paper_default());
        ace.round(&mut ov, &oracle, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn closest_policy_probes_more_than_random() {
        let probes_with = |policy| {
            let (mut ov, oracle) = mismatch_env();
            let mut ace = AceEngine::new(
                4,
                AceConfig {
                    policy,
                    ..AceConfig::paper_default()
                },
            );
            let mut rng = StdRng::seed_from_u64(3);
            ace.round(&mut ov, &oracle, &mut rng);
            ace.ledger().count_of(OverheadKind::Probe)
        };
        // Closest probes every candidate, so it can't probe fewer times.
        assert!(probes_with(ReplacePolicy::Closest) >= probes_with(ReplacePolicy::Random));
    }

    /// A moderately hostile fault mix used by the churn/fault tests.
    fn faulty(seed: u64) -> FaultConfig {
        FaultConfig {
            probe_loss: 0.15,
            crash: 0.03,
            leave: 0.03,
            rejoin: 0.5,
            seed,
        }
    }

    /// A 40-peer overlay on a BA physical network, as in the parallel
    /// determinism test.
    fn ba_env(seed: u64) -> (Overlay, DistanceOracle, StdRng) {
        use ace_overlay::random_overlay;
        use ace_topology::generate::{ba, BaConfig};
        let mut rng = StdRng::seed_from_u64(seed);
        let phys = ba(
            &BaConfig {
                nodes: 120,
                ..BaConfig::default()
            },
            &mut rng,
        );
        let oracle = DistanceOracle::new(phys);
        let hosts = oracle.graph().nodes().take(40).collect();
        let ov = random_overlay(hosts, 4, None, &mut rng);
        (ov, oracle, rng)
    }

    #[test]
    fn lost_probes_charge_retries_and_can_give_up() {
        let (ov, oracle) = mismatch_env();
        let cfg = AceConfig {
            faults: Some(FaultConfig {
                probe_loss: 0.9,
                seed: 8,
                ..FaultConfig::default()
            }),
            ..AceConfig::paper_default()
        };
        let mut ace = AceEngine::new(4, cfg);
        for p in ov.alive_peers() {
            ace.phase1_probe(&ov, &oracle, p);
        }
        assert!(
            ace.ledger().count_of(OverheadKind::ProbeRetry) > 0,
            "90% loss must charge wasted attempts"
        );
        let missing = ov
            .alive_peers()
            .flat_map(|p| ov.neighbors(p).iter().map(move |&n| (p, n)))
            .filter(|&(p, n)| ace.probed_cost(p, n).is_none())
            .count();
        assert!(missing > 0, "at 90% loss some probes fail every retry");
        ace.check_invariants(&ov).unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid fault config")]
    fn invalid_fault_config_is_rejected_at_construction() {
        AceEngine::new(
            2,
            AceConfig {
                faults: Some(FaultConfig {
                    probe_loss: 2.0,
                    ..FaultConfig::default()
                }),
                ..AceConfig::paper_default()
            },
        );
    }

    #[test]
    fn serial_rounds_with_faults_hold_invariants() {
        let (mut ov, oracle, mut rng) = ba_env(13);
        let cfg = AceConfig {
            faults: Some(faulty(13)),
            ..AceConfig::paper_default()
        };
        let mut ace = AceEngine::new(ov.peer_count(), cfg);
        let (mut departures, mut rejoins) = (0, 0);
        for _ in 0..8 {
            let stats = ace.round(&mut ov, &oracle, &mut rng);
            departures += stats.crashed + stats.left;
            rejoins += stats.rejoined;
            ov.check_invariants().unwrap();
            ace.check_invariants(&ov).unwrap();
        }
        assert!(departures > 0, "fault rates should produce departures");
        assert!(rejoins > 0, "dead peers should rejoin at 50%/round");
        assert!(ace.ledger().cost_of(OverheadKind::ProbeRetry) > 0.0);
    }

    #[test]
    fn auditor_detects_externally_cut_tree_link() {
        let (mut ov, oracle, mut rng) = ba_env(21);
        let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
        ace.round(&mut ov, &oracle, &mut rng);
        ace.check_invariants(&ov).unwrap();
        let (p, f) = ov
            .alive_peers()
            .find_map(|p| {
                ace.tree_neighbors_of(p)
                    .iter()
                    .copied()
                    .find(|&f| ov.are_neighbors(p, f))
                    .map(|f| (p, f))
            })
            .expect("some live tree edge exists");
        // A cut the engine never hears about corrupts tree⊆neighbors.
        ov.disconnect(p, f).unwrap();
        assert!(ace.check_invariants(&ov).is_err());
    }

    impl StatesMut for AceEngine {
        fn state_mut(&mut self, p: PeerId) -> &mut PeerState {
            &mut self.states[p.index()]
        }
    }

    fn audited_engine() -> (Overlay, AceEngine) {
        let (mut ov, oracle, mut rng) = ba_env(21);
        let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
        ace.round(&mut ov, &oracle, &mut rng);
        ace.check_invariants(&ov).unwrap();
        (ov, ace)
    }

    #[test]
    fn auditor_reports_each_shared_clause_at_its_pair() {
        let (ov, ace) = audited_engine();
        let view = Strict {
            ov: &ov,
            states: &ace.states,
        };
        let pick = provoke::pick(&view);
        for clause in Clause::ALL {
            let mut bad = ace.clone();
            let want = clause.apply(&mut bad, pick);
            let v = bad.check_invariants(&ov).expect_err("corruption missed");
            assert_eq!((v.kind(), v.peer(), v.partner()), want, "{clause:?}");
        }
    }

    /// A write to a row input that skipped its invalidation leaves a
    /// row that still answers but is no longer the rule's: the auditor
    /// names the peer. Invalidating the row, as every engine write does,
    /// makes forwarding follow the rule again.
    #[test]
    fn auditor_reports_a_row_that_missed_its_invalidation() {
        let (ov, mut ace) = audited_engine();
        let live_tree = |ace: &AceEngine, p| {
            let tree = ace.tree_neighbors_of(p).iter();
            tree.filter(|&&f| ov.are_neighbors(p, f)).count()
        };
        let p = ov
            .alive_peers()
            .find(|&p| live_tree(&ace, p) >= 2)
            .expect("a peer with two live tree links");
        let want = provoke::reorder_tree(&mut ace, p);
        let v = ace.check_invariants(&ov).expect_err("stale row missed");
        assert_eq!((v.kind(), v.peer(), v.partner()), want);
        ace.rows.invalidate(p);
        ace.check_invariants(&ov).unwrap();
    }

    /// Rounds rebuild the rows whose inputs changed, not every row: a
    /// repeated tree round on an unchanged overlay rebuilds none, and a
    /// hook only invalidates — its peer, the purged holders and the
    /// departed peer's neighbors wait for the next round.
    #[test]
    fn rounds_rebuild_only_the_rows_whose_inputs_changed() {
        let (mut ov, oracle, _) = ba_env(51);
        let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
        crate::steps::take();
        ace.tree_round(&ov, &oracle);
        assert_eq!(crate::steps::take(), ov.alive_count() as u64);
        ace.tree_round(&ov, &oracle);
        assert_eq!(crate::steps::take(), 0, "same trees, same lists");
        let answering = |ace: &AceEngine, ov: &Overlay| {
            ov.alive_peers()
                .filter(|&p| ace.rows.get(p, ov.neighbors_stamp(p)).is_some())
                .count()
        };
        assert_eq!(answering(&ace, &ov), ov.alive_count());
        let victim = ov.alive_peers().next().unwrap();
        let holders = ace.referrers.holders(victim).count() as u64;
        ov.leave(victim).unwrap();
        ace.on_leave(victim);
        assert!(answering(&ace, &ov) < ov.alive_count());
        crate::steps::take(); // the purge's own visits
        ace.check_invariants(&ov).unwrap();
        ace.tree_round(&ov, &oracle);
        assert!(crate::steps::take() <= holders + ov.degree(victim) as u64 + 6);
        assert_eq!(answering(&ace, &ov), ov.alive_count());
    }

    /// The state the async simulator excuses while the `Disconnect` is in
    /// flight (`disconnect_in_flight_excuses_the_stale_slot`): one end
    /// cut and forgot the link, the other still names it. A round sends
    /// nothing that could still be on its way, so here it is stale.
    #[test]
    fn cut_heard_by_one_end_only_is_a_stale_slot() {
        let (mut ov, mut ace) = audited_engine();
        let view = Strict {
            ov: &ov,
            states: &ace.states,
        };
        let (p, f, _) = provoke::pick(&view);
        ov.disconnect(p, f).unwrap();
        ace.states[p.index()].forget_link(f);
        let v = ace.check_invariants(&ov).unwrap_err();
        assert_eq!(
            (v.kind(), v.peer(), v.partner()),
            (ViolationKind::StaleLink, Some(f), Some(p))
        );
    }

    /// An id neither side was built for reads as empty everywhere, as
    /// `Overlay::degree` and `are_neighbors` answer it — so forwarding
    /// from one finds no targets instead of panicking.
    #[test]
    fn accessors_answer_an_unknown_id_like_the_overlay() {
        let (ov, ace) = audited_engine();
        let mut out = vec![PeerId::new(0)];
        for unknown in [PeerId::new(ov.peer_count() as u32), PeerId::new(u32::MAX)] {
            assert!(ov.neighbors(unknown).is_empty());
            assert!(ov.addr_cache(unknown).is_empty());
            assert!(!ace.tree_built(unknown));
            assert!(ace.tree_neighbors_of(unknown).is_empty());
            assert_eq!(ace.probed_cost(unknown, PeerId::new(0)), None);
            ace.flooding_neighbors_into(unknown, &mut out);
            assert!(out.is_empty());
            for from in [None, Some(PeerId::new(0))] {
                out.push(PeerId::new(0));
                ace.forward_targets_into(&ov, unknown, from, &mut out);
                assert!(out.is_empty());
            }
        }
    }

    #[test]
    fn crash_keeps_stale_refs_and_rejoin_purges_them() {
        let (mut ov, oracle, mut rng) = ba_env(31);
        let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
        ace.round(&mut ov, &oracle, &mut rng);
        let victim = ov
            .alive_peers()
            .find(|&v| {
                ov.alive_peers()
                    .any(|p| p != v && ace.tree_neighbors_of(p).contains(&v))
            })
            .expect("someone is on another peer's tree");
        ov.leave(victim).unwrap();
        ace.on_crash(victim);
        // Survivors still reference the crashed peer — tolerated because
        // it is dead — and the auditor accepts the state as-is.
        assert!(ov
            .alive_peers()
            .any(|p| ace.tree_neighbors_of(p).contains(&victim)));
        ace.check_invariants(&ov).unwrap();
        // The rejoin purges every leftover of the previous incarnation;
        // without it, stale tree entries would point at an alive
        // non-neighbor and the audit would fail.
        let mut join_rng = StdRng::seed_from_u64(5);
        ov.join(victim, 2, &mut join_rng).unwrap();
        ace.on_join(victim);
        ace.check_invariants(&ov).unwrap();
        assert!(!ace.tree_built(victim));
        assert!(ov
            .alive_peers()
            .all(|p| !ace.tree_neighbors_of(p).contains(&victim)));
    }

    #[test]
    fn graceful_leave_purges_both_sides_immediately() {
        let (mut ov, oracle, mut rng) = ba_env(37);
        let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
        ace.round(&mut ov, &oracle, &mut rng);
        let victim = ov.alive_peers().next().unwrap();
        ov.leave(victim).unwrap();
        ace.on_leave(victim);
        assert!(!ace.tree_built(victim));
        let mut fl = Vec::new();
        for p in ov.alive_peers() {
            assert!(!ace.tree_neighbors_of(p).contains(&victim));
            ace.flooding_neighbors_into(p, &mut fl);
            assert!(!fl.contains(&victim));
            assert_eq!(ace.probed_cost(p, victim), None);
        }
        ace.check_invariants(&ov).unwrap();
    }

    #[test]
    fn lifecycle_calls_ignore_an_id_the_engine_was_not_built_for() {
        let (mut ov, oracle, mut rng) = ba_env(41);
        let cfg = AceConfig {
            autorate: Some(AutoRateConfig),
            ..AceConfig::paper_default()
        };
        let mut ace = AceEngine::new(ov.peer_count(), cfg);
        ace.round(&mut ov, &oracle, &mut rng);
        let before = ace.state_digest();
        for unknown in [PeerId::new(ov.peer_count() as u32), PeerId::new(u32::MAX)] {
            assert_eq!(ov.leave(unknown), Err(OverlayError::UnknownPeer(unknown)));
            ace.on_leave(unknown);
            ace.on_crash(unknown);
            ace.on_join(unknown);
        }
        assert_eq!(ace.state_digest(), before);
        assert_eq!(ace.core_cache.stats().purged, 0);
        ace.check_invariants(&ov).unwrap();
    }

    #[test]
    fn leave_visits_the_departed_peers_referrers_not_the_population() {
        use ace_topology::generate::{ba, BaConfig};
        const PEERS: u32 = 20_000;
        let mut rng = StdRng::seed_from_u64(43);
        let nodes = BaConfig {
            nodes: 200,
            ..BaConfig::default()
        };
        let oracle = DistanceOracle::new(ba(&nodes, &mut rng));
        let mut ov = Overlay::new((0..PEERS).map(|i| NodeId::new(i % 200)).collect(), None);
        for i in 0..PEERS {
            // A ring with chords: every peer has degree 6.
            for step in [1, 97, 5_003] {
                ov.connect(PeerId::new(i), PeerId::new((i + step) % PEERS))
                    .unwrap();
            }
        }
        let victim = PeerId::new(7_777);
        let nbrs = ov.neighbors(victim).to_vec();
        assert_eq!(nbrs.len(), 6);
        let mut ace = AceEngine::new(PEERS as usize, AceConfig::paper_default());
        // Only the victim's neighborhood optimizes: what a purge costs
        // must not depend on the 19,993 peers that never heard of it.
        for &q in nbrs.iter().chain([&victim]) {
            ace.phase1_probe(&ov, &oracle, q);
        }
        for &q in nbrs.iter().chain([&victim]) {
            ace.build_tree(&ov, &oracle, q);
        }
        let names_victim = |s: &PeerState| s.mentioned().any(|p| p == victim);
        assert!(nbrs.iter().all(|&q| names_victim(&ace.states[q.index()])));
        ov.leave(victim).unwrap();
        crate::steps::take();
        ace.on_leave(victim);
        let visited = crate::steps::take();
        // A neighbor is recorded once per list it names the victim in
        // (table, tree, forward request); the rest is the cache chain.
        let purged = ace.core_cache.stats().purged;
        assert!(
            visited <= 3 * 6 + purged,
            "visited {visited}, {purged} pairs"
        );
        assert!(!ace.states.iter().any(names_victim));
    }

    /// What `on_leave` / `on_crash` / `on_join` did before the indexes:
    /// every peer's four lists and every cached pair are read, whoever
    /// they belong to. Returns the engine the event should have produced.
    fn sweep_reference(before: &AceEngine, peer: PeerId, event: LifecycleEvent) -> AceEngine {
        let mut want = before.clone();
        if event.purges_survivor_refs() {
            for s in &mut want.states {
                s.own_tree.retain(|&p| p != peer);
                s.requested.retain(|&p| p != peer);
                s.watches.retain(|&(far, near)| far != peer && near != peer);
                s.table.remove(peer);
            }
        }
        want.states[peer.index()] = PeerState::new(peer);
        if let Some(c) = want.controller.as_mut() {
            c.on_lifecycle(peer, event);
        }
        want
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Lockstep against the sweep: random rounds (either schedule,
        /// with and without injected faults and the rate controller) and
        /// lifecycle events on 40–80 peers; after every event all per-peer
        /// state, the digest and the cached pairs equal what the
        /// read-everything reference computes from the pre-event engine.
        #[test]
        fn lifecycle_events_match_the_sweep_over_everyone(seed in 0u64..1_000_000) {
            use ace_overlay::random_overlay;
            use ace_topology::generate::{ba, BaConfig};
            let mut rng = StdRng::seed_from_u64(seed);
            let nodes = BaConfig { nodes: 160, ..BaConfig::default() };
            let oracle = DistanceOracle::new(ba(&nodes, &mut rng));
            let peers = 40 + (seed % 41) as usize;
            let hosts = oracle.graph().nodes().take(peers).collect();
            let mut ov = random_overlay(hosts, 4 + (seed % 3) as usize, None, &mut rng);
            let mut ace = AceEngine::new(peers, AceConfig {
                parallel: seed % 2 == 0,
                workers: 2,
                faults: (seed % 3 == 0).then(|| faulty(seed)),
                autorate: (seed % 5 < 2).then_some(AutoRateConfig),
                core_cache_budget: if seed % 7 == 0 { 4096 } else { 0 },
                ..AceConfig::paper_default()
            });
            for _ in 0..24 {
                let p = PeerId::new(rng.gen_range(0..peers as u32));
                let event = match (rng.gen_range(0..5), ov.is_alive(p)) {
                    (0 | 1, _) => {
                        ace.round(&mut ov, &oracle, &mut rng);
                        continue;
                    }
                    (_, true) if ov.alive_count() <= 3 => continue,
                    (2, true) => LifecycleEvent::Crash,
                    (_, true) => LifecycleEvent::GracefulLeave,
                    (_, false) => LifecycleEvent::Rejoin,
                };
                proptest::prop_assert_eq!(ace.check_invariants(&ov), Ok(()));
                let want = sweep_reference(&ace, p, event);
                let mut pairs = ace.core_cache.live_pairs();
                if event.purges_survivor_refs() {
                    let raw = u64::from(p.raw());
                    pairs.retain(|&(key, _)| key >> 32 != raw && key & 0xFFFF_FFFF != raw);
                }
                let purged = (ace.core_cache.stats().entries - pairs.len()) as u64;
                let stats = CoreCacheStats {
                    entries: pairs.len(),
                    purged: ace.core_cache.stats().purged + purged,
                    ..ace.core_cache.stats()
                };
                match event {
                    LifecycleEvent::Rejoin => {
                        ov.join(p, 3, &mut rng).unwrap();
                        ace.on_join(p);
                    }
                    LifecycleEvent::Crash => {
                        ov.leave(p).unwrap();
                        ace.on_crash(p);
                    }
                    LifecycleEvent::GracefulLeave => {
                        ov.leave(p).unwrap();
                        ace.on_leave(p);
                    }
                }
                proptest::prop_assert!(ace.states == want.states, "{event:?} of {p}");
                proptest::prop_assert_eq!(ace.state_digest(), want.state_digest());
                proptest::prop_assert_eq!(ace.core_cache.live_pairs(), pairs);
                // `bytes` counts stale log records too, and those stay.
                proptest::prop_assert_eq!(ace.core_cache.stats(), stats);
            }
        }
    }
}
