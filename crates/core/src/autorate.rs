//! Autonomic optimization-rate control (ROADMAP item 5).
//!
//! The paper treats the frequency ratio `R` — how often a peer re-runs
//! the optimization relative to the query load it serves — as one global
//! constant chosen offline. A long-running overlay cannot: churn and
//! query load drift over hours, and a fixed `R` either wastes control
//! traffic in quiet periods or lets the overlay decay under bursts. This
//! module turns `R` into a bounded per-peer control loop:
//!
//! * each peer keeps EWMA estimates of its local query arrivals, the
//!   churn events it observed, and the realized per-round gain (the
//!   §4.2 [`optimization rate`](crate::optimization_rate) evaluated on
//!   *measured* flood-vs-ACE traffic through the non-panicking
//!   [`optimization_rate_checked`]);
//! * from those estimates the shared decision rule
//!   [`policy::next_opt_interval`] schedules the peer's next
//!   optimization round inside a clamped [`R_MIN`, `R_MAX`] window, with a
//!   hysteresis dead-band around break-even (gain ≈ 1) and multiplicative
//!   backoff when retry pressure says the control plane is already
//!   stressed;
//! * all controller soft state is memory-bounded: entries idle past
//!   `IDLE_EVICT` periods are evicted, and a hard
//!   [`BYTE_BUDGET`] is enforced by oldest-first
//!   eviction. Lifecycle events purge entries through the shared
//!   [`LifecycleEvent`] taxonomy, so controller state never outlives the
//!   incarnation it observed.
//!
//! **When the population exceeds the budget.** The 64 KiB budget
//! holds 780 entries. Feed the controller more alive peers than that —
//! the repo benchmark's `steady_churn_5k` feeds 5,000 — and one round's
//! observations (one per alive peer, in id order) evict every entry
//! before its peer is observed again. Each observation then starts from
//! a fresh entry at [`R_MIN`] with the demand-neutral prior, so no
//! interval ever stretches, every peer is due every round (a due ratio
//! of exactly 1) and `evictions = observes − 780`: the controller keeps
//! books and controls nothing. That regime is valid, bounded and pinned
//! by a test below; a deployment that wants the control loop to act
//! needs a [`BYTE_BUDGET`] sized to its population (84 B per peer).
//!
//! Determinism contract: the controller is fed only per-peer observation
//! streams that both drivers compute serially (round stats, ledger
//! deltas, externally supplied query counts), and all updates iterate in
//! peer-id order — so engine digests stay bit-identical across worker
//! counts with the controller enabled, and the invariant auditors can
//! check its state like any other protocol state.

use std::collections::{BTreeMap, BTreeSet};

use ace_engine::digest::Digest;
use ace_overlay::PeerId;

use crate::audit::{InvariantViolation, ViolationKind};
use crate::optrate::optimization_rate_checked;
use crate::policy::{self, LifecycleEvent, RateObservation};

/// Shortest optimization interval, in *base periods* — engine rounds for
/// the sync driver, cycle periods for the async simulator — so an
/// interval of `1.0` reproduces the static every-period schedule.
pub const R_MIN: f64 = 1.0;
/// Longest a peer may coast without re-optimizing, in base periods.
pub const R_MAX: f64 = 8.0;
/// EWMA smoothing factor: weight of the newest sample.
pub(crate) const EWMA_ALPHA: f64 = 0.3;
/// Hysteresis dead-band half-width around the break-even demand of 1.0 —
/// inside it the interval is left alone, preventing flapping.
pub(crate) const HYSTERESIS: f64 = 0.25;
/// Multiplicative interval adjustment per decision: divide when
/// optimization pays, multiply when it does not.
pub(crate) const STEP: f64 = 1.5;
/// Multiplicative interval stretch applied when the control plane is
/// stressed; dominates the demand signal.
pub(crate) const BACKOFF: f64 = 2.0;
/// Retry-pressure fraction (retry overhead / total overhead) above which
/// the backoff fires.
pub(crate) const STRESS_THRESHOLD: f64 = 0.2;
/// Weight of the churn EWMA in the demand signal: a churning
/// neighborhood decays the tree faster than gain alone reveals.
pub(crate) const CHURN_WEIGHT: f64 = 0.5;
/// Hard byte budget for controller soft state, enforced by oldest-first
/// eviction and audited by the invariant checkers.
pub const BYTE_BUDGET: usize = 64 * 1024;
/// Entries untouched for more than this many periods are evicted — a
/// peer the driver stopped observing must not pin memory forever.
pub(crate) const IDLE_EVICT: u64 = 16;

/// Turns the per-peer optimization-rate control loop on
/// (`Some(AutoRateConfig)` in [`crate::AceConfig::autorate`] or
/// [`crate::protocol::ProtoConfig::autorate`]). Its bounds and gains are
/// the constants of this module.
#[derive(Clone, Copy, Debug, Default)]
pub struct AutoRateConfig;

/// One observation window's raw measurements for a peer, fed by the
/// driver at the end of every period. All values are *measured*, so the
/// controller sanitizes them instead of asserting: a non-finite
/// component is dropped (counted in [`ControllerStats::rejected`]) and
/// the previous estimate survives.
#[derive(Clone, Copy, Debug, Default)]
pub struct RateSample {
    /// Query arrivals observed at the peer this period.
    pub queries: f64,
    /// Lifecycle events (crash/leave/rejoin) observed this period.
    pub churn_events: f64,
    /// Measured mean per-query traffic under blind flooding.
    pub flood_traffic: f64,
    /// Measured mean per-query traffic under ACE forwarding.
    pub ace_traffic: f64,
    /// Control overhead attributed to the peer this period.
    pub overhead: f64,
    /// Retry overhead / total overhead this period, in `[0, 1]`.
    pub retry_pressure: f64,
}

/// Per-peer controller soft state. `Copy` and fixed-size on purpose:
/// the byte accounting below is exact multiplication, not a guess.
#[derive(Clone, Copy, Debug)]
struct RateEntry {
    incarnation: u32,
    ewma_queries: f64,
    ewma_churn: f64,
    ewma_gain: f64,
    interval: f64,
    next_due: u64,
    last_touch: u64,
}

impl RateEntry {
    /// A fresh entry at the static schedule: due now, interval [`R_MIN`],
    /// with a demand-neutral gain prior (inside the hysteresis dead
    /// band) so a peer with no evidence yet holds the floor instead of
    /// coasting away before its overlay has even converged.
    fn fresh(incarnation: u32, period: u64) -> RateEntry {
        RateEntry {
            incarnation,
            ewma_queries: 0.0,
            ewma_churn: 0.0,
            ewma_gain: 1.0,
            interval: R_MIN,
            next_due: period,
            last_touch: period,
        }
    }
}

/// Accounted bytes per controller entry: key + entry + map-node
/// overhead. The budget is enforced against this explicit model so the
/// auditors can check it exactly, independent of allocator behavior.
const ENTRY_BYTES: usize = std::mem::size_of::<u32>() + std::mem::size_of::<RateEntry>() + 24;

/// Controller bookkeeping counters, reported by the soak harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Live soft-state entries.
    pub entries: usize,
    /// Current soft-state bytes under the explicit accounting model.
    pub soft_state_bytes: usize,
    /// Highest soft-state byte count ever observed (post-enforcement,
    /// so always ≤ the budget).
    pub high_water_bytes: usize,
    /// Entries evicted for idleness or budget pressure.
    pub evictions: u64,
    /// Entries purged by lifecycle events.
    pub purges: u64,
    /// Non-finite sample components dropped at the door.
    pub rejected: u64,
}

/// The per-peer optimization-rate controller shared by both drivers.
///
/// Entries live in a `BTreeMap` keyed by raw peer id so every iteration
/// (updates, digest) is in deterministic peer-id order.
#[derive(Clone, Debug, Default)]
pub struct RateController {
    entries: BTreeMap<u32, RateEntry>,
    /// `(last_touch, id)` of every entry, so the eviction victim —
    /// oldest touch, ties to the lowest id — is the first element
    /// instead of a scan of `entries`. Kept by [`Self::touch`] and the
    /// three removal sites.
    by_touch: BTreeSet<(u64, u32)>,
    high_water: usize,
    evictions: u64,
    purges: u64,
    rejected: u64,
}

impl RateController {
    /// Whether `peer` should run its optimization in `period`. Unknown
    /// peers are due immediately — a fresh node starts at [`R_MIN`], the
    /// static schedule, and earns a longer interval by observation.
    pub fn is_due(&self, peer: PeerId, period: u64) -> bool {
        self.entries
            .get(&peer.raw())
            .is_none_or(|e| period >= e.next_due)
    }

    /// The peer's current interval in base periods, if it has state.
    pub fn interval_of(&self, peer: PeerId) -> Option<f64> {
        self.entries.get(&peer.raw()).map(|e| e.interval)
    }

    /// Folds one period's sample into `peer`'s estimates and — when the
    /// peer actually ran its optimization this period (`ran`) — decides
    /// its next interval through [`policy::next_opt_interval`] and
    /// schedules the next due period. Returns the current interval.
    ///
    /// The gain estimate routes through [`optimization_rate_checked`]
    /// with the EWMA query arrivals × interval as the frequency ratio
    /// `R` (queries served per exchange period); a sample the checked
    /// formula rejects leaves the previous estimate standing.
    pub fn observe(
        &mut self,
        peer: PeerId,
        incarnation: u32,
        period: u64,
        sample: &RateSample,
        ran: bool,
    ) -> f64 {
        let entry = self.touch(peer, incarnation, period);
        let alpha = EWMA_ALPHA;
        let mut rejected = 0u64;
        let mut fold = |est: &mut f64, x: f64| {
            if x.is_finite() && x >= 0.0 {
                *est = alpha * x + (1.0 - alpha) * *est;
            } else {
                rejected += 1;
            }
        };
        fold(&mut entry.ewma_queries, sample.queries);
        fold(&mut entry.ewma_churn, sample.churn_events);
        // No traffic measurement at all (both sides zero) is absence of
        // evidence, not evidence of zero gain: the estimate stands. A
        // *present* but invalid measurement is rejected below.
        if sample.flood_traffic != 0.0 || sample.ace_traffic != 0.0 {
            let frequency_ratio = entry.ewma_queries * entry.interval;
            match optimization_rate_checked(
                sample.flood_traffic,
                sample.ace_traffic,
                sample.overhead,
                frequency_ratio,
            ) {
                Ok(gain) if gain.is_finite() => {
                    entry.ewma_gain = alpha * gain + (1.0 - alpha) * entry.ewma_gain;
                }
                // Zero-overhead windows report infinite gain; treat them
                // as maximal demand without poisoning the EWMA.
                Ok(_) => entry.ewma_gain = entry.ewma_gain.max(1.0 + HYSTERESIS + 1e-9),
                Err(_) => rejected += 1,
            }
        }
        if ran {
            let obs = RateObservation {
                ewma_churn: entry.ewma_churn,
                ewma_gain: entry.ewma_gain,
                retry_pressure: sample.retry_pressure,
                current_interval: entry.interval,
            };
            entry.interval = policy::next_opt_interval(&obs);
            let wait = entry.interval.round().max(1.0) as u64;
            entry.next_due = period + wait;
        }
        let interval = entry.interval;
        self.rejected += rejected;
        self.enforce_budget(Some(peer));
        interval
    }

    /// Snaps `peer`'s schedule back to the floor: interval [`R_MIN`], due
    /// immediately. Drivers call this on the *neighbors* of a peer that
    /// just churned — a disturbed neighborhood needs repair now, which
    /// the static schedule gets for free by always running. Estimates
    /// survive (the demand signal is still honest); only the schedule
    /// snaps. A peer with no entry (or a stale incarnation) gets a fresh
    /// one, which is already at the floor and due.
    pub fn snap_to_floor(&mut self, peer: PeerId, incarnation: u32, period: u64) {
        let entry = self.touch(peer, incarnation, period);
        entry.interval = R_MIN;
        entry.next_due = period;
        self.enforce_budget(Some(peer));
    }

    /// `peer`'s entry, touched at `period`: created fresh when missing,
    /// reset when it belongs to another incarnation (a new incarnation
    /// must not inherit its predecessor's estimates or schedule), and
    /// moved to its new place in the eviction order.
    fn touch(&mut self, peer: PeerId, incarnation: u32, period: u64) -> &mut RateEntry {
        let id = peer.raw();
        let fresh = RateEntry::fresh(incarnation, period);
        let entry = self.entries.entry(id).or_insert_with(|| {
            self.by_touch.insert((period, id));
            fresh
        });
        let touched = entry.last_touch;
        if entry.incarnation != incarnation {
            *entry = fresh;
        }
        if touched != period {
            self.by_touch.remove(&(touched, id));
            self.by_touch.insert((period, id));
            entry.last_touch = period;
        }
        entry
    }

    /// End-of-period maintenance: evict idle entries, enforce the byte
    /// budget, and advance the high-water mark.
    pub fn end_period(&mut self, period: u64) {
        while let Some(&(touch, id)) = self.by_touch.first() {
            if period.saturating_sub(touch) <= IDLE_EVICT {
                break;
            }
            self.by_touch.pop_first();
            self.entries.remove(&id);
            self.evictions += 1;
        }
        self.enforce_budget(None);
    }

    /// Evicts oldest-touched entries (ties: lowest peer id) until the
    /// byte budget holds, never evicting `keep` (the entry just
    /// touched). Updates the high-water mark afterwards, so the mark is
    /// always a value that actually fit under the budget.
    fn enforce_budget(&mut self, keep: Option<PeerId>) {
        let keep = keep.map(PeerId::raw);
        while self.soft_state_bytes() > BYTE_BUDGET && self.entries.len() > 1 {
            // At most one element (`keep`) stands before the victim.
            let victim = self.by_touch.iter().copied().find(|&(_, id)| {
                #[cfg(test)]
                crate::steps::bump();
                Some(id) != keep
            });
            let Some(victim) = victim else { break };
            self.by_touch.remove(&victim);
            self.entries.remove(&victim.1);
            self.evictions += 1;
        }
        self.high_water = self.high_water.max(self.soft_state_bytes());
    }

    /// Applies the shared purge taxonomy: every lifecycle event clears
    /// the peer's own controller entry ([`LifecycleEvent::
    /// clears_own_state`] is unconditionally true — a rejoining
    /// incarnation starts from the static schedule, and a departed
    /// peer's schedule dies with it).
    pub fn on_lifecycle(&mut self, peer: PeerId, event: LifecycleEvent) {
        if !event.clears_own_state() {
            return;
        }
        if let Some(e) = self.entries.remove(&peer.raw()) {
            self.by_touch.remove(&(e.last_touch, peer.raw()));
            self.purges += 1;
        }
    }

    /// Soft-state bytes under the explicit accounting model.
    pub fn soft_state_bytes(&self) -> usize {
        self.entries.len() * ENTRY_BYTES
    }

    /// Bookkeeping counters for reports and gates.
    pub fn stats(&self) -> ControllerStats {
        ControllerStats {
            entries: self.entries.len(),
            soft_state_bytes: self.soft_state_bytes(),
            high_water_bytes: self.high_water,
            evictions: self.evictions,
            purges: self.purges,
            rejected: self.rejected,
        }
    }

    /// Audits controller state: no entry may reference a dead peer or a
    /// stale incarnation (the purge taxonomy should have cleared it),
    /// the eviction order must index exactly the entries, and the
    /// soft-state bytes must fit the budget. Drivers fold this
    /// into their `check_invariants`.
    pub fn audit(
        &self,
        mut is_alive: impl FnMut(PeerId) -> bool,
        mut incarnation_of: impl FnMut(PeerId) -> u32,
    ) -> Result<(), InvariantViolation> {
        for (&id, e) in &self.entries {
            let peer = PeerId::new(id);
            if !is_alive(peer) {
                return Err(InvariantViolation::new(
                    ViolationKind::OfflineReference,
                    Some(peer),
                    None,
                    format!("controller entry for offline peer {peer}"),
                ));
            }
            if e.incarnation != incarnation_of(peer) {
                return Err(InvariantViolation::new(
                    ViolationKind::OfflineReference,
                    Some(peer),
                    None,
                    format!(
                        "controller entry for peer {peer} references dead incarnation {}",
                        e.incarnation
                    ),
                ));
            }
        }
        let indexed = |(&id, e): (&u32, &RateEntry)| self.by_touch.contains(&(e.last_touch, id));
        if self.by_touch.len() != self.entries.len() || !self.entries.iter().all(indexed) {
            return Err(InvariantViolation::new(
                ViolationKind::IndexGap,
                None,
                None,
                "controller eviction order disagrees with its entries".into(),
            ));
        }
        if self.soft_state_bytes() > BYTE_BUDGET {
            return Err(InvariantViolation::new(
                ViolationKind::LedgerAccounting,
                None,
                None,
                format!(
                    "controller soft state {} bytes exceeds budget {}",
                    self.soft_state_bytes(),
                    BYTE_BUDGET
                ),
            ));
        }
        Ok(())
    }

    /// Deterministic digest over every entry and counter, mixed into the
    /// drivers' state digests when the controller is enabled.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new(0x5AA5_0FF0_C0DE_CAFE);
        for (&id, e) in &self.entries {
            d.word(u64::from(id))
                .word(u64::from(e.incarnation))
                .word(e.ewma_queries.to_bits())
                .word(e.ewma_churn.to_bits())
                .word(e.ewma_gain.to_bits())
                .word(e.interval.to_bits())
                .word(e.next_due)
                .word(e.last_touch);
        }
        d.word(self.evictions)
            .word(self.purges)
            .word(self.rejected)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn busy_sample() -> RateSample {
        RateSample {
            queries: 10.0,
            churn_events: 0.0,
            flood_traffic: 100.0,
            ace_traffic: 40.0,
            overhead: 50.0,
            retry_pressure: 0.0,
        }
    }

    fn quiet_sample() -> RateSample {
        RateSample {
            queries: 0.0,
            churn_events: 0.0,
            flood_traffic: 100.0,
            ace_traffic: 40.0,
            overhead: 50.0,
            retry_pressure: 0.0,
        }
    }

    #[test]
    fn quiet_peer_stretches_to_r_max_and_busy_peer_returns_to_r_min() {
        let mut c = RateController::default();
        for period in 0..40 {
            c.observe(p(0), 0, period, &quiet_sample(), true);
        }
        assert_eq!(c.interval_of(p(0)), Some(R_MAX), "quiet peer coasts");
        for period in 40..80 {
            c.observe(p(0), 0, period, &busy_sample(), true);
        }
        assert_eq!(
            c.interval_of(p(0)),
            Some(R_MIN),
            "load pulls the schedule back"
        );
    }

    #[test]
    fn interval_never_escapes_the_window() {
        let mut c = RateController::default();
        for period in 0..100 {
            let s = if period % 3 == 0 {
                busy_sample()
            } else {
                quiet_sample()
            };
            let iv = c.observe(p(1), 0, period, &s, true);
            assert!((R_MIN..=R_MAX).contains(&iv), "interval {iv}");
        }
    }

    #[test]
    fn stress_backs_off_multiplicatively() {
        let mut c = RateController::default();
        // Load would keep the interval at R_MIN…
        for period in 0..10 {
            c.observe(p(0), 0, period, &busy_sample(), true);
        }
        assert_eq!(c.interval_of(p(0)), Some(R_MIN));
        // …but retry pressure above the threshold stretches it anyway.
        let stressed = RateSample {
            retry_pressure: 0.5,
            ..busy_sample()
        };
        c.observe(p(0), 0, 10, &stressed, true);
        assert_eq!(c.interval_of(p(0)), Some(R_MIN * BACKOFF));
    }

    #[test]
    fn non_finite_samples_are_rejected_not_propagated() {
        let mut c = RateController::default();
        c.observe(p(0), 0, 0, &busy_sample(), true);
        let bad = RateSample {
            queries: f64::NAN,
            flood_traffic: f64::INFINITY,
            ..busy_sample()
        };
        let iv = c.observe(p(0), 0, 1, &bad, true);
        assert!(iv.is_finite());
        assert!(c.stats().rejected >= 2, "{:?}", c.stats());
        let iv2 = c.observe(p(0), 0, 2, &busy_sample(), true);
        assert!(iv2.is_finite());
    }

    #[test]
    fn due_schedule_follows_the_interval() {
        let mut c = RateController::default();
        assert!(c.is_due(p(0), 0), "unknown peers are due immediately");
        for period in 0..40 {
            c.observe(p(0), 0, period, &quiet_sample(), true);
        }
        // Interval is R_MAX = 8: not due again until 8 periods pass.
        assert!(!c.is_due(p(0), 40));
        assert!(!c.is_due(p(0), 46));
        assert!(c.is_due(p(0), 47));
    }

    #[test]
    fn skipped_periods_keep_the_schedule() {
        let mut c = RateController::default();
        for period in 0..40 {
            c.observe(p(0), 0, period, &quiet_sample(), true);
        }
        // EWMA-only updates (ran = false) must not push the due period.
        for period in 40..45 {
            c.observe(p(0), 0, period, &quiet_sample(), false);
        }
        assert!(c.is_due(p(0), 47));
    }

    /// [`IDLE_EVICT`] at the bound and one past it: an entry last
    /// touched `IDLE_EVICT` periods ago survives the period's end, one
    /// period later it is evicted.
    #[test]
    fn idle_entries_are_evicted() {
        let mut c = RateController::default();
        c.observe(p(0), 0, 0, &quiet_sample(), true);
        for period in 0..=IDLE_EVICT + 1 {
            c.observe(p(1), 0, period, &quiet_sample(), true);
            c.end_period(period);
            let kept = c.interval_of(p(0)).is_some();
            assert_eq!(kept, period <= IDLE_EVICT, "period {period}");
        }
        assert!(c.interval_of(p(1)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    /// [`BYTE_BUDGET`] at the bound and one past it: the budget holds
    /// exactly `BYTE_BUDGET / ENTRY_BYTES` entries without an eviction,
    /// and one more insert evicts the oldest-touched entry.
    #[test]
    fn byte_budget_is_enforced_oldest_first() {
        let capacity = BYTE_BUDGET / ENTRY_BYTES;
        let mut c = RateController::default();
        for i in 0..capacity as u32 {
            c.observe(p(i), 0, u64::from(i), &quiet_sample(), true);
        }
        assert_eq!(c.stats().entries, capacity);
        assert_eq!(c.stats().evictions, 0);
        let last = capacity as u32;
        c.observe(p(last), 0, u64::from(last), &quiet_sample(), true);
        let stats = c.stats();
        assert_eq!((stats.entries, stats.evictions), (capacity, 1));
        assert!(stats.high_water_bytes <= BYTE_BUDGET);
        assert_eq!(c.interval_of(p(0)), None, "the oldest entry went first");
        for i in 1..=last {
            assert!(c.interval_of(p(i)).is_some(), "peer {i} should survive");
        }
    }

    /// One engine round's feed (`AceEngine::feed_controller`) for peers
    /// `0..peers`: who is due is decided up front, then every peer is
    /// observed in id order as having run, then the period ends. The
    /// sample carries no traffic measurement, like a harness that never
    /// calls `note_traffic`. Returns how many peers were due.
    fn feed_round(c: &mut RateController, peers: u32, period: u64) -> usize {
        let due = (0..peers).filter(|&i| c.is_due(p(i), period)).count();
        let sample = RateSample {
            overhead: 5000.0,
            ..RateSample::default()
        };
        for i in 0..peers {
            c.observe(p(i), 0, period, &sample, true);
        }
        c.end_period(period);
        due
    }

    #[test]
    fn budget_eviction_reads_the_front_of_the_index_not_the_map() {
        let mut c = RateController::default();
        crate::steps::take();
        feed_round(&mut c, 5_000, 0);
        let evictions = c.stats().evictions;
        assert_eq!(evictions, 5_000 - 780);
        // One element per eviction, two when the entry to keep is oldest.
        assert!(crate::steps::take() <= 2 * evictions);
        c.audit(|_| true, |_| 0).unwrap();
    }

    /// The regime `steady_churn_5k` runs in (module docs): 5,000 alive
    /// peers against the default budget's 780 entries. Every entry is
    /// evicted before its peer is observed again, so every observation
    /// starts from a fresh entry, nobody's interval ever leaves `R_MIN`
    /// and every peer is due every round. The root package's
    /// `tests/golden.rs` pins the state this leaves (same victims, same
    /// order) as its `controller_eviction` cell.
    #[test]
    fn population_over_budget_is_due_every_round_and_never_stretches() {
        let capacity = BYTE_BUDGET / ENTRY_BYTES;
        assert_eq!(capacity, 780);
        let mut c = RateController::default();
        for period in 0..4u64 {
            assert_eq!(feed_round(&mut c, 5_000, period), 5_000, "period {period}");
            let stats = c.stats();
            assert_eq!(stats.entries, capacity);
            assert_eq!(stats.evictions, 5_000 * (period + 1) - capacity as u64);
            assert_eq!(stats.soft_state_bytes, 65_520);
            for i in 0..5_000 {
                let held = c.interval_of(p(i));
                assert_eq!(held, (i >= 5_000 - 780).then_some(R_MIN), "peer {i}");
            }
        }
    }

    #[test]
    fn lifecycle_purges_and_incarnation_resets() {
        let mut c = RateController::default();
        for period in 0..40 {
            c.observe(p(0), 0, period, &quiet_sample(), true);
        }
        let stretched = c.interval_of(p(0)).unwrap();
        assert!(stretched > 1.0);
        for ev in [
            LifecycleEvent::GracefulLeave,
            LifecycleEvent::Crash,
            LifecycleEvent::Rejoin,
        ] {
            let mut c2 = c.clone();
            c2.on_lifecycle(p(0), ev);
            assert_eq!(c2.interval_of(p(0)), None, "{ev:?} purges the entry");
            assert_eq!(c2.stats().purges, 1);
        }
        // A new incarnation observed without an explicit purge still
        // starts fresh: estimates never cross incarnations, so one quiet
        // decision from the R_MIN baseline lands at R_MIN × STEP, not
        // anywhere near the predecessor's stretched schedule.
        c.observe(p(0), 1, 40, &quiet_sample(), true);
        assert_eq!(c.interval_of(p(0)), Some(R_MIN * STEP));
    }

    #[test]
    fn snap_to_floor_makes_a_stretched_peer_due_now() {
        let mut c = RateController::default();
        for period in 0..40 {
            c.observe(p(0), 0, period, &quiet_sample(), true);
        }
        assert_eq!(c.interval_of(p(0)), Some(R_MAX));
        assert!(!c.is_due(p(0), 41));
        c.snap_to_floor(p(0), 0, 41);
        assert_eq!(c.interval_of(p(0)), Some(R_MIN), "schedule snapped");
        assert!(c.is_due(p(0), 41), "due immediately after a snap");
        // Estimates survived: the very next quiet decision coasts again
        // (demand is still far below break-even), unlike a fresh entry
        // whose neutral prior would hold the floor.
        c.observe(p(0), 0, 41, &quiet_sample(), true);
        assert!(c.interval_of(p(0)).unwrap() > R_MIN);
        // A snap for an unknown peer just creates a fresh floor entry;
        // a stale incarnation is reset rather than inherited.
        c.snap_to_floor(p(7), 2, 41);
        assert_eq!(c.interval_of(p(7)), Some(R_MIN));
        c.snap_to_floor(p(0), 1, 42);
        assert!(c.is_due(p(0), 42));
        assert_eq!(c.interval_of(p(0)), Some(R_MIN));
    }

    #[test]
    fn audit_catches_dead_refs_and_budget_breach() {
        let mut c = RateController::default();
        c.observe(p(3), 7, 0, &quiet_sample(), true);
        c.audit(|_| true, |_| 7).unwrap();
        let dead = c.audit(|_| false, |_| 7).unwrap_err();
        assert_eq!(dead.kind(), ViolationKind::OfflineReference);
        let stale = c.audit(|_| true, |_| 8).unwrap_err();
        assert_eq!(stale.kind(), ViolationKind::OfflineReference);
    }

    #[test]
    fn digest_tracks_state_and_is_deterministic() {
        let mut a = RateController::default();
        let mut b = RateController::default();
        assert_eq!(a.digest(), b.digest());
        a.observe(p(0), 0, 0, &busy_sample(), true);
        assert_ne!(a.digest(), b.digest());
        b.observe(p(0), 0, 0, &busy_sample(), true);
        assert_eq!(a.digest(), b.digest());
    }
}
