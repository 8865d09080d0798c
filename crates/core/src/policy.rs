//! The shared ACE decision core.
//!
//! The round-based [`AceEngine`](crate::AceEngine) and the message-level
//! [`AsyncAceSim`](crate::protocol::AsyncAceSim) are two *drivers* of one
//! protocol: the engine executes it in idealized lockstep rounds, the
//! simulator under real message delays. Everything that decides — the
//! Figure-4 replace/keep/watch rule with its B–H detour guard, the MST
//! over the closure with the `min_flooding` scope guard, the watch triage
//! of §3.3's keep-both follow-up, the forwarding-target selection with
//! its stale-tree fallback, and the stale-state purge taxonomy for
//! leave/crash/rejoin — lives here, once. The drivers only gather inputs
//! (probe measurements, exchanged tables) and apply outputs (connects,
//! disconnects, forward (un)subscriptions), so a rule fix lands in both
//! execution models by construction and they cannot diverge again.
//!
//! Every function is pure with respect to its arguments: no engine or
//! simulator state is touched, which keeps the core trivially reusable
//! from plan-stage worker threads (PR 1's determinism guarantee) and
//! property tests alike.

use ace_overlay::{IndexCache, Message, Overlay, PeerId};
use ace_topology::Delay;

use crate::autorate::{BACKOFF, CHURN_WEIGHT, HYSTERESIS, R_MAX, R_MIN, STEP, STRESS_THRESHOLD};
use crate::cost_table::CostTable;
use crate::fault::{FaultConfig, MAX_RETRIES, RETRY_BACKOFF};
use crate::mst::{PrimScratch, SlotEdge};
use crate::overhead::{OverheadKind, OverheadLedger};

/// What the paper's Figure-4 rules decided for a probed candidate `H`
/// offered by the non-flooding neighbor `B` (the engine's `far`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure4Action {
    /// Figure 4(b): `CH < CB` — replace the far link `C–B` by `C–H`.
    /// Only reachable while the `B–H` link still exists, so the cut
    /// `C–B` stays covered by the detour `C–H–B`.
    Replace,
    /// Figure 4(c): `CH ≥ CB` but `CH < BH` — keep both links and watch
    /// `(far, near)`: `B` is expected to drop the now-redundant `B–H`
    /// on its own, after which the watcher may cut `C–B`.
    Add,
    /// Figure 4(d): the candidate is worse on both counts — no change.
    Keep,
}

/// The Figure-4 decision rule on the three measured costs.
///
/// * `near_cost` — `CH`, the freshly probed cost to the candidate;
/// * `far_cost` — `CB`, the recorded cost to the far neighbor;
/// * `far_near_cost` — `BH`, the cost between them per `B`'s table;
/// * `far_near_link_alive` — whether the `B–H` logical link currently
///   exists (the replace guard: without it the cut `C–B` could
///   partition the overlay).
pub fn figure4_decide(
    near_cost: Delay,
    far_cost: Delay,
    far_near_cost: Delay,
    far_near_link_alive: bool,
) -> Figure4Action {
    if near_cost < far_cost {
        if far_near_link_alive {
            Figure4Action::Replace
        } else {
            Figure4Action::Keep
        }
    } else if near_cost < far_near_cost {
        Figure4Action::Add
    } else {
        Figure4Action::Keep
    }
}

/// Phase-3 candidate filter: entries of the far neighbor's table that
/// `peer` could adopt — alive, not `peer` itself, and not already a
/// direct neighbor. Preserves the table's iteration order so both
/// drivers pick from identical candidate lists. Writes into a caller
/// buffer (cleared first): the engine runs this once per due peer per
/// round, so the reuse matters at scale.
pub fn phase3_candidates_into(
    ov: &Overlay,
    peer: PeerId,
    far_table: &CostTable,
    out: &mut Vec<(PeerId, Delay)>,
) {
    out.clear();
    out.extend(
        far_table
            .iter()
            .filter(|&(h, _)| h != peer && ov.is_alive(h) && !ov.are_neighbors(peer, h)),
    );
}

/// Phase 2: Prim MST over the closure members, reduced to `peer`'s own
/// tree neighbors, then padded by the scope guard — when the tree gives
/// fewer than `min_flooding` flooding links, the cheapest non-tree
/// neighbors fill the gap (sorted by `(cost, peer id)`, so ties break
/// identically everywhere). `cost_of` supplies a neighbor's link cost;
/// returning `None` (a neighbor whose probe was lost) drops it from the
/// padding candidates.
///
/// Edges come in dense closure slots (indices into `members`) and the
/// source peer must be slot 0 (`members[0] == peer`). Prim state lives
/// in the caller's [`PrimScratch`], `extras` is a scratch buffer for the
/// padding candidates, and the result replaces the contents of `out` —
/// all reusable across calls.
#[allow(clippy::too_many_arguments)]
pub fn tree_with_scope_guard_scratch(
    peer: PeerId,
    members: &[PeerId],
    edges: &[SlotEdge],
    nbrs: &[PeerId],
    min_flooding: usize,
    mut cost_of: impl FnMut(PeerId) -> Option<Delay>,
    prim: &mut PrimScratch,
    extras: &mut Vec<(Delay, PeerId)>,
    out: &mut Vec<PeerId>,
) {
    debug_assert_eq!(members.first(), Some(&peer), "source must be slot 0");
    out.clear();
    prim.root_tree_neighbors(members, edges, 0, out);
    if out.len() < min_flooding {
        extras.clear();
        extras.extend(
            nbrs.iter()
                .filter(|n| !out.contains(n))
                .filter_map(|&n| cost_of(n).map(|c| (c, n))),
        );
        extras.sort_unstable();
        for &(_, n) in extras.iter() {
            if out.len() >= min_flooding {
                break;
            }
            out.push(n);
        }
    }
}

/// Verdict of the §3.3 keep-both follow-up for one watch `(far, near)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchVerdict {
    /// Either watched link is already gone — the watch is moot.
    Expire,
    /// Keep watching: the far link is still needed (on the fresh tree,
    /// no real detour, or no fresh evidence that `far` dropped `near`).
    Keep,
    /// `far` verifiably dropped its link to `near` and a two-hop detour
    /// exists — cut the redundant `peer–far` link.
    Cut,
}

/// Decides one watch. `far_table` is the freshest table received from
/// `far` (`None` while no report has arrived); an *empty* table is
/// treated as no information, not as evidence that `far` dropped
/// `near` — under probe loss a peer can legitimately report nothing.
pub fn triage_watch(
    ov: &Overlay,
    peer: PeerId,
    far: PeerId,
    near: PeerId,
    own_tree: &[PeerId],
    far_table: Option<&CostTable>,
) -> WatchVerdict {
    // Watch expires if either link is already gone.
    if !ov.are_neighbors(peer, far) || !ov.are_neighbors(peer, near) {
        return WatchVerdict::Expire;
    }
    // Only cut links the holder's own fresh tree does not rely on.
    if own_tree.contains(&far) {
        return WatchVerdict::Keep;
    }
    // Connectivity guard: the spanning tree may route around the link
    // via *virtual* pairwise-core edges that are not real logical
    // links, so require an actual two-hop detour (a shared neighbor)
    // before cutting.
    let has_detour = ov
        .neighbors(peer)
        .iter()
        .any(|&n| n != far && ov.are_neighbors(n, far));
    if !has_detour {
        return WatchVerdict::Keep;
    }
    // Keep watching until fresh information about `far` arrives.
    let Some(t) = far_table else {
        return WatchVerdict::Keep;
    };
    if t.is_empty() || t.get(near).is_some() {
        return WatchVerdict::Keep; // no evidence, or B still keeps B–H.
    }
    WatchVerdict::Cut
}

/// Live forward targets for `peer`: its flooding set filtered to current
/// neighbors. When the peer has a tree but *every* tree entry is stale
/// (churn cut them all since the tree was built), it falls back to blind
/// flooding over its current neighbors — an empty target set would
/// silently black-hole every query routed through it. The query's sender
/// is excluded only *after* that fallback decision: a tree leaf whose
/// one live link is the sender is a legitimate endpoint, not a black
/// hole, and must not start flooding.
///
/// `fill_flooding` appends the driver's flooding set (own tree ∪
/// forward requests) for `peer` into the output buffer; the buffer is
/// cleared first, so `out` can be reused across calls.
pub fn select_forward_targets(
    ov: &Overlay,
    peer: PeerId,
    from: Option<PeerId>,
    tree_built: bool,
    fill_flooding: impl FnOnce(&mut Vec<PeerId>),
    out: &mut Vec<PeerId>,
) {
    out.clear();
    if tree_built {
        fill_flooding(out);
        out.retain(|&n| ov.are_neighbors(peer, n));
        if out.is_empty() {
            out.extend_from_slice(ov.neighbors(peer));
        }
    } else {
        out.extend_from_slice(ov.neighbors(peer));
    }
    if let Some(f) = from {
        out.retain(|&n| n != f);
    }
}

/// How a peer left (or re-entered) the population — drives the stale-
/// state purge taxonomy shared by both drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// Graceful leave: the goodbye reaches every partner, so survivors
    /// purge their references immediately.
    GracefulLeave,
    /// Silent crash: no goodbye — survivors keep their (now stale)
    /// references until the next probe sweep prunes them.
    Crash,
    /// (Re)join: any references surviving from a previous incarnation
    /// are purged — an alive peer must never be shadowed by stale state
    /// recorded about its predecessor.
    Rejoin,
}

impl LifecycleEvent {
    /// Whether survivors must drop every reference to the peer now
    /// (`true` for everything except a silent crash, which by
    /// definition nobody observed).
    pub fn purges_survivor_refs(self) -> bool {
        !matches!(self, LifecycleEvent::Crash)
    }

    /// Whether the peer's own protocol state resets to the fresh-node
    /// default (always: a departing node takes its state with it and a
    /// joiner starts as a plain flooding Gnutella node).
    pub fn clears_own_state(self) -> bool {
        true
    }
}

/// Applies the purge taxonomy to a search-plane [`IndexCache`]: the
/// peer's own cache is cleared whenever the event clears own state
/// (always), and survivor caches drop their pointers at the departed
/// peer only when the event was observable ([`LifecycleEvent::Crash`]
/// purges nothing — survivors shed stale pointers lazily through
/// [`IndexCache::lookup_alive`]). Keeping this mapping here, next to the
/// taxonomy, means every driver (round engine, async simulator, scenario
/// matrix) cleans caches identically instead of each hand-rolling the
/// rule.
pub fn purge_index_cache(cache: &mut IndexCache, peer: PeerId, event: LifecycleEvent) {
    if event.clears_own_state() {
        cache.clear_peer(peer);
    }
    if event.purges_survivor_refs() {
        cache.purge_holder(peer);
    }
}

/// Overhead classification of a *control-plane* message, exhaustive over
/// [`Message`]: probes and probe requests are [`OverheadKind::Probe`],
/// table and forward-set traffic is [`OverheadKind::TableExchange`],
/// connection management is [`OverheadKind::Reconnect`]. Search-plane
/// messages (`Ping`/`Pong`/`Query`/`QueryHit`) return `None` — they are
/// query traffic, not optimizer overhead, and a driver that tries to
/// charge one to the control ledger has a bug.
pub fn control_overhead_kind(msg: &Message) -> Option<OverheadKind> {
    match msg {
        Message::Probe { .. } | Message::ProbeReply { .. } | Message::ProbeRequest { .. } => {
            Some(OverheadKind::Probe)
        }
        Message::CostTable { .. } | Message::ForwardRequest | Message::ForwardCancel => {
            Some(OverheadKind::TableExchange)
        }
        Message::Connect | Message::ConnectOk | Message::Disconnect => {
            Some(OverheadKind::Reconnect)
        }
        Message::Ping | Message::Pong { .. } | Message::Query { .. } | Message::QueryHit { .. } => {
            None
        }
    }
}

/// The shared probe-loss/retry rule of [`FaultConfig`]: whether the
/// probe exchange for the pair `(a, b)` in the given round survives the
/// injected loss, charging every lost attempt's wasted request traffic
/// (`true_cost × request_units`, scaled by the backoff of the retry
/// timeout it burned) to [`OverheadKind::ProbeRetry`]. Returns `false`
/// when every attempt up to `MAX_RETRIES` was lost — the pair gets no
/// measurement this round. The caller charges the successful exchange
/// itself. The round-based engine is the only driver with injected
/// faults; the async simulator loses messages on its netem wire.
pub fn probe_exchange_survives_faults(
    faults: Option<&FaultConfig>,
    round: u64,
    a: PeerId,
    b: PeerId,
    true_cost: Delay,
    request_units: f64,
    ledger: &mut OverheadLedger,
) -> bool {
    let Some(f) = faults else {
        return true;
    };
    let mut attempt: u8 = 0;
    while f.probe_lost(round, a, b, attempt) {
        ledger.charge(
            OverheadKind::ProbeRetry,
            f64::from(true_cost) * request_units * RETRY_BACKOFF.powi(i32::from(attempt)),
        );
        if attempt >= MAX_RETRIES {
            return false;
        }
        attempt += 1;
    }
    true
}

/// One peer's smoothed observations, as seen by the optimization-rate
/// controller ([`crate::autorate::RateController`]) when it decides the
/// peer's next interval. All fields are *measured* EWMA values, so the
/// decision rule below sanitizes instead of asserting.
#[derive(Clone, Copy, Debug)]
pub struct RateObservation {
    /// EWMA of lifecycle events observed per period.
    pub ewma_churn: f64,
    /// EWMA of the realized §4.2 optimization rate (gain/penalty).
    pub ewma_gain: f64,
    /// Retry overhead / total overhead this period, in `[0, 1]` — the
    /// ARQ/netem pressure signal.
    pub retry_pressure: f64,
    /// The interval currently in force, in base periods.
    pub current_interval: f64,
}

/// The shared interval decision of the autonomic `R` control loop, used
/// identically by the round engine's due-gating and the async
/// simulator's cycle-timer rescheduling (the same one-rule-one-place
/// argument as every other function in this module).
///
/// In priority order:
///
/// 1. **Stress backoff** — when `retry_pressure` exceeds the threshold
///    the control plane is already struggling; stretch the interval
///    multiplicatively regardless of demand.
/// 2. **Hysteresis dead-band** — demand (`ewma_gain` + weighted churn)
///    within `±HYSTERESIS` of the break-even 1.0 keeps the current
///    interval: a marginal signal must not flap the schedule.
/// 3. **Multiplicative adjustment** — demand above the band divides the
///    interval by `step` (optimization pays, run more often); below it
///    multiplies (coast).
///
/// The result is always clamped to [`R_MIN`, `R_MAX`], and non-finite
/// observations degrade safely: a broken estimate falls back to zero
/// demand and a broken current interval restarts from [`R_MAX`] (the
/// cheap end — a confused controller must not spend control traffic).
pub fn next_opt_interval(obs: &RateObservation) -> f64 {
    let clamp = |v: f64| v.clamp(R_MIN, R_MAX);
    let sane = |v: f64| if v.is_finite() && v >= 0.0 { v } else { 0.0 };
    let current = if obs.current_interval.is_finite() {
        clamp(obs.current_interval)
    } else {
        R_MAX
    };
    if sane(obs.retry_pressure) > STRESS_THRESHOLD {
        return clamp(current * BACKOFF);
    }
    let demand = sane(obs.ewma_gain) + CHURN_WEIGHT * sane(obs.ewma_churn);
    if (demand - 1.0).abs() <= HYSTERESIS {
        return current;
    }
    if demand > 1.0 {
        clamp(current / STEP)
    } else {
        clamp(current * STEP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_topology::NodeId;

    fn overlay(n: u32, links: &[(u32, u32)]) -> Overlay {
        let mut ov = Overlay::new((0..n).map(NodeId::new).collect(), None);
        for &(a, b) in links {
            ov.connect(PeerId::new(a), PeerId::new(b)).unwrap();
        }
        ov
    }

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    #[test]
    fn figure4_rules_match_the_paper() {
        // 4(b): CH < CB, B–H alive → replace.
        assert_eq!(figure4_decide(3, 10, 5, true), Figure4Action::Replace);
        // Replace guard: B–H already gone → keep (cut would partition).
        assert_eq!(figure4_decide(3, 10, 5, false), Figure4Action::Keep);
        // 4(c): CH ≥ CB but CH < BH → add + watch.
        assert_eq!(figure4_decide(7, 5, 9, true), Figure4Action::Add);
        assert_eq!(figure4_decide(7, 5, 9, false), Figure4Action::Add);
        // 4(d): worse on both counts → keep.
        assert_eq!(figure4_decide(9, 5, 9, true), Figure4Action::Keep);
        // Ties are keeps: strict inequalities only.
        assert_eq!(figure4_decide(5, 5, 6, true), Figure4Action::Add);
        assert_eq!(figure4_decide(5, 5, 5, true), Figure4Action::Keep);
    }

    #[test]
    fn candidates_exclude_self_dead_and_neighbors() {
        let mut ov = overlay(5, &[(0, 1), (0, 2)]);
        ov.leave(p(3)).unwrap();
        let mut t = CostTable::new(p(1));
        t.set(p(0), 4); // the asking peer itself
        t.set(p(2), 5); // already a neighbor of 0
        t.set(p(3), 6); // dead
        t.set(p(4), 7); // the one real candidate
        let mut out = vec![(p(9), 1)]; // stale content must be cleared
        phase3_candidates_into(&ov, p(0), &t, &mut out);
        assert_eq!(out, vec![(p(4), 7)]);
    }

    #[test]
    fn scope_guard_pads_with_cheapest_known_extras() {
        // Star closure: MST from 0 keeps only the cheap direct link 0–1;
        // the guard must pad with 3 (cost 2) before 2 (cost 9), and the
        // cost-unknown neighbor 4 is not padding material.
        let members = [p(0), p(1), p(2), p(3)];
        let edge = |a, b| SlotEdge { a, b, cost: 1 };
        let edges = [edge(0, 1), edge(1, 2), edge(1, 3)];
        let nbrs = [p(1), p(2), p(3), p(4)];
        let costs = |n: PeerId| match n.index() {
            2 => Some(9),
            3 => Some(2),
            _ => None,
        };
        let (mut prim, mut extras) = (PrimScratch::default(), Vec::new());
        let mut tree = vec![p(7)]; // stale content must be cleared
        let mut guard = |min_flooding, tree: &mut Vec<PeerId>| {
            tree_with_scope_guard_scratch(
                p(0),
                &members,
                &edges,
                &nbrs,
                min_flooding,
                costs,
                &mut prim,
                &mut extras,
                tree,
            )
        };
        guard(3, &mut tree);
        assert_eq!(tree, vec![p(1), p(3), p(2)]);
        // Guard off (min_flooding 1): plain MST neighbors.
        guard(1, &mut tree);
        assert_eq!(tree, vec![p(1)]);
    }

    #[test]
    fn watch_triage_covers_every_verdict() {
        // 0 watches (far=1, near=2); 3 is the shared-neighbor detour.
        let ov = overlay(4, &[(0, 1), (0, 2), (0, 3), (1, 3)]);
        let mut dropped = CostTable::new(p(1));
        dropped.set(p(3), 4); // non-empty, no entry for near=2
        let mut kept = CostTable::new(p(1));
        kept.set(p(2), 4); // B still keeps B–H

        // Fresh evidence + detour → cut.
        assert_eq!(
            triage_watch(&ov, p(0), p(1), p(2), &[], Some(&dropped)),
            WatchVerdict::Cut
        );
        // far on the holder's own tree → keep.
        assert_eq!(
            triage_watch(&ov, p(0), p(1), p(2), &[p(1)], Some(&dropped)),
            WatchVerdict::Keep
        );
        // No report yet / empty report / B–H still present → keep.
        assert_eq!(
            triage_watch(&ov, p(0), p(1), p(2), &[], None),
            WatchVerdict::Keep
        );
        assert_eq!(
            triage_watch(&ov, p(0), p(1), p(2), &[], Some(&CostTable::new(p(1)))),
            WatchVerdict::Keep
        );
        assert_eq!(
            triage_watch(&ov, p(0), p(1), p(2), &[], Some(&kept)),
            WatchVerdict::Keep
        );
        // Either link gone → expire.
        let mut cut = overlay(4, &[(0, 1), (0, 2), (0, 3), (1, 3)]);
        cut.disconnect(p(0), p(2)).unwrap();
        assert_eq!(
            triage_watch(&cut, p(0), p(1), p(2), &[], Some(&dropped)),
            WatchVerdict::Expire
        );
        // No two-hop detour → keep even with fresh evidence.
        let lonely = overlay(4, &[(0, 1), (0, 2)]);
        assert_eq!(
            triage_watch(&lonely, p(0), p(1), p(2), &[], Some(&dropped)),
            WatchVerdict::Keep
        );
    }

    #[test]
    fn forward_selection_fallback_precedes_sender_exclusion() {
        let ov = overlay(4, &[(0, 2), (0, 3)]);
        let mut out = Vec::new();
        // Tree entry 1 went stale (no longer a neighbor): blind-flood
        // fallback fires, then the sender is excluded from the flood.
        select_forward_targets(&ov, p(0), Some(p(2)), true, |o| o.push(p(1)), &mut out);
        assert_eq!(out, vec![p(3)]);
        // A live tree target suppresses the fallback — excluding the
        // sender then leaves a legitimate leaf, not a black hole.
        select_forward_targets(&ov, p(0), Some(p(2)), true, |o| o.push(p(2)), &mut out);
        assert!(out.is_empty());
        // No tree yet: plain flooding minus the sender.
        select_forward_targets(&ov, p(0), Some(p(3)), false, |_| unreachable!(), &mut out);
        assert_eq!(out, vec![p(2)]);
    }

    #[test]
    fn lifecycle_purge_taxonomy() {
        assert!(LifecycleEvent::GracefulLeave.purges_survivor_refs());
        assert!(!LifecycleEvent::Crash.purges_survivor_refs());
        assert!(LifecycleEvent::Rejoin.purges_survivor_refs());
        for ev in [
            LifecycleEvent::GracefulLeave,
            LifecycleEvent::Crash,
            LifecycleEvent::Rejoin,
        ] {
            assert!(ev.clears_own_state());
        }
    }

    #[test]
    fn purge_index_cache_follows_taxonomy() {
        let build = || {
            let mut c = IndexCache::new(3, 4);
            // Peer 0 caches a pointer at peer 1; peer 1 caches one at 2.
            c.insert(p(0), 7, p(1));
            c.insert(p(1), 8, p(2));
            c
        };
        // Graceful leave of 1: survivors purge pointers at 1 AND 1's own
        // cache empties.
        let mut c = build();
        purge_index_cache(&mut c, p(1), LifecycleEvent::GracefulLeave);
        assert_eq!(c.lookup(p(0), 7), None);
        assert!(c.is_empty(p(1)));
        // Crash of 1: own state gone, but peer 0's stale pointer stays
        // (nobody observed the crash) — the read path drops it lazily.
        let mut c = build();
        purge_index_cache(&mut c, p(1), LifecycleEvent::Crash);
        assert!(c.is_empty(p(1)));
        assert_eq!(c.lookup(p(0), 7), Some(p(1)));
        // Rejoin of 1: both stale directions are wiped.
        let mut c = build();
        purge_index_cache(&mut c, p(1), LifecycleEvent::Rejoin);
        assert_eq!(c.lookup(p(0), 7), None);
        assert!(c.is_empty(p(1)));
    }

    #[test]
    fn interval_decision_clamps_dead_bands_and_backs_off() {
        let obs = |gain: f64, churn: f64, pressure: f64, cur: f64| {
            next_opt_interval(&RateObservation {
                ewma_churn: churn,
                ewma_gain: gain,
                retry_pressure: pressure,
                current_interval: cur,
            })
        };
        // High gain divides the interval by STEP; low gain multiplies.
        assert_eq!(obs(3.0, 0.0, 0.0, 4.0), 4.0 / STEP);
        assert_eq!(obs(0.0, 0.0, 0.0, 4.0), 4.0 * STEP);
        // Dead-band: demand within ±HYSTERESIS of break-even keeps the
        // current interval.
        assert_eq!(obs(1.0 + HYSTERESIS, 0.0, 0.0, 4.0), 4.0);
        assert_eq!(obs(1.0 - HYSTERESIS, 0.0, 0.0, 4.0), 4.0);
        // Churn contributes weighted demand: 0.5 + CHURN_WEIGHT × 2 = 1.5.
        assert_eq!(obs(0.5, 2.0, 0.0, 4.0), 4.0 / STEP);
        // Stress backoff dominates even maximal demand, from the
        // threshold's far side only.
        assert_eq!(obs(10.0, 5.0, STRESS_THRESHOLD + 0.1, 2.0), 2.0 * BACKOFF);
        assert_eq!(obs(10.0, 5.0, STRESS_THRESHOLD, 2.0), 2.0 / STEP);
        // Non-finite observations degrade safely.
        assert_eq!(obs(f64::NAN, f64::NAN, f64::NAN, f64::NAN), R_MAX);
        assert!((R_MIN..=R_MAX).contains(&obs(f64::INFINITY, 0.0, 0.0, 0.0)));
    }

    /// `MAX_RETRIES` at the bound and one past it: an exchange whose
    /// first `MAX_RETRIES` attempts are lost survives on its last retry,
    /// one whose attempt `MAX_RETRIES` is lost too gives up. Every lost
    /// attempt is charged, scaled by `RETRY_BACKOFF` per attempt.
    #[test]
    fn probe_exchange_retries_up_to_max_retries() {
        let f = FaultConfig {
            probe_loss: 0.7,
            seed: 5,
            ..FaultConfig::default()
        };
        let (a, b) = (p(0), p(1));
        for give_up in [false, true] {
            let round = (0..10_000)
                .find(|&r| {
                    (0..MAX_RETRIES).all(|k| f.probe_lost(r, a, b, k))
                        && f.probe_lost(r, a, b, MAX_RETRIES) == give_up
                })
                .expect("a round with this loss pattern");
            let mut ledger = OverheadLedger::new();
            let survives =
                probe_exchange_survives_faults(Some(&f), round, a, b, 10, 1.0, &mut ledger);
            assert_eq!(survives, !give_up, "round {round}");
            let lost = MAX_RETRIES + u8::from(give_up);
            assert_eq!(ledger.count_of(OverheadKind::ProbeRetry), u64::from(lost));
            let cost: f64 = (0..lost)
                .map(|k| 10.0 * RETRY_BACKOFF.powi(i32::from(k)))
                .sum();
            assert_eq!(ledger.cost_of(OverheadKind::ProbeRetry), cost);
        }
    }

    /// The `[R_MIN, R_MAX]` clamp at each bound and one past it: a
    /// decision that lands exactly on a bound keeps it, one that would
    /// step past it stops there, and a current interval outside the
    /// window is pulled back in before the rule runs.
    #[test]
    fn interval_decision_clamps_at_r_min_and_r_max() {
        let obs = |gain: f64, cur: f64| {
            next_opt_interval(&RateObservation {
                ewma_churn: 0.0,
                ewma_gain: gain,
                retry_pressure: 0.0,
                current_interval: cur,
            })
        };
        let (busy, quiet, neutral) = (3.0, 0.0, 1.0);
        assert_eq!(obs(quiet, R_MAX - 1.0), R_MAX);
        assert_eq!(obs(quiet, R_MAX), R_MAX);
        assert_eq!(obs(neutral, R_MAX + 1.0), R_MAX);
        assert_eq!(obs(busy, R_MIN * STEP), R_MIN);
        assert_eq!(obs(busy, R_MIN), R_MIN);
        assert_eq!(obs(neutral, R_MIN - 0.5), R_MIN);
    }

    #[test]
    fn overhead_taxonomy_is_exhaustive_and_rejects_search_plane() {
        use Message::*;
        let control = [
            (Probe { nonce: 1 }, OverheadKind::Probe),
            (ProbeReply { nonce: 1 }, OverheadKind::Probe),
            (ProbeRequest { targets: vec![] }, OverheadKind::Probe),
            (
                CostTable {
                    owner: p(0),
                    entries: vec![],
                },
                OverheadKind::TableExchange,
            ),
            (ForwardRequest, OverheadKind::TableExchange),
            (ForwardCancel, OverheadKind::TableExchange),
            (Connect, OverheadKind::Reconnect),
            (ConnectOk, OverheadKind::Reconnect),
            (Disconnect, OverheadKind::Reconnect),
        ];
        for (msg, want) in control {
            assert_eq!(control_overhead_kind(&msg), Some(want), "{msg:?}");
        }
        let search = [
            Ping,
            Pong { addrs: vec![] },
            Query {
                id: 1,
                ttl: 2,
                object: 3,
            },
            QueryHit {
                id: 1,
                responder: p(0),
            },
        ];
        for msg in search {
            assert_eq!(control_overhead_kind(&msg), None, "{msg:?}");
        }
    }
}
