//! Typed audit and validation errors.
//!
//! The invariant auditors ([`AceEngine::check_invariants`],
//! [`AsyncAceSim::check_invariants`]), the config validators
//! ([`AsyncConfig::validate`], [`NetemConfig::validate`]) and the differential equivalence judge
//! ([`DifferentialOutcome::check_equivalence`]) used to return bare
//! `String`s, which forced the chaos harness to
//! pattern-match error *messages* to decide which violations a lossy or
//! partitioned wire legitimately defers. Each error is now a typed value
//! carrying its classification plus the involved peers; `Display` still
//! renders the exact human-readable message the string era produced, so
//! log output and `format!("{e}")` call sites are unchanged.
//!
//!
//! The clauses both auditors share — forwarding liveness, list hygiene,
//! tree ⊆ neighbors, request mirroring, cost symmetry (`check_peer`)
//! and ledger consistency (`check_ledger`) — are written here once.
//! Each driver answers them through an `AuditView` that supplies its
//! own tolerance: the engine excuses nothing, the async simulator
//! excuses exactly the disagreements a message still in flight (or a
//! copy the wire destroyed, or a recent partition) explains.
//!
//! [`AceEngine::check_invariants`]: crate::AceEngine::check_invariants
//! [`AsyncAceSim::check_invariants`]: crate::protocol::AsyncAceSim::check_invariants
//! [`AsyncConfig::validate`]: crate::protocol::AsyncConfig::validate
//! [`NetemConfig::validate`]: crate::netem::NetemConfig::validate
//! [`DifferentialOutcome::check_equivalence`]: crate::experiments::differential::DifferentialOutcome::check_equivalence

use std::fmt;

use ace_overlay::{Overlay, PeerId};

use crate::overhead::{OverheadKind, OverheadLedger};
use crate::peer_state::PeerState;
use crate::policy;

/// Classification of an invariant violation, shared by the sync engine's
/// and the async simulator's auditors. The chaos harness matches on this
/// to decide which violations a degraded wire may *defer* (see
/// [`InvariantViolation::is_wire_deferrable`]) and which are
/// unconditional bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// An alive, connected peer has an empty forward-target set: every
    /// query routed through it would silently die.
    ForwardBlackHole,
    /// A per-peer list (tree, forward requests) contains the owner or a
    /// duplicate — corruption no wire condition can excuse.
    ListCorrupt,
    /// Surviving state references an offline peer after a purge should
    /// have removed it.
    OfflineReference,
    /// A tree or forward-request slot names a peer that is no longer a
    /// neighbor (and no covering cut notification is pending).
    StaleLink,
    /// The two endpoints of a tree edge disagree: one side's tree slot
    /// has no matching forward request on the other (or vice versa).
    Unmirrored,
    /// Two alive peers hold different measurements for the same link.
    AsymmetricCost,
    /// An on-behalf probe ledger disagrees with its outstanding probes,
    /// or a completed report was never flushed.
    ServingLedger,
    /// Cycle bookkeeping is inconsistent (e.g. awaited reports outside
    /// an open cycle).
    CycleBookkeeping,
    /// The overhead ledger holds an invalid or unbacked charge.
    LedgerAccounting,
    /// A maintenance index (the engine's reverse-reference lists, the
    /// core cache's endpoint chains) misses a live reference or pair, so
    /// a lifecycle purge walking it would leave stale state behind.
    IndexGap,
}

/// One invariant violation: its classification, the peers involved, and
/// the human-readable message (`Display` renders exactly what the
/// string-returning auditors used to produce).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    kind: ViolationKind,
    peer: Option<PeerId>,
    partner: Option<PeerId>,
    message: String,
}

impl InvariantViolation {
    pub(crate) fn new(
        kind: ViolationKind,
        peer: Option<PeerId>,
        partner: Option<PeerId>,
        message: String,
    ) -> Self {
        InvariantViolation {
            kind,
            peer,
            partner,
            message,
        }
    }

    /// The violation's classification.
    pub fn kind(&self) -> ViolationKind {
        self.kind
    }

    /// The peer whose state is inconsistent, when attributable.
    pub fn peer(&self) -> Option<PeerId> {
        self.peer
    }

    /// The other endpoint of a pairwise disagreement, when there is one.
    pub fn partner(&self) -> Option<PeerId> {
        self.partner
    }

    /// Whether this violation concerns *cross-peer agreement that a
    /// degraded wire legitimately delays*: a lost or partitioned
    /// notification leaves the endpoints disagreeing until retransmits
    /// or the next cycle's refresh reconcile them. Local-state
    /// corruption, offline references and ledger errors are never
    /// deferrable — no wire condition excuses them.
    pub fn is_wire_deferrable(&self) -> bool {
        matches!(
            self.kind,
            ViolationKind::StaleLink | ViolationKind::Unmirrored
        )
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for InvariantViolation {}

/// A cross-peer disagreement a shared clause found between `p` and a
/// partner `q`; the driver's [`AuditView::excuses`] decides whether its
/// wire model explains it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gap {
    /// `p` names `q` in its tree or forward requests, yet they are not
    /// neighbors.
    Stale,
    /// `q` is on `p`'s tree, yet `q` holds no forward request from `p`.
    TreeUnmirrored,
    /// `p` holds a forward request from `q`, yet `p` is not on `q`'s
    /// tree.
    RequestUnmirrored,
}

/// What a driver shows the shared clauses: the overlay (liveness and
/// adjacency), every peer's [`PeerState`], and its tolerance.
pub(crate) trait AuditView {
    fn overlay(&self) -> &Overlay;
    fn state(&self, p: PeerId) -> &PeerState;
    /// Whether the driver's execution model explains `gap` between `p`
    /// and `q` (a notification still on its way), so it is no violation.
    fn excuses(&self, gap: Gap, p: PeerId, q: PeerId) -> bool;
}

/// The clauses both drivers hold one alive peer `p` (with state `s`) to:
///
/// 1. **Forwarding liveness** — with ≥ 1 neighbor, `p` has ≥ 1 forward
///    target (no query black holes).
/// 2. **List hygiene** — neither the tree nor the request list names
///    `p` itself or a peer twice.
/// 3. **Tree ⊆ neighbors** — an alive tree or request partner is a
///    current neighbor.
/// 4. **Request mirroring** — `f ∈ own_tree(p)` ⟺ `p ∈ requested(f)`,
///    so both ends of a tree edge agree to relay.
/// 5. **Cost symmetry** — when `p` and an alive `n` hold entries for
///    each other, they are the same measurement (probes share one
///    symmetric exchange).
///
/// Offline partners are skipped: a crash sends no goodbye, so the
/// engine keeps such references until phase 1 prunes them (the async
/// simulator rejects them in its own, earlier clause). Clauses 3 and 4
/// hold unless the view [excuses](AuditView::excuses) the pair.
pub(crate) fn check_peer(
    p: PeerId,
    s: &PeerState,
    view: &impl AuditView,
) -> Result<(), InvariantViolation> {
    let viol = |kind, partner, message: String| {
        Err(InvariantViolation::new(kind, Some(p), partner, message))
    };
    let ov = view.overlay();
    if !ov.neighbors(p).is_empty() {
        let mut targets = Vec::new();
        let fill = |buf: &mut Vec<PeerId>| s.flooding_into(buf);
        policy::select_forward_targets(ov, p, None, s.tree_built, fill, &mut targets);
        if targets.is_empty() {
            return viol(
                ViolationKind::ForwardBlackHole,
                None,
                format!("peer {p} has neighbors but no forward targets"),
            );
        }
    }
    for (name, list) in [("tree", &s.own_tree), ("request", &s.requested)] {
        for (i, &e) in list.iter().enumerate() {
            if e == p {
                return viol(
                    ViolationKind::ListCorrupt,
                    None,
                    format!("peer {p} {name} list contains itself"),
                );
            }
            if list[..i].contains(&e) {
                return viol(
                    ViolationKind::ListCorrupt,
                    Some(e),
                    format!("peer {p} {name} list has duplicate {e}"),
                );
            }
        }
    }
    for &f in &s.own_tree {
        if !ov.is_alive(f) {
            continue;
        }
        if !ov.are_neighbors(p, f) {
            if view.excuses(Gap::Stale, p, f) {
                continue;
            }
            return viol(
                ViolationKind::StaleLink,
                Some(f),
                format!("peer {p} tree entry {f}: alive but not a neighbor"),
            );
        }
        if !view.state(f).requested.contains(&p) && !view.excuses(Gap::TreeUnmirrored, p, f) {
            return viol(
                ViolationKind::Unmirrored,
                Some(f),
                format!("tree edge {p}->{f} not mirrored in {f}'s forward requests"),
            );
        }
    }
    for &r in &s.requested {
        if !ov.is_alive(r) {
            continue;
        }
        if !ov.are_neighbors(p, r) {
            if view.excuses(Gap::Stale, p, r) {
                continue;
            }
            return viol(
                ViolationKind::StaleLink,
                Some(r),
                format!("peer {p} forward request from {r}: alive but not a neighbor"),
            );
        }
        if !view.state(r).own_tree.contains(&p) && !view.excuses(Gap::RequestUnmirrored, p, r) {
            return viol(
                ViolationKind::Unmirrored,
                Some(r),
                format!("forward request {r}->{p} has no matching tree entry at {r}"),
            );
        }
    }
    for (n, c) in s.table.iter() {
        if !ov.is_alive(n) {
            continue;
        }
        if let Some(c2) = view.state(n).table.get(p) {
            if c != c2 {
                return viol(
                    ViolationKind::AsymmetricCost,
                    Some(n),
                    format!("asymmetric cost {p}<->{n}: {c} vs {c2}"),
                );
            }
        }
    }
    Ok(())
}

/// **Ledger consistency** — every cost finite and non-negative, and any
/// charged cost backed by a nonzero message count.
pub(crate) fn check_ledger(ledger: &OverheadLedger) -> Result<(), InvariantViolation> {
    for kind in OverheadKind::ALL {
        let cost = ledger.cost_of(kind);
        let message = if !cost.is_finite() || cost < 0.0 {
            format!("ledger {kind:?} cost invalid: {cost}")
        } else if cost > 0.0 && ledger.count_of(kind) == 0 {
            format!("ledger {kind:?} charged {cost} over zero messages")
        } else {
            continue;
        };
        return Err(InvariantViolation::new(
            ViolationKind::LedgerAccounting,
            None,
            None,
            message,
        ));
    }
    Ok(())
}

/// A rejected configuration: which parameter failed and why. `Display`
/// renders the exact message the `String`-returning validators produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    parameter: &'static str,
    message: String,
}

impl ConfigError {
    pub(crate) fn new(parameter: &'static str, message: String) -> Self {
        ConfigError { parameter, message }
    }

    /// Name of the offending parameter.
    pub fn parameter(&self) -> &'static str {
        self.parameter
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Which clause of the sync↔async convergence-equivalence contract was
/// violated (see [`crate::experiments::differential`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EquivalenceKind {
    /// The two sides ended with different alive populations — the churn
    /// schedule did not hit both identically.
    AliveDiverged,
    /// The round-based engine failed to reduce traffic below the
    /// optimization ceiling.
    SyncNotOptimized,
    /// The message-level simulator failed to reduce traffic below the
    /// optimization ceiling.
    AsyncNotOptimized,
    /// The two sides' traffic-reduction ratios differ by more than the
    /// allowed band.
    BandExceeded,
    /// The sync side lost search scope.
    SyncScopeCollapsed,
    /// The async side lost search scope.
    AsyncScopeCollapsed,
}

/// One violated equivalence clause; `Display` renders the same message
/// the string era produced.
#[derive(Clone, Debug, PartialEq)]
pub struct EquivalenceViolation {
    kind: EquivalenceKind,
    message: String,
}

impl EquivalenceViolation {
    pub(crate) fn new(kind: EquivalenceKind, message: String) -> Self {
        EquivalenceViolation { kind, message }
    }

    /// Which clause failed.
    pub fn kind(&self) -> EquivalenceKind {
        self.kind
    }
}

impl fmt::Display for EquivalenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EquivalenceViolation {}

/// Test support: each shared clause provoked on a driver's clean,
/// audited state, so both drivers' tests hold the same clauses.
#[cfg(test)]
pub(crate) mod provoke {
    use super::*;

    /// Write access to one peer's shared state.
    pub(crate) trait StatesMut {
        fn state_mut(&mut self, p: PeerId) -> &mut PeerState;
    }

    /// The shared clauses a corrupted [`PeerState`] can reach. Forwarding
    /// liveness is not among them: `select_forward_targets` refills an
    /// empty flooding set with every neighbor, so no state makes it fail.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Clause {
        SelfEntry,
        Duplicate,
        StaleTree,
        StaleRequest,
        UnmirroredTree,
        UnmirroredRequest,
        AsymmetricCost,
    }

    impl Clause {
        pub(crate) const ALL: [Clause; 7] = [
            Clause::SelfEntry,
            Clause::Duplicate,
            Clause::StaleTree,
            Clause::StaleRequest,
            Clause::UnmirroredTree,
            Clause::UnmirroredRequest,
            Clause::AsymmetricCost,
        ];

        /// Corrupts the state around a [`pick`]ed `(p, f, q)` so that this
        /// clause fails, and returns the `(kind, peer, partner)` the
        /// auditor must report first (it visits peers in id order).
        pub(crate) fn apply(
            self,
            d: &mut impl StatesMut,
            (p, f, q): (PeerId, PeerId, PeerId),
        ) -> (ViolationKind, Option<PeerId>, Option<PeerId>) {
            let s = d.state_mut(p);
            match self {
                Clause::SelfEntry => {
                    s.own_tree.push(p);
                    (ViolationKind::ListCorrupt, Some(p), None)
                }
                Clause::Duplicate => {
                    s.own_tree.push(f);
                    (ViolationKind::ListCorrupt, Some(p), Some(f))
                }
                Clause::StaleTree => {
                    s.own_tree.push(q);
                    (ViolationKind::StaleLink, Some(p), Some(q))
                }
                Clause::StaleRequest => {
                    s.requested.push(q);
                    (ViolationKind::StaleLink, Some(p), Some(q))
                }
                Clause::UnmirroredTree => {
                    d.state_mut(f).requested.retain(|&r| r != p);
                    (ViolationKind::Unmirrored, Some(p), Some(f))
                }
                Clause::UnmirroredRequest => {
                    s.own_tree.retain(|&t| t != f);
                    (ViolationKind::Unmirrored, Some(f), Some(p))
                }
                Clause::AsymmetricCost => {
                    let c = s.table.get(f).expect("picked with a cost row");
                    s.table.set(f, c + 1);
                    (
                        ViolationKind::AsymmetricCost,
                        Some(p.min(f)),
                        Some(p.max(f)),
                    )
                }
            }
        }
    }

    /// A write to `p`'s flooding set that every shared clause accepts —
    /// its tree, reversed — standing for an engine write that skipped
    /// its forwarding-row invalidation. With two or more live tree links
    /// at `p`, `p`'s row no longer equals the rule's answer; returns what
    /// the engine's auditor must report.
    pub(crate) fn reorder_tree(
        d: &mut impl StatesMut,
        p: PeerId,
    ) -> (ViolationKind, Option<PeerId>, Option<PeerId>) {
        d.state_mut(p).own_tree.reverse();
        (ViolationKind::IndexGap, Some(p), None)
    }

    /// A mirrored tree edge `p → f` with cost rows both ways, and an
    /// alive non-neighbor `q` of `p` that neither list names — none of
    /// the pairs excused by the view.
    pub(crate) fn pick(view: &impl AuditView) -> (PeerId, PeerId, PeerId) {
        let ov = view.overlay();
        let excused = |p, q| {
            [Gap::Stale, Gap::TreeUnmirrored, Gap::RequestUnmirrored]
                .into_iter()
                .any(|g| view.excuses(g, p, q) || view.excuses(g, q, p))
        };
        ov.alive_peers()
            .find_map(|p| {
                let s = view.state(p);
                let f = s.own_tree.iter().copied().find(|&f| {
                    let t = view.state(f);
                    ov.are_neighbors(p, f)
                        && t.requested.contains(&p)
                        && s.table.get(f).is_some()
                        && t.table.get(p).is_some()
                        && !excused(p, f)
                })?;
                let q = ov.alive_peers().find(|&q| {
                    q != p
                        && !ov.are_neighbors(p, q)
                        && !s.mentioned().any(|m| m == q)
                        && !excused(p, q)
                })?;
                Some((p, f, q))
            })
            .expect("a clean tree edge and a non-neighbor")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_stored_message() {
        let v = InvariantViolation::new(
            ViolationKind::StaleLink,
            Some(PeerId::new(3)),
            Some(PeerId::new(7)),
            "peer 3 tree entry 7: not a neighbor".into(),
        );
        assert_eq!(v.to_string(), "peer 3 tree entry 7: not a neighbor");
        assert_eq!(v.kind(), ViolationKind::StaleLink);
        assert_eq!(v.peer(), Some(PeerId::new(3)));
        assert_eq!(v.partner(), Some(PeerId::new(7)));
    }

    #[test]
    fn wire_deferrable_covers_exactly_the_agreement_kinds() {
        let mk = |kind| InvariantViolation::new(kind, None, None, String::new());
        assert!(mk(ViolationKind::StaleLink).is_wire_deferrable());
        assert!(mk(ViolationKind::Unmirrored).is_wire_deferrable());
        for kind in [
            ViolationKind::ForwardBlackHole,
            ViolationKind::ListCorrupt,
            ViolationKind::OfflineReference,
            ViolationKind::AsymmetricCost,
            ViolationKind::ServingLedger,
            ViolationKind::CycleBookkeeping,
            ViolationKind::LedgerAccounting,
            ViolationKind::IndexGap,
        ] {
            assert!(!mk(kind).is_wire_deferrable(), "{kind:?}");
        }
    }

    #[test]
    fn config_error_carries_parameter_and_message() {
        let e = ConfigError::new("probe_loss", "probe_loss must be in [0, 1], got 2".into());
        assert_eq!(e.parameter(), "probe_loss");
        assert_eq!(e.to_string(), "probe_loss must be in [0, 1], got 2");
    }
}
