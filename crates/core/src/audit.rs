//! Typed audit and validation errors.
//!
//! The invariant auditors ([`AceEngine::check_invariants`],
//! [`AsyncAceSim::check_invariants`]), the config validators
//! ([`FaultConfig::validate`], [`AsyncConfig::validate`],
//! [`NetemConfig::validate`]) and the differential equivalence judge
//! ([`DifferentialOutcome::check_equivalence`]) used to return bare
//! `String`s, which forced the chaos harness to
//! pattern-match error *messages* to decide which violations a lossy or
//! partitioned wire legitimately defers. Each error is now a typed value
//! carrying its classification plus the involved peers; `Display` still
//! renders the exact human-readable message the string era produced, so
//! log output and `format!("{e}")` call sites are unchanged.
//!
//! [`AceEngine::check_invariants`]: crate::AceEngine::check_invariants
//! [`AsyncAceSim::check_invariants`]: crate::protocol::AsyncAceSim::check_invariants
//! [`FaultConfig::validate`]: crate::FaultConfig::validate
//! [`AsyncConfig::validate`]: crate::protocol::AsyncConfig::validate
//! [`NetemConfig::validate`]: crate::netem::NetemConfig::validate
//! [`DifferentialOutcome::check_equivalence`]: crate::experiments::differential::DifferentialOutcome::check_equivalence

use std::fmt;

use ace_overlay::PeerId;

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
