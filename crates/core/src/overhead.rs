//! Overhead accounting (the "penalty" side of the paper's gain/penalty
//! optimization rate).
//!
//! Every ACE control message is charged `physical path delay × message
//! size units`, the same currency as query traffic, so gains and costs
//! are directly comparable.

use serde::Serialize;

/// Category of ACE control traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum OverheadKind {
    /// Phase-1/3 delay probes and their replies.
    Probe,
    /// Neighbor cost tables exchanged between direct neighbors.
    TableExchange,
    /// Cost tables relayed beyond one hop for `h > 1` closures.
    ClosureRelay,
    /// Connect / connect-ok / disconnect messages of phase 3.
    Reconnect,
    /// Retransmits of probes and probe replies after a wire loss under
    /// the netem model; the original
    /// transmission is charged under [`OverheadKind::Probe`]. The round
    /// engine models a perfect wire and never charges it.
    ProbeRetry,
    /// Retransmits of non-probe control messages (cost tables, probe
    /// requests, forward (un)subscriptions, disconnects) after a wire
    /// loss under the netem model; the original transmission is charged
    /// under its natural kind.
    ControlRetry,
}

impl OverheadKind {
    /// All categories, for iteration/reporting.
    pub const ALL: [OverheadKind; 6] = [
        OverheadKind::Probe,
        OverheadKind::TableExchange,
        OverheadKind::ClosureRelay,
        OverheadKind::Reconnect,
        OverheadKind::ProbeRetry,
        OverheadKind::ControlRetry,
    ];

    fn index(self) -> usize {
        match self {
            OverheadKind::Probe => 0,
            OverheadKind::TableExchange => 1,
            OverheadKind::ClosureRelay => 2,
            OverheadKind::Reconnect => 3,
            OverheadKind::ProbeRetry => 4,
            OverheadKind::ControlRetry => 5,
        }
    }
}

/// Accumulated control-traffic cost, by category.
///
/// # Examples
///
/// ```
/// use ace_core::{OverheadKind, OverheadLedger};
/// let mut l = OverheadLedger::new();
/// l.charge(OverheadKind::Probe, 12.5);
/// l.charge(OverheadKind::Probe, 7.5);
/// assert_eq!(l.cost_of(OverheadKind::Probe), 20.0);
/// assert_eq!(l.total_cost(), 20.0);
/// assert_eq!(l.count_of(OverheadKind::Probe), 2);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct OverheadLedger {
    cost: [f64; 6],
    count: [u64; 6],
}

impl OverheadLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cost` units of control traffic of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is negative or NaN.
    pub fn charge(&mut self, kind: OverheadKind, cost: f64) {
        assert!(
            cost.is_finite() && cost >= 0.0,
            "invalid overhead charge {cost}"
        );
        self.cost[kind.index()] += cost;
        self.count[kind.index()] += 1;
    }

    /// Accumulated cost of one kind.
    pub fn cost_of(&self, kind: OverheadKind) -> f64 {
        self.cost[kind.index()]
    }

    /// Number of charges of one kind.
    pub fn count_of(&self, kind: OverheadKind) -> u64 {
        self.count[kind.index()]
    }

    /// Total cost over all kinds.
    pub fn total_cost(&self) -> f64 {
        self.cost.iter().sum()
    }

    /// Total number of control messages.
    pub fn total_count(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Adds another ledger's contents into this one.
    pub fn merge(&mut self, other: &OverheadLedger) {
        for i in 0..OverheadKind::ALL.len() {
            self.cost[i] += other.cost[i];
            self.count[i] += other.count[i];
        }
    }

    /// Difference `self - earlier` (for per-round deltas).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not a prefix of `self`'s
    /// history (i.e. any component would go negative).
    pub fn since(&self, earlier: &OverheadLedger) -> OverheadLedger {
        let mut out = OverheadLedger::new();
        for i in 0..OverheadKind::ALL.len() {
            debug_assert!(self.cost[i] >= earlier.cost[i] - 1e-9);
            debug_assert!(self.count[i] >= earlier.count[i]);
            out.cost[i] = (self.cost[i] - earlier.cost[i]).max(0.0);
            out.count[i] = self.count[i] - earlier.count[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_kind() {
        let mut l = OverheadLedger::new();
        l.charge(OverheadKind::Probe, 1.0);
        l.charge(OverheadKind::TableExchange, 2.0);
        l.charge(OverheadKind::ClosureRelay, 3.0);
        l.charge(OverheadKind::Reconnect, 4.0);
        l.charge(OverheadKind::ProbeRetry, 5.0);
        l.charge(OverheadKind::ControlRetry, 6.0);
        assert_eq!(l.total_cost(), 21.0);
        assert_eq!(l.total_count(), 6);
        for k in OverheadKind::ALL {
            assert_eq!(l.count_of(k), 1);
        }
    }

    #[test]
    fn merge_and_since_are_inverse() {
        let mut a = OverheadLedger::new();
        a.charge(OverheadKind::Probe, 5.0);
        let snapshot = a;
        a.charge(OverheadKind::Reconnect, 2.0);
        a.charge(OverheadKind::Probe, 1.0);
        let delta = a.since(&snapshot);
        assert_eq!(delta.cost_of(OverheadKind::Probe), 1.0);
        assert_eq!(delta.cost_of(OverheadKind::Reconnect), 2.0);
        let mut rebuilt = snapshot;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, a);
    }

    #[test]
    #[should_panic(expected = "invalid overhead charge")]
    fn rejects_negative_charge() {
        OverheadLedger::new().charge(OverheadKind::Probe, -1.0);
    }
}
