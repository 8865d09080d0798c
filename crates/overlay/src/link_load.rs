//! Per-link message accounting — the scenario matrix's link-stress
//! metric.
//!
//! Traffic cost answers "how much total bandwidth did a strategy burn";
//! link stress answers "where": the maximum and mean number of messages
//! any single overlay link carried. ACE's tree forwarding concentrates
//! traffic on few links while flooding spreads it, so the two metrics
//! move in opposite directions and both belong in the matrix artifact.
//!
//! [`LinkLoad`] is a plain accumulator keyed by undirected link. It is
//! fed from the query kernel's per-transmission tracer
//! ([`crate::run_query_traced`], [`crate::random_walk_query_traced`]),
//! which hands over each send already priced — so counts reconcile with
//! the outcomes' `messages` and carried cost with their `traffic_cost`
//! exactly (link costs are integer-valued; a matrix property test).

use std::collections::HashMap;

use crate::peer::PeerId;

/// Message counts and carried cost per undirected link.
///
/// Links are keyed by raw endpoint ids; callers tracking several id
/// spaces at once (e.g. a supernode core plus leaf access links) offset
/// one space past the other before recording.
#[derive(Clone, Debug, Default)]
pub struct LinkLoad {
    counts: HashMap<(u32, u32), u64>,
    messages: u64,
    cost: f64,
}

impl LinkLoad {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `cost` on the link `a`—`b` (undirected:
    /// the endpoint order does not matter).
    pub fn record(&mut self, a: u32, b: u32, cost: f64) {
        let key = if a <= b { (a, b) } else { (b, a) };
        *self.counts.entry(key).or_insert(0) += 1;
        self.messages += 1;
        self.cost += cost;
    }

    /// [`LinkLoad::record`] for overlay peers.
    pub fn record_peers(&mut self, a: PeerId, b: PeerId, cost: f64) {
        self.record(a.raw(), b.raw(), cost);
    }

    /// Number of distinct links that carried at least one message.
    pub fn links_used(&self) -> usize {
        self.counts.len()
    }

    /// Total messages recorded.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total cost carried — reconciles with the sum of the measured
    /// queries' `traffic_cost`.
    pub fn total_cost(&self) -> f64 {
        self.cost
    }

    /// Heaviest per-link message count (0 when nothing was recorded).
    pub fn max_messages(&self) -> u64 {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Mean messages per used link (0 when nothing was recorded).
    pub fn mean_messages(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.messages as f64 / self.counts.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_is_undirected_and_totals_add_up() {
        let mut load = LinkLoad::new();
        load.record(3, 1, 2.0);
        load.record(1, 3, 2.0);
        load.record(0, 4, 1.5);
        assert_eq!(load.links_used(), 2);
        assert_eq!(load.messages(), 3);
        assert_eq!(load.max_messages(), 2);
        assert!((load.mean_messages() - 1.5).abs() < 1e-12);
        assert!((load.total_cost() - 5.5).abs() < 1e-12);
    }
}
