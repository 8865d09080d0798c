//! Neighbor cost tables (ACE phase 1).
//!
//! Each peer probes the network delay to its immediate logical neighbors
//! and records the results in a *neighbor cost table*. Neighboring peers
//! exchange tables, so a peer learns the pairwise costs among its own
//! neighbors — enough to build the phase-2 spanning tree without any
//! global knowledge.

use ace_overlay::{Message, PeerId};
use ace_topology::Delay;

/// One peer's probed costs to its direct logical neighbors.
///
/// # Examples
///
/// ```
/// use ace_core::CostTable;
/// use ace_overlay::PeerId;
///
/// let mut t = CostTable::new(PeerId::new(0));
/// t.set(PeerId::new(1), 120);
/// t.set(PeerId::new(2), 30);
/// assert_eq!(t.get(PeerId::new(1)), Some(120));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostTable {
    owner: PeerId,
    entries: Vec<(PeerId, Delay)>,
}

impl CostTable {
    /// Creates an empty table owned by `owner`.
    pub fn new(owner: PeerId) -> Self {
        CostTable {
            owner,
            entries: Vec::new(),
        }
    }

    /// The owning peer.
    pub fn owner(&self) -> PeerId {
        self.owner
    }

    /// The entries as a slice, in insertion order (matches
    /// [`iter`](Self::iter)). Exposed so hot paths can reach the
    /// backing storage, e.g. to prefetch it before a walk.
    pub fn as_slice(&self) -> &[(PeerId, Delay)] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no neighbor has been probed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets (or updates) the probed cost to `neighbor`; `true` when the
    /// table had no entry for it before.
    ///
    /// # Panics
    ///
    /// Panics if `neighbor` equals the owner.
    pub fn set(&mut self, neighbor: PeerId, cost: Delay) -> bool {
        assert_ne!(neighbor, self.owner, "a peer has no cost to itself");
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == neighbor) {
            e.1 = cost;
            false
        } else {
            self.entries.push((neighbor, cost));
            true
        }
    }

    /// Removes the entry for `neighbor` (no-op when absent).
    // The engine's lifecycle purge calls this once per referrer from
    // another module: keep it inlinable whichever codegen unit the two
    // land in (measured, when the purge still visited every peer: +15 %
    // on `churn_event_us` when they split).
    #[inline]
    pub fn remove(&mut self, neighbor: PeerId) {
        self.entries.retain(|(p, _)| *p != neighbor);
    }

    /// The probed cost to `neighbor`, if known.
    pub fn get(&self, neighbor: PeerId) -> Option<Delay> {
        self.entries
            .iter()
            .find(|(p, _)| *p == neighbor)
            .map(|&(_, c)| c)
    }

    /// Iterates over `(neighbor, cost)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, Delay)> + '_ {
        self.entries.iter().copied()
    }

    /// Drops entries for peers not in `keep` (call after the neighbor set
    /// changed so stale links don't linger).
    pub fn retain_neighbors(&mut self, keep: &[PeerId]) {
        self.entries.retain(|(p, _)| keep.contains(p));
    }

    /// Renders the table as the wire message used for the exchange —
    /// overhead accounting charges its wire size.
    pub fn to_message(&self) -> Message {
        Message::CostTable {
            owner: self.owner,
            entries: self.entries.clone(),
        }
    }

    /// The exchange message's size in overhead units — identical to
    /// `to_message().size_units()` without cloning the entries into a
    /// throwaway message. The hot path charges one table exchange per
    /// closure member per planning peer per round, so the clone showed
    /// up at scale.
    pub fn message_size_units(&self) -> f64 {
        Message::cost_table_size_units(self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_updates_in_place() {
        let mut t = CostTable::new(PeerId::new(0));
        t.set(PeerId::new(1), 10);
        t.set(PeerId::new(1), 20);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(PeerId::new(1)), Some(20));
    }

    #[test]
    #[should_panic(expected = "no cost to itself")]
    fn rejects_self_entry() {
        CostTable::new(PeerId::new(3)).set(PeerId::new(3), 1);
    }

    #[test]
    fn remove_and_retain() {
        let mut t = CostTable::new(PeerId::new(0));
        for i in 1..=4 {
            t.set(PeerId::new(i), i * 10);
        }
        t.remove(PeerId::new(2));
        assert_eq!(t.get(PeerId::new(2)), None);
        t.retain_neighbors(&[PeerId::new(1), PeerId::new(3)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(PeerId::new(4)), None);
    }

    #[test]
    fn message_size_units_match_rendered_message() {
        let mut t = CostTable::new(PeerId::new(99));
        for n in 0..12u32 {
            assert_eq!(
                t.message_size_units(),
                t.to_message().size_units(),
                "with {n} entries"
            );
            t.set(PeerId::new(n + 1), n * 3 + 1);
        }
    }

    #[test]
    fn message_round_trips_entries() {
        let mut t = CostTable::new(PeerId::new(7));
        t.set(PeerId::new(1), 11);
        t.set(PeerId::new(2), 22);
        match t.to_message() {
            Message::CostTable { owner, entries } => {
                assert_eq!(owner, PeerId::new(7));
                assert_eq!(entries, vec![(PeerId::new(1), 11), (PeerId::new(2), 22)]);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }
}
