//! Reverse references: who may hold a given peer in its state.
//!
//! The engine's per-peer lists (`own_tree`, `requested`, `watches`,
//! `table`) name other peers; a graceful leave or a rejoin must drop one
//! id from every list that names it. This index answers "which peers
//! name `p`" so the purge visits those instead of the population.
//!
//! It is an append-only log with one chain per target, the layout of the
//! core cache's insertion log: recording a reference is one sequential
//! append and one write to `head[target]` — no per-peer allocation and
//! no lookup, because it runs inside phase 1 and the tree commit for
//! every reference a round creates. The price is that the log is a
//! *superset*: it keeps holders that have since dropped their reference
//! and may name a holder twice. Both are harmless to a purge (forgetting
//! is idempotent) and are shed when the engine rebuilds the log from its
//! state, which it does once the log has doubled.

use ace_overlay::PeerId;

/// End of a chain.
const NIL: u32 = u32::MAX;

/// The reverse-reference log. Not part of any digest.
#[derive(Clone, Debug)]
pub(crate) struct ReverseRefs {
    /// `(holder, previous record of the same target)`, oldest first.
    log: Vec<(PeerId, u32)>,
    /// Per target: its newest record in `log`.
    head: Vec<u32>,
    /// `log.len()` after the last rebuild.
    floor: usize,
}

impl ReverseRefs {
    /// An empty index over `peer_count` peers.
    pub(crate) fn new(peer_count: usize) -> Self {
        ReverseRefs {
            log: Vec::new(),
            head: vec![NIL; peer_count],
            floor: 0,
        }
    }

    /// Records that `holder` may name `target`.
    #[inline]
    pub(crate) fn push(&mut self, holder: PeerId, target: PeerId) {
        let at = self.log.len() as u32;
        let prev = std::mem::replace(&mut self.head[target.index()], at);
        self.log.push((holder, prev));
    }

    /// The recorded holders of `target`, newest first (with repeats).
    pub(crate) fn holders(&self, target: PeerId) -> impl Iterator<Item = PeerId> + '_ {
        let mut at = self.head[target.index()];
        std::iter::from_fn(move || {
            let &(holder, prev) = self.log.get(at as usize)?;
            at = prev;
            Some(holder)
        })
    }

    /// Forgets every holder of `target`; their records stay in the log
    /// as garbage until the next rebuild.
    pub(crate) fn clear(&mut self, target: PeerId) {
        self.head[target.index()] = NIL;
    }

    /// Whether the log has doubled (plus one record per peer of slack)
    /// since it was last rebuilt — time to [`Self::rebuild`].
    pub(crate) fn overgrown(&self) -> bool {
        self.log.len() > 2 * self.floor + self.head.len()
    }

    /// Replaces the log by exactly `refs` (`(holder, target)` pairs).
    pub(crate) fn rebuild(&mut self, refs: impl Iterator<Item = (PeerId, PeerId)>) {
        self.log.clear();
        self.head.fill(NIL);
        for (holder, target) in refs {
            // A holder's references arrive together: skip its repeats.
            if self.holders(target).next() != Some(holder) {
                self.push(holder, target);
            }
        }
        self.floor = self.log.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    #[test]
    fn chains_list_each_targets_holders_newest_first() {
        let mut r = ReverseRefs::new(4);
        r.push(p(1), p(0));
        r.push(p(2), p(3));
        r.push(p(2), p(0));
        r.push(p(1), p(0));
        assert_eq!(r.holders(p(0)).collect::<Vec<_>>(), [p(1), p(2), p(1)]);
        assert_eq!(r.holders(p(3)).collect::<Vec<_>>(), [p(2)]);
        assert_eq!(r.holders(p(1)).count(), 0);
        r.clear(p(0));
        assert_eq!(r.holders(p(0)).count(), 0);
        assert_eq!(r.holders(p(3)).count(), 1, "other chains are untouched");
    }

    #[test]
    fn rebuild_drops_garbage_and_repeats_and_resets_the_growth_bound() {
        let mut r = ReverseRefs::new(3);
        for _ in 0..10 {
            r.push(p(1), p(0));
            r.clear(p(0));
        }
        assert!(r.overgrown(), "10 records of garbage over 3 peers");
        r.rebuild([(p(1), p(0)), (p(1), p(0)), (p(2), p(0)), (p(2), p(1))].into_iter());
        assert_eq!(r.holders(p(0)).collect::<Vec<_>>(), [p(2), p(1)]);
        assert_eq!(r.holders(p(1)).collect::<Vec<_>>(), [p(2)]);
        assert_eq!(r.log.len(), 3);
        assert!(!r.overgrown());
    }
}
