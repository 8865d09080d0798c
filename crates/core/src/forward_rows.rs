//! Forwarding rows: each peer's live forward targets, ready for queries.
//!
//! A query visit under [`crate::AceForward`] asks the engine where `peer`
//! forwards. The answer — [`crate::policy::select_forward_targets`] over
//! the peer's flooding set and its current neighbors — changes only when
//! a round or a lifecycle event changes one of its inputs, so the engine
//! keeps it per peer and the visit copies a slice.
//!
//! A row carries the overlay's stamp of the neighbor list it was built
//! against ([`ace_overlay::Overlay::neighbors_stamp`]); it answers only
//! while that stamp is still the overlay's, so a link change the engine
//! never heard of, or a different overlay, falls back to the rule. The
//! engine clears the stamp wherever it changes a peer's tree, requests
//! or tree flag, and rebuilds the rows whose stamps no longer match at
//! the end of each round.
//!
//! Rows live back to back in one arena, the append-log layout of the
//! reverse references: a rebuilt row that fits its old place is written
//! there, a longer one is appended and its old copy left as garbage
//! until the arena is twice the live total, when the live rows are
//! copied down in id order. A rebuild allocates nothing once the arena
//! has grown to its working size.

use ace_overlay::PeerId;

/// Where one peer's row sits in the arena, and the neighbor-list stamp
/// it was built against; 0 means "no row".
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    start: u32,
    len: u32,
    stamp: u64,
}

/// The per-peer forwarding rows. Not part of any digest: they are a copy
/// of what the rule computes from the engine's state.
#[derive(Clone, Debug)]
pub(crate) struct ForwardRows {
    arena: Vec<PeerId>,
    slots: Vec<Slot>,
    /// Σ `len` over the slots — the part of `arena` still referenced.
    live: usize,
    /// The row under construction.
    scratch: Vec<PeerId>,
}

impl ForwardRows {
    /// No rows, for `peer_count` peers.
    pub(crate) fn new(peer_count: usize) -> Self {
        ForwardRows {
            arena: Vec::new(),
            slots: vec![Slot::default(); peer_count],
            live: 0,
            scratch: Vec::new(),
        }
    }

    /// `peer`'s row, if it was built against the neighbor list `stamp`
    /// names and nothing it was built from changed since.
    #[inline]
    pub(crate) fn get(&self, peer: PeerId, stamp: u64) -> Option<&[PeerId]> {
        let s = self.slots.get(peer.index())?;
        if s.stamp == 0 || s.stamp != stamp {
            return None;
        }
        let start = s.start as usize;
        Some(&self.arena[start..start + s.len as usize])
    }

    /// Marks `peer`'s row stale: an input of its forwarding answer
    /// changed.
    #[inline]
    pub(crate) fn invalidate(&mut self, peer: PeerId) {
        self.slots[peer.index()].stamp = 0;
    }

    /// Replaces `peer`'s row by what `build` writes into its buffer
    /// (cleared first by the rule), valid for the list `stamp` names: in
    /// place when it is no longer than the old row, else appended.
    pub(crate) fn rebuild(
        &mut self,
        peer: PeerId,
        stamp: u64,
        build: impl FnOnce(&mut Vec<PeerId>),
    ) {
        build(&mut self.scratch);
        let row = &self.scratch;
        let slot = &mut self.slots[peer.index()];
        self.live = self.live - slot.len as usize + row.len();
        if row.len() <= slot.len as usize {
            let start = slot.start as usize;
            self.arena[start..start + row.len()].copy_from_slice(row);
        } else {
            slot.start = self.arena.len() as u32;
            self.arena.extend_from_slice(row);
        }
        slot.len = row.len() as u32;
        slot.stamp = stamp;
    }

    /// Copies the live rows down in id order once garbage outweighs them
    /// (plus one entry per peer of slack). Rows cleared by
    /// [`Self::invalidate`] can never answer again and are dropped.
    pub(crate) fn compact_if_sparse(&mut self) {
        if self.arena.len() <= 2 * self.live + self.slots.len() {
            return;
        }
        let mut arena = Vec::with_capacity(2 * self.live);
        for slot in &mut self.slots {
            let start = slot.start as usize;
            let row = &self.arena[start..start + slot.len as usize];
            *slot = if slot.stamp == 0 {
                Slot::default()
            } else {
                let start = arena.len() as u32;
                arena.extend_from_slice(row);
                Slot { start, ..*slot }
            };
        }
        self.live = arena.len();
        self.arena = arena;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn rebuild(rows: &mut ForwardRows, peer: u32, stamp: u64, row: &[u32]) {
        rows.rebuild(p(peer), stamp, |out| {
            out.clear();
            out.extend(row.iter().map(|&i| p(i)));
        });
    }

    #[test]
    fn a_row_answers_only_for_its_stamp_until_invalidated() {
        let mut rows = ForwardRows::new(3);
        assert_eq!(rows.get(p(0), 0), None, "no row is not an empty row");
        rebuild(&mut rows, 0, 7, &[1, 2]);
        assert_eq!(rows.get(p(0), 7), Some(&[p(1), p(2)][..]));
        assert_eq!(rows.get(p(0), 8), None);
        assert_eq!(rows.get(p(3), 7), None, "unknown id");
        rows.invalidate(p(0));
        assert_eq!(rows.get(p(0), 7), None);
        assert_eq!(rows.get(p(0), 0), None);
        rebuild(&mut rows, 0, 9, &[]);
        assert_eq!(rows.get(p(0), 9), Some(&[][..]));
    }

    #[test]
    fn a_row_that_fits_is_rewritten_in_place() {
        let mut rows = ForwardRows::new(2);
        rebuild(&mut rows, 0, 1, &[1, 0]);
        rebuild(&mut rows, 1, 1, &[0]);
        rebuild(&mut rows, 0, 2, &[1]);
        assert_eq!(rows.arena, [p(1), p(0), p(0)], "shrunk in place");
        rebuild(&mut rows, 1, 2, &[1, 0]);
        assert_eq!(rows.arena.len(), 5, "grown rows are appended");
        assert_eq!(rows.get(p(0), 2), Some(&[p(1)][..]));
        assert_eq!(rows.get(p(1), 2), Some(&[p(1), p(0)][..]));
        assert_eq!(rows.live, 3);
    }

    #[test]
    fn compaction_keeps_live_rows_in_id_order_and_drops_cleared_ones() {
        let mut rows = ForwardRows::new(3);
        for stamp in 1..=10 {
            let grown: Vec<u32> = (0..stamp as u32).map(|i| i % 3).collect();
            rebuild(&mut rows, 2, stamp, &grown);
            rebuild(&mut rows, 0, stamp, &[1, 2]);
        }
        rebuild(&mut rows, 2, 11, &[0, 1]);
        rebuild(&mut rows, 1, 4, &[0]);
        rows.invalidate(p(1));
        assert_eq!(rows.arena.len(), 58);
        rows.compact_if_sparse();
        assert_eq!(rows.arena, [p(1), p(2), p(0), p(1)]);
        assert_eq!(rows.live, 4);
        assert_eq!(rows.get(p(0), 10), Some(&[p(1), p(2)][..]));
        assert_eq!(rows.get(p(2), 11), Some(&[p(0), p(1)][..]));
        assert_eq!(rows.get(p(1), 4), None);
        rows.compact_if_sparse();
        assert_eq!(rows.arena.len(), 4, "nothing to shed");
    }
}
