//! One peer's ACE state — the part of it both drivers keep.
//!
//! The round-based [`AceEngine`](crate::AceEngine) holds one
//! [`PeerState`] per peer; the message-level
//! [`AsyncAceSim`](crate::protocol::AsyncAceSim) embeds one in each node
//! beside its wire-only bookkeeping. The forgetting rules (a peer gone,
//! a link cut, a state reset) and the flooding set are written here
//! once, so the two drivers cannot drift apart on them, and the shared
//! audit clauses ([`crate::audit`]) read this struct on both.

use ace_engine::digest::Digest;
use ace_overlay::PeerId;

use crate::cost_table::CostTable;

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PeerState {
    pub(crate) table: CostTable,
    /// Neighbors adjacent to this peer in its own closure MST.
    pub(crate) own_tree: Vec<PeerId>,
    /// Peers whose trees attach through us: they sent a forward request
    /// ("I expect queries through you", the paper's Figure-3 narrative),
    /// so we must relay to them even though they are not on our own tree.
    pub(crate) requested: Vec<PeerId>,
    /// Keep-both watches from Figure 4(c): `(far, near)` pairs where we
    /// kept `far` after connecting `near`; once `near` vanishes from
    /// `far`'s table (B dropped B–H), we cut the `far` link (§3.3).
    pub(crate) watches: Vec<(PeerId, PeerId)>,
    /// True once the peer has built a spanning tree; until then it
    /// floods blindly.
    pub(crate) tree_built: bool,
}

impl PeerState {
    pub(crate) fn new(owner: PeerId) -> Self {
        PeerState {
            table: CostTable::new(owner),
            own_tree: Vec::new(),
            requested: Vec::new(),
            watches: Vec::new(),
            tree_built: false,
        }
    }

    /// Back to the fresh-node default (a leave, crash or rejoin).
    pub(crate) fn reset(&mut self) {
        *self = PeerState::new(self.table.owner());
    }

    /// Every peer the four lists name (with repeats).
    pub(crate) fn mentioned(&self) -> impl Iterator<Item = PeerId> + '_ {
        (self.own_tree.iter().chain(&self.requested).copied())
            .chain(self.watches.iter().flat_map(|&(far, near)| [far, near]))
            .chain(self.table.iter().map(|(n, _)| n))
    }

    /// Drops every mention of `peer` from the four lists.
    pub(crate) fn forget(&mut self, peer: PeerId) {
        self.forget_link(peer);
        self.watches
            .retain(|&(far, near)| far != peer && near != peer);
    }

    /// Forgets a partner after a link cut: tree membership, forward
    /// requests and the cost row. Watches are left to expire on their
    /// own (§3.3).
    pub(crate) fn forget_link(&mut self, partner: PeerId) {
        self.own_tree.retain(|&p| p != partner);
        self.requested.retain(|&p| p != partner);
        self.table.remove(partner);
    }

    /// Appends the flooding set — own tree neighbors, then requesters
    /// not already on the tree — to `out`. May name peers that are no
    /// longer neighbors; forwarding filters against the overlay.
    #[inline]
    pub(crate) fn flooding_into(&self, out: &mut Vec<PeerId>) {
        out.extend_from_slice(&self.own_tree);
        for &r in &self.requested {
            if !out.contains(&r) {
                out.push(r);
            }
        }
    }
}

/// Folds a peer list into a state digest: its length, then each id.
pub(crate) fn fold_peers(d: &mut Digest, peers: &[PeerId]) {
    d.words(peers.iter().map(|p| u64::from(p.raw())));
}

/// Folds `(peer, value)` pairs into a state digest in sorted order: their
/// count, then each pair.
pub(crate) fn fold_sorted(d: &mut Digest, pairs: impl Iterator<Item = (PeerId, u64)>) {
    let mut pairs: Vec<(PeerId, u64)> = pairs.collect();
    pairs.sort_unstable();
    d.word(pairs.len() as u64);
    for (p, v) in pairs {
        d.word(u64::from(p.raw())).word(v);
    }
}

/// Folds the watch list (`(far, near)` pairs, in list order).
pub(crate) fn fold_watches(d: &mut Digest, watches: &[(PeerId, PeerId)]) {
    d.word(watches.len() as u64);
    for &(far, near) in watches {
        d.word(u64::from(far.raw())).word(u64::from(near.raw()));
    }
}
