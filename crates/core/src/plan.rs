//! Reusable per-worker arenas for the round-plan hot path.
//!
//! Planning a peer's tree used to allocate a fresh [`Closure`] (with
//! its internal `HashMap` index), a fresh `HashMap<PeerId, CostTable>`
//! of cloned tables, and fresh edge/probe vectors for **every peer,
//! every round**. At 100k peers that is hundreds of thousands of
//! allocations per round for state that is structurally identical each
//! time. A [`PlanScratch`] owns all of it as clear-and-reuse arenas:
//! one lives in each worker's slot of the engine's
//! [`ScratchPool`](ace_engine::pool::ScratchPool), and the serial
//! schedule borrows from the same pool.
//!
//! The closure is re-keyed by dense `u32` *slots* (indices into the BFS
//! `members` vector, source always slot 0). Membership tests use an
//! epoch-stamped mark array sized to the peer count — clearing it
//! between peers is a single epoch bump, not an `O(peers)` wipe.
//!
//! [`Closure`]: crate::closure::Closure

use ace_overlay::{Overlay, PeerId};
use ace_topology::Delay;

use crate::cost_table::CostTable;
use crate::mst::{PrimScratch, SlotEdge};

/// Sentinel parent slot for the BFS source.
pub const NO_PARENT: u32 = u32::MAX;

/// Reusable buffers for planning one peer's round. Clearing keeps every
/// arena's capacity, so a steady-state plan pass allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct PlanScratch {
    /// Closure members in BFS discovery order; `members[0]` is the
    /// source. Matches `Closure::collect` exactly.
    pub members: Vec<PeerId>,
    /// Hop distance from the source, parallel to `members`.
    pub hops: Vec<u8>,
    /// BFS parent slot per member ([`NO_PARENT`] for the source) — the
    /// relay path along which a member's table reaches the source.
    pub parent: Vec<u32>,
    /// Peer index → slot, valid only where `mark` carries the current
    /// epoch.
    slot_of: Vec<u32>,
    mark: Vec<u32>,
    epoch: u32,
    /// Closure edges in slot space.
    pub edges: Vec<SlotEdge>,
    /// Per non-adjacent-neighbor-pair core costs, in pairwise loop
    /// order; filled by `stage_core_pairs` and read by the plan pass so
    /// the cache is consulted once per pair.
    pub core_costs: Vec<Option<Delay>>,
    /// The non-adjacent neighbor pairs themselves, parallel to
    /// `core_costs`; staged so the core-cache probes run as a batch
    /// behind hardware prefetches instead of serialized DRAM misses.
    pub pairs: Vec<(PeerId, PeerId)>,
    /// The pairs of `pairs` the plan pass had to probe itself, with the
    /// measured cost — what the commit inserts into the core cache.
    pub core_probes: Vec<(PeerId, PeerId, Delay)>,
    /// Slot-space Prim state.
    pub prim: PrimScratch,
    /// Scope-guard padding candidates.
    pub extras: Vec<(Delay, PeerId)>,
    /// The planned tree (the source's tree neighbors plus padding).
    pub tree: Vec<PeerId>,
    /// Phase-3 buffer: the peer's flooding set.
    pub flooding: Vec<PeerId>,
    /// Phase-3 buffer: current neighbors not in the flooding set.
    pub non_flooding: Vec<PeerId>,
    /// Phase-3 buffer: adoption candidates from the far table.
    pub candidates: Vec<(PeerId, Delay)>,
}

impl PlanScratch {
    /// Collects the h-neighbor closure of `source` into the arenas —
    /// same members, hops and parents as `Closure::collect`, with the
    /// `HashMap` index replaced by the epoch-stamped slot array.
    ///
    /// # Panics
    ///
    /// Panics if `source` is offline or `depth == 0`.
    pub fn collect_closure(&mut self, ov: &Overlay, source: PeerId, depth: u8) {
        assert!(depth >= 1, "closure depth must be at least 1");
        assert!(ov.is_alive(source), "closure source must be online");
        let peers = ov.peer_count();
        if self.mark.len() < peers {
            self.mark.resize(peers, 0);
            self.slot_of.resize(peers, 0);
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;

        self.members.clear();
        self.hops.clear();
        self.parent.clear();
        self.members.push(source);
        self.hops.push(0);
        self.parent.push(NO_PARENT);
        self.mark[source.index()] = epoch;
        self.slot_of[source.index()] = 0;

        let mut cur = 0usize;
        while cur < self.members.len() {
            let u = self.members[cur];
            let uh = self.hops[cur];
            if uh < depth {
                for &v in ov.neighbors(u) {
                    if self.mark[v.index()] != epoch {
                        self.mark[v.index()] = epoch;
                        self.slot_of[v.index()] = self.members.len() as u32;
                        self.members.push(v);
                        self.hops.push(uh + 1);
                        self.parent.push(cur as u32);
                    }
                }
            }
            cur += 1;
        }
    }

    /// Slot of `peer` in the current closure, if a member.
    #[inline]
    pub fn slot(&self, peer: PeerId) -> Option<u32> {
        (self.mark[peer.index()] == self.epoch).then(|| self.slot_of[peer.index()])
    }

    /// True if `peer` is in the current closure.
    #[inline]
    pub fn contains(&self, peer: PeerId) -> bool {
        self.mark[peer.index()] == self.epoch
    }

    /// Walks the relay path of the member at `slot` back to the source,
    /// yielding each hop as a `(from, to)` pair — the same edge sequence
    /// `Closure::relay_path(member).windows(2)` produces.
    #[inline]
    pub fn relay_hops(&self, slot: u32) -> RelayHops<'_> {
        RelayHops {
            scratch: self,
            cur: slot,
        }
    }

    /// Collects the closure's overlay-internal edges into `self.edges`
    /// (slot space), in the same order `Closure::internal_edges`
    /// enumerates them: members in discovery order, each member's
    /// neighbor list in order, keeping `a < b` pairs with both ends in
    /// the closure.
    pub fn collect_internal_edges(
        &mut self,
        ov: &Overlay,
        mut cost_of: impl FnMut(PeerId, PeerId) -> Option<Delay>,
    ) {
        self.edges.clear();
        for ai in 0..self.members.len() {
            let a = self.members[ai];
            for &b in ov.neighbors(a) {
                if a < b && self.contains(b) {
                    if let Some(cost) = cost_of(a, b) {
                        self.edges.push(SlotEdge {
                            a: ai as u32,
                            b: self.slot_of[b.index()],
                            cost,
                        });
                    }
                }
            }
        }
    }
}

/// Iterator over a member's relay-path hops; see
/// [`PlanScratch::relay_hops`].
pub struct RelayHops<'a> {
    scratch: &'a PlanScratch,
    cur: u32,
}

impl Iterator for RelayHops<'_> {
    type Item = (PeerId, PeerId);

    fn next(&mut self) -> Option<(PeerId, PeerId)> {
        let parent = self.scratch.parent[self.cur as usize];
        if parent == NO_PARENT {
            return None;
        }
        let from = self.scratch.members[self.cur as usize];
        let to = self.scratch.members[parent as usize];
        self.cur = parent;
        Some((from, to))
    }
}

/// A plan-time snapshot of the closure members' cost tables — the
/// moral equivalent of the old `HashMap<PeerId, CostTable>` `known`
/// map, kept as parallel vectors with linear lookup (closures are
/// small). Only built when fault injection is configured: mid-round
/// faults mutate tables between the tree commit and the adaptation
/// stage, so stage B must read what stage A saw. Without faults the
/// engine reads live tables instead, which are provably identical
/// between the stages.
#[derive(Clone, Debug, Default)]
pub struct KnownSnap {
    members: Vec<PeerId>,
    tables: Vec<CostTable>,
}

impl KnownSnap {
    /// Snapshots the tables of the current closure members.
    pub fn capture(scratch: &PlanScratch, table_of: impl Fn(PeerId) -> CostTable) -> Self {
        KnownSnap {
            members: scratch.members.clone(),
            tables: scratch.members.iter().map(|&w| table_of(w)).collect(),
        }
    }

    /// The snapshotted table of `peer`, if it was a closure member.
    pub fn get(&self, peer: PeerId) -> Option<&CostTable> {
        self.members
            .iter()
            .position(|&m| m == peer)
            .map(|i| &self.tables[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::Closure;
    use ace_topology::NodeId;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn ring_with_chords(n: u32) -> Overlay {
        let mut ov = Overlay::new((0..n).map(NodeId::new).collect(), None);
        for i in 0..n {
            ov.connect(p(i), p((i + 1) % n)).unwrap();
        }
        for i in (0..n).step_by(3) {
            let _ = ov.connect(p(i), p((i + 5) % n));
        }
        ov
    }

    #[test]
    fn dense_bfs_matches_closure_collect() {
        let ov = ring_with_chords(24);
        let mut scratch = PlanScratch::default();
        for depth in 1..=3u8 {
            for s in 0..24u32 {
                let reference = Closure::collect(&ov, p(s), depth);
                scratch.collect_closure(&ov, p(s), depth);
                assert_eq!(scratch.members, reference.members(), "members diverged");
                for (i, &m) in scratch.members.iter().enumerate() {
                    assert_eq!(Some(scratch.hops[i]), reference.hop_of(m));
                    assert_eq!(scratch.slot(m), Some(i as u32));
                    // Relay hops must walk the same BFS parent chain.
                    let mut path = vec![m];
                    path.extend(scratch.relay_hops(i as u32).map(|(_, to)| to));
                    assert_eq!(path, reference.relay_path(m).unwrap());
                }
                assert!(
                    !scratch.contains(p((s + 12) % 24)) || depth > 1 || {
                        ov.are_neighbors(p(s), p((s + 12) % 24))
                    }
                );
            }
        }
    }

    #[test]
    fn internal_edges_match_closure_in_slot_space() {
        let ov = ring_with_chords(18);
        let mut scratch = PlanScratch::default();
        let reference = Closure::collect(&ov, p(4), 2);
        scratch.collect_closure(&ov, p(4), 2);
        scratch.collect_internal_edges(&ov, |_, _| Some(7));
        let got: Vec<(PeerId, PeerId)> = scratch
            .edges
            .iter()
            .map(|e| (scratch.members[e.a as usize], scratch.members[e.b as usize]))
            .collect();
        assert_eq!(got, reference.internal_edges(&ov));
    }

    #[test]
    fn epoch_reuse_does_not_leak_membership() {
        let ov = ring_with_chords(12);
        let mut scratch = PlanScratch::default();
        scratch.collect_closure(&ov, p(0), 2);
        let first_len = scratch.members.len();
        assert!(first_len > 3);
        scratch.collect_closure(&ov, p(6), 1);
        // Members of the previous closure must not appear as members now.
        for i in 0..12u32 {
            let expect = i == 6 || ov.are_neighbors(p(6), p(i));
            assert_eq!(scratch.contains(p(i)), expect, "peer {i}");
        }
    }

    #[test]
    fn known_snap_lookup_matches_members() {
        let ov = ring_with_chords(10);
        let mut scratch = PlanScratch::default();
        scratch.collect_closure(&ov, p(2), 1);
        let snap = KnownSnap::capture(&scratch, CostTable::new);
        assert!(snap.get(p(2)).is_some());
        for i in 0..10u32 {
            assert_eq!(snap.get(p(i)).is_some(), scratch.contains(p(i)));
        }
    }
}
