//! Bounded cache of pairwise neighbor-core probe results (phase 2).
//!
//! Physical distances are stable, so a measured neighbor pair is never
//! re-probed: the value rides along in the periodic table exchange
//! instead of costing a fresh round trip. The original engine kept these
//! in an unbounded `HashMap<(PeerId, PeerId), Delay>`; under sustained
//! churn the key space keeps growing (every rewire creates fresh
//! neighbor pairs), so this module bounds the cache with the same
//! explicit byte-budget model the autorate controller uses for its soft
//! state — oldest insertion evicted first, so long-stable (and therefore
//! table-refreshed) pairs are the ones that age out.
//!
//! The table is keyed by a packed `u64` (`a.raw() << 32 | b.raw()`,
//! `a <= b`) and hashed with the vendored deterministic
//! [`FxHasher`] — the round-plan hot path looks a pair up once per
//! non-adjacent neighbor pair per planning peer, and SipHash dominated
//! that loop in profiles.
//!
//! Storage is a flat open-addressing table of 16-byte slots (key, cost
//! and insertion sequence inline) at ≤ 50% load, instead of a std
//! `HashMap`: at 100k peers the plan stage issues ~6–7 M random
//! lookups per round against millions of resident pairs, so every
//! lookup is DRAM-bound and the constant factor is cache-line touches.
//! One slot read resolves the common probe (key and value share the
//! line), where the std map's control-byte group plus entry layout
//! costs two.
//!
//! Beside the table sits the *insertion log*: one 16-byte record per
//! insert, oldest first, whose position is the pair's sequence number.
//! It is the FIFO the byte budget evicts from, and it threads one chain
//! per endpoint through itself — every record names, for each of its two
//! peers, that peer's previous insertion — so a lifecycle purge walks
//! the departed peer's own pairs (newest to oldest, from a per-peer
//! head) instead of reading every slot of the table. Records are never
//! unlinked: one whose pair was purged, evicted or re-inserted no longer
//! matches its slot's sequence number and is skipped, and compaction
//! drops such records and renumbers the rest.

use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};

use ace_overlay::PeerId;
use ace_topology::Delay;

/// Deterministic FxHash-style hasher (the rustc hash): multiply-rotate
/// mixing, no per-process seed, so lookups behave identically across
/// runs. Only packed pair keys are hashed here, which is exactly the
/// input FxHash is good at.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Modeled bytes per cached pair: the map entry (key + value + sequence
/// number + bucket overhead) plus its insertion-log record. Deliberately
/// pessimistic, like the autorate controller's `ENTRY_BYTES`.
pub const ENTRY_BYTES: usize = 48;

/// Default byte budget (256 MiB ≈ 5.6 M pairs). Large enough that no
/// committed benchmark or experiment ever evicts — an eviction forces a
/// re-probe, which would perturb ledgers and digests — while still
/// bounding a multi-day churn soak.
pub const DEFAULT_BUDGET_BYTES: usize = 256 * 1024 * 1024;

/// Bookkeeping counters for the core cache, mirroring
/// [`crate::autorate::ControllerStats`]. Hit/miss totals are order
/// independent (plain sums), so they are worker-count deterministic even
/// though lookups run on the parallel plan stage.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoreCacheStats {
    /// Pairs currently cached.
    pub entries: usize,
    /// Modeled bytes currently held.
    pub bytes: usize,
    /// Largest modeled byte footprint ever reached.
    pub high_water_bytes: usize,
    /// Lookup hits since construction.
    pub hits: u64,
    /// Lookup misses since construction.
    pub misses: u64,
    /// Pairs inserted since construction.
    pub inserts: u64,
    /// Pairs evicted by the byte budget (oldest first).
    pub evictions: u64,
    /// Pairs dropped because an endpoint left the overlay.
    pub purged: u64,
}

/// One slot of the flat table. Exactly 16 bytes, so key and value share
/// a cache line and four slots pack per line.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Packed pair key; [`EMPTY`] or [`TOMB`] for vacant slots.
    key: u64,
    cost: Delay,
    /// Sequence number of the log record that inserted this entry; a
    /// record with any other number for the same key is stale.
    seq: u32,
}

/// One record of the insertion log: the pair, and per endpoint the
/// sequence number of that peer's previous insertion ([`NIL`] or a
/// number below the log's base ends the chain). 16 bytes, what the
/// `(key, seq)` queue entry it replaces took.
#[derive(Clone, Copy, Debug)]
struct LogEntry {
    lo: u32,
    hi: u32,
    next_lo: u32,
    next_hi: u32,
}

impl LogEntry {
    #[inline]
    fn key(&self) -> u64 {
        (u64::from(self.lo) << 32) | u64::from(self.hi)
    }
}

/// "No record": never a sequence number (the log renumbers from 0
/// before one could reach it).
const NIL: u32 = u32::MAX;

/// Vacant-slot sentinel: the packed self-pair `(0, 0)`. Cached pairs are
/// always two *distinct* peers, so no real key collides — and an
/// all-zero slot means a fresh table is one lazy `calloc`, not an
/// eager sentinel fill.
const EMPTY: u64 = 0;

/// Deleted-slot sentinel: the packed self-pair of peer `u32::MAX`.
/// Probes continue through tombstones; inserts reuse them.
const TOMB: u64 = u64::MAX;

/// The bounded pairwise-core cache. Lookups are `&self` (the parallel
/// plan stage shares the cache read-only); inserts, evictions and purges
/// happen only on the serial commit path.
#[derive(Debug)]
pub struct CoreCache {
    /// Flat open-addressing table, linear probing, power-of-two length.
    slots: Vec<Slot>,
    /// Live entries in `slots`.
    live: usize,
    /// Tombstoned slots in `slots` (cleared on rebuild).
    tombs: usize,
    /// Insertion log, oldest first; `log[i]` has sequence number
    /// `base + i`. Records whose number no longer matches the table
    /// (purged, evicted or re-inserted pairs) are skipped lazily.
    log: VecDeque<LogEntry>,
    /// Sequence number of `log[0]`.
    base: u32,
    /// Per peer (raw id): sequence number of its newest log record, the
    /// head of its endpoint chain. Grown on demand.
    head: Vec<u32>,
    budget_bytes: usize,
    high_water_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: u64,
    evictions: u64,
    purged: u64,
}

impl Clone for CoreCache {
    fn clone(&self) -> Self {
        CoreCache {
            slots: self.slots.clone(),
            live: self.live,
            tombs: self.tombs,
            log: self.log.clone(),
            base: self.base,
            head: self.head.clone(),
            budget_bytes: self.budget_bytes,
            high_water_bytes: self.high_water_bytes,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            inserts: self.inserts,
            evictions: self.evictions,
            purged: self.purged,
        }
    }
}

#[inline]
fn pack(a: PeerId, b: PeerId) -> u64 {
    debug_assert_ne!(a, b, "core pairs are distinct peers");
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (u64::from(lo.raw()) << 32) | u64::from(hi.raw())
}

/// Deterministic slot hash of a packed key ([`FxHasher`] over one word).
#[inline]
fn fx(key: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(key);
    h.finish()
}

/// Pulls the cache line holding `*v` toward cache by issuing an opaque
/// read of it (safe-code stand-in for a prefetch hint: a batch of these
/// is a set of independent loads the memory pipeline overlaps, where
/// the walk they front-run would serialize behind each pointer chase).
#[inline]
pub(crate) fn prefetch_read<T: Copy>(v: &T) {
    std::hint::black_box(*v);
}

impl CoreCache {
    /// Creates a cache with the given byte budget; `0` selects
    /// [`DEFAULT_BUDGET_BYTES`].
    pub fn with_budget(budget_bytes: usize) -> Self {
        CoreCache {
            slots: Vec::new(),
            live: 0,
            tombs: 0,
            log: VecDeque::new(),
            base: 0,
            head: Vec::new(),
            budget_bytes: if budget_bytes == 0 {
                DEFAULT_BUDGET_BYTES
            } else {
                budget_bytes
            },
            high_water_bytes: 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: 0,
            evictions: 0,
            purged: 0,
        }
    }

    /// Pre-sizes the table and log for an expected pair population.
    /// Growing a multi-million-entry table mid-round is a
    /// multi-hundred-millisecond rehash stall inside the serial commit
    /// stage at 100k peers; reserving at engine construction moves that
    /// cost off the timed path. Clamped to what the byte budget can
    /// hold. Reserved-but-unused capacity is not billed by the byte
    /// model, which tracks live entries (the zeroed table itself is
    /// lazily faulted by the OS and counted by peak RSS as touched).
    pub fn reserve_pairs(&mut self, pairs: usize) {
        let n = pairs.min(self.budget_bytes / ENTRY_BYTES);
        let want = (n.max(8) * 2).next_power_of_two();
        if want > self.slots.len() {
            self.rebuild(want);
        }
        self.log.reserve(n.saturating_sub(self.log.len()));
    }

    /// Position in `log` of the record numbered `seq`, if it is still
    /// there (`None` for [`NIL`] and for records already popped).
    #[inline]
    fn log_index(&self, seq: u32) -> Option<usize> {
        let i = seq.checked_sub(self.base)? as usize;
        (i < self.log.len()).then_some(i)
    }

    /// Slot of the live entry that log record `seq` (for `key`) inserted,
    /// or `None` when the record is stale.
    #[inline]
    fn live_slot(&self, key: u64, seq: u32) -> Option<usize> {
        self.find(key).filter(|&i| self.slots[i].seq == seq)
    }

    /// Index of `key` in the table, or `None`. Linear probing; deleted
    /// slots keep the chain alive, [`EMPTY`] terminates it.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (fx(key) as usize) & mask;
        loop {
            let slot = &self.slots[i];
            if slot.key == key {
                return Some(i);
            }
            if slot.key == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Pulls the pair's home slot toward cache. The plan stage probes
    /// tens of pairs per peer against a table far larger than cache;
    /// staging these ahead of the probes overlaps the DRAM misses
    /// instead of serializing them. Counts nothing.
    #[inline]
    pub fn prefetch(&self, a: PeerId, b: PeerId) {
        if !self.slots.is_empty() {
            let i = (fx(pack(a, b)) as usize) & (self.slots.len() - 1);
            prefetch_read(&self.slots[i]);
        }
    }

    /// Cached cost of the (unordered) pair, counting the hit or miss.
    #[inline]
    pub fn get(&self, a: PeerId, b: PeerId) -> Option<Delay> {
        match self.find(pack(a, b)) {
            Some(i) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(self.slots[i].cost)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Re-seats every live entry in a fresh zeroed table of `cap` slots
    /// (power of two), dropping tombstones.
    fn rebuild(&mut self, cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); cap]);
        self.tombs = 0;
        let mask = cap - 1;
        for slot in old {
            if slot.key == EMPTY || slot.key == TOMB {
                continue;
            }
            let mut i = (fx(slot.key) as usize) & mask;
            while self.slots[i].key != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Inserts the pair unless already present (first value wins, exactly
    /// like the old `entry(..).or_insert(..)`), then enforces the byte
    /// budget by evicting oldest-inserted pairs.
    pub fn insert_if_absent(&mut self, a: PeerId, b: PeerId, cost: Delay) {
        let key = pack(a, b);
        // Keep load (live + tombstones) at or under 50%.
        if (self.live + self.tombs + 1) * 2 > self.slots.len() {
            let want = ((self.live + 1).max(8) * 4).next_power_of_two();
            self.rebuild(want.max(self.slots.len()));
        }
        // Sequence numbers stay below `NIL`: renumber from 0 first.
        if u64::from(self.base) + self.log.len() as u64 >= u64::from(NIL) {
            self.compact();
        }
        let seq = self.base + self.log.len() as u32;
        let mask = self.slots.len() - 1;
        let mut i = (fx(key) as usize) & mask;
        let mut vacant = None;
        loop {
            let slot = &self.slots[i];
            if slot.key == key {
                return; // first value wins
            }
            if slot.key == TOMB {
                vacant.get_or_insert(i);
            } else if slot.key == EMPTY {
                let at = vacant.unwrap_or(i);
                if self.slots[at].key == TOMB {
                    self.tombs -= 1;
                }
                self.slots[at] = Slot { key, cost, seq };
                break;
            }
            i = (i + 1) & mask;
        }
        self.live += 1;
        let (lo, hi) = ((key >> 32) as u32, key as u32);
        if self.head.len() <= hi as usize {
            self.head.resize(hi as usize + 1, NIL);
        }
        self.log.push_back(LogEntry {
            lo,
            hi,
            next_lo: std::mem::replace(&mut self.head[lo as usize], seq),
            next_hi: std::mem::replace(&mut self.head[hi as usize], seq),
        });
        self.inserts += 1;
        self.enforce_budget();
        self.high_water_bytes = self.high_water_bytes.max(self.bytes());
    }

    /// Tombstones the slot at `i`.
    fn remove_at(&mut self, i: usize) {
        self.slots[i].key = TOMB;
        self.live -= 1;
        self.tombs += 1;
    }

    fn enforce_budget(&mut self) {
        while self.bytes() > self.budget_bytes {
            let Some(e) = self.log.pop_front() else {
                break;
            };
            let seq = self.base;
            self.base += 1;
            // A stale record (purged or superseded entry) frees only itself.
            if let Some(i) = self.live_slot(e.key(), seq) {
                self.remove_at(i);
                self.evictions += 1;
            }
        }
        // A purge-heavy run can leave the log full of stale records that
        // model bytes nothing holds; compact once staleness dominates.
        if self.log.len() > 2 * self.live + 16 {
            self.compact();
        }
    }

    /// Drops every stale record, renumbers the kept ones from 0 (so
    /// `Slot::seq` follows) and relinks the endpoint chains — in place:
    /// a kept record only ever moves toward the front.
    fn compact(&mut self) {
        self.head.fill(NIL);
        let mut kept = 0u32;
        for i in 0..self.log.len() {
            let e = self.log[i];
            // Slots renumbered earlier in this pass hold numbers `< kept
            // <= i`, so they cannot pass for the old number `base + i`.
            let Some(s) = self.live_slot(e.key(), self.base + i as u32) else {
                continue;
            };
            self.slots[s].seq = kept;
            self.log[kept as usize] = LogEntry {
                next_lo: std::mem::replace(&mut self.head[e.lo as usize], kept),
                next_hi: std::mem::replace(&mut self.head[e.hi as usize], kept),
                ..e
            };
            kept += 1;
        }
        self.log.truncate(kept as usize);
        self.base = 0;
    }

    /// Drops every pair with `peer` as an endpoint (lifecycle purge) by
    /// walking the peer's chain through the insertion log: the cost is
    /// the pairs this peer was ever inserted with since the last
    /// compaction, whatever the size of the table.
    pub fn purge_endpoint(&mut self, peer: PeerId) {
        let raw = peer.raw();
        let Some(head) = self.head.get_mut(raw as usize) else {
            return;
        };
        let mut link = std::mem::replace(head, NIL);
        while let Some(i) = self.log_index(link) {
            #[cfg(test)]
            crate::steps::bump();
            let e = self.log[i];
            if let Some(s) = self.live_slot(e.key(), link) {
                self.remove_at(s);
                self.purged += 1;
            }
            link = if e.lo == raw { e.next_lo } else { e.next_hi };
        }
    }

    /// Audits the insertion log against the table: every live entry has
    /// its log record, and that record is reachable from the chains of
    /// both its endpoints (so [`Self::purge_endpoint`] cannot miss it).
    pub(crate) fn check_index(&self) -> Result<(), String> {
        for slot in &self.slots {
            if slot.key == EMPTY || slot.key == TOMB {
                continue;
            }
            let rec = self.log_index(slot.seq).map(|i| self.log[i].key());
            if rec != Some(slot.key) {
                return Err(format!(
                    "core pair {:#x} (seq {}) has no log record",
                    slot.key, slot.seq
                ));
            }
        }
        let mut reached = 0usize;
        for (peer, &head) in self.head.iter().enumerate() {
            let (mut link, mut prev) = (head, NIL);
            while let Some(i) = self.log_index(link) {
                let e = self.log[i];
                let on_chain = e.lo as usize == peer || e.hi as usize == peer;
                if !on_chain || link >= prev {
                    return Err(format!(
                        "core-cache chain of peer {peer} is corrupt at {link}"
                    ));
                }
                reached += usize::from(self.live_slot(e.key(), link).is_some());
                prev = link;
                link = if e.lo as usize == peer {
                    e.next_lo
                } else {
                    e.next_hi
                };
            }
        }
        if reached != 2 * self.live {
            return Err(format!(
                "core-cache chains reach {reached} endpoint slots of {} live pairs",
                self.live
            ));
        }
        Ok(())
    }

    /// Every live `(packed key, cost)`, sorted — for tests that compare
    /// whole cache contents.
    #[cfg(test)]
    pub(crate) fn live_pairs(&self) -> Vec<(u64, Delay)> {
        let live = |s: &&Slot| s.key != EMPTY && s.key != TOMB;
        let mut pairs: Vec<_> = (self.slots.iter().filter(live))
            .map(|s| (s.key, s.cost))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Modeled byte footprint: live entries plus stale (not yet
    /// compacted) log records, each at [`ENTRY_BYTES`].
    pub fn bytes(&self) -> usize {
        self.live.max(self.log.len()) * ENTRY_BYTES
    }

    /// Snapshot of the bookkeeping counters.
    pub fn stats(&self) -> CoreCacheStats {
        CoreCacheStats {
            entries: self.live,
            bytes: self.bytes(),
            high_water_bytes: self.high_water_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts,
            evictions: self.evictions,
            purged: self.purged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    #[test]
    fn get_is_order_insensitive_and_first_value_wins() {
        let mut c = CoreCache::with_budget(0);
        c.insert_if_absent(p(3), p(1), 10);
        assert_eq!(c.get(p(1), p(3)), Some(10));
        c.insert_if_absent(p(1), p(3), 99);
        assert_eq!(c.get(p(3), p(1)), Some(10), "first value wins");
        assert_eq!(c.stats().entries, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (2, 0, 1));
    }

    #[test]
    fn budget_evicts_oldest_first() {
        let mut c = CoreCache::with_budget(3 * ENTRY_BYTES);
        for i in 0..5u32 {
            c.insert_if_absent(p(i), p(i + 100), i);
        }
        assert_eq!(c.stats().entries, 3);
        assert_eq!(c.get(p(0), p(100)), None, "oldest evicted");
        assert_eq!(c.get(p(1), p(101)), None);
        assert_eq!(c.get(p(4), p(104)), Some(4), "newest kept");
        assert_eq!(c.stats().evictions, 2);
        assert!(c.stats().high_water_bytes <= 4 * ENTRY_BYTES);
    }

    #[test]
    fn purge_drops_both_key_positions_and_survives_reinsert() {
        let mut c = CoreCache::with_budget(0);
        c.insert_if_absent(p(1), p(2), 5);
        c.insert_if_absent(p(2), p(3), 6);
        c.insert_if_absent(p(4), p(5), 7);
        c.purge_endpoint(p(2));
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().purged, 2);
        // Re-inserting a purged pair must not be evicted by its own stale
        // queue slot.
        c.insert_if_absent(p(1), p(2), 8);
        assert_eq!(c.get(p(1), p(2)), Some(8));
    }

    #[test]
    fn stale_queue_slots_are_compacted() {
        let mut c = CoreCache::with_budget(0);
        for i in 0..100u32 {
            c.insert_if_absent(p(i), p(i + 1000), 1);
        }
        for i in 0..99u32 {
            c.purge_endpoint(p(i));
        }
        // One more insert triggers enforce_budget's compaction check.
        c.insert_if_absent(p(500), p(501), 2);
        assert!(c.log.len() <= 2 * c.live + 16);
    }

    #[test]
    fn purge_walks_the_peers_chain_not_the_table() {
        let mut c = CoreCache::with_budget(0);
        c.reserve_pairs(400_000);
        // 200k pairs among peers 0..1000, in a 1M-slot table.
        let mut n = 0u32;
        'fill: for a in 0..1000u32 {
            for b in (a + 1)..1000 {
                c.insert_if_absent(p(a), p(b), 1);
                n += 1;
                if n == 200_000 {
                    break 'fill;
                }
            }
        }
        assert_eq!(c.slots.len(), 1 << 20);
        for partner in [7, 500, 999] {
            c.insert_if_absent(p(5000), p(partner), 2);
        }
        crate::steps::take();
        c.purge_endpoint(p(5000));
        assert!(
            crate::steps::take() <= 3,
            "walked more than the peer's own pairs"
        );
        assert_eq!(c.stats().purged, 3);
        assert_eq!(c.stats().entries, 200_000);
        c.purge_endpoint(p(123_456)); // never seen: nothing to walk
        assert_eq!(crate::steps::take(), 0);
        c.check_index().unwrap();
    }

    #[test]
    fn sequence_numbers_renumber_before_they_run_out() {
        let mut c = CoreCache::with_budget(3 * ENTRY_BYTES);
        c.base = NIL - 4; // an empty log that has seen almost 2^32 inserts
        for i in 0..20u32 {
            c.insert_if_absent(p(i), p(i + 100), i);
            c.check_index().unwrap();
        }
        assert!(c.base < 20, "renumbered from 0 on the way");
        assert_eq!(c.stats().entries, 3);
        assert_eq!(c.stats().evictions, 17);
        assert_eq!(c.get(p(19), p(119)), Some(19));
        c.purge_endpoint(p(119));
        assert_eq!(c.stats().entries, 2);
    }

    /// What the cache replaced, kept as the reference: a `HashMap` table,
    /// a `(key, seq)` queue, and a purge that reads every entry.
    struct Model {
        map: std::collections::HashMap<u64, (Delay, u64)>,
        fifo: VecDeque<(u64, u64)>,
        next_seq: u64,
        budget: usize,
        stats: CoreCacheStats,
    }

    impl Model {
        fn bytes(&self) -> usize {
            self.map.len().max(self.fifo.len()) * ENTRY_BYTES
        }

        fn live(&self, key: u64, seq: u64) -> bool {
            self.map.get(&key).is_some_and(|e| e.1 == seq)
        }

        fn insert(&mut self, a: PeerId, b: PeerId, cost: Delay) {
            let key = pack(a, b);
            if self.map.contains_key(&key) {
                return;
            }
            self.map.insert(key, (cost, self.next_seq));
            self.fifo.push_back((key, self.next_seq));
            self.next_seq += 1;
            self.stats.inserts += 1;
            while self.bytes() > self.budget {
                let Some((key, seq)) = self.fifo.pop_front() else {
                    break;
                };
                if self.live(key, seq) {
                    self.map.remove(&key);
                    self.stats.evictions += 1;
                }
            }
            if self.fifo.len() > 2 * self.map.len() + 16 {
                let fifo = std::mem::take(&mut self.fifo);
                self.fifo = fifo.into_iter().filter(|&(k, s)| self.live(k, s)).collect();
            }
            self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.bytes());
        }

        fn purge(&mut self, peer: PeerId) {
            let raw = u64::from(peer.raw());
            let before = self.map.len();
            self.map
                .retain(|&key, _| key >> 32 != raw && key & 0xFFFF_FFFF != raw);
            self.stats.purged += (before - self.map.len()) as u64;
        }

        fn get(&mut self, a: PeerId, b: PeerId) -> Option<Delay> {
            let hit = self.map.get(&pack(a, b)).map(|e| e.0);
            *(if hit.is_some() {
                &mut self.stats.hits
            } else {
                &mut self.stats.misses
            }) += 1;
            hit
        }

        fn stats(&self) -> CoreCacheStats {
            CoreCacheStats {
                entries: self.map.len(),
                bytes: self.bytes(),
                ..self.stats
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random inserts, purges and lookups over a small id space —
        /// so pairs are re-inserted after a purge, both endpoints of a
        /// pair get purged, purges follow evictions and stale records
        /// pile up until compaction — under a budget that is tiny for
        /// two cases in three. After every operation the counters, every
        /// pair's value and the chain audit agree with the model.
        #[test]
        fn cache_matches_the_map_and_queue_model(seed in 0u64..1_000_000) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let budget = [0, 12 * ENTRY_BYTES, 40 * ENTRY_BYTES][(seed % 3) as usize];
            let ids = 8 + (seed % 17) as u32;
            let mut c = CoreCache::with_budget(budget);
            let mut m = Model {
                map: Default::default(),
                fifo: VecDeque::new(),
                next_seq: 0,
                budget: c.budget_bytes,
                stats: CoreCacheStats::default(),
            };
            for _ in 0..600 {
                let (a, b) = (p(rng.gen_range(0..ids)), p(rng.gen_range(0..ids)));
                match rng.gen_range(0..10) {
                    0..=5 if a != b => {
                        let cost = rng.gen_range(1..1000);
                        c.insert_if_absent(a, b, cost);
                        m.insert(a, b, cost);
                    }
                    6..=7 => {
                        c.purge_endpoint(a);
                        m.purge(a);
                    }
                    _ if a != b => proptest::prop_assert_eq!(c.get(a, b), m.get(a, b)),
                    _ => {}
                }
                proptest::prop_assert_eq!(c.stats(), m.stats());
                proptest::prop_assert_eq!(c.check_index(), Ok(()));
            }
            for a in 0..ids {
                for b in (a + 1)..ids {
                    proptest::prop_assert_eq!(c.get(p(a), p(b)), m.get(p(a), p(b)));
                }
            }
        }
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        let mut a = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        let mut b = FxHasher::default();
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u64(0xDEAD_BEF0);
        assert_ne!(a.finish(), c.finish());
    }
}
