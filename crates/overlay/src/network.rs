//! The logical overlay network.
//!
//! An [`Overlay`] maps every logical peer to a physical host node and
//! maintains the (undirected) logical neighbor relation, the alive/offline
//! state, and each peer's address cache — the paper's model of Gnutella
//! servents that cache the IP addresses they learn (here: of every peer
//! they were ever linked to) and reconnect to cached addresses on rejoin.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

use ace_topology::{Delay, DistancePlane, NodeId};

use crate::peer::PeerId;

/// Maximum number of cached peer addresses kept per peer.
pub const ADDR_CACHE_CAP: usize = 32;

/// Neighbor-list stamps are handed out in blocks of this many.
const STAMP_BLOCK: u64 = 1 << 16;

/// The next unissued block of stamps. One counter for the whole process,
/// so no stamp value is issued twice; it starts at block 1, so 0 is never
/// issued.
static NEXT_STAMP_BLOCK: AtomicU64 = AtomicU64::new(1);

/// An overlay's supply of fresh neighbor-list stamps: a block reserved
/// from the process-wide counter, so a list write touches the shared
/// counter once per block instead of once per write. A copy of an
/// overlay reserves a block of its own — it must never issue a stamp the
/// original will issue.
#[derive(Debug)]
struct Stamps {
    next: u64,
    end: u64,
}

impl Stamps {
    fn reserve() -> Self {
        let start = NEXT_STAMP_BLOCK.fetch_add(1, Ordering::Relaxed) * STAMP_BLOCK;
        Stamps {
            next: start,
            end: start + STAMP_BLOCK,
        }
    }

    fn fresh(&mut self) -> u64 {
        if self.next == self.end {
            *self = Stamps::reserve();
        }
        self.next += 1;
        self.next - 1
    }
}

impl Clone for Stamps {
    fn clone(&self) -> Self {
        Stamps::reserve()
    }
}

/// One peer's neighbors and the stamp of this version of the list, side
/// by side: a mutation writes the stamp on the line it already touches.
#[derive(Clone, Debug)]
struct NbrList {
    peers: Vec<PeerId>,
    stamp: u64,
}

/// The logical overlay network on top of a physical topology.
///
/// Invariants (checked by `debug_assert` and the test suite):
/// * adjacency is symmetric and free of self-loops and duplicates;
/// * dead peers have no incident edges;
/// * no peer exceeds `max_degree` (when set).
///
/// # Examples
///
/// ```
/// use ace_overlay::{Overlay, PeerId};
/// use ace_topology::NodeId;
///
/// let hosts = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)];
/// let mut ov = Overlay::new(hosts, None);
/// ov.connect(PeerId::new(0), PeerId::new(1)).unwrap();
/// assert!(ov.are_neighbors(PeerId::new(0), PeerId::new(1)));
/// assert_eq!(ov.degree(PeerId::new(0)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Overlay {
    hosts: Vec<NodeId>,
    alive: Vec<bool>,
    /// `true` entries of `alive`, kept by `leave` / `join`.
    alive_count: usize,
    nbrs: Vec<NbrList>,
    addr_cache: Vec<Vec<PeerId>>,
    max_degree: Option<usize>,
    edge_count: usize,
    stamps: Stamps,
}

/// Error for invalid overlay mutations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OverlayError {
    /// Peer index out of range.
    UnknownPeer(PeerId),
    /// Operation on a peer that is offline.
    PeerOffline(PeerId),
    /// Attempted self-connection.
    SelfConnection(PeerId),
    /// The connection already exists.
    AlreadyConnected(PeerId, PeerId),
    /// [`Overlay::join`] was called on a peer that is already online.
    PeerOnline(PeerId),
    /// The peers are not connected.
    NotConnected(PeerId, PeerId),
    /// Connecting would exceed the degree cap for the given peer.
    DegreeCapReached(PeerId),
}

impl std::fmt::Display for OverlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverlayError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            OverlayError::PeerOffline(p) => write!(f, "peer {p} is offline"),
            OverlayError::SelfConnection(p) => write!(f, "peer {p} cannot connect to itself"),
            OverlayError::AlreadyConnected(a, b) => write!(f, "{a} and {b} already connected"),
            OverlayError::PeerOnline(p) => write!(f, "peer {p} is already online"),
            OverlayError::NotConnected(a, b) => write!(f, "{a} and {b} not connected"),
            OverlayError::DegreeCapReached(p) => write!(f, "degree cap reached at {p}"),
        }
    }
}

impl std::error::Error for OverlayError {}

impl Overlay {
    /// Creates an overlay of all-alive, unconnected peers hosted on the
    /// given physical nodes. `max_degree`, when set, caps every peer's
    /// neighbor count (must be >= 1).
    ///
    /// # Panics
    ///
    /// Panics if `max_degree == Some(0)`.
    pub fn new(hosts: Vec<NodeId>, max_degree: Option<usize>) -> Self {
        assert!(max_degree != Some(0), "degree cap must be at least 1");
        let n = hosts.len();
        let mut stamps = Stamps::reserve();
        let empty = NbrList {
            peers: Vec::new(),
            stamp: stamps.fresh(),
        };
        Overlay {
            hosts,
            alive: vec![true; n],
            alive_count: n,
            nbrs: vec![empty; n],
            addr_cache: vec![Vec::new(); n],
            max_degree,
            edge_count: 0,
            stamps,
        }
    }

    /// Number of peers (alive or not).
    pub fn peer_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of alive peers.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Number of logical connections.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.hosts.len() as u32).map(PeerId::new)
    }

    /// Iterator over alive peer ids.
    pub fn alive_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.peers().filter(|&p| self.is_alive(p))
    }

    /// Physical host of `peer`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is out of range.
    pub fn host(&self, peer: PeerId) -> NodeId {
        self.hosts[peer.index()]
    }

    /// True if the peer is currently online.
    pub fn is_alive(&self, peer: PeerId) -> bool {
        self.alive.get(peer.index()).copied().unwrap_or(false)
    }

    /// The configured degree cap, if any.
    pub fn max_degree(&self) -> Option<usize> {
        self.max_degree
    }

    /// Logical neighbors of `peer`; empty for offline peers and for an
    /// id the overlay was not built for.
    #[inline]
    pub fn neighbors(&self, peer: PeerId) -> &[PeerId] {
        self.nbrs.get(peer.index()).map_or(&[], |l| &l.peers)
    }

    /// An opaque stamp of `peer`'s neighbor list: equal stamps mean equal
    /// lists. Every `connect`, `disconnect` and `leave` that changes a
    /// list gives it a stamp no overlay in the process has held before,
    /// so two reads — from this overlay or from any copy of it — that
    /// return the same stamp saw the same list. Never 0 for a known
    /// peer; 0 for an id the overlay was not built for.
    #[inline]
    pub fn neighbors_stamp(&self, peer: PeerId) -> u64 {
        self.nbrs.get(peer.index()).map_or(0, |l| l.stamp)
    }

    /// Pulls `peer`'s neighbor-list header (the inner `Vec` triple, a
    /// random line of a peer-count-sized vec) toward cache by issuing
    /// an opaque read of it. Batch walks call this for every peer in
    /// the batch first, so the independent loads overlap in the memory
    /// pipeline instead of serializing behind each pointer chase.
    #[inline]
    pub fn prefetch_neighbors(&self, peer: PeerId) {
        std::hint::black_box(self.nbrs.get(peer.index()).map(|l| l.peers.len()));
    }

    /// Degree of `peer`.
    pub fn degree(&self, peer: PeerId) -> usize {
        self.nbrs.get(peer.index()).map_or(0, |l| l.peers.len())
    }

    /// Average degree over alive peers (0 when none).
    pub fn average_degree(&self) -> f64 {
        let alive = self.alive_count();
        if alive == 0 {
            0.0
        } else {
            2.0 * self.edge_count as f64 / alive as f64
        }
    }

    /// True if `a` and `b` are directly connected.
    pub fn are_neighbors(&self, a: PeerId, b: PeerId) -> bool {
        self.nbrs
            .get(a.index())
            .is_some_and(|l| l.peers.contains(&b))
    }

    /// The peer's cached addresses (most recently learned last); empty
    /// for an id the overlay was not built for.
    pub fn addr_cache(&self, peer: PeerId) -> &[PeerId] {
        self.addr_cache.get(peer.index()).map_or(&[], Vec::as_slice)
    }

    /// Physical shortest-path delay between the hosts of two peers — the
    /// cost of one unit-size message on logical link `a-b`.
    pub fn link_cost(&self, oracle: &dyn DistancePlane, a: PeerId, b: PeerId) -> Delay {
        oracle.distance(self.host(a), self.host(b))
    }

    fn check_peer(&self, p: PeerId) -> Result<(), OverlayError> {
        if p.index() >= self.hosts.len() {
            return Err(OverlayError::UnknownPeer(p));
        }
        if !self.alive[p.index()] {
            return Err(OverlayError::PeerOffline(p));
        }
        Ok(())
    }

    /// Connects two alive peers.
    ///
    /// # Errors
    ///
    /// Fails when either peer is unknown/offline, `a == b`, the link
    /// exists, or a degree cap would be exceeded.
    pub fn connect(&mut self, a: PeerId, b: PeerId) -> Result<(), OverlayError> {
        self.check_peer(a)?;
        self.check_peer(b)?;
        if a == b {
            return Err(OverlayError::SelfConnection(a));
        }
        if self.are_neighbors(a, b) {
            return Err(OverlayError::AlreadyConnected(a, b));
        }
        if let Some(cap) = self.max_degree {
            if self.degree(a) >= cap {
                return Err(OverlayError::DegreeCapReached(a));
            }
            if self.degree(b) >= cap {
                return Err(OverlayError::DegreeCapReached(b));
            }
        }
        let stamp = self.stamps.fresh();
        for (p, q) in [(a, b), (b, a)] {
            let list = &mut self.nbrs[p.index()];
            list.peers.push(q);
            list.stamp = stamp;
        }
        self.edge_count += 1;
        self.remember(a, b);
        self.remember(b, a);
        Ok(())
    }

    /// Disconnects two peers.
    ///
    /// # Errors
    ///
    /// Fails when the link does not exist or a peer is unknown.
    pub fn disconnect(&mut self, a: PeerId, b: PeerId) -> Result<(), OverlayError> {
        if a.index() >= self.hosts.len() {
            return Err(OverlayError::UnknownPeer(a));
        }
        if b.index() >= self.hosts.len() {
            return Err(OverlayError::UnknownPeer(b));
        }
        if !self.are_neighbors(a, b) {
            return Err(OverlayError::NotConnected(a, b));
        }
        let stamp = self.stamps.fresh();
        for (p, q) in [(a, b), (b, a)] {
            let list = &mut self.nbrs[p.index()];
            list.peers.retain(|&n| n != q);
            list.stamp = stamp;
        }
        self.edge_count -= 1;
        Ok(())
    }

    /// Records `addr` in `peer`'s address cache (LRU, capacity
    /// [`ADDR_CACHE_CAP`]).
    fn remember(&mut self, peer: PeerId, addr: PeerId) {
        if peer == addr {
            return;
        }
        let cache = &mut self.addr_cache[peer.index()];
        cache.retain(|&p| p != addr);
        cache.push(addr);
        if cache.len() > ADDR_CACHE_CAP {
            cache.remove(0);
        }
    }

    /// Takes `peer` offline, dropping all of its links. Ex-neighbors keep
    /// the peer in their address caches (it may come back). Returns the
    /// former neighbor list.
    ///
    /// # Errors
    ///
    /// Fails when the peer is unknown or already offline.
    pub fn leave(&mut self, peer: PeerId) -> Result<Vec<PeerId>, OverlayError> {
        self.check_peer(peer)?;
        let stamp = self.stamps.fresh();
        let list = &mut self.nbrs[peer.index()];
        let former = std::mem::take(&mut list.peers);
        list.stamp = stamp;
        for &n in &former {
            let list = &mut self.nbrs[n.index()];
            list.peers.retain(|&p| p != peer);
            list.stamp = stamp;
        }
        self.edge_count -= former.len();
        self.alive[peer.index()] = false;
        self.alive_count -= 1;
        Ok(former)
    }

    /// Brings `peer` online and connects it to up to `attach` targets:
    /// first alive cached addresses (most recent first — the paper's
    /// rejoin-from-cache behaviour), then random alive peers supplied by
    /// the bootstrap. Returns the established neighbor list.
    ///
    /// The bootstrap is consulted only when the address cache left the
    /// targets short. Each draw is a rank `k` among the other alive
    /// peers, resolved to the `k`-th alive id in id order — no list of
    /// the population is materialised.
    ///
    /// # Errors
    ///
    /// Fails with [`OverlayError::UnknownPeer`] for an out-of-range id and
    /// with [`OverlayError::PeerOnline`] when the peer is already online
    /// (distinct from [`OverlayError::AlreadyConnected`], which is about a
    /// duplicate *link*).
    pub fn join<R: Rng + ?Sized>(
        &mut self,
        peer: PeerId,
        attach: usize,
        rng: &mut R,
    ) -> Result<Vec<PeerId>, OverlayError> {
        if peer.index() >= self.hosts.len() {
            return Err(OverlayError::UnknownPeer(peer));
        }
        if self.alive[peer.index()] {
            return Err(OverlayError::PeerOnline(peer));
        }
        self.alive[peer.index()] = true;
        self.alive_count += 1;

        let mut targets: Vec<PeerId> = Vec::with_capacity(attach);
        // Cached addresses, most recently learned first.
        let cached: Vec<PeerId> = self.addr_cache[peer.index()]
            .iter()
            .rev()
            .copied()
            .collect();
        for cand in cached {
            if targets.len() >= attach {
                break;
            }
            if self.is_alive(cand) && cand != peer && !targets.contains(&cand) {
                targets.push(cand);
            }
        }
        // Bootstrap: random alive peers.
        let others = self.alive_count - 1;
        let mut guard = 0;
        while targets.len() < attach && targets.len() < others && guard < 64 * attach + 64 {
            guard += 1;
            let cand = self.kth_alive_other(rng.gen_range(0..others), peer);
            if !targets.contains(&cand) {
                targets.push(cand);
            }
        }

        let mut connected = Vec::new();
        for t in targets {
            if self.connect(peer, t).is_ok() {
                connected.push(t);
            }
        }
        Ok(connected)
    }

    /// The `k`-th alive peer other than `skip` (itself alive), in id
    /// order. Whole 64-flag blocks are skipped by their alive count, so
    /// a draw reads the flag array once, mostly as wide sums.
    fn kth_alive_other(&self, mut k: usize, skip: PeerId) -> PeerId {
        let mut start = 0;
        for block in self.alive.chunks(64) {
            let end = start + block.len();
            let here = block.iter().filter(|&&a| a).count()
                - usize::from((start..end).contains(&skip.index()));
            if k < here {
                break;
            }
            k -= here;
            start = end;
        }
        (start..self.alive.len())
            .filter(|&i| self.alive[i] && i != skip.index())
            .nth(k)
            .map(|i| PeerId::new(i as u32))
            .expect("rank below the number of other alive peers")
    }

    /// Checks structural invariants; used by tests and `debug_assert`s.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.alive_count != self.alive.iter().filter(|&&a| a).count() {
            return Err(format!("alive count {} is stale", self.alive_count));
        }
        let mut edges = 0usize;
        for p in self.peers() {
            let nbrs = &self.nbrs[p.index()].peers;
            if !self.alive[p.index()] && !nbrs.is_empty() {
                return Err(format!("offline {p} has neighbors"));
            }
            let mut seen = std::collections::HashSet::new();
            for &n in nbrs {
                if n == p {
                    return Err(format!("{p} self-loop"));
                }
                if !seen.insert(n) {
                    return Err(format!("{p} duplicate neighbor {n}"));
                }
                if !self.nbrs[n.index()].peers.contains(&p) {
                    return Err(format!("asymmetric edge {p}-{n}"));
                }
                edges += 1;
            }
            if let Some(cap) = self.max_degree {
                if nbrs.len() > cap {
                    return Err(format!("{p} exceeds degree cap"));
                }
            }
        }
        if edges != 2 * self.edge_count {
            return Err(format!(
                "edge count {} vs adjacency {}",
                self.edge_count, edges
            ));
        }
        Ok(())
    }

    /// Number of alive peers reachable from `start` via overlay links
    /// (including `start`); 0 if `start` is offline.
    pub fn reachable_from(&self, start: PeerId) -> usize {
        if !self.is_alive(start) {
            return 0;
        }
        let mut seen = vec![false; self.peer_count()];
        let mut stack = vec![start];
        let mut count = 0;
        seen[start.index()] = true;
        while let Some(u) = stack.pop() {
            count += 1;
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        count
    }

    /// True if all alive peers form one connected component.
    pub fn is_connected(&self) -> bool {
        match self.alive_peers().next() {
            None => true,
            Some(first) => self.reachable_from(first) == self.alive_count(),
        }
    }
}

/// Builds a random overlay in the paper's style: peers "arrive" in random
/// order and each connects to `avg_degree / 2` previously arrived random
/// peers, yielding an average degree close to `avg_degree`. Bridges any
/// disconnected leftovers.
///
/// # Panics
///
/// Panics if `avg_degree < 2` or fewer than 2 hosts are given.
pub fn random_overlay<R: Rng + ?Sized>(
    hosts: Vec<NodeId>,
    avg_degree: usize,
    max_degree: Option<usize>,
    rng: &mut R,
) -> Overlay {
    assert!(hosts.len() >= 2, "need at least two peers");
    assert!(avg_degree >= 2, "average degree must be at least 2");
    let n = hosts.len();
    let attach = (avg_degree / 2).max(1);
    let mut ov = Overlay::new(hosts, max_degree);

    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for (pos, &pi) in order.iter().enumerate().skip(1) {
        let p = PeerId::new(pi as u32);
        let avail = pos.min(attach);
        let mut made = 0;
        let mut guard = 0;
        while made < avail && guard < 64 * attach + 64 {
            guard += 1;
            let t = PeerId::new(order[rng.gen_range(0..pos)] as u32);
            if ov.connect(p, t).is_ok() {
                made += 1;
            }
        }
    }
    bridge_components(&mut ov, rng);
    debug_assert!(ov.check_invariants().is_ok());
    ov
}

/// Builds a preferential-attachment overlay (power-law degrees, the
/// paper's observed Gnutella shape): each arriving peer connects to
/// `avg_degree / 2` existing peers chosen proportionally to degree + 1.
///
/// # Panics
///
/// Panics if `avg_degree < 2` or fewer than 2 hosts are given.
pub fn pref_attach_overlay<R: Rng + ?Sized>(
    hosts: Vec<NodeId>,
    avg_degree: usize,
    max_degree: Option<usize>,
    rng: &mut R,
) -> Overlay {
    assert!(hosts.len() >= 2, "need at least two peers");
    assert!(avg_degree >= 2, "average degree must be at least 2");
    let n = hosts.len();
    let attach = (avg_degree / 2).max(1);
    let mut ov = Overlay::new(hosts, max_degree);
    // Urn with one "virtual" token per peer so zero-degree peers are reachable.
    let mut urn: Vec<u32> = vec![0];
    for i in 1..n {
        let p = PeerId::new(i as u32);
        let mut made = 0;
        let mut guard = 0;
        while made < attach.min(i) && guard < 64 * attach + 64 {
            guard += 1;
            let t = PeerId::new(urn[rng.gen_range(0..urn.len())]);
            if ov.connect(p, t).is_ok() {
                urn.push(p.raw());
                urn.push(t.raw());
                made += 1;
            }
        }
        urn.push(p.raw());
    }
    bridge_components(&mut ov, rng);
    debug_assert!(ov.check_invariants().is_ok());
    ov
}

/// Builds a clustered, small-world overlay via friend-of-friend
/// attachment: each arriving peer connects to a random *anchor* among the
/// peers already present and then, with probability `locality`, to
/// neighbors of its existing targets (the horizon a Gnutella servent's
/// pings reach) rather than to fresh random peers.
///
/// Real Gnutella snapshots show exactly this local clustering — a new
/// servent learns addresses by crawling outward from its bootstrap point —
/// and ACE's phase 2 depends on it: a peer can only tree-optimize its
/// neighborhood if some of its neighbors know each other.
///
/// # Panics
///
/// Panics if fewer than 2 hosts, `avg_degree < 2`, or `locality` is
/// outside `[0, 1]`.
pub fn clustered_overlay<R: Rng + ?Sized>(
    hosts: Vec<NodeId>,
    avg_degree: usize,
    locality: f64,
    max_degree: Option<usize>,
    rng: &mut R,
) -> Overlay {
    assert!(hosts.len() >= 2, "need at least two peers");
    assert!(avg_degree >= 2, "average degree must be at least 2");
    assert!((0.0..=1.0).contains(&locality), "locality must be in [0,1]");
    let n = hosts.len();
    let attach = (avg_degree / 2).max(1);
    let mut ov = Overlay::new(hosts, max_degree);

    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for (pos, &pi) in order.iter().enumerate().skip(1) {
        let p = PeerId::new(pi as u32);
        let mut targets: Vec<PeerId> = Vec::with_capacity(attach);
        let mut guard = 0;
        while targets.len() < attach.min(pos) && guard < 64 * attach + 64 {
            guard += 1;
            let candidate = if targets.is_empty() || !rng.gen_bool(locality) {
                // Bootstrap-style random pick among earlier arrivals.
                PeerId::new(order[rng.gen_range(0..pos)] as u32)
            } else {
                // Friend-of-friend: a neighbor of an existing target.
                let t = targets[rng.gen_range(0..targets.len())];
                let nbrs = ov.neighbors(t);
                if nbrs.is_empty() {
                    continue;
                }
                nbrs[rng.gen_range(0..nbrs.len())]
            };
            if candidate != p && !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        for t in targets {
            let _ = ov.connect(p, t);
        }
    }
    bridge_components(&mut ov, rng);
    debug_assert!(ov.check_invariants().is_ok());
    ov
}

/// Connects disconnected alive components with random links.
fn bridge_components<R: Rng + ?Sized>(ov: &mut Overlay, _rng: &mut R) {
    loop {
        let alive: Vec<PeerId> = ov.alive_peers().collect();
        let Some(&first) = alive.first() else { return };
        let mut seen = vec![false; ov.peer_count()];
        let mut stack = vec![first];
        seen[first.index()] = true;
        while let Some(u) = stack.pop() {
            for &v in ov.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        let Some(&outside) = alive.iter().find(|p| !seen[p.index()]) else {
            return;
        };
        // Connect a component representative to the main component; ignore
        // degree-cap failures by picking another inside peer.
        let inside = alive.iter().copied().filter(|p| seen[p.index()]);
        let mut done = false;
        for cand in inside {
            if ov.connect(outside, cand).is_ok() {
                done = true;
                break;
            }
        }
        if !done {
            return; // cap-saturated; give up rather than loop forever
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hosts(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn connect_disconnect_roundtrip() {
        let mut ov = Overlay::new(hosts(3), None);
        let (a, b) = (PeerId::new(0), PeerId::new(1));
        ov.connect(a, b).unwrap();
        assert_eq!(ov.edge_count(), 1);
        assert!(ov.are_neighbors(b, a));
        ov.disconnect(a, b).unwrap();
        assert_eq!(ov.edge_count(), 0);
        assert_eq!(ov.disconnect(a, b), Err(OverlayError::NotConnected(a, b)));
        ov.check_invariants().unwrap();
    }

    #[test]
    fn connect_validates() {
        let mut ov = Overlay::new(hosts(3), Some(1));
        let (a, b, c) = (PeerId::new(0), PeerId::new(1), PeerId::new(2));
        assert_eq!(ov.connect(a, a), Err(OverlayError::SelfConnection(a)));
        ov.connect(a, b).unwrap();
        assert_eq!(ov.connect(a, b), Err(OverlayError::AlreadyConnected(a, b)));
        assert_eq!(ov.connect(a, c), Err(OverlayError::DegreeCapReached(a)));
        assert_eq!(
            ov.connect(PeerId::new(9), b),
            Err(OverlayError::UnknownPeer(PeerId::new(9)))
        );
    }

    #[test]
    fn leave_drops_all_edges_and_join_reconnects() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ov = Overlay::new(hosts(5), None);
        let center = PeerId::new(0);
        for i in 1..5 {
            ov.connect(center, PeerId::new(i)).unwrap();
        }
        let former = ov.leave(center).unwrap();
        assert_eq!(former.len(), 4);
        assert_eq!(ov.edge_count(), 0);
        assert!(!ov.is_alive(center));
        ov.check_invariants().unwrap();

        // Rejoin: should prefer cached addresses (its former neighbors).
        let made = ov.join(center, 2, &mut rng).unwrap();
        assert_eq!(made.len(), 2);
        assert!(ov.is_alive(center));
        assert!(made.iter().all(|&m| former.contains(&m)));
        ov.check_invariants().unwrap();
    }

    /// 200 seeded leaves and joins on 150 peers (40 of them never
    /// linked, so their address caches are empty) reach every cache case
    /// `join` handles: empty, shorter than the attach count, all dead.
    /// The root package's `tests/golden.rs` runs the same script and pins
    /// which targets `join` picks (its `join_targets` cell).
    #[test]
    fn join_targets_are_pinned_over_a_seeded_churn_script() {
        const ATTACH: usize = 3;
        let mut rng = StdRng::seed_from_u64(0xACE);
        let mut ov = Overlay::new(hosts(150), None);
        for a in 0..110u32 {
            for _ in 0..rng.gen_range(1..3) {
                let b = rng.gen_range(0..110);
                let _ = ov.connect(PeerId::new(a), PeerId::new(b));
            }
        }
        let (mut empty, mut short, mut all_dead) = (0, 0, 0);
        for _ in 0..200 {
            let p = PeerId::new(rng.gen_range(0..150));
            if ov.is_alive(p) {
                ov.leave(p).unwrap();
                continue;
            }
            let cache = ov.addr_cache(p);
            empty += usize::from(cache.is_empty());
            short += usize::from((1..ATTACH).contains(&cache.len()));
            all_dead += usize::from(!cache.is_empty() && !cache.iter().any(|&c| ov.is_alive(c)));
            ov.join(p, ATTACH, &mut rng).unwrap();
            ov.check_invariants().unwrap();
        }
        assert!(
            empty > 0 && short > 0 && all_dead > 0,
            "{empty} {short} {all_dead}"
        );
        assert_eq!(ov.alive_count(), ov.alive_peers().count());
    }

    /// Every list write moves the written lists' stamps to values no
    /// list held before; failed calls and untouched lists keep theirs;
    /// a copy shares stamps only until one side writes.
    #[test]
    fn stamps_move_with_every_list_write_and_copy_with_the_overlay() {
        let mut ov = Overlay::new(hosts(4), None);
        let other = Overlay::new(hosts(4), None);
        let [a, b, c, d] = [0, 1, 2, 3].map(PeerId::new);
        assert_ne!(ov.neighbors_stamp(a), 0);
        assert_ne!(ov.neighbors_stamp(a), other.neighbors_stamp(a));
        assert_eq!(ov.neighbors_stamp(PeerId::new(4)), 0, "unknown id");
        let stamps = |ov: &Overlay| [a, b, c, d].map(|p| ov.neighbors_stamp(p));
        let mut seen = stamps(&ov).to_vec();
        let mut step = |ov: &mut Overlay, f: &dyn Fn(&mut Overlay), moved: &[PeerId]| {
            let before = stamps(ov);
            f(ov);
            let held = seen.clone();
            for (i, p) in [a, b, c, d].into_iter().enumerate() {
                let now = ov.neighbors_stamp(p);
                if moved.contains(&p) {
                    assert!(!held.contains(&now), "{p} reused a stamp");
                    seen.push(now);
                } else {
                    assert_eq!(now, before[i], "{p} moved");
                }
            }
        };
        step(&mut ov, &|ov| ov.connect(a, b).unwrap(), &[a, b]);
        step(&mut ov, &|ov| ov.connect(a, c).unwrap(), &[a, c]);
        step(&mut ov, &|ov| assert!(ov.connect(a, b).is_err()), &[]);
        let copy = ov.clone();
        assert_eq!(stamps(&copy), stamps(&ov));
        step(&mut ov, &|ov| ov.disconnect(a, b).unwrap(), &[a, b]);
        step(&mut ov, &|ov| assert!(ov.disconnect(a, b).is_err()), &[]);
        step(&mut ov, &|ov| drop(ov.leave(a).unwrap()), &[a, c]);
        step(&mut ov, &|ov| drop(ov.leave(d).unwrap()), &[d]);
        let join = |ov: &mut Overlay| drop(ov.join(a, 1, &mut StdRng::seed_from_u64(1)).unwrap());
        step(&mut ov, &join, &[a, c]);
        assert_eq!(ov.neighbors(a), [c]);
        for p in [a, b, c, d] {
            assert_ne!(copy.neighbors_stamp(p), ov.neighbors_stamp(p));
        }
    }

    /// A supply that runs dry reserves a new block; a copy never
    /// continues its original's block.
    #[test]
    fn stamp_supplies_never_issue_a_value_twice() {
        let mut a = Stamps::reserve();
        a.next = a.end - 1;
        let mut b = a.clone();
        let issued = [a.fresh(), a.fresh(), b.fresh(), Stamps::reserve().fresh()];
        for (i, s) in issued.iter().enumerate() {
            assert_ne!(*s, 0);
            assert!(!issued[..i].contains(s), "{s} issued twice");
        }
    }

    #[test]
    fn join_online_peer_reports_peer_online() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ov = Overlay::new(hosts(3), None);
        let p = PeerId::new(1);
        assert_eq!(ov.join(p, 2, &mut rng), Err(OverlayError::PeerOnline(p)));
        // A real duplicate-link error is still reported as such.
        ov.connect(p, PeerId::new(0)).unwrap();
        assert_eq!(
            ov.connect(p, PeerId::new(0)),
            Err(OverlayError::AlreadyConnected(p, PeerId::new(0)))
        );
    }

    #[test]
    fn leave_offline_fails() {
        let mut ov = Overlay::new(hosts(2), None);
        ov.leave(PeerId::new(0)).unwrap();
        assert_eq!(
            ov.leave(PeerId::new(0)),
            Err(OverlayError::PeerOffline(PeerId::new(0)))
        );
    }

    #[test]
    fn random_overlay_has_expected_degree_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(11);
        let ov = random_overlay(hosts(500), 6, None, &mut rng);
        assert!(ov.is_connected());
        let avg = ov.average_degree();
        assert!((5.0..7.5).contains(&avg), "avg degree {avg}");
        ov.check_invariants().unwrap();
    }

    #[test]
    fn clustered_overlay_has_high_clustering() {
        let mut rng = StdRng::seed_from_u64(17);
        let cl = clustered_overlay(hosts(800), 6, 0.8, None, &mut rng);
        let rd = random_overlay(hosts(800), 6, None, &mut rng);
        assert!(cl.is_connected());
        cl.check_invariants().unwrap();
        // Count triangle closures around a sample of peers.
        let frac = |ov: &Overlay| {
            let mut closed = 0usize;
            let mut pairs = 0usize;
            for p in ov.peers() {
                let nbrs = ov.neighbors(p);
                for i in 0..nbrs.len() {
                    for j in (i + 1)..nbrs.len() {
                        pairs += 1;
                        if ov.are_neighbors(nbrs[i], nbrs[j]) {
                            closed += 1;
                        }
                    }
                }
            }
            closed as f64 / pairs.max(1) as f64
        };
        let (c_cl, c_rd) = (frac(&cl), frac(&rd));
        assert!(c_cl > 5.0 * c_rd, "clustered {c_cl} vs random {c_rd}");
        let avg = cl.average_degree();
        assert!((4.5..8.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn pref_attach_overlay_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(13);
        let ov = pref_attach_overlay(hosts(1000), 6, None, &mut rng);
        assert!(ov.is_connected());
        let max_deg = ov.peers().map(|p| ov.degree(p)).max().unwrap();
        assert!(max_deg > 30, "max degree {max_deg}");
        ov.check_invariants().unwrap();
    }

    #[test]
    fn addr_cache_is_lru_bounded() {
        let mut ov = Overlay::new(hosts(64), None);
        let p = PeerId::new(0);
        for i in 1..64 {
            ov.remember(p, PeerId::new(i));
        }
        assert_eq!(ov.addr_cache(p).len(), ADDR_CACHE_CAP);
        // Most recent at the back.
        assert_eq!(*ov.addr_cache(p).last().unwrap(), PeerId::new(63));
        // Re-remembering moves to back without growing.
        ov.remember(p, PeerId::new(40));
        assert_eq!(ov.addr_cache(p).len(), ADDR_CACHE_CAP);
        assert_eq!(*ov.addr_cache(p).last().unwrap(), PeerId::new(40));
    }

    #[test]
    fn reachability_counts() {
        let mut ov = Overlay::new(hosts(4), None);
        ov.connect(PeerId::new(0), PeerId::new(1)).unwrap();
        ov.connect(PeerId::new(2), PeerId::new(3)).unwrap();
        assert_eq!(ov.reachable_from(PeerId::new(0)), 2);
        assert!(!ov.is_connected());
    }

    #[test]
    fn link_cost_uses_physical_distance() {
        use ace_topology::{DistanceOracle, Graph};
        let mut g = Graph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), 4).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 6).unwrap();
        let oracle = DistanceOracle::new(g);
        let ov = Overlay::new(hosts(3), None);
        assert_eq!(ov.link_cost(&oracle, PeerId::new(0), PeerId::new(2)), 10);
    }
}
