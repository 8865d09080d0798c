//! Two-tier (supernode) overlays — the KaZaA architecture of the paper's
//! introduction: "queries are flooded among peers (such as in Gnutella)
//! or among supernodes (such as in KaZaA)".
//!
//! A fraction of peers act as *supernodes* forming the flooding core; the
//! remaining *leaves* attach to one supernode each and publish their
//! content index to it, so queries travel leaf → supernode → core flood,
//! and supernodes answer on behalf of their leaves. ACE can then be
//! applied to the supernode core exactly like to a flat overlay.

use rand::Rng;

use ace_engine::rng::sample_distinct;
use ace_topology::{Delay, DistancePlane, NodeId};

use crate::network::{clustered_overlay, Overlay};
use crate::peer::PeerId;

/// Fraction of peers promoted to supernodes (KaZaA-like: ~5–15%).
const SUPERNODE_FRACTION: f64 = 0.1;
/// Average degree of the supernode core overlay.
pub const CORE_DEGREE: usize = 6;

/// Role of one input host in a built [`TwoTierNetwork`] — the mapping
/// from the flat host list passed to [`TwoTierNetwork::build`] back into
/// the two id spaces it was split into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierRole {
    /// Promoted into the supernode core, with its core peer id.
    Supernode(PeerId),
    /// Attached as a leaf, with its leaf index.
    Leaf(usize),
}

/// A built two-tier network.
#[derive(Clone, Debug)]
pub struct TwoTierNetwork {
    /// The supernode core (a normal [`Overlay`]; ACE applies directly).
    pub core: Overlay,
    /// Physical hosts of the leaf peers.
    leaf_hosts: Vec<NodeId>,
    /// `assignment[leaf] = supernode` (a peer id in `core`).
    assignment: Vec<PeerId>,
    /// `roles[input host index] = role` — see [`TierRole`].
    roles: Vec<TierRole>,
}

impl TwoTierNetwork {
    /// Promotes a tenth of `hosts` (at least two) to supernodes wired as a
    /// core of average degree [`CORE_DEGREE`], and attaches every other
    /// host as a leaf of a random supernode (the mismatch-prone KaZaA
    /// default).
    ///
    /// # Panics
    ///
    /// Panics if no host would be left over as a leaf.
    pub fn build<R: Rng + ?Sized>(hosts: Vec<NodeId>, rng: &mut R) -> Self {
        let n = hosts.len();
        let sn_count = ((n as f64 * SUPERNODE_FRACTION).round() as usize).max(2);
        assert!(sn_count < n, "need at least one leaf");

        let sn_picks = sample_distinct(rng, n, sn_count);
        let mut is_sn = vec![false; n];
        for &i in &sn_picks {
            is_sn[i] = true;
        }
        let sn_hosts: Vec<NodeId> = sn_picks.iter().map(|&i| hosts[i]).collect();
        let leaf_hosts: Vec<NodeId> = (0..n).filter(|&i| !is_sn[i]).map(|i| hosts[i]).collect();
        let mut roles = vec![TierRole::Leaf(usize::MAX); n];
        for (k, &i) in sn_picks.iter().enumerate() {
            roles[i] = TierRole::Supernode(PeerId::new(k as u32));
        }
        let mut leaf_idx = 0usize;
        for (i, role) in roles.iter_mut().enumerate() {
            if !is_sn[i] {
                *role = TierRole::Leaf(leaf_idx);
                leaf_idx += 1;
            }
        }

        let core = clustered_overlay(sn_hosts, CORE_DEGREE, 0.7, None, rng);
        let assignment: Vec<PeerId> = leaf_hosts
            .iter()
            .map(|_| PeerId::new(rng.gen_range(0..core.peer_count() as u32)))
            .collect();
        TwoTierNetwork {
            core,
            leaf_hosts,
            assignment,
            roles,
        }
    }

    /// The role of an input host by its index in the `hosts` vector
    /// given to [`TwoTierNetwork::build`].
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn role_of(&self, host: usize) -> TierRole {
        self.roles[host]
    }

    /// Re-attaches every leaf of a departed supernode to a surviving
    /// one — the supernode-state purge of the churn taxonomy: when a
    /// supernode leaves (or crashes and the loss is detected), its
    /// leaves' index entries die with it, and each orphan re-publishes
    /// to a random surviving supernode, as at build time. Returns the
    /// re-attached leaf indices; leaves stay orphaned (assignment
    /// unchanged) only when no live supernode remains.
    pub fn reattach_leaves<R: Rng + ?Sized>(
        &mut self,
        departed: PeerId,
        rng: &mut R,
    ) -> Vec<usize> {
        let survivors: Vec<PeerId> = self
            .core
            .alive_peers()
            .filter(|&sn| sn != departed)
            .collect();
        if survivors.is_empty() {
            return Vec::new();
        }
        let mut moved = Vec::new();
        for leaf in 0..self.assignment.len() {
            if self.assignment[leaf] != departed {
                continue;
            }
            self.assignment[leaf] = survivors[rng.gen_range(0..survivors.len())];
            moved.push(leaf);
        }
        moved
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_hosts.len()
    }

    /// Number of supernodes.
    pub fn supernode_count(&self) -> usize {
        self.core.peer_count()
    }

    /// The supernode a leaf is attached to.
    pub fn supernode_of(&self, leaf: usize) -> PeerId {
        self.assignment[leaf]
    }

    /// Cost of the access link between a leaf and its supernode.
    pub fn access_cost(&self, oracle: &dyn DistancePlane, leaf: usize) -> Delay {
        oracle.distance(self.leaf_hosts[leaf], self.core.host(self.assignment[leaf]))
    }

    /// Mean access-link cost over all leaves.
    pub fn mean_access_cost(&self, oracle: &dyn DistancePlane) -> f64 {
        if self.leaf_hosts.is_empty() {
            return 0.0;
        }
        let total: u64 = (0..self.leaf_count())
            .map(|l| u64::from(self.access_cost(oracle, l)))
            .sum();
        total as f64 / self.leaf_count() as f64
    }

    /// Runs a query issued by `leaf`: the query travels up the access
    /// link, floods the supernode core under `policy`, and supernodes
    /// whose *own index* (their leaves' content) matches respond.
    ///
    /// Returns `(core query outcome, total traffic including the access
    /// link)`. A leaf whose supernode has left and has not yet been
    /// [re-attached](Self::reattach_leaves) pays the access link for a
    /// core outcome of scope 0.
    pub fn query_from_leaf<P: crate::search::ForwardPolicy + ?Sized>(
        &self,
        oracle: &dyn DistancePlane,
        leaf: usize,
        qc: &crate::search::QueryConfig,
        policy: &P,
        is_responder_sn: impl FnMut(PeerId) -> bool,
    ) -> (crate::search::QueryOutcome, f64) {
        let sn = self.assignment[leaf];
        let access = f64::from(self.access_cost(oracle, leaf));
        let outcome = crate::search::run_query(&self.core, oracle, sn, qc, policy, is_responder_sn);
        let total = outcome.traffic_cost + access;
        (outcome, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{FloodAll, QueryConfig};
    use ace_topology::generate::{two_level, TwoLevelConfig};
    use ace_topology::DistanceOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (DistanceOracle, Vec<NodeId>) {
        let mut rng = StdRng::seed_from_u64(8);
        let topo = two_level(
            &TwoLevelConfig {
                as_count: 4,
                nodes_per_as: 60,
            },
            &mut rng,
        );
        let nodes: Vec<NodeId> = topo.graph.nodes().take(120).collect();
        (DistanceOracle::new(topo.graph), nodes)
    }

    #[test]
    fn build_splits_tiers_correctly() {
        let (_, hosts) = world();
        let mut rng = StdRng::seed_from_u64(9);
        let tt = TwoTierNetwork::build(hosts, &mut rng);
        assert_eq!(tt.supernode_count(), 12);
        assert_eq!(tt.leaf_count(), 108);
        assert!(tt.core.is_connected());
        for l in 0..tt.leaf_count() {
            assert!(tt.supernode_of(l).index() < tt.supernode_count());
        }
    }

    #[test]
    fn leaf_query_floods_core_and_pays_access() {
        let (oracle, hosts) = world();
        let mut rng = StdRng::seed_from_u64(11);
        let tt = TwoTierNetwork::build(hosts, &mut rng);
        let qc = QueryConfig {
            ttl: 32,
            stop_at_responder: false,
        };
        let (outcome, total) = tt.query_from_leaf(&oracle, 0, &qc, &FloodAll, |_| false);
        assert_eq!(outcome.scope, tt.supernode_count(), "core fully covered");
        assert!(total >= outcome.traffic_cost, "access link charged");
    }

    #[test]
    fn roles_partition_the_input_hosts() {
        let (_, hosts) = world();
        let n = hosts.len();
        let mut rng = StdRng::seed_from_u64(13);
        let tt = TwoTierNetwork::build(hosts, &mut rng);
        let mut sn_seen = vec![false; tt.supernode_count()];
        let mut leaf_seen = vec![false; tt.leaf_count()];
        for i in 0..n {
            match tt.role_of(i) {
                TierRole::Supernode(sn) => {
                    assert!(!sn_seen[sn.index()], "core id mapped twice");
                    sn_seen[sn.index()] = true;
                }
                TierRole::Leaf(l) => {
                    assert!(!leaf_seen[l], "leaf index mapped twice");
                    leaf_seen[l] = true;
                }
            }
        }
        assert!(sn_seen.into_iter().all(|s| s), "every core id covered");
        assert!(leaf_seen.into_iter().all(|s| s), "every leaf covered");
    }

    /// A supernode departure must not leave orphaned leaves: every leaf
    /// of the departed supernode re-attaches to a live one (the
    /// supernode-state purge the churn wiring relies on).
    #[test]
    fn departed_supernode_leaves_reattach_to_survivors() {
        let (oracle, hosts) = world();
        let mut rng = StdRng::seed_from_u64(14);
        let mut tt = TwoTierNetwork::build(hosts, &mut rng);
        let dead = tt.supernode_of(0);
        let orphans = (0..tt.leaf_count())
            .filter(|&l| tt.supernode_of(l) == dead)
            .count();
        assert!(orphans > 0);
        tt.core.leave(dead).unwrap();
        // Until they do, their queries die at the departed supernode.
        let qc = QueryConfig::default();
        let (outcome, total) = tt.query_from_leaf(&oracle, 0, &qc, &FloodAll, |_| true);
        assert_eq!((outcome.scope, outcome.messages), (0, 0));
        assert_eq!(total, f64::from(tt.access_cost(&oracle, 0)));
        let moved = tt.reattach_leaves(dead, &mut rng);
        assert_eq!(moved.len(), orphans);
        for l in 0..tt.leaf_count() {
            let sn = tt.supernode_of(l);
            assert_ne!(sn, dead);
            assert!(tt.core.is_alive(sn), "leaf {l} attached to dead core");
        }
        // Idempotent: nothing left to move.
        assert!(tt.reattach_leaves(dead, &mut rng).is_empty());
    }

    /// Two hosts make the two-supernode minimum and leave no leaf.
    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn rejects_all_supernodes() {
        let (_, hosts) = world();
        let mut rng = StdRng::seed_from_u64(12);
        TwoTierNetwork::build(hosts[..2].to_vec(), &mut rng);
    }
}
