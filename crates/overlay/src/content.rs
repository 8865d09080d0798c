//! Shared content: object catalog, Zipf popularity and placement.
//!
//! Queries in the evaluation request objects drawn from a Zipf-skewed
//! catalog; each object is replicated on a set of holder peers. Response
//! time experiments depend on *where* the nearest replica sits, so
//! placement is part of the substrate.

use rand::Rng;

use ace_engine::rng::{sample_distinct, Zipf};

use crate::network::Overlay;
use crate::peer::PeerId;

/// Identifier of a shared object.
pub type ObjectId = u32;

/// An object catalog with Zipf-distributed request popularity.
///
/// # Examples
///
/// ```
/// use ace_overlay::Catalog;
/// use rand::{rngs::StdRng, SeedableRng};
/// let cat = Catalog::new(500, 0.8);
/// let mut rng = StdRng::seed_from_u64(3);
/// assert!(cat.draw(&mut rng) < 500);
/// ```
#[derive(Clone, Debug)]
pub struct Catalog {
    zipf: Zipf,
}

impl Catalog {
    /// Creates a catalog of `objects` items with Zipf exponent `skew`
    /// (0 = uniform; ~0.8 matches measured Gnutella query popularity).
    ///
    /// # Panics
    ///
    /// Panics if `objects == 0` or `skew` is negative.
    pub fn new(objects: usize, skew: f64) -> Self {
        Catalog {
            zipf: Zipf::new(objects, skew),
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.zipf.len()
    }

    /// Always false (catalogs are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws the object of one query.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> ObjectId {
        self.zipf.sample(rng) as ObjectId
    }
}

/// Which peers hold which objects.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    /// `holders[object]` = sorted list of holder peers.
    holders: Vec<Vec<PeerId>>,
}

impl Placement {
    /// Places each of `objects` on `replicas` distinct random alive peers.
    ///
    /// # Panics
    ///
    /// Panics if the overlay has no alive peers or `replicas == 0`.
    pub fn random<R: Rng + ?Sized>(
        objects: usize,
        replicas: usize,
        overlay: &Overlay,
        rng: &mut R,
    ) -> Self {
        assert!(replicas > 0, "each object needs at least one replica");
        let alive: Vec<PeerId> = overlay.alive_peers().collect();
        assert!(!alive.is_empty(), "no alive peers to place content on");
        let holders = (0..objects)
            .map(|_| {
                let mut hs: Vec<PeerId> = sample_distinct(rng, alive.len(), replicas)
                    .into_iter()
                    .map(|i| alive[i])
                    .collect();
                hs.sort_unstable();
                hs
            })
            .collect();
        Placement { holders }
    }

    /// Builds a placement from explicit holder lists (`lists[object]`);
    /// each list is sorted and deduplicated. This is how the scenario
    /// matrix constructs *nested* placements — per object one holder
    /// permutation whose prefixes give every replication factor, so
    /// `holders(r)` ⊆ `holders(r')` for `r ≤ r'` and recall is provably
    /// monotone in replication.
    pub fn from_lists(lists: Vec<Vec<PeerId>>) -> Self {
        let holders = lists
            .into_iter()
            .map(|mut hs| {
                hs.sort_unstable();
                hs.dedup();
                hs
            })
            .collect();
        Placement { holders }
    }

    /// The sorted holder list of `object` (empty if unknown).
    pub fn holders(&self, object: ObjectId) -> &[PeerId] {
        self.holders.get(object as usize).map_or(&[], Vec::as_slice)
    }

    /// True if `peer` holds `object`.
    pub fn is_holder(&self, object: ObjectId, peer: PeerId) -> bool {
        self.holders(object).binary_search(&peer).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_topology::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay(n: u32) -> Overlay {
        Overlay::new((0..n).map(NodeId::new).collect(), None)
    }

    #[test]
    fn random_placement_respects_replica_count() {
        let mut rng = StdRng::seed_from_u64(8);
        let ov = overlay(50);
        let p = Placement::random(20, 5, &ov, &mut rng);
        assert!(p.holders(20).is_empty(), "exactly 20 objects placed");
        for obj in 0..20 {
            let hs = p.holders(obj);
            assert_eq!(hs.len(), 5);
            assert!(hs.windows(2).all(|w| w[0] < w[1]), "sorted+distinct");
            for &h in hs {
                assert!(p.is_holder(obj, h));
            }
        }
    }

    #[test]
    fn replicas_capped_by_population() {
        let mut rng = StdRng::seed_from_u64(8);
        let ov = overlay(3);
        let p = Placement::random(1, 10, &ov, &mut rng);
        assert_eq!(p.holders(0).len(), 3);
    }

    #[test]
    fn unknown_object_has_no_holders() {
        let p = Placement::default();
        assert!(p.holders(7).is_empty());
        assert!(!p.is_holder(7, PeerId::new(0)));
    }

    #[test]
    fn catalog_skew_shapes_draws() {
        let cat = Catalog::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(8);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[cat.draw(&mut rng) as usize] += 1;
        }
        assert!(
            counts[0] > counts[50] * 5,
            "head {} mid {}",
            counts[0],
            counts[50]
        );
    }
}
