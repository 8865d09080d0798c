//! Capacity-aware topology adaptation in the style of Gia (Chawathe et
//! al., SIGCOMM 2003 — reference [4] of the paper).
//!
//! Gia attacks the *other* matching problem: peer capacities span orders
//! of magnitude, so high-capacity peers should sit in the overlay's
//! center (high degree) and weak peers at its edge. The ACE paper notes
//! Gia "does not address the topology mismatching problem between the
//! overlay and physical networks"; the `baseline_gia` experiment shows
//! the two adaptations are orthogonal and compose.

use rand::Rng;

use crate::network::Overlay;
use crate::peer::PeerId;

/// The measured Gnutella capacity mix used by the Gia paper
/// (`(population share, relative capacity)`).
pub const GNUTELLA_CAPACITY_MIX: [(f64, f64); 5] = [
    (0.2, 1.0),
    (0.45, 10.0),
    (0.3, 100.0),
    (0.049, 1000.0),
    (0.001, 10_000.0),
];

/// Draws per-peer capacities from a share/level mix.
///
/// # Panics
///
/// Panics if `mix` is empty or shares are non-positive.
pub fn assign_capacities<R: Rng + ?Sized>(
    peers: usize,
    mix: &[(f64, f64)],
    rng: &mut R,
) -> Vec<f64> {
    assert!(!mix.is_empty(), "capacity mix must be non-empty");
    let total: f64 = mix.iter().map(|&(s, _)| s).sum();
    assert!(total > 0.0, "capacity shares must be positive");
    (0..peers)
        .map(|_| {
            let mut u = rng.gen_range(0.0..total);
            for &(share, cap) in mix {
                if u < share {
                    return cap;
                }
                u -= share;
            }
            mix.last().expect("non-empty mix").1
        })
        .collect()
}

/// Satisfaction threshold in `(0, 1]`: a peer below it keeps seeking
/// better neighbors.
const SATISFACTION_TARGET: f64 = 0.8;
/// Degree floor (peers never drop below this many links).
const MIN_DEGREE: usize = 3;
/// Degree allowed per unit of `log10(capacity) + 1`.
const DEGREE_PER_LEVEL: usize = 3;

/// The Gia adaptation state: the per-peer capacities.
///
/// # Examples
///
/// ```
/// use ace_overlay::{assign_capacities, random_overlay, GiaAdaptation, GNUTELLA_CAPACITY_MIX};
/// use ace_topology::NodeId;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let mut ov = random_overlay((0..100).map(NodeId::new).collect(), 6, None, &mut rng);
/// let caps = assign_capacities(100, &GNUTELLA_CAPACITY_MIX, &mut rng);
/// let gia = GiaAdaptation::new(caps);
/// let before = gia.capacity_degree_correlation(&ov).unwrap();
/// for _ in 0..5 { gia.round(&mut ov, &mut rng); }
/// assert!(gia.capacity_degree_correlation(&ov).unwrap() >= before);
/// ```
#[derive(Clone, Debug)]
pub struct GiaAdaptation {
    capacities: Vec<f64>,
}

impl GiaAdaptation {
    /// Creates the adaptation for the given per-peer capacities.
    ///
    /// # Panics
    ///
    /// Panics on non-positive capacities.
    pub fn new(capacities: Vec<f64>) -> Self {
        assert!(
            capacities.iter().all(|&c| c > 0.0),
            "capacities must be positive"
        );
        GiaAdaptation { capacities }
    }

    /// A peer's capacity. Peers beyond the assigned population (ids
    /// joined after construction) report the baseline capacity `1.0` —
    /// the mix's lowest tier — instead of panicking: per-peer state must
    /// tolerate late joiners like every other scenario module.
    pub fn capacity(&self, p: PeerId) -> f64 {
        self.capacities.get(p.index()).copied().unwrap_or(1.0)
    }

    /// Gia's max-degree budget for a peer (scales with log capacity).
    pub fn max_degree(&self, p: PeerId) -> usize {
        let level = self.capacity(p).log10().max(0.0) as usize + 1;
        (DEGREE_PER_LEVEL * level).max(MIN_DEGREE + 1)
    }

    /// Gia's satisfaction level: how much neighbor capacity (shared over
    /// the neighbors' degrees) a peer has relative to its own capacity;
    /// clamped to `[0, 1]`.
    pub fn satisfaction(&self, ov: &Overlay, p: PeerId) -> f64 {
        if ov.neighbors(p).is_empty() {
            return 0.0;
        }
        let got: f64 = ov
            .neighbors(p)
            .iter()
            .map(|&n| self.capacity(n) / ov.degree(n).max(1) as f64)
            .sum();
        (got / self.capacity(p)).min(1.0)
    }

    /// One adaptation round: every unsatisfied peer tries to connect to a
    /// capacity-biased random target; saturated targets accept by dropping
    /// their weakest neighbor if the newcomer is stronger. Returns the
    /// number of connections changed.
    pub fn round<R: Rng + ?Sized>(&self, ov: &mut Overlay, rng: &mut R) -> usize {
        let mut changed = 0;
        let alive: Vec<PeerId> = ov.alive_peers().collect();
        if alive.len() < 3 {
            return 0;
        }
        // Capacity-biased sampling urn.
        for &p in &alive {
            if self.satisfaction(ov, p) >= SATISFACTION_TARGET {
                continue;
            }
            // Pick a target with probability ∝ capacity (rejection sample).
            let max_cap = alive
                .iter()
                .map(|&a| self.capacity(a))
                .fold(0.0f64, f64::max)
                .max(1.0);
            let mut target = None;
            for _ in 0..32 {
                let cand = alive[rng.gen_range(0..alive.len())];
                if cand == p || ov.are_neighbors(p, cand) {
                    continue;
                }
                if rng.gen_bool((self.capacity(cand) / max_cap).clamp(0.0, 1.0)) {
                    target = Some(cand);
                    break;
                }
            }
            let Some(t) = target else { continue };
            if ov.degree(t) < self.max_degree(t) && ov.degree(p) < self.max_degree(p) {
                if ov.connect(p, t).is_ok() {
                    changed += 1;
                }
            } else {
                // Forced acceptance: t drops its weakest neighbor for a
                // stronger newcomer (keeping the victim above the floor).
                let victim = ov
                    .neighbors(t)
                    .iter()
                    .copied()
                    .filter(|&v| v != p && ov.degree(v) > MIN_DEGREE)
                    .min_by(|&a, &b| {
                        self.capacity(a)
                            .partial_cmp(&self.capacity(b))
                            .expect("finite caps")
                    });
                if let Some(v) = victim {
                    if self.capacity(p) > self.capacity(v)
                        && ov.degree(p) < self.max_degree(p)
                        && ov.disconnect(t, v).is_ok()
                    {
                        if ov.connect(p, t).is_ok() {
                            changed += 1;
                        } else {
                            // Roll back rather than leave t short a link.
                            let _ = ov.connect(t, v);
                        }
                    }
                }
            }
        }
        changed
    }

    /// Pearson correlation between capacity and degree over alive peers —
    /// the headline metric of capacity-aware adaptation (`None` without
    /// variance).
    pub fn capacity_degree_correlation(&self, ov: &Overlay) -> Option<f64> {
        let pts: Vec<(f64, f64)> = ov
            .alive_peers()
            .map(|p| (self.capacity(p).log10(), ov.degree(p) as f64))
            .collect();
        if pts.len() < 2 {
            return None;
        }
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let cov = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / n;
        let vx = pts.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>() / n;
        let vy = pts.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>() / n;
        if vx <= 1e-12 || vy <= 1e-12 {
            return None;
        }
        Some(cov / (vx * vy).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::random_overlay;
    use ace_topology::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world(n: usize, seed: u64) -> (Overlay, GiaAdaptation, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hosts = (0..n as u32).map(NodeId::new).collect();
        let ov = random_overlay(hosts, 6, None, &mut rng);
        let caps = assign_capacities(n, &GNUTELLA_CAPACITY_MIX, &mut rng);
        (ov, GiaAdaptation::new(caps), rng)
    }

    /// Regression: `capacity()` used to index the fixed-size capacity
    /// vector directly, panicking for any peer id at or beyond the
    /// assigned population — e.g. a peer joined after construction.
    #[test]
    fn capacity_defaults_for_late_joiners() {
        let (_, gia, _) = world(10, 2);
        assert_eq!(gia.capacity(PeerId::new(99)), 1.0);
        // The derived budgets stay well-defined too.
        assert!(gia.max_degree(PeerId::new(99)) > 0);
    }

    #[test]
    fn capacity_mix_matches_shares() {
        let mut rng = StdRng::seed_from_u64(1);
        let caps = assign_capacities(20_000, &GNUTELLA_CAPACITY_MIX, &mut rng);
        let ones = caps.iter().filter(|&&c| c == 1.0).count() as f64 / 20_000.0;
        assert!((ones - 0.2).abs() < 0.02, "1x share {ones}");
        let huge = caps.iter().filter(|&&c| c == 10_000.0).count();
        assert!(huge < 60, "10000x count {huge}");
    }

    #[test]
    fn adaptation_raises_capacity_degree_correlation() {
        let (mut ov, gia, mut rng) = world(300, 2);
        let before = gia.capacity_degree_correlation(&ov).unwrap();
        for _ in 0..10 {
            gia.round(&mut ov, &mut rng);
            ov.check_invariants().unwrap();
        }
        let after = gia.capacity_degree_correlation(&ov).unwrap();
        assert!(
            after > before + 0.2,
            "correlation {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn satisfaction_increases_for_weak_peers() {
        let (mut ov, gia, mut rng) = world(300, 3);
        let avg_sat = |ov: &Overlay| {
            let alive: Vec<PeerId> = ov.alive_peers().collect();
            alive.iter().map(|&p| gia.satisfaction(ov, p)).sum::<f64>() / alive.len() as f64
        };
        let before = avg_sat(&ov);
        for _ in 0..10 {
            gia.round(&mut ov, &mut rng);
        }
        assert!(avg_sat(&ov) > before, "satisfaction should rise");
    }

    #[test]
    fn degree_budget_scales_with_capacity() {
        let gia = GiaAdaptation::new(vec![1.0, 10_000.0]);
        assert!(gia.max_degree(PeerId::new(1)) > 3 * gia.max_degree(PeerId::new(0)) / 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        GiaAdaptation::new(vec![0.0]);
    }
}
