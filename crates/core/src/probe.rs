//! The delay-probe measurement model (ACE phase 1).
//!
//! ACE measures costs with direct network probes. The model here returns
//! the physical shortest-path delay plus optional *pair-deterministic*
//! measurement noise: the noise factor for a pair `(a,b)` is derived from
//! a hash of the pair, so repeated probes of the same pair agree, both
//! endpoints observe the same value (symmetric RTT), and runs stay
//! reproducible.

use ace_engine::digest::unit;
use ace_engine::rng::splitmix64;
use ace_overlay::{Overlay, PeerId};
use ace_topology::{Delay, DistancePlane};

/// Delay measurement with configurable relative noise.
#[derive(Clone, Copy, Debug)]
pub struct ProbeModel {
    /// Maximum relative measurement error, e.g. `0.1` = ±10%.
    pub noise: f64,
    /// Seed mixed into the pair hash.
    pub seed: u64,
}

impl Default for ProbeModel {
    /// Noise-free probes.
    fn default() -> Self {
        ProbeModel::EXACT
    }
}

impl ProbeModel {
    /// Noise-free probes: every measurement is the true delay.
    pub const EXACT: ProbeModel = ProbeModel {
        noise: 0.0,
        seed: 0,
    };

    /// Creates a probe model with the given relative noise.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is negative or not finite.
    pub fn with_noise(noise: f64, seed: u64) -> Self {
        assert!(
            noise.is_finite() && noise >= 0.0,
            "noise must be non-negative"
        );
        ProbeModel { noise, seed }
    }

    /// Measures the cost between two peers: the true physical delay,
    /// perturbed by pair-deterministic noise and clamped to at least 1.
    pub fn measure(
        &self,
        overlay: &Overlay,
        oracle: &dyn DistancePlane,
        a: PeerId,
        b: PeerId,
    ) -> Delay {
        let true_cost = overlay.link_cost(oracle, a, b);
        self.perturb(a, b, true_cost)
    }

    /// Applies the pair-deterministic perturbation to a known true cost.
    pub fn perturb(&self, a: PeerId, b: PeerId, true_cost: Delay) -> Delay {
        if self.noise == 0.0 || true_cost == 0 {
            return true_cost.max(1);
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let h = splitmix64(self.seed ^ (u64::from(lo.raw()) << 32) ^ u64::from(hi.raw()));
        // Map hash to [-1, 1).
        let factor = 1.0 + self.noise * (unit(h) * 2.0 - 1.0);
        ((f64::from(true_cost) * factor).round() as u32).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_topology::{DistanceOracle, Graph, NodeId};

    fn env() -> (Overlay, DistanceOracle) {
        let mut g = Graph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), 100).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 100).unwrap();
        let oracle = DistanceOracle::new(g);
        let ov = Overlay::new((0..3).map(NodeId::new).collect(), None);
        (ov, oracle)
    }

    #[test]
    fn noise_free_is_exact() {
        let (ov, oracle) = env();
        let m = ProbeModel::default();
        assert_eq!(m.measure(&ov, &oracle, PeerId::new(0), PeerId::new(2)), 200);
    }

    #[test]
    fn noise_is_bounded_and_symmetric() {
        let (ov, oracle) = env();
        let m = ProbeModel::with_noise(0.2, 7);
        let ab = m.measure(&ov, &oracle, PeerId::new(0), PeerId::new(2));
        let ba = m.measure(&ov, &oracle, PeerId::new(2), PeerId::new(0));
        assert_eq!(ab, ba, "probes must be symmetric");
        assert!((160..=240).contains(&ab), "within ±20%: {ab}");
    }

    #[test]
    fn noise_is_repeatable() {
        let (ov, oracle) = env();
        let m = ProbeModel::with_noise(0.3, 9);
        let first = m.measure(&ov, &oracle, PeerId::new(0), PeerId::new(1));
        for _ in 0..5 {
            assert_eq!(
                m.measure(&ov, &oracle, PeerId::new(0), PeerId::new(1)),
                first
            );
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let m1 = ProbeModel::with_noise(0.5, 1);
        let m2 = ProbeModel::with_noise(0.5, 2);
        let differs = (0..32u32).any(|i| {
            m1.perturb(PeerId::new(i), PeerId::new(i + 1), 1000)
                != m2.perturb(PeerId::new(i), PeerId::new(i + 1), 1000)
        });
        assert!(differs);
    }

    #[test]
    fn measured_cost_is_never_zero() {
        let m = ProbeModel::with_noise(1.0, 3);
        for i in 0..16u32 {
            assert!(m.perturb(PeerId::new(i), PeerId::new(i + 1), 1) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_noise() {
        ProbeModel::with_noise(-0.1, 0);
    }
}
