//! Internet-like physical topology generators.
//!
//! The paper generates physical topologies with BRITE using the
//! Barabási–Albert (BA) model, which produces graphs with power-law degree
//! distributions and small-world path lengths. This module re-implements
//! that model, the hierarchy every figure and benchmark workload is
//! evaluated under, and the two null models the tests compare against:
//!
//! * [`ba`] — Barabási–Albert preferential attachment (the paper's model);
//! * [`gnm`]/[`watts_strogatz`] — Erdős–Rényi `G(n,m)` and Watts–Strogatz small-world graphs;
//! * [`two_level`] — a two-level AS/router hierarchy with short intra-AS
//!   and long inter-AS delays (the "MSU vs. Tsinghua" structure of the
//!   paper's Figure 2).
//!
//! All generators guarantee a connected result and take an explicit RNG so
//! that experiments are reproducible from a seed.

mod ba;
mod random;
mod two_level;

pub use ba::{ba, ba_into, BaConfig};
pub use random::{gnm, watts_strogatz, GnmConfig, WattsStrogatzConfig};
pub use two_level::{two_level, TwoLevelConfig, TwoLevelTopology};

use rand::Rng;
use serde::Serialize;

use crate::graph::Delay;

/// How the generators assign link delays.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum DelayModel {
    /// Every link gets the same delay.
    Constant(Delay),
    /// Delays drawn uniformly from `lo..=hi` (both positive).
    Uniform {
        /// Inclusive lower bound (>= 1).
        lo: Delay,
        /// Inclusive upper bound (>= lo).
        hi: Delay,
    },
}

impl Default for DelayModel {
    /// Uniform 1–40 tenths of a millisecond (0.1–4 ms), a typical LAN/MAN
    /// link range.
    fn default() -> Self {
        DelayModel::Uniform { lo: 1, hi: 40 }
    }
}

impl DelayModel {
    /// Draws one link delay.
    ///
    /// # Panics
    ///
    /// Panics if the model is invalid (`lo == 0` or `lo > hi`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Delay {
        match *self {
            DelayModel::Constant(d) => {
                assert!(d > 0, "constant delay must be positive");
                d
            }
            DelayModel::Uniform { lo, hi } => {
                assert!(
                    lo > 0 && lo <= hi,
                    "invalid uniform delay range {lo}..={hi}"
                );
                rng.gen_range(lo..=hi)
            }
        }
    }

    /// A representative value used for bridging edges added to guarantee
    /// connectivity.
    pub fn typical(&self) -> Delay {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { lo, hi } => (lo + hi) / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = DelayModel::Uniform { lo: 5, hi: 9 };
        for _ in 0..200 {
            let d = m.sample(&mut rng);
            assert!((5..=9).contains(&d));
        }
        assert_eq!(m.typical(), 7);
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = DelayModel::Constant(3);
        assert_eq!(m.sample(&mut rng), 3);
        assert_eq!(m.typical(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid uniform delay range")]
    fn uniform_rejects_zero_lo() {
        let mut rng = StdRng::seed_from_u64(7);
        DelayModel::Uniform { lo: 0, hi: 4 }.sample(&mut rng);
    }
}
