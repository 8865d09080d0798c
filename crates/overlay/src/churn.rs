//! Peer dynamics: lifetimes and query arrival processes.
//!
//! The paper's dynamic environment (§4.3): peer lifetimes follow the
//! distribution observed by Saroiu et al. with a mean of 10 minutes and a
//! variance of half the mean; each peer issues 0.3 queries per minute; the
//! population is kept constant by turning a fresh peer on whenever one
//! leaves.

use rand::Rng;
use serde::Serialize;

use ace_engine::rng::{clamped_normal, exponential};
use ace_engine::SimTime;

/// A peer session-lifetime distribution.
#[derive(Clone, Copy, Debug, Serialize)]
pub enum LifetimeModel {
    /// Normal(mean, std) clamped to at least `min_secs` — the paper's model
    /// (mean 600 s, variance = mean/2 ⇒ std = √300 s ≈ 17.3 s... the paper
    /// says "variance chosen to be half the value of the mean"; we follow
    /// the common reading std = mean/2, which reproduces the reported
    /// transience).
    ClampedNormal {
        /// Mean lifetime in seconds.
        mean_secs: f64,
        /// Standard deviation in seconds.
        std_secs: f64,
        /// Minimum lifetime in seconds (avoids zero-length sessions).
        min_secs: f64,
    },
}

impl LifetimeModel {
    /// The paper's configuration: mean 10 minutes, std = mean/2, minimum
    /// 10 seconds.
    pub fn paper_default() -> Self {
        LifetimeModel::ClampedNormal {
            mean_secs: 600.0,
            std_secs: 300.0,
            min_secs: 10.0,
        }
    }

    /// Draws one lifetime.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        let secs = match *self {
            LifetimeModel::ClampedNormal {
                mean_secs,
                std_secs,
                min_secs,
            } => clamped_normal(rng, mean_secs, std_secs, min_secs, f64::INFINITY),
        };
        SimTime::from_ticks((secs * SimTime::TICKS_PER_SECOND as f64).round() as u64)
    }
}

/// How a departing peer exits the overlay.
///
/// The distinction matters for protocol state, not for the overlay graph
/// itself ([`crate::Overlay::leave`] cuts the links either way): a
/// graceful leave lets partners invalidate their cached trees, cost-table
/// entries and forward requests immediately, while a crash leaves that
/// state to rot until the survivors' next probe round notices the links
/// are gone.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum DepartureKind {
    /// Clean shutdown: goodbye/disconnect messages reach every partner.
    Graceful,
    /// Silent crash: no goodbye, partners discover the loss lazily.
    Crash,
}

/// Mix of graceful leaves and silent crashes among peer departures.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct DepartureModel {
    /// Fraction of departures that are crashes, in `[0, 1]`.
    pub crash_fraction: f64,
}

impl Default for DepartureModel {
    /// All departures graceful (the paper's implicit model).
    fn default() -> Self {
        DepartureModel::paper_default()
    }
}

impl DepartureModel {
    /// The paper's implicit model: every departure is a graceful leave.
    pub fn paper_default() -> Self {
        DepartureModel {
            crash_fraction: 0.0,
        }
    }

    /// A model where the given fraction of departures are crashes.
    ///
    /// # Panics
    ///
    /// Panics if `crash_fraction` is outside `[0, 1]`.
    pub fn with_crash_fraction(crash_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&crash_fraction),
            "crash fraction must be in [0, 1], got {crash_fraction}"
        );
        DepartureModel { crash_fraction }
    }

    /// Draws how one departure happens.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> DepartureKind {
        if self.crash_fraction > 0.0 && rng.gen_bool(self.crash_fraction.min(1.0)) {
            DepartureKind::Crash
        } else {
            DepartureKind::Graceful
        }
    }
}

/// Poisson query arrivals at a fixed per-peer rate.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct QueryRate {
    /// Queries per minute per peer.
    pub per_minute: f64,
}

impl QueryRate {
    /// The paper's measured workload: 0.3 queries/minute/peer (derived
    /// from 25,000 unique IPs issuing 1,146,782 queries in 5 hours).
    pub fn paper_default() -> Self {
        QueryRate { per_minute: 0.3 }
    }

    /// Draws the gap until a peer's next query.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive.
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        assert!(self.per_minute > 0.0, "query rate must be positive");
        let mean_secs = 60.0 / self.per_minute;
        let secs = exponential(rng, mean_secs);
        SimTime::from_ticks((secs * SimTime::TICKS_PER_SECOND as f64).round().max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_lifetime_mean_is_ten_minutes() {
        let m = LifetimeModel::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| m.sample(&mut rng).as_secs_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 600.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn lifetimes_respect_minimum() {
        let m = LifetimeModel::ClampedNormal {
            mean_secs: 10.0,
            std_secs: 100.0,
            min_secs: 5.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            assert!(m.sample(&mut rng).as_secs_f64() >= 5.0);
        }
    }

    #[test]
    fn query_gaps_average_to_rate() {
        let q = QueryRate::paper_default(); // 0.3/min => mean gap 200 s
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| q.next_gap(&mut rng).as_secs_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 200.0).abs() < 6.0, "mean gap {mean}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        QueryRate { per_minute: 0.0 }.next_gap(&mut rng);
    }
}
