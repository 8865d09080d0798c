//! Deterministic fault injection for churn experiments.
//!
//! The paper evaluates ACE under churn (§4.3) but assumes every control
//! message arrives and every departure is announced. This module models
//! the unfriendly cases — lost/timed-out probes with bounded
//! retry-and-backoff, silent crashes vs. graceful leaves, and peers
//! rejoining mid-experiment — while keeping runs bit-reproducible.
//!
//! Every decision is a pure hash of `(seed, round, participants,
//! attempt)` in the style of [`crate::ProbeModel::perturb`]: no shared
//! RNG state is consumed, so outcomes are identical whether rounds run
//! serially or on the parallel plan/commit pipeline with any worker
//! count, and both endpoints of a probe observe the same loss (a timeout
//! is a property of the pair's exchange, not of one side).

use ace_engine::digest::{fold, unit};
use ace_overlay::{DepartureKind, PeerId};

use crate::audit::ConfigError;

/// Retries after the first lost probe attempt before the prober gives up
/// on the pair for this round.
pub(crate) const MAX_RETRIES: u8 = 2;
/// Multiplicative backoff on the charged cost of successive lost probe
/// attempts (a longer timeout ≈ proportionally more wasted waiting).
pub(crate) const RETRY_BACKOFF: f64 = 1.5;
/// How many links a rejoining peer attempts to re-establish.
pub(crate) const REJOIN_ATTACH: usize = 3;

/// Configuration for deterministic fault injection in the round-based
/// engine ([`crate::AceConfig::faults`]). The asynchronous driver's loss
/// model is the adversarial wire ([`crate::netem`]) instead.
///
/// The default is inert: no probe loss, no departures, no rejoins. All
/// probabilities are per-decision, drawn independently via hashing.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability that one probe attempt for a pair is lost, in `[0, 1)`.
    /// Loss is decided per `(round, pair, attempt)`, so retries of the
    /// same pair redraw independently.
    pub probe_loss: f64,
    /// Per-round probability that an alive peer crashes mid-round (no
    /// goodbye: partners keep their stale state).
    pub crash: f64,
    /// Per-round probability that an alive peer leaves gracefully
    /// mid-round (partners purge their state for it).
    pub leave: f64,
    /// Per-round probability that a dead peer rejoins mid-round.
    pub rejoin: f64,
    /// Seed mixed into every fault hash.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            probe_loss: 0.0,
            crash: 0.0,
            leave: 0.0,
            rejoin: 0.0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// Validates the configuration, returning a typed description of the
    /// first problem found (`Display` keeps the old message text).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, p) in [
            ("probe_loss", self.probe_loss),
            ("crash", self.crash),
            ("leave", self.leave),
            ("rejoin", self.rejoin),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(ConfigError::new(
                    name,
                    format!("{name} must be in [0, 1], got {p}"),
                ));
            }
        }
        if self.probe_loss >= 1.0 {
            return Err(ConfigError::new(
                "probe_loss",
                "probe_loss must be < 1 (1.0 would never probe anything)".into(),
            ));
        }
        if self.crash + self.leave > 1.0 {
            return Err(ConfigError::new(
                "crash",
                format!(
                    "crash + leave must be <= 1, got {}",
                    self.crash + self.leave
                ),
            ));
        }
        Ok(())
    }

    /// Whether the probe attempt (0-based) for the unordered pair `(a,
    /// b)` in the given round is lost. Symmetric in `a`/`b`.
    pub fn probe_lost(&self, round: u64, a: PeerId, b: PeerId, attempt: u8) -> bool {
        if self.probe_loss <= 0.0 {
            return false;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let h = fold(
            HASH_SEED,
            &[
                self.seed,
                1,
                round,
                (u64::from(lo.raw()) << 32) | u64::from(hi.raw()),
                u64::from(attempt),
            ],
        );
        unit(h) < self.probe_loss
    }

    /// Whether (and how) an alive peer departs mid-round. A single
    /// uniform draw splits into crash / graceful-leave / stay.
    pub fn departure(&self, round: u64, peer: PeerId) -> Option<DepartureKind> {
        if self.crash <= 0.0 && self.leave <= 0.0 {
            return None;
        }
        let h = fold(HASH_SEED, &[self.seed, 2, round, u64::from(peer.raw())]);
        let u = unit(h);
        if u < self.crash {
            Some(DepartureKind::Crash)
        } else if u < self.crash + self.leave {
            Some(DepartureKind::Graceful)
        } else {
            None
        }
    }

    /// Whether a dead peer rejoins mid-round.
    pub fn rejoins(&self, round: u64, peer: PeerId) -> bool {
        if self.rejoin <= 0.0 {
            return false;
        }
        let h = fold(HASH_SEED, &[self.seed, 3, round, u64::from(peer.raw())]);
        unit(h) < self.rejoin
    }

    /// A per-`(round, peer)` seed for the rejoin bootstrap RNG, so the
    /// attachment choices of a rejoining peer don't depend on any shared
    /// RNG stream.
    pub fn rejoin_seed(&self, round: u64, peer: PeerId) -> u64 {
        fold(HASH_SEED, &[self.seed, 4, round, u64::from(peer.raw())])
    }
}

/// Seed of every fault and wire draw ([`crate::netem`] shares it), so
/// each adversarial decision in the workspace is one
/// [`ace_engine::digest::fold`] away from its inputs.
pub(crate) const HASH_SEED: u64 = 0x5151_5151_ACE0_ACE0;

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> FaultConfig {
        FaultConfig {
            probe_loss: 0.3,
            crash: 0.05,
            leave: 0.1,
            rejoin: 0.4,
            seed: 42,
        }
    }

    #[test]
    fn default_is_inert_and_valid() {
        let f = FaultConfig::default();
        f.validate().unwrap();
        for r in 0..10 {
            for p in 0..10u32 {
                assert!(!f.probe_lost(r, PeerId::new(p), PeerId::new(p + 1), 0));
                assert_eq!(f.departure(r, PeerId::new(p)), None);
                assert!(!f.rejoins(r, PeerId::new(p)));
            }
        }
    }

    #[test]
    fn probe_loss_is_symmetric_and_repeatable() {
        let f = lossy();
        for r in 0..20 {
            for i in 0..20u32 {
                let (a, b) = (PeerId::new(i), PeerId::new(i + 7));
                let lost = f.probe_lost(r, a, b, 0);
                assert_eq!(lost, f.probe_lost(r, b, a, 0), "symmetry");
                assert_eq!(lost, f.probe_lost(r, a, b, 0), "repeatability");
            }
        }
    }

    #[test]
    fn retries_redraw_independently() {
        let f = lossy();
        let (a, b) = (PeerId::new(1), PeerId::new(2));
        let differs = (0..64).any(|r| f.probe_lost(r, a, b, 0) != f.probe_lost(r, a, b, 1));
        assert!(differs, "attempt index must enter the hash");
    }

    #[test]
    fn empirical_rates_are_close() {
        let f = lossy();
        let n = 20_000u64;
        let losses = (0..n)
            .filter(|&r| f.probe_lost(r, PeerId::new(3), PeerId::new(9), 0))
            .count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");

        let (mut crashes, mut leaves) = (0, 0);
        for r in 0..n {
            match f.departure(r, PeerId::new(5)) {
                Some(DepartureKind::Crash) => crashes += 1,
                Some(DepartureKind::Graceful) => leaves += 1,
                None => {}
            }
        }
        let (cr, lr) = (crashes as f64 / n as f64, leaves as f64 / n as f64);
        assert!((cr - 0.05).abs() < 0.01, "crash rate {cr}");
        assert!((lr - 0.1).abs() < 0.015, "leave rate {lr}");
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut f = FaultConfig {
            probe_loss: 1.5,
            ..FaultConfig::default()
        };
        assert!(f.validate().is_err());
        f.probe_loss = 0.0;
        f.crash = 0.7;
        f.leave = 0.7;
        assert!(f.validate().is_err());
        f.leave = 0.1;
        f.validate().unwrap();
    }

    #[test]
    fn rejoin_seed_varies_by_round_and_peer() {
        let f = lossy();
        let s = f.rejoin_seed(1, PeerId::new(1));
        assert_ne!(s, f.rejoin_seed(2, PeerId::new(1)));
        assert_ne!(s, f.rejoin_seed(1, PeerId::new(2)));
    }
}
