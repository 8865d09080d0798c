//! Deterministic adversarial wire model for the async protocol.
//!
//! [`AsyncAceSim`](crate::protocol::AsyncAceSim) normally runs over a
//! perfect network: every control message arrives exactly once, in delay
//! order. A [`NetemConfig`] degrades that wire the way a real internet
//! does — per-transmission **loss**, **duplication**, bounded
//! **reordering** (extra delivery jitter beyond the physical delay), and
//! scheduled **partitions** that cut all traffic across a bipartition or
//! island assignment until they heal.
//!
//! Every decision is a pure hash of `(seed, tag, link, sequence number,
//! attempt)` in the style of [`crate::FaultConfig`] — no RNG state is
//! consumed, so a run is bit-reproducible from its seed alone and a
//! shrinking property test replays the exact same wire while it minimizes
//! the schedule. Loss and duplication are *per directed link and per
//! transmission*: a retransmit of the same sequence number redraws its
//! fate, and the two directions of a link fail independently.
//!
//! Partitions are wall-clock windows over simulation ticks. While a
//! window is active, any message whose endpoints fall on different sides
//! is dropped at the sender (retransmits included — a cut is a cut). The
//! auditors use [`NetemConfig::separated_within`] to defer cross-cut
//! disagreements until `K` optimize periods after the heal (see
//! `protocol::REPAIR_PERIODS`).

use ace_engine::digest::{fold, unit};
use ace_overlay::PeerId;

use crate::audit::ConfigError;
use crate::fault::HASH_SEED;

/// How a scheduled partition assigns peers to sides.
#[derive(Clone, Copy, Debug)]
pub enum PartitionKind {
    /// Two sides, assigned by hash parity of `(salt, peer)` — roughly
    /// half the population on each side.
    Bipartition {
        /// Varies the assignment between schedules with equal windows.
        salt: u64,
    },
    /// `count` islands, assigned by hash modulo; only same-island
    /// traffic flows.
    Islands {
        /// Number of islands (≥ 2).
        count: u32,
        /// Varies the assignment between schedules with equal windows.
        salt: u64,
    },
}

/// One scheduled partition window: all cross-side traffic sent during
/// `[start, start + duration)` is dropped.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// First tick of the cut.
    pub start: u64,
    /// Window length in ticks; the wire heals at `start + duration`.
    pub duration: u64,
    /// Side assignment.
    pub kind: PartitionKind,
}

impl Partition {
    fn active_at(&self, tick: u64) -> bool {
        tick >= self.start && tick - self.start < self.duration
    }

    /// The tick at which this window heals.
    pub fn heals_at(&self) -> u64 {
        self.start.saturating_add(self.duration)
    }

    /// Which side of this partition `peer` falls on.
    fn side(&self, peer: PeerId) -> u64 {
        match self.kind {
            PartitionKind::Bipartition { salt } => {
                fold(HASH_SEED, &[salt, 6, u64::from(peer.raw())]) & 1
            }
            PartitionKind::Islands { count, salt } => {
                fold(HASH_SEED, &[salt, 7, u64::from(peer.raw())]) % u64::from(count.max(1))
            }
        }
    }

    /// Whether this window separates `a` and `b` (regardless of time).
    pub fn separates(&self, a: PeerId, b: PeerId) -> bool {
        self.side(a) != self.side(b)
    }
}

/// Configuration of the adversarial wire. The default is a perfect
/// network; every knob degrades it independently.
#[derive(Clone, Debug)]
pub struct NetemConfig {
    /// Probability that one transmission (original or retransmit) is
    /// lost, in `[0, 1)`. Drawn per `(directed link, seq, attempt)`.
    pub loss: f64,
    /// Probability that a delivered transmission arrives twice, in
    /// `[0, 1)`. The duplicate takes its own reorder jitter, so the two
    /// copies can arrive in either order.
    pub duplicate: f64,
    /// Maximum extra delivery delay in ticks, drawn uniformly per copy
    /// on top of the physical one-way delay. Two messages on the same
    /// link can overtake each other by up to this much.
    pub reorder_jitter: u64,
    /// Scheduled partition windows (may overlap; a pair is cut while
    /// *any* active window separates it).
    pub partitions: Vec<Partition>,
    /// Seed mixed into every wire hash.
    pub seed: u64,
}

impl Default for NetemConfig {
    fn default() -> Self {
        NetemConfig {
            loss: 0.0,
            duplicate: 0.0,
            reorder_jitter: 0,
            partitions: Vec::new(),
            seed: 0,
        }
    }
}

impl NetemConfig {
    /// Validates the configuration, returning a typed description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, p) in [("loss", self.loss), ("duplicate", self.duplicate)] {
            if !p.is_finite() || !(0.0..1.0).contains(&p) {
                return Err(ConfigError::new(
                    name,
                    format!("{name} must be in [0, 1), got {p}"),
                ));
            }
        }
        for (i, w) in self.partitions.iter().enumerate() {
            if w.duration == 0 {
                return Err(ConfigError::new(
                    "partitions",
                    format!("partition {i} has zero duration"),
                ));
            }
            if let PartitionKind::Islands { count, .. } = w.kind {
                if count < 2 {
                    return Err(ConfigError::new(
                        "partitions",
                        format!("partition {i} needs >= 2 islands, got {count}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether one transmission attempt of `seq` from `from` to `to` is
    /// lost. Directed: the reverse leg draws independently.
    pub fn lost(&self, from: PeerId, to: PeerId, seq: u64, attempt: u8) -> bool {
        if self.loss <= 0.0 {
            return false;
        }
        let h = fold(
            HASH_SEED,
            &[
                self.seed,
                8,
                (u64::from(from.raw()) << 32) | u64::from(to.raw()),
                seq,
                u64::from(attempt),
            ],
        );
        unit(h) < self.loss
    }

    /// Whether a delivered transmission of `seq` also arrives as a
    /// second copy.
    pub fn duplicated(&self, from: PeerId, to: PeerId, seq: u64, attempt: u8) -> bool {
        if self.duplicate <= 0.0 {
            return false;
        }
        let h = fold(
            HASH_SEED,
            &[
                self.seed,
                9,
                (u64::from(from.raw()) << 32) | u64::from(to.raw()),
                seq,
                u64::from(attempt),
            ],
        );
        unit(h) < self.duplicate
    }

    /// Extra delivery delay (in ticks, `0..=reorder_jitter`) for one
    /// copy of `seq`; `copy` distinguishes the duplicate from the
    /// original so the pair can arrive out of order.
    pub fn extra_delay(&self, from: PeerId, to: PeerId, seq: u64, copy: u8) -> u64 {
        if self.reorder_jitter == 0 {
            return 0;
        }
        let h = fold(
            HASH_SEED,
            &[
                self.seed,
                10,
                (u64::from(from.raw()) << 32) | u64::from(to.raw()),
                seq,
                u64::from(copy),
            ],
        );
        h % (self.reorder_jitter + 1)
    }

    /// Deterministic retry jitter in `0..=max` for retransmit `attempt`
    /// of `seq` (decorrelates backoff chains without consuming RNG).
    pub fn retry_jitter(&self, seq: u64, attempt: u8, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        let h = fold(HASH_SEED, &[self.seed, 11, seq, u64::from(attempt)]);
        h % (max + 1)
    }

    /// Whether `a` and `b` are on different sides of a partition active
    /// at `tick`.
    pub fn cut(&self, tick: u64, a: PeerId, b: PeerId) -> bool {
        self.partitions
            .iter()
            .any(|w| w.active_at(tick) && w.separates(a, b))
    }

    /// When the cut separating `a` and `b` at `tick` heals: the latest
    /// `heals_at` over the active separating windows. `None` when the
    /// pair is not cut at `tick`.
    pub fn heals_at(&self, tick: u64, a: PeerId, b: PeerId) -> Option<u64> {
        self.partitions
            .iter()
            .filter(|w| w.active_at(tick) && w.separates(a, b))
            .map(Partition::heals_at)
            .max()
    }

    /// Whether some partition window separated `a` and `b` at any point
    /// in `[tick - lookback, tick]` — the auditors' deferral test: a
    /// cross-cut disagreement is legitimate until `lookback` ticks after
    /// the heal.
    pub fn separated_within(&self, tick: u64, lookback: u64, a: PeerId, b: PeerId) -> bool {
        let from = tick.saturating_sub(lookback);
        self.partitions
            .iter()
            .any(|w| w.start <= tick && w.heals_at() > from && w.separates(a, b))
    }

    /// The last heal time over all windows (`0` with no partitions) —
    /// chaos harnesses run past this before demanding a clean audit.
    pub fn last_heal(&self) -> u64 {
        self.partitions
            .iter()
            .map(Partition::heals_at)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    fn lossy() -> NetemConfig {
        NetemConfig {
            loss: 0.2,
            duplicate: 0.1,
            reorder_jitter: 500,
            seed: 77,
            ..NetemConfig::default()
        }
    }

    #[test]
    fn default_is_quiet_and_valid() {
        let n = NetemConfig::default();
        n.validate().unwrap();
        for seq in 0..50 {
            assert!(!n.lost(p(1), p(2), seq, 0));
            assert!(!n.duplicated(p(1), p(2), seq, 0));
            assert_eq!(n.extra_delay(p(1), p(2), seq, 0), 0);
            assert!(!n.cut(seq, p(1), p(2)));
        }
    }

    #[test]
    fn decisions_are_repeatable_and_directed() {
        let n = lossy();
        let mut asymmetric = false;
        for seq in 0..200 {
            assert_eq!(n.lost(p(1), p(2), seq, 0), n.lost(p(1), p(2), seq, 0));
            asymmetric |= n.lost(p(1), p(2), seq, 0) != n.lost(p(2), p(1), seq, 0);
        }
        assert!(asymmetric, "the two directions must draw independently");
    }

    #[test]
    fn retransmits_redraw_their_fate() {
        let n = lossy();
        let differs = (0..200).any(|seq| n.lost(p(1), p(2), seq, 0) != n.lost(p(1), p(2), seq, 1));
        assert!(differs, "attempt index must enter the hash");
    }

    #[test]
    fn empirical_rates_are_close() {
        let n = lossy();
        let trials = 20_000u64;
        let losses = (0..trials).filter(|&s| n.lost(p(3), p(9), s, 0)).count();
        let rate = losses as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "loss rate {rate}");
        let dups = (0..trials)
            .filter(|&s| n.duplicated(p(3), p(9), s, 0))
            .count();
        let rate = dups as f64 / trials as f64;
        assert!((rate - 0.1).abs() < 0.015, "dup rate {rate}");
    }

    #[test]
    fn jitter_stays_in_bounds_and_varies() {
        let n = lossy();
        let delays: Vec<u64> = (0..100).map(|s| n.extra_delay(p(1), p(2), s, 0)).collect();
        assert!(delays.iter().all(|&d| d <= 500));
        assert!(delays.iter().any(|&d| d != delays[0]), "jitter must vary");
        // The duplicate copy draws its own jitter.
        assert!(
            (0..100).any(|s| n.extra_delay(p(1), p(2), s, 0) != n.extra_delay(p(1), p(2), s, 1))
        );
    }

    #[test]
    fn bipartition_cuts_cross_side_pairs_within_window() {
        let w = Partition {
            start: 100,
            duration: 50,
            kind: PartitionKind::Bipartition { salt: 5 },
        };
        let n = NetemConfig {
            partitions: vec![w],
            seed: 1,
            ..NetemConfig::default()
        };
        n.validate().unwrap();
        let (a, b) = (0..64)
            .flat_map(|i| (0..64).map(move |j| (p(i), p(j))))
            .find(|&(a, b)| a != b && w.separates(a, b))
            .expect("some pair is split");
        assert!(!n.cut(99, a, b), "before the window");
        assert!(n.cut(100, a, b) && n.cut(149, a, b), "inside the window");
        assert!(!n.cut(150, a, b), "healed");
        assert_eq!(n.heals_at(120, a, b), Some(150));
        assert_eq!(n.heals_at(150, a, b), None);
        // Same-side pairs are never cut.
        let (c, d) = (0..64)
            .flat_map(|i| (0..64).map(move |j| (p(i), p(j))))
            .find(|&(c, d)| c != d && !w.separates(c, d))
            .expect("some pair shares a side");
        assert!(!n.cut(120, c, d));
        assert_eq!(n.last_heal(), 150);
    }

    #[test]
    fn separated_within_covers_the_post_heal_window() {
        let n = NetemConfig {
            partitions: vec![Partition {
                start: 100,
                duration: 50,
                kind: PartitionKind::Bipartition { salt: 5 },
            }],
            seed: 1,
            ..NetemConfig::default()
        };
        let (a, b) = (0..64)
            .flat_map(|i| (0..64).map(move |j| (p(i), p(j))))
            .find(|&(a, b)| a != b && n.partitions[0].separates(a, b))
            .expect("split pair");
        assert!(!n.separated_within(99, 40, a, b), "window not started");
        assert!(n.separated_within(120, 40, a, b), "active");
        assert!(n.separated_within(180, 40, a, b), "within lookback of heal");
        assert!(!n.separated_within(200, 40, a, b), "lookback expired");
    }

    #[test]
    fn islands_split_into_count_groups() {
        let w = Partition {
            start: 0,
            duration: 10,
            kind: PartitionKind::Islands { count: 3, salt: 9 },
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(w.side(p(i)));
        }
        assert_eq!(seen.len(), 3, "all three islands populated");
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut n = NetemConfig {
            loss: 1.0,
            ..NetemConfig::default()
        };
        assert!(n.validate().is_err());
        n.loss = 0.1;
        n.partitions = vec![Partition {
            start: 0,
            duration: 0,
            kind: PartitionKind::Bipartition { salt: 0 },
        }];
        assert!(n.validate().is_err());
        n.partitions = vec![Partition {
            start: 0,
            duration: 5,
            kind: PartitionKind::Islands { count: 1, salt: 0 },
        }];
        let err = n.validate().unwrap_err();
        assert_eq!(err.parameter(), "partitions");
    }
}
