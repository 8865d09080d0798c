//! Stable fingerprints: the one fold every digest, golden pin and
//! hash-seeded draw in the workspace goes through.
//!
//! A fold starts from an explicit seed and updates its state once per
//! `u64` word as `h = splitmix64(h ^ w)`. Variable-length data writes its
//! length as a word first, so `[[1], [2, 3]]` and `[[1, 2], [3]]` fold
//! differently; bytes fold as their length, then little-endian 8-byte
//! words (the last one zero-padded). The function is written out here,
//! not borrowed from `std`, whose hashers do not promise the same output
//! across releases: a digest committed today must read the same under
//! any later toolchain (`clippy.toml` bans the std hasher).
//!
//! ```
//! use ace_engine::digest::{fold, Digest};
//! let mut d = Digest::new(7);
//! d.word(1).word(2);
//! assert_eq!(d.finish(), fold(7, &[1, 2]));
//! ```

use crate::rng::splitmix64;

/// A running fold over `u64` words (see the [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// Starts a fold from `seed`.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        Digest(seed)
    }

    /// Folds one word.
    #[inline]
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.0 = splitmix64(self.0 ^ w);
        self
    }

    /// Folds a variable-length word sequence: its length, then each word.
    #[inline]
    pub fn words<I>(&mut self, ws: I) -> &mut Self
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator<Item = u64>,
    {
        let ws = ws.into_iter();
        self.word(ws.len() as u64);
        ws.fold(self, |d, w| d.word(w))
    }

    /// Folds a byte string: its length, then little-endian 8-byte words.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self
    }

    /// The fingerprint so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds a fixed-arity word tuple from `seed` (no length word: every
/// call site of one seed passes the same number of words).
#[inline]
pub fn fold(seed: u64, words: &[u64]) -> u64 {
    let mut d = Digest::new(seed);
    for &w in words {
        d.word(w);
    }
    d.finish()
}

/// Maps a hash to a uniform draw in `[0, 1)` (its top 53 bits).
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first two are the first two outputs of the reference
    /// SplitMix64 generator seeded with 0; the rest were computed by an
    /// independent implementation of the fold.
    #[test]
    fn known_answers() {
        assert_eq!(fold(0, &[0]), 0xe220_a839_7b1d_cdaf);
        assert_eq!(fold(0, &[0x9e37_79b9_7f4a_7c15]), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(fold(0, &[]), 0);
        assert_eq!(
            fold(0x5151_5151_ace0_ace0, &[42, 1, 7, 9]),
            0xb6d0_7c10_72bb_ad34
        );
        assert_eq!(
            Digest::new(3).words([1, 2, 3]).finish(),
            0x1467_336e_db96_2514
        );
        assert_eq!(
            Digest::new(3).bytes(b"ace digest").finish(),
            0xaa9f_0da5_24fd_4bf2
        );
        // Bytes are their length, then zero-padded little-endian words.
        assert_eq!(
            Digest::new(3).bytes(b"ace digest").finish(),
            fold(3, &[10, u64::from_le_bytes(*b"ace dige"), 0x7473]),
        );
        assert_eq!(unit(0), 0.0);
        assert_eq!(unit(1 << 11), 1.0 / (1u64 << 53) as f64);
        assert!(unit(u64::MAX) < 1.0);
    }

    /// Lengths frame each sequence, so moving a boundary moves the digest.
    #[test]
    fn lengths_frame_nested_sequences() {
        let fold_nested = |xs: &[&[u64]]| {
            let mut d = Digest::new(0);
            d.word(xs.len() as u64);
            for x in xs {
                d.words(x.iter().copied());
            }
            d.finish()
        };
        assert_ne!(fold_nested(&[&[1], &[2, 3]]), fold_nested(&[&[1, 2], &[3]]));
        assert_ne!(
            Digest::new(0).bytes(b"ab").bytes(b"c").finish(),
            Digest::new(0).bytes(b"a").bytes(b"bc").finish()
        );
        assert_ne!(
            Digest::new(0).bytes(b"a").finish(),
            Digest::new(0).bytes(b"a\0").finish()
        );
    }
}
