//! Peer identifiers.

use std::fmt;

use serde::Serialize;

/// Identifier of a logical peer in the overlay.
///
/// Peers are dense indices in `0..overlay.peer_count()`; a peer keeps its
/// id (and its physical host) across leave/rejoin cycles, matching the
/// paper's model where a returning peer reconnects from its address cache.
///
/// # Examples
///
/// ```
/// use ace_overlay::PeerId;
/// let p = PeerId::new(7);
/// assert_eq!(p.index(), 7);
/// assert_eq!(p.to_string(), "p7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize)]
pub struct PeerId(u32);

impl PeerId {
    /// Creates a peer id from a raw index.
    pub const fn new(index: u32) -> Self {
        PeerId(index)
    }

    /// Raw index as `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw index as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PeerId {
    fn from(v: u32) -> Self {
        PeerId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let p = PeerId::new(3);
        assert_eq!(p.index(), 3);
        assert_eq!(p.raw(), 3);
        assert_eq!(PeerId::from(3u32), p);
        assert!(PeerId::new(1) < PeerId::new(2));
        assert_eq!(format!("{p}"), "p3");
    }
}
