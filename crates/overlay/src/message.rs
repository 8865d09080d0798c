//! Gnutella-style wire messages.
//!
//! ACE's overhead accounting is message-size aware: a neighbor cost table
//! with 20 entries costs more to ship than a probe. Each message has a
//! compact binary layout whose *length* ([`Message::wire_size`]) drives
//! the cost model, so overhead numbers follow real payload sizes instead
//! of hand-picked constants.

use ace_topology::Delay;

use crate::peer::PeerId;

/// Size (bytes) of a baseline query message; one "size unit" of traffic.
/// Matches a small Gnutella QUERY descriptor (23-byte header + short
/// search string).
pub const QUERY_BASE_SIZE: usize = 40;

/// A protocol message exchanged between logical neighbors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Keep-alive / discovery probe.
    Ping,
    /// Ping response advertising known peer addresses.
    Pong {
        /// Addresses the sender shares from its cache.
        addrs: Vec<PeerId>,
    },
    /// A flooded search query.
    Query {
        /// Globally unique query id (for duplicate suppression).
        id: u64,
        /// Remaining hops.
        ttl: u8,
        /// Requested object.
        object: u32,
    },
    /// A query hit traveling back along the inverse query path.
    QueryHit {
        /// Id of the query being answered.
        id: u64,
        /// The responder.
        responder: PeerId,
    },
    /// ACE phase-1 delay probe (routing message type added to Gnutella).
    Probe {
        /// Echo nonce.
        nonce: u64,
    },
    /// Reply to [`Message::Probe`].
    ProbeReply {
        /// Echoed nonce.
        nonce: u64,
    },
    /// ACE neighbor cost table exchange.
    CostTable {
        /// Table owner.
        owner: PeerId,
        /// `(neighbor, cost)` entries.
        entries: Vec<(PeerId, Delay)>,
    },
    /// ACE phase-3 connection request.
    Connect,
    /// Acceptance of a [`Message::Connect`].
    ConnectOk,
    /// Notice that the sender is dropping the connection.
    Disconnect,
    /// ACE: ask a neighbor to probe the given peers and report the costs
    /// (how a peer learns the pairwise costs among its own neighbors).
    ProbeRequest {
        /// Peers the receiver should measure.
        targets: Vec<PeerId>,
    },
    /// ACE: "your link to me is on my spanning tree — relay my queries".
    ForwardRequest,
    /// ACE: withdraw a previous [`Message::ForwardRequest`].
    ForwardCancel,
}

/// Wire bytes of a [`Message::CostTable`] with `entries` rows: tag, owner,
/// length prefix, then `(neighbor, cost)` pairs.
const fn cost_table_wire_size(entries: usize) -> usize {
    7 + 8 * entries
}

/// Wire bytes in query-size units, floored so nothing travels free.
fn size_units_of(wire_size: usize) -> f64 {
    (wire_size as f64 / QUERY_BASE_SIZE as f64).max(0.25)
}

impl Message {
    /// Size in bytes on the wire: a one-byte tag, fixed-width fields and
    /// a two-byte length prefix before each list — PROTOCOL.md's "Message
    /// reference" table. ACE's overhead is link delay × message size, so
    /// the size is all that is modelled; no frame is ever built.
    pub fn wire_size(&self) -> usize {
        match self {
            Message::Ping
            | Message::Connect
            | Message::ConnectOk
            | Message::Disconnect
            | Message::ForwardRequest
            | Message::ForwardCancel => 1,
            Message::Probe { .. } | Message::ProbeReply { .. } => 9,
            Message::QueryHit { .. } => 13,
            // 14 bytes of fields, padded to the Gnutella-like baseline.
            Message::Query { .. } => QUERY_BASE_SIZE,
            Message::Pong { addrs: peers } | Message::ProbeRequest { targets: peers } => {
                3 + 4 * peers.len()
            }
            Message::CostTable { entries, .. } => cost_table_wire_size(entries.len()),
        }
    }

    /// Message size expressed in query-size units (>= a small floor so
    /// control messages are never free). This is the factor that scales
    /// the physical link cost when charging traffic/overhead.
    pub fn size_units(&self) -> f64 {
        size_units_of(self.wire_size())
    }

    /// [`size_units`](Self::size_units) of a [`Message::CostTable`] with
    /// `entries` rows, for callers that price a table exchange without
    /// building the message.
    pub fn cost_table_size_units(entries: usize) -> f64 {
        size_units_of(cost_table_wire_size(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// PROTOCOL.md's "Message reference" table, row by row.
    #[test]
    fn wire_sizes_match_the_documented_table() {
        let peers = |n: u32| (0..n).map(PeerId::new).collect::<Vec<_>>();
        let rows = |n: u32| (0..n).map(|i| (PeerId::new(i), 5)).collect::<Vec<_>>();
        for (msg, bytes) in [
            (Message::Ping, 1),
            (Message::Connect, 1),
            (Message::ConnectOk, 1),
            (Message::Disconnect, 1),
            (Message::ForwardRequest, 1),
            (Message::ForwardCancel, 1),
            (Message::Probe { nonce: 0xdead }, 9),
            (Message::ProbeReply { nonce: 0xdead }, 9),
            (
                Message::QueryHit {
                    id: 77,
                    responder: PeerId::new(4),
                },
                13,
            ),
            (
                Message::Query {
                    id: 77,
                    ttl: 7,
                    object: 1234,
                },
                40,
            ),
        ] {
            assert_eq!(msg.wire_size(), bytes, "{msg:?}");
        }
        // A list longer than its two-byte length prefix can count is
        // still charged for every element.
        for n in [0, 1, 20, u32::from(u16::MAX) + 2] {
            let len = n as usize;
            assert_eq!(Message::Pong { addrs: peers(n) }.wire_size(), 3 + 4 * len);
            assert_eq!(
                Message::ProbeRequest { targets: peers(n) }.wire_size(),
                3 + 4 * len
            );
            let table = Message::CostTable {
                owner: PeerId::new(2),
                entries: rows(n),
            };
            assert_eq!(table.wire_size(), 7 + 8 * len);
            assert_eq!(table.size_units(), Message::cost_table_size_units(len));
        }
    }

    #[test]
    fn query_is_exactly_one_size_unit() {
        let q = Message::Query {
            id: 1,
            ttl: 7,
            object: 0,
        };
        assert_eq!(q.wire_size(), QUERY_BASE_SIZE);
        assert!((q.size_units() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cost_table_grows_with_entries() {
        let small = Message::CostTable {
            owner: PeerId::new(0),
            entries: vec![(PeerId::new(1), 5)],
        };
        let big = Message::CostTable {
            owner: PeerId::new(0),
            entries: (0..20).map(|i| (PeerId::new(i), 5)).collect(),
        };
        assert!(big.wire_size() > small.wire_size());
        assert!(big.size_units() > small.size_units());
    }

    #[test]
    fn control_messages_have_floor_cost() {
        assert!(Message::Ping.size_units() >= 0.25);
        assert!(Message::Connect.size_units() >= 0.25);
    }
}
