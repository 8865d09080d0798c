//! # ace-topology — physical network substrate
//!
//! The physical (underlying) network layer of the ACE reproduction
//! (*"A Distributed Approach to Solving Overlay Mismatching Problem"*,
//! ICDCS 2004). The paper simulates unstructured P2P overlays on top of
//! BRITE-generated Internet-like router topologies; this crate provides:
//!
//! * a compact undirected weighted [`Graph`] with integer link delays;
//! * Internet-like generators ([`generate`]): Barabási–Albert (the paper's
//!   model), a two-level AS/router hierarchy with LAN-vs-WAN delay
//!   separation, and the Erdős–Rényi / Watts–Strogatz null models the
//!   tests compare against;
//! * shortest paths ([`sssp`]) and caching [`DistanceOracle`]s — overlay
//!   link costs are physical shortest-path delays;
//! * structural [`analysis`] validating the power-law / small-world
//!   properties the paper assumes.
//!
//! # Examples
//!
//! ```
//! use ace_topology::generate::{two_level, TwoLevelConfig};
//! use ace_topology::{DistanceOracle, NodeId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let cfg = TwoLevelConfig { as_count: 4, nodes_per_as: 50 };
//! let topo = two_level(&cfg, &mut rng);
//! let oracle = DistanceOracle::new(topo.graph.clone());
//!
//! // Same-AS peers are much closer than cross-AS peers.
//! let intra = oracle.distance(NodeId::new(0), NodeId::new(1));
//! let inter = oracle.distance(NodeId::new(0), NodeId::new(60));
//! assert!(intra < inter);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod generate;
mod graph;
mod hybrid;
mod oracle;
mod plane;
pub mod sssp;
mod vivaldi;

pub use graph::{Delay, Edge, EdgeError, Graph, NodeId};
pub use hybrid::{HybridConfig, HybridOracle};
pub use oracle::{CacheStats, DistanceOracle, LandmarkOracle};
pub use plane::{DistancePlane, PlaneStats};
pub use vivaldi::{VivaldiConfig, VivaldiCoords, VIVALDI_MEDIAN_ERROR_BUDGET};
