//! # ace-overlay — unstructured P2P overlay substrate
//!
//! The Gnutella-like overlay layer of the ACE reproduction
//! (*"A Distributed Approach to Solving Overlay Mismatching Problem"*,
//! ICDCS 2004):
//!
//! * [`Overlay`] — logical peers mapped to physical hosts, symmetric
//!   neighbor links, address caches, join/leave with rejoin-from-cache;
//!   [`random_overlay`] and [`pref_attach_overlay`] builders matching the
//!   paper's generated and measured (power-law) overlay shapes;
//! * [`Message`] — Gnutella-style messages and their wire sizes (ACE's
//!   overhead accounting is size-aware);
//! * one query-propagation kernel (`search.rs`) — time-ordered, generic
//!   over a [`ForwardPolicy`] (blind [`FloodAll`] here, and HPF's
//!   [`PartialFlood`], the kernel tests' non-flooding policy; ACE's tree
//!   policy lives in `ace-core`) — and its two drivers:
//!   [`run_query`] / [`run_query_into`] measure one query (scope, traffic
//!   cost, duplicates, response time, per-peer arrivals), and
//!   [`serve_batch`] serves a workload (SoA per-slot state, worker
//!   shards with per-peer inbox accounting),
//!   bit-identical to a sequential single-query sweep for any worker
//!   count;
//! * [`run_query_traced`] — the kernel's per-transmission tracer, which
//!   is how per-link load ([`LinkLoad`]) is accounted;
//! * content ([`Catalog`], [`Placement`]), churn ([`LifetimeModel`]) and
//!   workload ([`QueryRate`]) models with the paper's parameters;
//! * [`IndexCache`] — the response index caching extension of §5.2.
//!
//! # Examples
//!
//! Measure one blind-flooding query on a random overlay:
//!
//! ```
//! use ace_overlay::{random_overlay, run_query, FloodAll, PeerId, QueryConfig};
//! use ace_topology::generate::{ba, BaConfig};
//! use ace_topology::DistanceOracle;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let phys = ba(&BaConfig { nodes: 200, ..BaConfig::default() }, &mut rng);
//! let oracle = DistanceOracle::new(phys);
//! let hosts = oracle.graph().nodes().take(50).collect();
//! let ov = random_overlay(hosts, 4, None, &mut rng);
//!
//! let out = run_query(&ov, &oracle, PeerId::new(0), &QueryConfig::default(), &FloodAll, |_| false);
//! assert_eq!(out.scope, 50); // TTL 7 covers this overlay
//! assert!(out.traffic_cost > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod content;
mod hpf;
mod index_cache;
#[cfg(test)]
mod kernel_model;
mod link_load;
mod message;
mod network;
mod peer;
mod search;
mod serve;
mod two_tier;
mod walk;

pub use churn::{DepartureKind, DepartureModel, LifetimeModel, QueryRate};
pub use content::{Catalog, ObjectId, Placement};
pub use hpf::{HpfWeight, PartialFlood};
pub use index_cache::IndexCache;
pub use link_load::LinkLoad;
pub use message::{Message, QUERY_BASE_SIZE};
pub use network::{
    clustered_overlay, pref_attach_overlay, random_overlay, Overlay, OverlayError, ADDR_CACHE_CAP,
};
pub use peer::PeerId;
pub use search::{
    run_query, run_query_into, run_query_traced, FloodAll, ForwardPolicy, QueryConfig,
    QueryOutcome, QueryScratch,
};
pub use serve::{
    serve_batch, serve_sequential, zipf_workload, BatchOutcome, LatencyHistogram, QuerySpec,
    ServeConfig, ServeReport,
};
pub use two_tier::{TierRole, TwoTierNetwork, CORE_DEGREE};
pub use walk::{random_walk_query, random_walk_query_traced, WalkConfig, WalkOutcome};
