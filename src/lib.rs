//! # ace-p2p — umbrella crate for the ACE reproduction
//!
//! Re-exports the workspace crates of the reproduction of *"A Distributed
//! Approach to Solving Overlay Mismatching Problem"* (ICDCS 2004) so that
//! examples and integration tests can use one import root:
//!
//! * [`topology`] — physical-network substrate (generators, shortest paths);
//! * [`engine`] — discrete-event simulation core;
//! * [`overlay`] — Gnutella-like overlay, churn, content, flooding search;
//! * [`core`] — ACE itself (cost tables, closures, trees, reconnection).
//!
//! See the repository README for a tour and `crates/bench` for the
//! figure-reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ace_core as core;
pub use ace_engine as engine;
pub use ace_overlay as overlay;
pub use ace_topology as topology;
