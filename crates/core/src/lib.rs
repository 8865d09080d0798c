//! # ace-core — Adaptive Connection Establishment
//!
//! The primary contribution of *"A Distributed Approach to Solving Overlay
//! Mismatching Problem"* (ICDCS 2004): a fully distributed optimizer that
//! matches an unstructured P2P overlay to the physical network underneath
//! it, cutting flooding traffic roughly in half while retaining the search
//! scope.
//!
//! The three phases (see [`AceEngine`]):
//!
//! 1. **Probe** — each peer measures delays to its logical neighbors and
//!    records them in a [`CostTable`]; tables are exchanged with neighbors
//!    (and relayed within the h-neighbor [`Closure`] for `h > 1`).
//! 2. **Tree** — a Prim minimum spanning tree ([`mst`]) over the closure
//!    splits the neighbor list into *flooding* and *non-flooding*
//!    neighbors; queries follow the tree ([`AceForward`]).
//! 3. **Adapt** — non-flooding far links are replaced by probing the far
//!    neighbor's own neighbors (the paper's Figure-4 rules), gradually
//!    rewiring the overlay toward physical proximity.
//!
//! All control traffic is charged to an [`OverheadLedger`] so the paper's
//! gain/penalty *optimization rate* ([`optimization_rate`]) can be
//! evaluated for any closure depth `h` and query/exchange frequency ratio
//! `R`. The [`experiments`] module contains the drivers that regenerate
//! every figure and table of the paper's evaluation.
//!
//! # Examples
//!
//! End-to-end: optimize an overlay, then compare flooding vs. ACE traffic:
//!
//! ```
//! use ace_core::{AceConfig, AceEngine, AceForward};
//! use ace_overlay::{random_overlay, run_query, FloodAll, PeerId, QueryConfig};
//! use ace_topology::generate::{two_level, TwoLevelConfig};
//! use ace_topology::DistanceOracle;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(11);
//! let topo = two_level(
//!     &TwoLevelConfig { as_count: 4, nodes_per_as: 40 },
//!     &mut rng,
//! );
//! let oracle = DistanceOracle::new(topo.graph);
//! let hosts = oracle.graph().nodes().take(60).collect();
//! let mut ov = random_overlay(hosts, 6, None, &mut rng);
//!
//! let flood = run_query(&ov, &oracle, PeerId::new(0), &QueryConfig::default(), &FloodAll, |_| false);
//!
//! let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
//! for _ in 0..6 { ace.round(&mut ov, &oracle, &mut rng); }
//!
//! let opt = run_query(&ov, &oracle, PeerId::new(0), &QueryConfig::default(),
//!                     &AceForward::new(&ace), |_| false);
//! assert_eq!(opt.scope, flood.scope, "same search scope");
//! assert!(opt.traffic_cost < flood.traffic_cost, "less traffic");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod autorate;
mod closure;
mod core_cache;
mod cost_table;
mod engine;
pub mod experiments;
mod fault;
mod forward_rows;
mod forwarding;
pub mod mst;
pub mod netem;
mod optrate;
mod overhead;
mod peer_state;
mod plan;
pub mod policy;
mod probe;
pub mod protocol;
mod reverse_refs;

pub use audit::{
    ConfigError, EquivalenceKind, EquivalenceViolation, InvariantViolation, ViolationKind,
};
pub use autorate::{AutoRateConfig, ControllerStats, RateController, RateSample};
pub use closure::Closure;
pub use core_cache::CoreCacheStats;
pub use cost_table::CostTable;
pub use engine::{AceConfig, AceEngine, AdaptOutcome, ReplacePolicy, RoundStats};
pub use fault::FaultConfig;
pub use forwarding::AceForward;
pub use netem::{NetemConfig, Partition, PartitionKind};
pub use optrate::{min_effective_depth, optimization_rate, optimization_rate_checked};
pub use overhead::{OverheadKind, OverheadLedger};
pub use policy::{
    next_opt_interval, purge_index_cache, Figure4Action, LifecycleEvent, RateObservation,
    WatchVerdict,
};
pub use probe::ProbeModel;

/// Test-only work counter: the index walks bump it once per element
/// they visit, so tests can assert *how much* a purge or an eviction
/// touched instead of timing it. Thread-local, and the test harness runs
/// each test on its own thread.
#[cfg(test)]
pub(crate) mod steps {
    use std::cell::Cell;

    thread_local!(static STEPS: Cell<u64> = const { Cell::new(0) });

    pub(crate) fn bump() {
        STEPS.with(|s| s.set(s.get() + 1));
    }

    /// The count since the last call, which it resets.
    pub(crate) fn take() -> u64 {
        STEPS.with(|s| s.replace(0))
    }
}
