//! The repo's one benchmark: four replayed workloads, fourteen
//! end-to-end metrics and a per-layer ledger, timed from outside through
//! the public API of `ace-topology`, `ace-engine`, `ace-overlay` and
//! `ace-core`. See `README.md` for the method and the metric glossary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probes;
pub mod replay;
pub mod report;
pub mod run;
pub mod selfcheck;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod world;
