//! # ace-metrics — statistics and experiment output
//!
//! Measurement plumbing for the ACE reproduction: aligned-text [`Table`]
//! rendering and JSON
//! [`ExperimentRecord`]s that tie each run to the paper figure or table
//! it reproduces.
//!
//! # Examples
//!
//! ```
//! use ace_metrics::{f1, Table};
//!
//! let mut t = Table::new(["metric", "value"]);
//! t.row(["mean traffic".to_string(), f1(5.04)]);
//! assert!(t.render().contains("5.0"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
mod table;

pub use experiment::{ExperimentRecord, NamedSeries};
pub use table::{f1, f3, pct, Table};
