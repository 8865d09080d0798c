//! The two smoke artifacts CI regenerates and diffs: each run audits
//! its worlds as it goes (any violation panics) and returns the JSON
//! summary whose committed copy must not move.

mod chaos;
mod diff;

/// One smoke: `repro smoke <name>` rewrites `artifact` in the working
/// directory with what `run` returns.
pub struct Smoke {
    /// The operand of `repro smoke`.
    pub name: &'static str,
    /// The committed file the run regenerates.
    pub artifact: &'static str,
    /// Runs the smoke and returns the artifact's text.
    pub run: fn() -> String,
}

/// Every smoke, in CI order.
pub const SMOKES: [Smoke; 2] = [
    Smoke {
        name: "diff",
        artifact: "DIFFERENTIAL.json",
        run: diff::run,
    },
    Smoke {
        name: "chaos",
        artifact: "CHAOS.json",
        run: chaos::run,
    },
];
