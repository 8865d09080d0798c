//! The three smoke artifacts CI regenerates and diffs: each run audits
//! its worlds as it goes (any violation panics) and returns the JSON
//! summary whose committed copy must not move.

mod chaos;
mod diff;
mod fault;

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
pub const SMOKES: [Smoke; 3] = [
    Smoke {
        name: "fault",
        artifact: "FAULT_SMOKE.json",
        run: fault::run,
    },
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
