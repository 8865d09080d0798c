//! Sync↔async differential tests: the round-based engine and the
//! message-level simulator optimize the same seeded worlds and must
//! agree — same traffic-reduction direction, reduction ratios within a
//! band, same search scope retention, auditors green on every step.
//!
//! Both drivers share one decision core (`ace_core::policy`), so these
//! tests pin down everything *around* the shared rules: the two state
//! machines, message handling, and churn purge paths. The shrinkable
//! randomized variant lives in `tests/cross_properties.rs`; these are
//! the fixed-seed anchors that fail reproducibly without a proptest
//! shrink cycle.

use ace_core::experiments::differential::{DEFAULT_BAND, LOSSY_WIRE_MAX_LOSS};
use ace_core::experiments::{
    differential_run, ChurnKind, ChurnStep, DifferentialConfig, ScenarioConfig,
};

fn scenario(peers: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        as_count: 4,
        nodes_per_as: 60,
        peers,
        avg_degree: 6,
        objects: 30,
        replicas: 4,
        seed,
        ..ScenarioConfig::default()
    }
}

/// Quiet network: six sync rounds vs. six async optimize periods on the
/// same world must land in the same convergence band, across several
/// seeds and population sizes.
#[test]
fn sync_and_async_converge_equivalently() {
    for (peers, seed) in [(60, 11), (70, 12), (80, 13)] {
        let cfg = DifferentialConfig::quiet(scenario(peers, seed), 6);
        let out = differential_run(&cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        out.check_equivalence(DEFAULT_BAND)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Lossy wire: with per-link loss at the documented threshold on the
/// async side only — the sync engine keeps its perfect wire — the
/// hardened protocol (dedup + ARQ + soft-state repair) must still land
/// in the same convergence band. This is the acceptance bar for the
/// adversarial wire model: packet loss costs retransmissions, not
/// convergence.
#[test]
fn lossy_wire_async_stays_in_band() {
    for seed in [41, 42] {
        let cfg = DifferentialConfig::lossy(scenario(70, seed), 6, LOSSY_WIRE_MAX_LOSS);
        let out = differential_run(&cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        out.check_equivalence(DEFAULT_BAND)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Churn equivalence: the same leave/rejoin schedule applied to both
/// sides (positionally, over identical alive sets) keeps both auditors
/// green and both convergences in band.
#[test]
fn sync_and_async_stay_equivalent_under_churn() {
    let churn = vec![
        ChurnStep {
            step: 2,
            kind: ChurnKind::Leave,
            sel: 7,
        },
        ChurnStep {
            step: 3,
            kind: ChurnKind::Leave,
            sel: 19,
        },
        ChurnStep {
            step: 4,
            kind: ChurnKind::Join,
            sel: 0,
        },
        ChurnStep {
            step: 5,
            kind: ChurnKind::Leave,
            sel: 3,
        },
    ];
    for seed in [21, 22] {
        let cfg = DifferentialConfig {
            scenario: scenario(70, seed),
            rounds: 6,
            churn: churn.clone(),
            attach: 3,
            netem: None,
        };
        let out = differential_run(&cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            out.sync_side.alive, out.async_side.alive,
            "churn schedule must hit both sides identically"
        );
        out.check_equivalence(DEFAULT_BAND)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// The runner reports auditor failures as `Err` rather than panicking —
/// and a healthy run reports none.
#[test]
fn differential_runner_is_auditor_clean() {
    let cfg = DifferentialConfig {
        scenario: scenario(60, 31),
        rounds: 5,
        churn: vec![
            ChurnStep {
                step: 1,
                kind: ChurnKind::Leave,
                sel: 11,
            },
            ChurnStep {
                step: 2,
                kind: ChurnKind::Join,
                sel: 0,
            },
            ChurnStep {
                step: 3,
                kind: ChurnKind::Leave,
                sel: 5,
            },
        ],
        attach: 4,
        netem: None,
    };
    let out = differential_run(&cfg).expect("auditors stay clean under churn");
    // Both sides genuinely optimized (direction clause on its own).
    assert!(out.sync_side.reduction < 0.9, "{:?}", out);
    assert!(out.async_side.reduction < 0.9, "{:?}", out);
}
