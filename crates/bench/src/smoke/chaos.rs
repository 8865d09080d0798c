//! Chaos smoke: the async protocol under escalating wire adversity.
//!
//! For each severity level (loss, duplication, reordering jitter, a
//! scheduled partition) and each seed, the run
//!
//! * drives the hardened async protocol past the last partition heal
//!   plus a full repair window;
//! * compares flooding traffic before/after against a perfect-wire
//!   baseline of the same world — *convergence retained* means the
//!   optimization still reduces traffic and keeps ≥ 90 % of the search
//!   scope;
//! * prices the adversity: the overhead ratio of the chaos ledger to the
//!   baseline ledger (every retransmission and duplicate is charged,
//!   so the ratio is the full cost of the wire);
//! * measures time-to-heal: cycle periods after the heal until the
//!   auditor is green and every alive peer has rebuilt its tree.
//!
//! Severities at or below the documented differential loss threshold
//! ([`LOSSY_WIRE_MAX_LOSS`]) are asserted; harsher ones are report-only.
//!
//! The `lifecycle` rows run the `calm` and `storm` wires again under a
//! seeded leave/rejoin script applied between cycle periods through
//! [`AsyncAceSim::peer_leave`] and [`AsyncAceSim::peer_join`], audit the
//! overlay and the protocol after every period — the shared clauses
//! include [`ViolationKind::ForwardBlackHole`], so an alive peer with
//! neighbors but no forward target fails the run — and assert the same
//! direction, scope floor and ledger identity as the asserted severities.
//!
//! Any auditor violation or ledger identity mismatch panics (non-zero
//! exit). The summary is returned as the JSON `repro smoke chaos` writes
//! to `CHAOS.json`.
//!
//! [`ViolationKind::ForwardBlackHole`]: ace_core::ViolationKind::ForwardBlackHole

use ace_core::experiments::differential::LOSSY_WIRE_MAX_LOSS;
use ace_core::experiments::{Scenario, ScenarioConfig};
use ace_core::protocol::{AsyncAceSim, AsyncForward, ProtoConfig, REPAIR_PERIODS};
use ace_core::{NetemConfig, Partition, PartitionKind};
use ace_engine::digest::{fold, unit};
use ace_engine::SimTime;
use ace_overlay::{run_query, FloodAll, PeerId, QueryConfig};
use ace_topology::DistancePlane;
use serde::Serialize;

const SEEDS: u64 = 3;
const SCOPE_FLOOR: f64 = 0.9;

/// The wires the lifecycle rows rerun under churn.
const LIFECYCLE_WIRES: [&str; 2] = ["calm", "storm"];
/// Per-period chance that an alive peer leaves: a 2 % crash rate and a
/// 2 % graceful-leave rate folded into one, since the async driver's
/// one departure call is the graceful leave.
const LEAVE: f64 = 0.04;
/// Per-period chance that a departed peer rejoins.
const REJOIN: f64 = 0.3;
/// Links a rejoining peer attempts.
const REJOIN_ATTACH: usize = 3;
/// Seed of the lifecycle script's hashed draws.
const CHURN_SEED: u64 = 0x6c69_6665_6379_636c;

struct Severity {
    name: &'static str,
    loss: f64,
    duplicate: f64,
    jitter_ticks: u64,
    partition: Option<(u64, u64, PartitionKind)>,
}

fn severities() -> Vec<Severity> {
    let s = |secs: u64| SimTime::from_secs(secs).as_ticks();
    vec![
        Severity {
            name: "calm",
            loss: 0.02,
            duplicate: 0.01,
            jitter_ticks: 10,
            partition: None,
        },
        Severity {
            name: "rough",
            loss: 0.05,
            duplicate: 0.03,
            jitter_ticks: 25,
            partition: Some((s(90), s(30), PartitionKind::Bipartition { salt: 1 })),
        },
        Severity {
            name: "storm",
            loss: LOSSY_WIRE_MAX_LOSS,
            duplicate: 0.05,
            jitter_ticks: 40,
            partition: Some((s(60), s(60), PartitionKind::Bipartition { salt: 2 })),
        },
        Severity {
            name: "severe",
            loss: 0.15,
            duplicate: 0.08,
            jitter_ticks: 60,
            partition: Some((s(60), s(60), PartitionKind::Islands { count: 3, salt: 3 })),
        },
    ]
}

#[derive(Serialize)]
struct RunReport {
    seed: u64,
    reduction: f64,
    scope_frac: f64,
    baseline_reduction: f64,
    overhead_ratio: f64,
    heal_periods: u64,
    sent: u64,
    lost: u64,
    cut_dropped: u64,
    duplicated: u64,
    retransmits: u64,
    deduped: u64,
    expired_forwards: u64,
    expired_probes: u64,
}

#[derive(Serialize)]
struct SeverityReport {
    severity: &'static str,
    loss: f64,
    duplicate: f64,
    reorder_jitter: u64,
    partitioned: bool,
    asserted: bool,
    mean_reduction: f64,
    mean_overhead_ratio: f64,
    max_heal_periods: u64,
    runs: Vec<RunReport>,
}

#[derive(Serialize)]
struct LifecycleRunReport {
    seed: u64,
    left: usize,
    rejoined: usize,
    final_alive: usize,
    /// ACE traffic over flooding traffic, both on the final overlay.
    reduction: f64,
    scope_frac: f64,
    heal_periods: u64,
    sent: u64,
    lost: u64,
    duplicated: u64,
    retransmits: u64,
    state_digest: u64,
}

#[derive(Serialize)]
struct LifecycleReport {
    wire: &'static str,
    leave: f64,
    rejoin: f64,
    mean_reduction: f64,
    max_heal_periods: u64,
    runs: Vec<LifecycleRunReport>,
}

#[derive(Serialize)]
struct Summary {
    seeds: u64,
    loss_threshold: f64,
    scope_floor: f64,
    severities: Vec<SeverityReport>,
    lifecycle: Vec<LifecycleReport>,
}

const QC: QueryConfig = QueryConfig {
    ttl: 32,
    stop_at_responder: false,
};

struct Outcome {
    /// ACE traffic over flooding the starting overlay.
    reduction: f64,
    /// ACE traffic over flooding the final overlay.
    live_reduction: f64,
    scope_frac: f64,
    total_cost: f64,
    heal_periods: u64,
    left: usize,
    rejoined: usize,
    sim: AsyncAceSim,
}

/// One period's lifecycle script: in peer-id order, an alive peer
/// leaves with [`LEAVE`] and a departed one rejoins with [`REJOIN`], each
/// a hashed draw of `(seed, period, peer)`. Peer 0, the measuring
/// source, stays. Returns how many left and how many rejoined.
fn churn(
    sim: &mut AsyncAceSim,
    oracle: &dyn DistancePlane,
    seed: u64,
    period: u64,
) -> (usize, usize) {
    let draw =
        |kind: u64, p: PeerId| unit(fold(CHURN_SEED, &[seed, kind, period, u64::from(p.raw())]));
    let (mut left, mut rejoined) = (0, 0);
    let peers: Vec<PeerId> = sim.overlay().peers().skip(1).collect();
    for p in peers {
        if sim.overlay().is_alive(p) {
            if draw(1, p) < LEAVE && sim.peer_leave(oracle, p) {
                left += 1;
            }
        } else if draw(2, p) < REJOIN && sim.peer_join(p, REJOIN_ATTACH) {
            rejoined += 1;
        }
    }
    (left, rejoined)
}

/// One full run: world `seed`, the given wire, driven past the last heal
/// plus a repair window, measured from peer 0. With `lifecycle`, the
/// [`churn`] script runs between the cycle periods of the adversity
/// window, and the overlay and protocol are audited after each period.
fn run_world(seed: u64, netem: Option<NetemConfig>, lifecycle: bool) -> Outcome {
    let scenario = ScenarioConfig {
        as_count: 4,
        nodes_per_as: 60,
        peers: 60,
        avg_degree: 6,
        objects: 30,
        replicas: 4,
        seed,
        ..ScenarioConfig::default()
    };
    let s = Scenario::build(&scenario);
    let oracle = s.oracle;
    let src = PeerId::new(0);
    let before = run_query(&s.overlay, &oracle, src, &QC, &FloodAll, |_| false);

    let cfg = ProtoConfig {
        netem: netem.clone(),
        ..ProtoConfig::default()
    };
    let period = cfg.timing.cycle_period;
    let repair = REPAIR_PERIODS * period;
    let heal = netem.as_ref().map_or(0, NetemConfig::last_heal);
    let mut sim = AsyncAceSim::new(s.overlay, cfg, seed ^ 0xc4a0_5eed);

    // Run up to the instant the last partition lifts (partition-free
    // wires run a flat 240 s of adversity instead), then measure the
    // heal: periods until every alive peer completes a *fresh* full
    // cycle with the auditor green and its tree rebuilt.
    let end = heal.max(SimTime::from_secs(240).as_ticks());
    let (mut left, mut rejoined) = (0, 0);
    if lifecycle {
        for k in 0..end / period {
            if k > 0 {
                let (l, r) = churn(&mut sim, &oracle, seed, k);
                left += l;
                rejoined += r;
            }
            sim.run_until(&oracle, SimTime::from_ticks((k + 1) * period));
            sim.overlay()
                .check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed} period {k}: overlay invariant: {e}"));
            sim.check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed} period {k}: auditor: {e}"));
        }
    }
    sim.run_until(&oracle, SimTime::from_ticks(end));
    let mark = sim.min_cycles_done();
    let healed = |sim: &AsyncAceSim| {
        sim.min_cycles_done() > mark
            && sim.check_invariants().is_ok()
            && sim.overlay().alive_peers().all(|p| sim.tree_built(p))
    };
    let mut heal_periods = 0u64;
    while !healed(&sim) {
        heal_periods += 1;
        assert!(
            heal_periods * period <= repair + 2 * period,
            "seed {seed}: not healed {heal_periods} periods after the last partition"
        );
        let next = sim.now() + period;
        sim.run_until(&oracle, next);
    }
    // Settle a full repair window so the final audit owes nothing to the
    // deferral windows opened during the run.
    let settle = sim.now() + (repair + 2 * period);
    sim.run_until(&oracle, settle);
    sim.check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed}: post-settle auditor: {e}"));

    let flood_now = run_query(sim.overlay(), &oracle, src, &QC, &FloodAll, |_| false);
    let after = run_query(
        sim.overlay(),
        &oracle,
        src,
        &QC,
        &AsyncForward::new(&sim),
        |_| false,
    );
    let st = *sim.netem_stats();
    assert_eq!(
        sim.ledger().total_count(),
        st.sent + st.duplicated + st.retransmits,
        "seed {seed}: chaos ledger identity broken"
    );
    Outcome {
        reduction: after.traffic_cost / before.traffic_cost,
        live_reduction: after.traffic_cost / flood_now.traffic_cost,
        scope_frac: after.scope as f64 / flood_now.scope.max(1) as f64,
        total_cost: sim.ledger().total_cost(),
        heal_periods,
        left,
        rejoined,
        sim,
    }
}

/// The direction and scope-floor asserts every asserted row shares.
fn assert_converged(row: &str, seed: u64, reduction: f64, scope_frac: f64) {
    assert!(
        reduction < 1.0,
        "{row} seed {seed}: optimization direction lost ({reduction:.3})"
    );
    assert!(
        scope_frac >= SCOPE_FLOOR,
        "{row} seed {seed}: scope collapsed ({scope_frac:.3})"
    );
}

/// `sev`'s wire for world `seed`.
fn wire(sev: &Severity, seed: u64) -> NetemConfig {
    NetemConfig {
        loss: sev.loss,
        duplicate: sev.duplicate,
        reorder_jitter: sev.jitter_ticks,
        partitions: sev
            .partition
            .iter()
            .map(|&(start, duration, kind)| Partition {
                start,
                duration,
                kind,
            })
            .collect(),
        seed: seed ^ 0x3141,
    }
}

/// Runs every severity × seed and returns the `CHAOS.json` text.
pub fn run() -> String {
    let mut reports = Vec::new();
    for sev in severities() {
        let asserted = sev.loss <= LOSSY_WIRE_MAX_LOSS;
        let mut runs = Vec::new();
        for seed in 0..SEEDS {
            let base = run_world(seed, None, false);
            let chaos = run_world(seed, Some(wire(&sev, seed)), false);
            if asserted {
                assert_converged(sev.name, seed, chaos.reduction, chaos.scope_frac);
            }
            let st = *chaos.sim.netem_stats();
            runs.push(RunReport {
                seed,
                reduction: chaos.reduction,
                scope_frac: chaos.scope_frac,
                baseline_reduction: base.reduction,
                overhead_ratio: chaos.total_cost / base.total_cost,
                heal_periods: chaos.heal_periods,
                sent: st.sent,
                lost: st.lost,
                cut_dropped: st.cut_dropped,
                duplicated: st.duplicated,
                retransmits: st.retransmits,
                deduped: st.deduped,
                expired_forwards: st.expired_forwards,
                expired_probes: st.expired_probes,
            });
        }
        let n = runs.len() as f64;
        let report = SeverityReport {
            severity: sev.name,
            loss: sev.loss,
            duplicate: sev.duplicate,
            reorder_jitter: sev.jitter_ticks,
            partitioned: sev.partition.is_some(),
            asserted,
            mean_reduction: runs.iter().map(|r| r.reduction).sum::<f64>() / n,
            mean_overhead_ratio: runs.iter().map(|r| r.overhead_ratio).sum::<f64>() / n,
            max_heal_periods: runs.iter().map(|r| r.heal_periods).max().unwrap_or(0),
            runs,
        };
        eprintln!(
            "[repro smoke chaos {}: loss {:.2} mean reduction {:.3} overhead x{:.2} heal <= {} periods]",
            report.severity,
            report.loss,
            report.mean_reduction,
            report.mean_overhead_ratio,
            report.max_heal_periods
        );
        reports.push(report);
    }
    let summary = Summary {
        seeds: SEEDS,
        loss_threshold: LOSSY_WIRE_MAX_LOSS,
        scope_floor: SCOPE_FLOOR,
        severities: reports,
        lifecycle: lifecycle_rows(),
    };
    serde_json::to_string_pretty(&summary).expect("serialize chaos smoke")
}

/// The `calm` and `storm` wires under the [`churn`] script.
fn lifecycle_rows() -> Vec<LifecycleReport> {
    let mut reports = Vec::new();
    let (mut departures, mut rejoins) = (0, 0);
    for sev in severities()
        .into_iter()
        .filter(|s| LIFECYCLE_WIRES.contains(&s.name))
    {
        let mut runs = Vec::new();
        for seed in 0..SEEDS {
            let run = run_world(seed, Some(wire(&sev, seed)), true);
            let row = format!("{} lifecycle", sev.name);
            assert_converged(&row, seed, run.live_reduction, run.scope_frac);
            departures += run.left;
            rejoins += run.rejoined;
            let st = *run.sim.netem_stats();
            runs.push(LifecycleRunReport {
                seed,
                left: run.left,
                rejoined: run.rejoined,
                final_alive: run.sim.overlay().alive_count(),
                reduction: run.live_reduction,
                scope_frac: run.scope_frac,
                heal_periods: run.heal_periods,
                sent: st.sent,
                lost: st.lost,
                duplicated: st.duplicated,
                retransmits: st.retransmits,
                state_digest: run.sim.state_digest(),
            });
        }
        let n = runs.len() as f64;
        let report = LifecycleReport {
            wire: sev.name,
            leave: LEAVE,
            rejoin: REJOIN,
            mean_reduction: runs.iter().map(|r| r.reduction).sum::<f64>() / n,
            max_heal_periods: runs.iter().map(|r| r.heal_periods).max().unwrap_or(0),
            runs,
        };
        eprintln!(
            "[repro smoke chaos {} lifecycle: mean reduction {:.3} heal <= {} periods]",
            report.wire, report.mean_reduction, report.max_heal_periods
        );
        reports.push(report);
    }
    assert!(departures > 0, "no peer left across the lifecycle rows");
    assert!(rejoins > 0, "no peer rejoined across the lifecycle rows");
    reports
}
