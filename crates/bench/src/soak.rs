//! Long-horizon soak of the autonomic optimization-rate control loop —
//! writes `BENCH_soak.json`.
//!
//! The controller ([`ace_core::RateController`]) exists to spend less
//! control traffic when optimizing is not worth it and to keep spending
//! it when it is. A short test cannot show that; this harness can: it
//! drives the asynchronous protocol for hours of simulated time under
//! three severities (quiet / sustained churn / churn + adversarial
//! wire), each with two arms on the same seeded world — **static-R**
//! (no controller, the fixed `cycle_period` timer chain) and
//! **adaptive-R** ([`ace_core::AutoRateConfig::default`]).
//!
//! Every window the harness measures the flood-vs-ACE traffic gap with
//! a query sample, feeds the measurement back to the controller
//! ([`AsyncAceSim::note_traffic`] / [`AsyncAceSim::note_queries`] — the
//! same loop a deployment would close), and records the reduction, the
//! interval trajectory and the controller's soft-state footprint. At
//! the end of the soak the run settles one full repair window, audits
//! invariants, and counts leaked controller entries (entries whose peer
//! is no longer alive — the purge taxonomy must leave zero).
//!
//! The acceptance claim of the committed artifact: under at least one
//! churn+chaos severity the adaptive arm retains the static arm's
//! traffic reduction at equal or lower total control overhead, with the
//! controller's high-water mark under its byte budget and zero leaks.

use ace_core::experiments::{PhysKind, Scenario, ScenarioConfig};
use ace_core::protocol::{AsyncAceSim, AsyncForward, ProtoConfig};
use ace_core::{AutoRateConfig, NetemConfig};
use ace_engine::SimTime;
use ace_overlay::{run_query, FloodAll, PeerId, QueryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// World seed shared by every severity (per-arm streams derive from it).
pub const SOAK_SEED: u64 = 47;

/// The severity rerun by the CI slice (`--slice`): the churn+chaos one
/// the acceptance claim is about.
pub const SLICE_SEVERITY: &str = "storm";

/// One row of the soak grid: how hostile the world is.
#[derive(Clone, Copy, Debug)]
pub struct SoakSeverity {
    /// Severity name (stable key into the committed artifact).
    pub name: &'static str,
    /// Seconds between churn events (0 disables churn).
    pub churn_period_s: u64,
    /// Adversarial wire, when chaotic.
    pub loss: f64,
    /// Duplication probability of the adversarial wire.
    pub duplicate: f64,
    /// Reorder jitter (ticks) of the adversarial wire.
    pub jitter_ticks: u64,
    /// Whether a [`NetemConfig`] is installed at all.
    pub chaotic: bool,
}

/// The committed severity grid.
pub fn severities() -> Vec<SoakSeverity> {
    vec![
        SoakSeverity {
            name: "quiet",
            churn_period_s: 0,
            loss: 0.0,
            duplicate: 0.0,
            jitter_ticks: 0,
            chaotic: false,
        },
        SoakSeverity {
            name: "churn",
            churn_period_s: 120,
            loss: 0.0,
            duplicate: 0.0,
            jitter_ticks: 0,
            chaotic: false,
        },
        SoakSeverity {
            name: "storm",
            churn_period_s: 120,
            loss: 0.08,
            duplicate: 0.03,
            jitter_ticks: 25,
            chaotic: true,
        },
    ]
}

/// The severity with `name`, if it is on the grid.
pub fn severity_named(name: &str) -> Option<SoakSeverity> {
    severities().into_iter().find(|s| s.name == name)
}

/// Soak dimensions. The committed artifact and the CI slice use the
/// *same* parameters (the quantities are fully simulated and seeded, so
/// a slice severity reproduces its committed twin digest-for-digest).
#[derive(Clone, Copy, Debug)]
pub struct SoakParams {
    /// Logical peers.
    pub peers: usize,
    /// Simulated soak horizon in seconds.
    pub sim_secs: u64,
    /// Measurement/feedback window in seconds.
    pub window_secs: u64,
    /// Query samples per window (per side).
    pub queries_per_window: usize,
}

impl SoakParams {
    /// The committed soak: 2 simulated hours, 10-minute windows.
    pub fn committed() -> SoakParams {
        SoakParams {
            peers: 100,
            sim_secs: 7_200,
            window_secs: 600,
            queries_per_window: 16,
        }
    }
}

/// Controller bookkeeping mirrored into the artifact (all zero for the
/// static arm).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ControllerReport {
    /// Live entries at end of soak.
    pub entries: usize,
    /// Soft-state bytes at end of soak.
    pub soft_state_bytes: usize,
    /// Highest soft-state footprint ever held.
    pub high_water_bytes: usize,
    /// The configured budget the high-water mark must respect.
    pub byte_budget: usize,
    /// Idle/budget evictions over the whole soak.
    pub evictions: u64,
    /// Lifecycle purges over the whole soak.
    pub purges: u64,
    /// Samples rejected as non-finite/negative.
    pub rejected: u64,
}

/// One measurement window of one arm.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WindowPoint {
    /// Window end, simulated seconds.
    pub t_secs: u64,
    /// `1 − ace/flood` per-query traffic this window (higher is
    /// better; 0 when the sample could not measure).
    pub reduction: f64,
    /// ACE scope / flood scope this window.
    pub scope_frac: f64,
    /// Mean controller interval over alive peers (1.0 for static).
    pub interval_mean: f64,
    /// Min controller interval (1.0 for static).
    pub interval_min: f64,
    /// Max controller interval (1.0 for static).
    pub interval_max: f64,
    /// Controller soft-state bytes at window end.
    pub soft_state_bytes: usize,
}

/// One arm (static-R or adaptive-R) of one severity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArmReport {
    /// Whether the controller was enabled.
    pub adaptive: bool,
    /// Mean window reduction over the soak.
    pub reduction_mean: f64,
    /// Reduction of the final window.
    pub reduction_final: f64,
    /// Scope retention of the final window.
    pub scope_frac_final: f64,
    /// Total control cost charged to the ledger over the whole soak
    /// (probes, tables, retries — everything).
    pub overhead_total: f64,
    /// Messages the wire delivered.
    pub messages: u64,
    /// Optimization cycles completed, summed over alive peers.
    pub cycles_total: u64,
    /// Churn events injected (identical across arms of a severity).
    pub churn_events: u64,
    /// Controller counters (zeroed for the static arm).
    pub controller: ControllerReport,
    /// Controller entries whose peer was not alive at end of soak
    /// (must be 0 — the purge taxonomy owns them).
    pub leaked_entries: u64,
    /// Post-settle invariant audit verdict.
    pub invariants_ok: bool,
    /// Post-settle state digest — the reproducibility pin.
    pub digest: u64,
    /// Window trajectory.
    pub windows: Vec<WindowPoint>,
}

/// Both arms of one severity plus the headline ratios.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SeverityReport {
    /// Severity name.
    pub name: String,
    /// Whether churn ran.
    pub churned: bool,
    /// Whether the adversarial wire ran.
    pub chaotic: bool,
    /// The fixed timer chain.
    pub static_arm: ArmReport,
    /// The controller-driven timer chain.
    pub adaptive_arm: ArmReport,
    /// `adaptive.reduction_mean / static.reduction_mean` — the whole
    /// soak, convergence transient included.
    pub retention: f64,
    /// `adaptive.reduction_final / static.reduction_final` — the
    /// end-of-soak steady state, after the controller has converged.
    pub retention_final: f64,
    /// `adaptive.overhead_total / static.overhead_total`.
    pub overhead_ratio: f64,
}

/// The whole committed artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SoakBench {
    /// Logical peers.
    pub peers: usize,
    /// Simulated horizon per arm, seconds.
    pub sim_secs: u64,
    /// Window length, seconds.
    pub window_secs: u64,
    /// Query samples per window.
    pub queries_per_window: usize,
    /// One report per severity.
    pub severities: Vec<SeverityReport>,
}

impl SoakBench {
    /// The severity report with `name`, if present.
    pub fn severity(&self, name: &str) -> Option<&SeverityReport> {
        self.severities.iter().find(|s| s.name == name)
    }
}

/// Minimum `adaptive.reduction_mean / static.reduction_mean` the
/// churn+chaos severity must retain over the *whole* soak (convergence
/// transient included). The controller is allowed to trade a sliver of
/// reduction for its overhead savings, not to give the optimization
/// back.
pub const RETENTION_FLOOR: f64 = 0.95;

/// Minimum `adaptive.reduction_final / static.reduction_final` at
/// end-of-soak: once the controller has converged, the adaptive
/// schedule must hold the optimization at least as well as the static
/// one (the churn snap-to-floor is what buys this).
pub const FINAL_RETENTION_FLOOR: f64 = 1.0;

/// The `--check` rule for one measured severity: both arms' digests
/// must equal the committed baseline's (everything is simulated and
/// seeded, so drift means the protocol or controller semantics changed,
/// not that the runner was slow), the adaptive arm must retain
/// [`RETENTION_FLOOR`] of the static arm's traffic reduction over the
/// soak and [`FINAL_RETENTION_FLOOR`] of it at the end, spend no more
/// control overhead than the static arm, leak no controller entry and
/// stay inside its byte budget, and both arms must pass the post-settle
/// invariant audit. Returns the failures; empty means the gate holds.
pub fn check(report: &SeverityReport, baseline: &SoakBench) -> Vec<String> {
    let Some(base) = baseline.severity(&report.name) else {
        return vec![format!("baseline has no severity {:?}", report.name)];
    };
    let mut failures = Vec::new();
    for (label, arm, base_arm) in [
        ("static", &report.static_arm, &base.static_arm),
        ("adaptive", &report.adaptive_arm, &base.adaptive_arm),
    ] {
        if arm.digest != base_arm.digest {
            failures.push(format!(
                "{label} digest drifted ({} vs {})",
                arm.digest, base_arm.digest
            ));
        }
        if !arm.invariants_ok {
            failures.push(format!(
                "{label} arm failed the post-settle invariant audit"
            ));
        }
    }
    if report.retention < RETENTION_FLOOR {
        failures.push(format!(
            "adaptive arm retains {:.3} of the static reduction (floor {RETENTION_FLOOR})",
            report.retention
        ));
    }
    if report.retention_final < FINAL_RETENTION_FLOOR {
        failures.push(format!(
            "adaptive arm ends the soak at {:.3} of the static reduction \
             (floor {FINAL_RETENTION_FLOOR})",
            report.retention_final
        ));
    }
    if report.overhead_ratio > 1.0 {
        failures.push(format!(
            "adaptive arm spends more control overhead than static (x{:.3})",
            report.overhead_ratio
        ));
    }
    if report.adaptive_arm.leaked_entries != 0 {
        failures.push(format!(
            "{} controller entries leaked past end-of-soak",
            report.adaptive_arm.leaked_entries
        ));
    }
    let c = &report.adaptive_arm.controller;
    if c.high_water_bytes > c.byte_budget {
        failures.push(format!(
            "controller high water {} bytes breached budget {}",
            c.high_water_bytes, c.byte_budget
        ));
    }
    failures
}

const QC: QueryConfig = QueryConfig {
    ttl: 32,
    stop_at_responder: false,
};

/// Runs both arms of one severity on the same seeded world and derives
/// the headline ratios.
pub fn run_severity(p: &SoakParams, sev: &SoakSeverity) -> SeverityReport {
    let static_arm = run_arm(p, sev, false);
    let adaptive_arm = run_arm(p, sev, true);
    let retention = adaptive_arm.reduction_mean / static_arm.reduction_mean.max(1e-9);
    let retention_final = adaptive_arm.reduction_final / static_arm.reduction_final.max(1e-9);
    let overhead_ratio = adaptive_arm.overhead_total / static_arm.overhead_total.max(1e-9);
    SeverityReport {
        name: sev.name.to_string(),
        churned: sev.churn_period_s > 0,
        chaotic: sev.chaotic,
        static_arm,
        adaptive_arm,
        retention,
        retention_final,
        overhead_ratio,
    }
}

/// One arm: world build, windowed soak with churn and measurement
/// feedback, settle, audit, report.
fn run_arm(p: &SoakParams, sev: &SoakSeverity, adaptive: bool) -> ArmReport {
    let scenario = ScenarioConfig {
        phys: PhysKind::TwoLevel {
            as_count: 5,
            nodes_per_as: 60,
        },
        peers: p.peers,
        avg_degree: 6,
        objects: 30,
        replicas: 4,
        seed: SOAK_SEED,
        ..ScenarioConfig::default()
    };
    let s = Scenario::build(&scenario);
    let oracle = s.oracle;
    let netem = sev.chaotic.then(|| NetemConfig {
        loss: sev.loss,
        duplicate: sev.duplicate,
        reorder_jitter: sev.jitter_ticks,
        partitions: Vec::new(),
        seed: SOAK_SEED ^ 0x5041,
    });
    let cfg = ProtoConfig {
        netem,
        autorate: adaptive.then(AutoRateConfig::default),
        ..ProtoConfig::default()
    };
    let period = cfg.timing.cycle_period;
    let repair = cfg.timing.repair_periods * period;
    let mut sim = AsyncAceSim::new(s.overlay, cfg, SOAK_SEED ^ 0x50a7_ca3e);

    // Churn and measurement draws are independent of sim state, so both
    // arms see the identical schedule.
    let mut churn_rng = StdRng::seed_from_u64(SOAK_SEED ^ 0xc0_77e5);
    let mut measure_rng = StdRng::seed_from_u64(SOAK_SEED ^ 0x3ea5);
    let mut churn_events = 0u64;

    let n_windows = p.sim_secs / p.window_secs;
    let mut windows: Vec<WindowPoint> = Vec::with_capacity(n_windows as usize);
    for w in 0..n_windows {
        let start = w * p.window_secs;
        let end = (w + 1) * p.window_secs;
        if sev.churn_period_s > 0 {
            let mut t = start;
            while t < end {
                t = (t + sev.churn_period_s).min(end);
                sim.run_until(&oracle, SimTime::from_secs(t));
                if t < end {
                    churn_events += inject_churn(&mut sim, &oracle, p.peers, &mut churn_rng);
                }
            }
        } else {
            sim.run_until(&oracle, SimTime::from_secs(end));
        }

        let (reduction, scope_frac, mean_scope) =
            measure_window(&sim, &oracle, p.queries_per_window, &mut measure_rng);
        feed_window(&mut sim, p, reduction, mean_scope);
        windows.push(window_point(&sim, end, reduction, scope_frac));
    }

    // Settle: churn stops, one repair window plus slack drains every
    // deferral the wire opened, then the audit is strict. The adaptive
    // chain refreshes up to `r_max` periods apart, so its window (and
    // the slack) stretches accordingly — mirroring the protocol's own
    // stretched repair window.
    let stretch = if adaptive {
        AutoRateConfig::default().r_max.ceil() as u64
    } else {
        1
    };
    let settle = sim.now() + stretch * (repair + 2 * period);
    sim.run_until(&oracle, settle);
    let invariants_ok = match sim.check_invariants() {
        Ok(()) => true,
        Err(e) => {
            eprintln!(
                "[repro soak: {} {} arm audit: {e}]",
                sev.name,
                arm_name(adaptive)
            );
            false
        }
    };

    let stats = sim.controller_stats();
    let controller = ControllerReport {
        entries: stats.entries,
        soft_state_bytes: stats.soft_state_bytes,
        high_water_bytes: stats.high_water_bytes,
        byte_budget: sim
            .controller()
            .map(|c| c.config().byte_budget)
            .unwrap_or(0),
        evictions: stats.evictions,
        purges: stats.purges,
        rejected: stats.rejected,
    };
    let alive_entries = sim
        .controller()
        .map(|c| {
            sim.overlay()
                .alive_peers()
                .filter(|&q| c.interval_of(q).is_some())
                .count()
        })
        .unwrap_or(0);
    let leaked_entries = (stats.entries - alive_entries.min(stats.entries)) as u64;

    let n = windows.len().max(1) as f64;
    let last = windows.last().copied();
    ArmReport {
        adaptive,
        reduction_mean: windows.iter().map(|w| w.reduction).sum::<f64>() / n,
        reduction_final: last.map(|w| w.reduction).unwrap_or(0.0),
        scope_frac_final: last.map(|w| w.scope_frac).unwrap_or(0.0),
        overhead_total: sim.ledger().total_cost(),
        messages: sim.messages_delivered(),
        cycles_total: sim
            .overlay()
            .alive_peers()
            .map(|q| sim.cycles_done(q))
            .sum(),
        churn_events,
        controller,
        leaked_entries,
        invariants_ok,
        digest: sim.state_digest(),
        windows,
    }
}

fn arm_name(adaptive: bool) -> &'static str {
    if adaptive {
        "adaptive"
    } else {
        "static"
    }
}

/// One churn event: rejoin a down peer when any exists and the coin says
/// so, otherwise take a random alive peer down (keeping a 3/4 floor of
/// the population online). Returns how many events actually fired.
fn inject_churn(
    sim: &mut AsyncAceSim,
    oracle: &dyn ace_topology::DistancePlane,
    peers: usize,
    rng: &mut StdRng,
) -> u64 {
    let victim = PeerId::new(rng.gen_range(0..peers as u32));
    if sim.overlay().is_alive(victim) {
        if sim.overlay().alive_count() * 4 > peers * 3 && sim.peer_leave(oracle, victim) {
            return 1;
        }
    } else if sim.peer_join(victim, 3) {
        return 1;
    }
    0
}

/// Measures one window: a query sample from random alive sources, both
/// sides on the current overlay. Returns `(reduction, scope_frac,
/// mean ace scope)`.
fn measure_window(
    sim: &AsyncAceSim,
    oracle: &dyn ace_topology::DistancePlane,
    queries: usize,
    rng: &mut StdRng,
) -> (f64, f64, f64) {
    let alive: Vec<PeerId> = sim.overlay().alive_peers().collect();
    if alive.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let (mut flood_cost, mut ace_cost) = (0.0f64, 0.0f64);
    let (mut flood_scope, mut ace_scope) = (0u64, 0u64);
    let fwd = AsyncForward::new(sim);
    for _ in 0..queries {
        let src = alive[rng.gen_range(0..alive.len())];
        let f = run_query(sim.overlay(), oracle, src, &QC, &FloodAll, |_| false);
        let a = run_query(sim.overlay(), oracle, src, &QC, &fwd, |_| false);
        flood_cost += f.traffic_cost;
        ace_cost += a.traffic_cost;
        flood_scope += f.scope as u64;
        ace_scope += a.scope as u64;
    }
    let reduction = if flood_cost > 0.0 {
        1.0 - ace_cost / flood_cost
    } else {
        0.0
    };
    let scope_frac = ace_scope as f64 / flood_scope.max(1) as f64;
    let mean_scope = ace_scope as f64 / queries.max(1) as f64;
    (reduction, scope_frac, mean_scope)
}

/// Closes the control loop for a window: the measured per-query traffic
/// of both sides and each alive peer's share of the window's query
/// arrivals (every visited peer serves the query, so arrivals are the
/// sample's total visits spread evenly).
fn feed_window(sim: &mut AsyncAceSim, p: &SoakParams, reduction: f64, mean_scope: f64) {
    let flood_per_query = 100.0;
    let ace_per_query = flood_per_query * (1.0 - reduction);
    sim.note_traffic(flood_per_query, ace_per_query);
    let alive: Vec<PeerId> = sim.overlay().alive_peers().collect();
    if alive.is_empty() {
        return;
    }
    let per_peer = p.queries_per_window as f64 * mean_scope / alive.len() as f64;
    for q in alive {
        sim.note_queries(q, per_peer);
    }
}

/// Snapshot of one window's controller trajectory.
fn window_point(sim: &AsyncAceSim, t_secs: u64, reduction: f64, scope_frac: f64) -> WindowPoint {
    let (mut mean, mut min, mut max, mut n) = (0.0f64, f64::INFINITY, 0.0f64, 0usize);
    if let Some(c) = sim.controller() {
        for q in sim.overlay().alive_peers() {
            if let Some(iv) = c.interval_of(q) {
                mean += iv;
                min = min.min(iv);
                max = max.max(iv);
                n += 1;
            }
        }
    }
    let (interval_mean, interval_min, interval_max) = if n > 0 {
        (mean / n as f64, min, max)
    } else {
        (1.0, 1.0, 1.0)
    };
    WindowPoint {
        t_secs,
        reduction,
        scope_frac,
        interval_mean,
        interval_min,
        interval_max,
        soft_state_bytes: sim.controller_stats().soft_state_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_one_failure, committed};

    /// `check` on the committed slice severity with one field moved.
    fn check_with(mutate: impl FnOnce(&mut SeverityReport)) -> Vec<String> {
        let baseline: SoakBench = committed("BENCH_soak.json");
        let mut report = baseline
            .severity(SLICE_SEVERITY)
            .expect("slice severity is committed")
            .clone();
        mutate(&mut report);
        check(&report, &baseline)
    }

    #[test]
    fn check_holds_on_the_committed_slice_and_catches_digest_drift() {
        assert_eq!(check_with(|_| {}), Vec::<String>::new());
        assert_one_failure(
            &check_with(|r| r.static_arm.digest ^= 1),
            "static digest drifted",
        );
        assert_one_failure(
            &check_with(|r| r.adaptive_arm.digest ^= 1),
            "adaptive digest drifted",
        );
        assert_one_failure(
            &check_with(|r| r.name = "typhoon".into()),
            "no severity \"typhoon\"",
        );
    }

    #[test]
    fn check_catches_each_controller_regression() {
        assert_eq!(check_with(|r| r.retention = 0.95), Vec::<String>::new());
        assert_one_failure(&check_with(|r| r.retention = 0.949), "retains 0.949");
        assert_eq!(
            check_with(|r| r.retention_final = 1.0),
            Vec::<String>::new()
        );
        assert_one_failure(
            &check_with(|r| r.retention_final = 0.999),
            "ends the soak at 0.999",
        );
        assert_eq!(check_with(|r| r.overhead_ratio = 1.0), Vec::<String>::new());
        assert_one_failure(
            &check_with(|r| r.overhead_ratio = 1.001),
            "more control overhead than static",
        );
        assert_one_failure(
            &check_with(|r| r.adaptive_arm.leaked_entries = 1),
            "1 controller entries leaked",
        );
        assert_one_failure(
            &check_with(|r| {
                r.adaptive_arm.controller.high_water_bytes =
                    r.adaptive_arm.controller.byte_budget + 1
            }),
            "breached budget",
        );
        assert_one_failure(
            &check_with(|r| r.static_arm.invariants_ok = false),
            "static arm failed the post-settle invariant audit",
        );
        assert_one_failure(
            &check_with(|r| r.adaptive_arm.invariants_ok = false),
            "adaptive arm failed the post-settle invariant audit",
        );
    }

    /// A miniature storm severity (not committed scale): both arms
    /// complete, the adaptive arm spends no more overhead than the
    /// static arm, nothing leaks, and the audit is green.
    #[test]
    fn tiny_storm_soak_holds_the_acceptance_shape() {
        let p = SoakParams {
            peers: 40,
            sim_secs: 1_200,
            window_secs: 300,
            queries_per_window: 6,
        };
        let sev = severity_named(SLICE_SEVERITY).unwrap();
        let rep = run_severity(&p, &sev);
        assert!(rep.static_arm.invariants_ok, "static audit failed");
        assert!(rep.adaptive_arm.invariants_ok, "adaptive audit failed");
        assert_eq!(rep.adaptive_arm.leaked_entries, 0, "controller leaked");
        let c = &rep.adaptive_arm.controller;
        assert!(
            c.high_water_bytes <= c.byte_budget,
            "high water {} over budget {}",
            c.high_water_bytes,
            c.byte_budget
        );
        assert!(
            rep.overhead_ratio <= 1.0,
            "adaptive arm spent more control overhead: x{:.2}",
            rep.overhead_ratio
        );
        assert!(
            rep.adaptive_arm.cycles_total < rep.static_arm.cycles_total,
            "adaptive chain never stretched"
        );
    }

    /// Soak arms are deterministic: same params, same digests.
    #[test]
    fn soak_arms_are_reproducible() {
        let p = SoakParams {
            peers: 30,
            sim_secs: 600,
            window_secs: 300,
            queries_per_window: 4,
        };
        let sev = severity_named("churn").unwrap();
        let a = run_severity(&p, &sev);
        let b = run_severity(&p, &sev);
        assert_eq!(a.static_arm.digest, b.static_arm.digest);
        assert_eq!(a.adaptive_arm.digest, b.adaptive_arm.digest);
    }
}
