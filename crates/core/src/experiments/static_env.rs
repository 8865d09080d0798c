//! Static-environment experiments (paper §5.1, Figures 7–8).
//!
//! No churn: run ACE optimization steps on a fixed peer population and
//! measure how per-query traffic cost and response time fall step by step.

use ace_overlay::{zipf_workload, FloodAll};

use crate::engine::{AceConfig, AceEngine};
use crate::forwarding::AceForward;
use crate::overhead::OverheadLedger;

use super::{measure_queries, QuerySample, Scenario, ScenarioConfig};

/// Configuration of a static run.
#[derive(Clone, Copy, Debug)]
pub struct StaticConfig {
    /// World description.
    pub scenario: ScenarioConfig,
    /// ACE parameters (depth, policy, probe model).
    pub ace: AceConfig,
    /// Number of optimization steps (the paper converges in ~10).
    pub steps: usize,
    /// Queries sampled per measurement point.
    pub query_samples: usize,
    /// Query TTL.
    pub ttl: u8,
}

impl Default for StaticConfig {
    fn default() -> Self {
        StaticConfig {
            scenario: ScenarioConfig::default(),
            ace: AceConfig::paper_default(),
            steps: 14,
            query_samples: 64,
            // Tree-based forwarding dilates hop paths, so coverage needs a
            // larger TTL than flat flooding; 32 covers every overlay we
            // generate (the paper's scope-retention claim assumes the TTL
            // does not truncate the search).
            ttl: 32,
        }
    }
}

/// Measurements after one optimization step.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Step index (0 = unoptimized blind flooding).
    pub step: usize,
    /// ACE query metrics at this step.
    pub ace: QuerySample,
    /// Blind-flooding metrics on the *same* (current) topology — the
    /// scope-retention reference.
    pub flood_now: QuerySample,
    /// Control overhead spent in this step.
    pub overhead: OverheadLedger,
    /// Phase-3 replacements performed in this step.
    pub replaced: usize,
    /// Phase-3 keep-both additions performed in this step.
    pub added: usize,
}

/// Result of [`static_run`].
#[derive(Clone, Debug)]
pub struct StaticResult {
    /// Per-step measurements; `steps[0]` is the unoptimized baseline.
    pub steps: Vec<StepStats>,
    /// Average overlay degree after the final step.
    pub final_avg_degree: f64,
    /// Whether the optimizer converged (a step with no changes) within
    /// the configured number of steps.
    pub converged: bool,
}

impl StaticResult {
    /// Traffic reduction of the final step vs. the unoptimized baseline,
    /// as a fraction in `[0, 1]`.
    pub fn traffic_reduction(&self) -> f64 {
        let t0 = self.steps[0].ace.traffic;
        let tn = self
            .steps
            .last()
            .expect("at least the baseline step")
            .ace
            .traffic;
        if t0 <= 0.0 {
            0.0
        } else {
            ((t0 - tn) / t0).max(0.0)
        }
    }

    /// Response-time reduction of the final step vs. the baseline.
    pub fn response_reduction(&self) -> f64 {
        let r0 = self.steps[0].ace.response_ms;
        let rn = self
            .steps
            .last()
            .expect("at least the baseline step")
            .ace
            .response_ms;
        if r0 <= 0.0 {
            0.0
        } else {
            ((r0 - rn) / r0).max(0.0)
        }
    }

    /// Worst-case ratio of ACE scope to flooding scope across all steps
    /// (should stay ≈ 1: ACE retains the search scope).
    pub fn min_scope_ratio(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| {
                if s.flood_now.scope > 0.0 {
                    s.ace.scope / s.flood_now.scope
                } else {
                    1.0
                }
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs ACE in a static environment, measuring after every step with a
/// fixed workload of query specs (paired comparison keeps the
/// step-to-step variance low).
pub fn static_run(cfg: &StaticConfig) -> StaticResult {
    let mut s = Scenario::build(&cfg.scenario);
    let mut ace = AceEngine::new(s.overlay.peer_count(), cfg.ace);
    let specs = zipf_workload(&s.overlay, &s.catalog, cfg.query_samples, &mut s.rng);

    let mut steps = Vec::with_capacity(cfg.steps + 1);
    let baseline = measure_queries(
        &s.overlay,
        &s.oracle,
        &s.placement,
        &specs,
        cfg.ttl,
        &FloodAll,
    );
    steps.push(StepStats {
        step: 0,
        ace: baseline,
        flood_now: baseline,
        overhead: OverheadLedger::new(),
        replaced: 0,
        added: 0,
    });

    let mut converged = false;
    for step in 1..=cfg.steps {
        let round = ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
        debug_assert!(s.overlay.is_connected(), "ACE must preserve connectivity");
        let ace_sample = measure_queries(
            &s.overlay,
            &s.oracle,
            &s.placement,
            &specs,
            cfg.ttl,
            &AceForward::new(&ace),
        );
        let flood_now = measure_queries(
            &s.overlay,
            &s.oracle,
            &s.placement,
            &specs,
            cfg.ttl,
            &FloodAll,
        );
        steps.push(StepStats {
            step,
            ace: ace_sample,
            flood_now,
            overhead: round.overhead,
            replaced: round.replaced,
            added: round.added,
        });
        if round.converged() {
            converged = true;
        }
    }
    StaticResult {
        final_avg_degree: s.overlay.average_degree(),
        steps,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::PhysKind;

    fn tiny() -> StaticConfig {
        StaticConfig {
            scenario: ScenarioConfig {
                phys: PhysKind::TwoLevel {
                    as_count: 4,
                    nodes_per_as: 50,
                },
                peers: 80,
                avg_degree: 6,
                objects: 60,
                replicas: 5,
                seed: 3,
                ..ScenarioConfig::default()
            },
            steps: 8,
            query_samples: 24,
            ..StaticConfig::default()
        }
    }

    #[test]
    fn traffic_drops_and_scope_is_retained() {
        let r = static_run(&tiny());
        assert_eq!(r.steps.len(), 9);
        assert!(
            r.traffic_reduction() > 0.2,
            "expected >20% traffic reduction, got {:.1}%",
            r.traffic_reduction() * 100.0
        );
        assert!(
            r.min_scope_ratio() > 0.99,
            "ACE must retain the flooding search scope, got ratio {}",
            r.min_scope_ratio()
        );
    }

    #[test]
    fn response_time_also_improves() {
        let r = static_run(&tiny());
        assert!(
            r.response_reduction() > 0.1,
            "expected >10% response-time reduction, got {:.1}%",
            r.response_reduction() * 100.0
        );
    }

    #[test]
    fn overhead_is_accounted_every_step() {
        let r = static_run(&tiny());
        for s in r.steps.iter().skip(1) {
            assert!(
                s.overhead.total_cost() > 0.0,
                "step {} has no overhead",
                s.step
            );
        }
    }

    #[test]
    fn degree_stays_near_configured_average() {
        let r = static_run(&tiny());
        assert!(
            (4.0..=9.0).contains(&r.final_avg_degree),
            "degree drifted to {}",
            r.final_avg_degree
        );
    }
}
