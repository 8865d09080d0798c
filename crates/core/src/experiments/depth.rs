//! Closure-depth sweeps (paper §5.3, Figures 11–16).
//!
//! For each depth `h`, run the static optimizer to (near-)convergence and
//! record the query-traffic reduction and the steady-state per-round
//! overhead. Figures 13–16 are pure functions of these points and the
//! frequency ratio `R` (see [`crate::optimization_rate`]).

use crate::audit::ConfigError;
use crate::engine::AceConfig;

use super::{static_run, ScenarioConfig, StaticConfig};

/// Configuration of a depth sweep.
#[derive(Clone, Copy, Debug)]
pub struct DepthSweepConfig {
    /// World description (`avg_degree` is the paper's `C`).
    pub scenario: ScenarioConfig,
    /// Largest closure depth to evaluate (inclusive, from 1).
    pub max_depth: u8,
    /// Optimization steps per depth.
    pub steps: usize,
    /// Queries sampled per measurement.
    pub query_samples: usize,
    /// Query TTL.
    pub ttl: u8,
}

impl Default for DepthSweepConfig {
    fn default() -> Self {
        DepthSweepConfig {
            scenario: ScenarioConfig::default(),
            max_depth: 4,
            steps: 12,
            query_samples: 48,
            ttl: 32,
        }
    }
}

/// Result for one closure depth.
#[derive(Clone, Copy, Debug)]
pub struct DepthPoint {
    /// The closure depth `h`.
    pub depth: u8,
    /// Per-query traffic under blind flooding on the unoptimized overlay.
    pub flood_traffic: f64,
    /// Per-query traffic under converged ACE at this depth.
    pub ace_traffic: f64,
    /// Steady-state control overhead of one optimization round.
    pub overhead_per_round: f64,
    /// Traffic reduction fraction vs. blind flooding.
    pub reduction: f64,
    /// Minimum scope ratio observed (≈ 1 means scope retained).
    pub scope_ratio: f64,
}

impl DepthPoint {
    /// Optimization rate at this depth for frequency ratio `R`.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] when `frequency_ratio` (or a field of the point)
    /// is negative or not finite.
    pub fn optimization_rate(&self, frequency_ratio: f64) -> Result<f64, ConfigError> {
        crate::optrate::optimization_rate_checked(
            self.flood_traffic,
            self.ace_traffic,
            self.overhead_per_round,
            frequency_ratio,
        )
    }
}

/// Sweeps closure depths `1..=max_depth` with identical worlds (same seed)
/// so curves differ only in `h`.
pub fn depth_sweep(cfg: &DepthSweepConfig) -> Vec<DepthPoint> {
    (1..=cfg.max_depth)
        .map(|depth| {
            let run = static_run(&StaticConfig {
                scenario: cfg.scenario,
                ace: AceConfig {
                    depth,
                    ..AceConfig::paper_default()
                },
                steps: cfg.steps,
                query_samples: cfg.query_samples,
                ttl: cfg.ttl,
            });
            let flood_traffic = run.steps[0].ace.traffic;
            let ace_traffic = run.steps.last().expect("baseline step exists").ace.traffic;
            // Steady-state overhead: average of the last three rounds, when
            // replacements have mostly ceased and the cost is dominated by
            // the periodic probe + table machinery.
            let tail: Vec<f64> = run
                .steps
                .iter()
                .rev()
                .take(3)
                .map(|s| s.overhead.total_cost())
                .collect();
            let overhead_per_round = tail.iter().sum::<f64>() / tail.len() as f64;
            DepthPoint {
                depth,
                flood_traffic,
                ace_traffic,
                overhead_per_round,
                reduction: run.traffic_reduction(),
                scope_ratio: run.min_scope_ratio(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DepthSweepConfig {
        DepthSweepConfig {
            scenario: ScenarioConfig {
                as_count: 4,
                nodes_per_as: 40,
                peers: 70,
                avg_degree: 6,
                objects: 40,
                replicas: 4,
                seed: 9,
                ..ScenarioConfig::default()
            },
            max_depth: 3,
            steps: 8,
            query_samples: 16,
            ..DepthSweepConfig::default()
        }
    }

    #[test]
    fn overhead_grows_with_depth() {
        let pts = depth_sweep(&tiny());
        assert_eq!(pts.len(), 3);
        assert!(
            pts[2].overhead_per_round > pts[0].overhead_per_round,
            "h=3 overhead {} should exceed h=1 {}",
            pts[2].overhead_per_round,
            pts[0].overhead_per_round
        );
    }

    #[test]
    fn every_depth_reduces_traffic_and_keeps_scope() {
        for p in depth_sweep(&tiny()) {
            assert!(p.reduction > 0.1, "h={} reduction {}", p.depth, p.reduction);
            assert!(
                p.scope_ratio > 0.99,
                "h={} scope {}",
                p.depth,
                p.scope_ratio
            );
            assert!(p.ace_traffic < p.flood_traffic);
        }
    }

    #[test]
    fn optimization_rate_scales_with_r() {
        let pts = depth_sweep(&tiny());
        for p in &pts {
            let r1 = p.optimization_rate(1.0).unwrap();
            let r2 = p.optimization_rate(2.0).unwrap();
            assert!((r2 - 2.0 * r1).abs() < 1e-9);
        }
    }

    #[test]
    fn optimization_rate_rejects_negative_and_nan_ratios() {
        let p = DepthPoint {
            depth: 1,
            flood_traffic: 100.0,
            ace_traffic: 50.0,
            overhead_per_round: 75.0,
            reduction: 0.5,
            scope_ratio: 1.0,
        };
        assert!((p.optimization_rate(1.5).unwrap() - 1.0).abs() < 1e-12);
        for bad in [-1.0, f64::NAN] {
            let err = p.optimization_rate(bad).unwrap_err();
            assert_eq!(err.parameter(), "frequency_ratio", "{bad}");
        }
    }
}
