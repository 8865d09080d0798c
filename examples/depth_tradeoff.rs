//! Choosing the closure depth `h`: sweeps `h`, prints the traffic
//! reduction vs overhead tradeoff, and recommends the minimal profitable
//! depth for your query/exchange frequency ratio `R` (paper §3.4, §5.3).
//!
//! Run with: `cargo run --release --example depth_tradeoff [R]`

use ace_core::experiments::{depth_sweep, DepthSweepConfig, ScenarioConfig};
use ace_core::min_effective_depth;

fn main() {
    let r: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3.0);

    let cfg = DepthSweepConfig {
        scenario: ScenarioConfig {
            as_count: 6,
            nodes_per_as: 100,
            peers: 250,
            avg_degree: 6,
            seed: 31,
            ..ScenarioConfig::default()
        },
        max_depth: 4,
        steps: 10,
        query_samples: 32,
        ttl: 32,
    };
    println!("sweeping closure depth h on a 250-peer overlay (C=6), R = {r}\n");
    let points = depth_sweep(&cfg);

    println!(" h   traffic reduction   overhead/round   opt-rate(R={r})   scope");
    println!("--------------------------------------------------------------------");
    let mut rates = Vec::new();
    for p in &points {
        let rate = match p.optimization_rate(r) {
            Ok(rate) => rate,
            Err(e) => {
                eprintln!("depth_tradeoff: frequency ratio R {e}");
                std::process::exit(2);
            }
        };
        rates.push(rate);
        println!(
            " {}   {:>16.1}%   {:>14.0}   {:>13.3}   {:>5.3}",
            p.depth,
            p.reduction * 100.0,
            p.overhead_per_round,
            rate,
            p.scope_ratio
        );
    }

    match min_effective_depth(&rates) {
        Some(h) => println!(
            "\nACE pays off at this R: minimal profitable depth h = {h} \
             (gain/penalty ratio > 1)."
        ),
        None => println!(
            "\nAt R = {r} no depth reaches a gain/penalty ratio above 1 — the \
             topology changes too often relative to the query rate; either \
             query more (larger R) or skip optimization."
        ),
    }
}
