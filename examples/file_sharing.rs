//! A Gnutella-like file-sharing network under real churn: peers with
//! ~10-minute lifetimes join and leave, everyone issues keyword queries
//! for Zipf-popular files, ACE re-optimizes twice a minute, and each peer
//! keeps a 200-item response index cache — the full §5.2 configuration.
//!
//! Run with: `cargo run --release --example file_sharing`

use ace_core::experiments::{dynamic_run, DynamicConfig, ScenarioConfig};
use ace_core::AceConfig;

fn main() {
    let scenario = ScenarioConfig {
        as_count: 8,
        nodes_per_as: 150,
        peers: 400,
        avg_degree: 6,
        objects: 800,
        replicas: 10,
        zipf: 0.8,
        seed: 2024,
        ..ScenarioConfig::default()
    };

    println!("file-sharing network: 400 peers on 1,200 routers, churn mean lifetime 10 min\n");

    let run = |label: &str, ace: Option<AceConfig>, cache: Option<usize>| {
        let mut cfg = DynamicConfig::paper_default(scenario, ace);
        cfg.total_queries = 3_000;
        cfg.window = 300;
        cfg.index_cache = cache;
        let r = dynamic_run(&cfg);
        println!("{label}:");
        println!("  windows (queries -> traffic/query, response ms, success):");
        for w in &r.windows {
            println!(
                "    {:>5} -> {:>9.0}  {:>7.1} ms  {:>5.1}%",
                w.queries_done,
                w.traffic,
                w.response_ms,
                w.success * 100.0
            );
        }
        println!(
            "  churn events: {}, simulated time: {}, steady traffic {:.0}\n",
            r.churn_events,
            r.sim_end,
            r.steady_traffic()
        );
        r
    };

    let flood = run("plain Gnutella flooding", None, None);
    let full = run(
        "ACE + 200-item index cache",
        Some(AceConfig::paper_default()),
        Some(200),
    );

    println!(
        "steady-state traffic reduction: {:.1}%   response-time reduction: {:.1}%",
        100.0 * (1.0 - full.steady_traffic() / flood.steady_traffic()),
        100.0 * (1.0 - full.steady_response_ms() / flood.steady_response_ms())
    );
}
