//! The message-level ACE protocol in action: watch independent peers —
//! woken by their own jittered timers, exchanging real probe/table/
//! reconnect messages with in-flight delays — converge to the same
//! traffic savings as the idealized round-based engine.
//!
//! Run with: `cargo run --release --example async_protocol`

use ace_core::protocol::{AsyncAceSim, AsyncForward, ProtoConfig};
use ace_engine::SimTime;
use ace_overlay::{clustered_overlay, run_query, FloodAll, PeerId, QueryConfig};
use ace_topology::generate::{two_level, TwoLevelConfig};
use ace_topology::DistanceOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(71);
    let topo = two_level(
        &TwoLevelConfig {
            as_count: 6,
            nodes_per_as: 100,
        },
        &mut rng,
    );
    let oracle = DistanceOracle::new(topo.graph);
    let hosts = oracle.graph().nodes().take(200).collect();
    let overlay = clustered_overlay(hosts, 6, 0.7, Some(12), &mut rng);

    let qc = QueryConfig {
        ttl: 32,
        stop_at_responder: false,
    };
    let flood = run_query(&overlay, &oracle, PeerId::new(0), &qc, &FloodAll, |_| false);
    println!(
        "t=0s        flooding traffic {:8.0}  (scope {})",
        flood.traffic_cost, flood.scope
    );

    let mut sim = AsyncAceSim::new(overlay, ProtoConfig::default(), 72);
    for minute in 1..=6u64 {
        sim.run_until(&oracle, SimTime::from_secs(minute * 60));
        let fwd = AsyncForward::new(&sim);
        let q = run_query(sim.overlay(), &oracle, PeerId::new(0), &qc, &fwd, |_| false);
        println!(
            "t={:>3}s  ACE traffic {:8.0}  (scope {}, {} msgs delivered, {:.1}k overhead)",
            minute * 60,
            q.traffic_cost,
            q.scope,
            sim.messages_delivered(),
            sim.ledger().total_cost() / 1000.0
        );
    }
    assert!(sim.overlay().is_connected());
    let fwd = AsyncForward::new(&sim);
    let q = run_query(sim.overlay(), &oracle, PeerId::new(0), &qc, &fwd, |_| false);
    println!(
        "\nfinal reduction: {:.1}% at retained scope ({} of {})",
        100.0 * (1.0 - q.traffic_cost / flood.traffic_cost),
        q.scope,
        flood.scope
    );
}
