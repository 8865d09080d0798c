//! Quickstart: build a small Internet-like world, let ACE optimize the
//! overlay, and compare blind flooding against tree-based forwarding.
//!
//! Run with: `cargo run --release --example quickstart`

use ace_core::{AceConfig, AceEngine, AceForward};
use ace_overlay::{clustered_overlay, run_query, FloodAll, PeerId, QueryConfig};
use ace_topology::generate::{two_level, TwoLevelConfig};
use ace_topology::DistanceOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. Physical network: 8 ASes × 100 routers; intra-AS links are ~40×
    //    cheaper than inter-AS links (this delay gap is what overlay
    //    mismatch wastes).
    let topo = two_level(
        &TwoLevelConfig {
            as_count: 8,
            nodes_per_as: 100,
        },
        &mut rng,
    );
    let oracle = DistanceOracle::new(topo.graph);

    // 2. Logical overlay: 300 peers on random hosts, Gnutella-style
    //    friend-of-friend attachment, average degree 6.
    let hosts = oracle.graph().nodes().step_by(2).take(300).collect();
    let mut overlay = clustered_overlay(hosts, 6, 0.7, None, &mut rng);
    println!(
        "world: {} routers, {} peers, {} logical links",
        oracle.graph().node_count(),
        overlay.peer_count(),
        overlay.edge_count()
    );

    // 3. Baseline: blind flooding from peer 0.
    let qc = QueryConfig {
        ttl: 32,
        stop_at_responder: false,
    };
    let flood = run_query(&overlay, &oracle, PeerId::new(0), &qc, &FloodAll, |_| false);
    println!(
        "blind flooding : scope {:4}  traffic {:9.0}  duplicates {}",
        flood.scope, flood.traffic_cost, flood.duplicates
    );

    // 4. Run ACE (probe → spanning tree → adaptive reconnection) for a
    //    few rounds.
    let mut ace = AceEngine::new(overlay.peer_count(), AceConfig::paper_default());
    for step in 1..=10 {
        let stats = ace.round(&mut overlay, &oracle, &mut rng);
        println!(
            "ACE step {step:2}: {} links replaced, {} added, overhead {:.0}",
            stats.replaced,
            stats.added,
            stats.overhead.total_cost()
        );
    }
    assert!(overlay.is_connected(), "ACE never disconnects the overlay");

    // 5. The same query on the optimized overlay, along spanning trees.
    let opt = run_query(
        &overlay,
        &oracle,
        PeerId::new(0),
        &qc,
        &AceForward::new(&ace),
        |_| false,
    );
    println!(
        "ACE forwarding : scope {:4}  traffic {:9.0}  duplicates {}",
        opt.scope, opt.traffic_cost, opt.duplicates
    );
    println!(
        "traffic reduction: {:.1}% (scope retained: {})",
        100.0 * (1.0 - opt.traffic_cost / flood.traffic_cost),
        opt.scope == flood.scope
    );
}
