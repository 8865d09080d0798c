//! A KaZaA-style two-tier network: 10% of peers act as supernodes that
//! index their leaves' content and flood queries among themselves. ACE is
//! applied to the supernode core — the tier where mismatch actually costs
//! bandwidth.
//!
//! Run with: `cargo run --release --example supernode`

use ace_core::{AceConfig, AceEngine, AceForward};
use ace_overlay::{FloodAll, QueryConfig, TwoTierNetwork};
use ace_topology::generate::{two_level, TwoLevelConfig};
use ace_topology::DistanceOracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(44);
    let topo = two_level(
        &TwoLevelConfig {
            as_count: 8,
            nodes_per_as: 120,
        },
        &mut rng,
    );
    let oracle = DistanceOracle::new(topo.graph);
    let hosts = oracle.graph().nodes().take(400).collect();

    let mut net = TwoTierNetwork::build(hosts, &mut rng);
    println!(
        "two-tier network: {} supernodes, {} leaves, mean access link {:.0}",
        net.supernode_count(),
        net.leaf_count(),
        net.mean_access_cost(&oracle)
    );

    let qc = QueryConfig {
        ttl: 32,
        stop_at_responder: false,
    };
    let leaves: Vec<usize> = (0..40)
        .map(|_| rng.gen_range(0..net.leaf_count()))
        .collect();

    let avg = |net: &TwoTierNetwork, policy: &dyn ace_overlay::ForwardPolicy, leaves: &[usize]| {
        let total: f64 = leaves
            .iter()
            .map(|&l| net.query_from_leaf(&oracle, l, &qc, policy, |_| false).1)
            .sum();
        total / leaves.len() as f64
    };

    let before = avg(&net, &FloodAll, &leaves);
    println!("query cost, flooding core       : {before:9.0}");

    // Optimize the supernode core with ACE.
    let mut ace = AceEngine::new(net.core.peer_count(), AceConfig::paper_default());
    for _ in 0..10 {
        ace.round(&mut net.core, &oracle, &mut rng);
    }
    assert!(net.core.is_connected());
    let fwd = AceForward::new(&ace);
    let after = avg(&net, &fwd, &leaves);
    println!("query cost, ACE-optimized core  : {after:9.0}");
    println!(
        "core traffic reduction          : {:.1}%",
        100.0 * (1.0 - after / before)
    );
}
