//! Golden pin of the query-propagation kernel.
//!
//! `search.rs` owns the one time-ordered propagation loop; `run_query_into`
//! (arrival-time visited set) and `serve_batch` (per-shard bitset) are
//! drivers over it. They were once two hand-copied heap loops
//! (`run_query_into` and `serve.rs::run_slot`); the constants below were
//! captured by running this file unmodified on that implementation
//! (commit b71f603, the parent of the change that collapsed them onto one
//! kernel) and must hold on every later commit: same scope, messages,
//! duplicates, traffic cost bits, first response / responder, responders
//! hit, `arrivals`, `parents` and `sent_by` for every single query, and
//! the same batch digest, inbox load, hop / response quantiles and
//! served / skipped counts for every worker count and chunk size.
//!
//! Grid: 3 seeds × {60, 200} peers (`random_overlay` over a BA net, every
//! ninth workload source departed after the workload was drawn) ×
//! {`FloodAll`, `PartialFlood` Cheapest, `PartialFlood` HighestDegree} ×
//! ttl ∈ {1, 3, 7} × `stop_at_responder` ∈ {false, true}; one folded `u64`
//! per (peers, policy). A mismatch prints the value the cell produced;
//! re-capturing is only legitimate for a change that *means* to move what
//! a query measures.

use ace_engine::SimTime;
use ace_overlay::{
    random_overlay, run_query_into, serve_batch, zipf_workload, Catalog, FloodAll, ForwardPolicy,
    HpfWeight, ObjectId, Overlay, PartialFlood, PeerId, QueryConfig, QueryOutcome, QueryScratch,
    QuerySpec, ServeConfig,
};
use ace_topology::generate::{ba, BaConfig};
use ace_topology::DistanceOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const SEEDS: [u64; 3] = [3, 17, 101];
const PEERS: [usize; 2] = [60, 200];
const QUERIES: usize = 90;

struct World {
    overlay: Overlay,
    oracle: DistanceOracle,
    specs: Vec<QuerySpec>,
}

fn world(peers: usize, seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let phys = ba(
        &BaConfig {
            nodes: peers * 3,
            ..BaConfig::default()
        },
        &mut rng,
    );
    let oracle = DistanceOracle::new(phys);
    let hosts = oracle.graph().nodes().take(peers).collect();
    let mut overlay = random_overlay(hosts, 5, None, &mut rng);
    let specs = zipf_workload(&overlay, &Catalog::new(40, 0.8), QUERIES, &mut rng);
    for spec in specs.iter().step_by(9) {
        if overlay.is_alive(spec.source) {
            overlay.leave(spec.source).unwrap();
        }
    }
    World {
        overlay,
        oracle,
        specs,
    }
}

/// Deterministic stand-in placement: roughly one peer in seven holds any
/// given object.
fn holder(object: ObjectId, peer: PeerId) -> bool {
    let mut h = DefaultHasher::new();
    (object, peer.raw()).hash(&mut h);
    h.finish().is_multiple_of(7)
}

fn ticks(t: Option<SimTime>) -> Option<u64> {
    t.map(SimTime::as_ticks)
}

fn fold_outcome(q: &QueryOutcome, h: &mut DefaultHasher) {
    (q.scope, q.messages, q.duplicates, q.responders_hit).hash(h);
    q.traffic_cost.to_bits().hash(h);
    (ticks(q.first_response), q.first_responder).hash(h);
    for t in &q.arrivals {
        ticks(*t).hash(h);
    }
    q.parents.hash(h);
    q.sent_by.hash(h);
}

/// One (peers, policy) cell: every single query and every batch shape,
/// over all seeds, TTLs and responder-stop settings.
fn cell<P: ForwardPolicy + Sync>(w: &World, policy: &P, h: &mut DefaultHasher) {
    let mut scratch = QueryScratch::new();
    let mut q = QueryOutcome::default();
    for ttl in [1u8, 3, 7] {
        for stop_at_responder in [false, true] {
            let query = QueryConfig {
                ttl,
                stop_at_responder,
            };
            for spec in w.specs.iter().filter(|s| w.overlay.is_alive(s.source)) {
                run_query_into(
                    &w.overlay,
                    &w.oracle,
                    spec.source,
                    &query,
                    policy,
                    |p| holder(spec.object, p),
                    &mut scratch,
                    &mut q,
                );
                fold_outcome(&q, h);
            }
            for workers in [1, 3] {
                for chunk in [7, 256] {
                    let cfg = ServeConfig {
                        query,
                        workers,
                        chunk,
                    };
                    let r = serve_batch(&w.overlay, &w.oracle, policy, &w.specs, &holder, &cfg);
                    (r.digest(), r.served, r.skipped).hash(h);
                    r.inbox_load.hash(h);
                    for hist in [&r.hop_latency, &r.response_latency] {
                        (hist.quantile(0.5), hist.quantile(0.99)).hash(h);
                    }
                }
            }
        }
    }
}

fn grid(peers: usize, policy: usize) -> u64 {
    let mut h = DefaultHasher::new();
    for seed in SEEDS {
        let w = world(peers, seed);
        match policy {
            0 => cell(&w, &FloodAll, &mut h),
            1 => cell(
                &w,
                &PartialFlood::new(&w.oracle, 0.5, 2, HpfWeight::Cheapest),
                &mut h,
            ),
            _ => cell(
                &w,
                &PartialFlood::new(&w.oracle, 0.6, 1, HpfWeight::HighestDegree),
                &mut h,
            ),
        }
    }
    h.finish()
}

/// `GOLDEN[peers][policy]`, captured on b71f603.
const GOLDEN: [[u64; 3]; 2] = [
    [0xf18395ae64c976ae, 0x0b64f90d04ad137c, 0x8fea6b746e7f8fbd],
    [0x8c6d8c4320dcb243, 0x5597461b45732c09, 0x65de1aba4bbc8fa2],
];

#[test]
fn kernel_digests_match_the_two_loop_implementation() {
    let mut got = [[0u64; 3]; 2];
    for (i, &peers) in PEERS.iter().enumerate() {
        for (policy, slot) in got[i].iter_mut().enumerate() {
            *slot = grid(peers, policy);
        }
    }
    assert_eq!(got, GOLDEN, "produced {got:#018x?}");
}
