//! Layer probes of the traced run: micro-timings of single public
//! functions and the A/B legs (workers 1 vs 2, controller on vs off).
//!
//! Like the end-to-end units, every probe replays identical work a few
//! times and keeps the best. Probes run after the passes, on clones of
//! the traced pass's end state, so they cannot disturb a timed unit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ace_core::mst::{prim, prim_heap, ClosureEdge};
use ace_core::{AceConfig, AceEngine, AceForward, AutoRateConfig, Closure};
use ace_engine::{EventQueue, SimTime};
use ace_overlay::{Overlay, PeerId};
use ace_topology::{DistanceOracle, DistancePlane, HybridConfig, HybridOracle, NodeId};
use rand::Rng;

use crate::replay::{serve, serve_config, Pass, Snapshot};
use crate::spec::{PlaneKind, BATCH};
use crate::world::{ace_config, member_hosts, stream, World};

/// Replays of a micro-probe.
const MICRO_REPS: usize = 5;
/// Replays of a leg that costs whole rounds or batches.
const LEG_REPS: usize = 2;
/// Rounds per A/B leg, from a fresh engine on the initial overlay.
const LEG_ROUNDS: usize = 4;
/// Peers the per-peer probes sample.
const SAMPLE: usize = 64;
/// Member pairs priced by the hybrid-plane probe.
const DISTANCE_PAIRS: usize = 1_000_000;
/// Rows and lookups of the exact-oracle probe.
const ORACLE_ROWS: usize = 16;
const ORACLE_LOOKUPS: usize = 200_000;
/// Events resident in the queue probe.
const QUEUE_RESIDENT: usize = 100_000;
/// Link pairs the rewire probe connects and disconnects.
const REWIRE_PAIRS: usize = 1_000;

fn time_ns(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// Best of `reps` runs of `f`, which returns its own measured time (so
/// it can keep set-up such as cloning outside the clock).
fn best(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    (0..reps).map(|_| f()).min().unwrap_or(0) as f64
}

/// Runs every probe and files its metrics in `v`.
pub fn run(world: &World, snap: &Snapshot, end: &Pass, v: &mut BTreeMap<&'static str, f64>) {
    let mut rng = stream(world.seed, 4);
    let alive: Vec<PeerId> = end.overlay.alive_peers().collect();
    let sample: Vec<PeerId> = (0..SAMPLE)
        .map(|_| alive[rng.gen_range(0..alive.len())])
        .collect();

    topology(world, v);
    pool_and_controller(world, snap, end, v);
    queue(v);
    rewire(world.seed, &end.overlay, &alive, v);
    serial_entry_points(world, end, &sample, v);
    closures_and_trees(world, &end.overlay, &sample, v);

    let mut targets = Vec::new();
    let ns = best(MICRO_REPS, || {
        time_ns(|| {
            for &p in &alive {
                end.engine
                    .forward_targets_into(&end.overlay, p, None, &mut targets);
                black_box(&targets);
            }
        })
    });
    v.insert("core.policy.forward_targets_ns", ns / alive.len() as f64);
}

/// Both distance planes, whichever one the workload itself prices on:
/// the other is built here on the same physical graph.
fn topology(world: &World, v: &mut BTreeMap<&'static str, f64>) {
    let members = member_hosts(&world.overlay0);
    let built;
    let hybrid: &dyn DistancePlane = match world.workload.plane {
        PlaneKind::Hybrid => {
            v.insert("topology.hybrid.build_ms", world.times.plane_ms);
            &*world.plane
        }
        PlaneKind::Exact => {
            let graph = world.plane.graph().clone();
            let t = Instant::now();
            built = HybridOracle::build(graph, &members, &HybridConfig::default());
            v.insert("topology.hybrid.build_ms", t.elapsed().as_secs_f64() * 1e3);
            &built
        }
    };
    let mut rng = stream(world.seed, 5);
    let mut pair = || {
        (
            members[rng.gen_range(0..members.len())],
            members[rng.gen_range(0..members.len())],
        )
    };
    let pairs: Vec<(NodeId, NodeId)> = (0..DISTANCE_PAIRS).map(|_| pair()).collect();
    let before = hybrid.plane_stats();
    let ns = best(MICRO_REPS, || {
        time_ns(|| {
            for &(a, b) in &pairs {
                black_box(hybrid.distance(a, b));
            }
        })
    });
    let after = hybrid.plane_stats();
    v.insert("topology.hybrid.distance_ns", ns / DISTANCE_PAIRS as f64);
    v.insert(
        "topology.hybrid.coord_share",
        (after.coord - before.coord) as f64 / (after.total() - before.total()).max(1) as f64,
    );

    // A cold row can only be computed once per oracle, so it is the
    // median over distinct sources rather than a best-of.
    let oracle = DistanceOracle::new(world.plane.graph().clone());
    let sources = &members[..ORACLE_ROWS.min(members.len())];
    let rows: Vec<f64> = sources
        .iter()
        .map(|&s| time_ns(|| drop(oracle.distances_from(s))) as f64 / 1e3)
        .collect();
    v.insert("topology.oracle.cold_row_us", crate::stats::median(&rows));
    let lookups: Vec<(NodeId, NodeId)> = (0..ORACLE_LOOKUPS)
        .map(|i| (sources[i % sources.len()], pair().1))
        .collect();
    let ns = best(MICRO_REPS, || {
        time_ns(|| {
            for &(a, b) in &lookups {
                black_box(oracle.distance(a, b));
            }
        })
    });
    v.insert("topology.oracle.hit_ns", ns / ORACLE_LOOKUPS as f64);
}

/// The same rounds and the same batch at one and two workers, and the
/// same rounds with the rate controller on and off. The pool legs move
/// no end-to-end metric by design (every end-to-end figure is taken at
/// one worker); they are the evidence for keeping or deleting the pool.
fn pool_and_controller(
    world: &World,
    snap: &Snapshot,
    end: &Pass,
    v: &mut BTreeMap<&'static str, f64>,
) {
    let plane = &*world.plane;
    let rounds = |cfg: AceConfig| {
        best(LEG_REPS, || {
            let mut ov = world.overlay0.clone();
            let mut rng = snap.rng.clone();
            let mut ace = AceEngine::new(ov.peer_count(), cfg);
            time_ns(|| {
                for _ in 0..LEG_ROUNDS {
                    ace.round(&mut ov, plane, &mut rng);
                }
            })
        })
    };
    let base = AceConfig {
        parallel: true,
        workers: 1,
        autorate: None,
        ..ace_config(&world.workload)
    };
    let one = rounds(base);
    let two = rounds(AceConfig { workers: 2, ..base });
    let controlled = rounds(AceConfig {
        autorate: Some(AutoRateConfig::default()),
        ..base
    });
    v.insert("engine.pool.round_speedup_w2", one / two);
    v.insert("core.autorate.round_overhead_ratio", controlled / one);

    // A quarter-batch chunk gives the two workers four shards to share;
    // the default chunk would put the whole batch in one.
    let specs = &world.specs[..BATCH];
    let policy = AceForward::new(&end.engine);
    let batch = |workers: usize| {
        let cfg = serve_config(workers, BATCH / 4);
        best(LEG_REPS, || {
            time_ns(|| drop(black_box(serve(world, &end.overlay, &policy, specs, &cfg))))
        })
    };
    v.insert("engine.pool.serve_speedup_w2", batch(1) / batch(2));
}

/// Push + pop on an event queue holding `QUEUE_RESIDENT` events.
fn queue(v: &mut BTreeMap<&'static str, f64>) {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 1_000_000
    };
    let ns = best(MICRO_REPS, || {
        let mut q = EventQueue::new();
        for i in 0..QUEUE_RESIDENT {
            q.push(SimTime::from_ticks(next()), i);
        }
        time_ns(|| {
            for _ in 0..QUEUE_RESIDENT {
                let (t, e) = q.pop().expect("the queue stays full");
                q.push(t + next(), e);
            }
            black_box(q.len());
        })
    });
    v.insert("engine.queue.push_pop_ns", ns / QUEUE_RESIDENT as f64);
}

/// `connect` + `disconnect` of links that do not exist yet, between
/// peers with room under the degree cap.
fn rewire(seed: u64, overlay: &Overlay, alive: &[PeerId], v: &mut BTreeMap<&'static str, f64>) {
    let mut rng = stream(seed, 6);
    let cap = overlay.max_degree().unwrap_or(usize::MAX);
    let mut pairs = Vec::with_capacity(REWIRE_PAIRS);
    for _ in 0..64 * REWIRE_PAIRS {
        if pairs.len() == REWIRE_PAIRS {
            break;
        }
        let a = alive[rng.gen_range(0..alive.len())];
        let b = alive[rng.gen_range(0..alive.len())];
        if a != b
            && !overlay.are_neighbors(a, b)
            && overlay.degree(a) < cap
            && overlay.degree(b) < cap
        {
            pairs.push((a, b));
        }
    }
    let mut ov = overlay.clone();
    let ns = best(MICRO_REPS, || {
        time_ns(|| {
            for &(a, b) in &pairs {
                if ov.connect(a, b).is_ok() {
                    let _ = ov.disconnect(a, b);
                }
            }
        })
    });
    v.insert("overlay.network.rewire_ns", ns / pairs.len().max(1) as f64);
}

/// The public serial entry points (the path every figure binary takes)
/// on clones of the end state; `round − tree_round` is phase 3 + commit.
fn serial_entry_points(
    world: &World,
    end: &Pass,
    sample: &[PeerId],
    v: &mut BTreeMap<&'static str, f64>,
) {
    let plane = &*world.plane;
    let per_peer_us = |ns: f64| ns / sample.len() as f64 / 1e3;

    let mut ace = end.engine.clone();
    let ns = best(MICRO_REPS, || {
        time_ns(|| {
            for &p in sample {
                ace.phase1_probe(&end.overlay, plane, p);
            }
        })
    });
    v.insert("core.engine.phase1_probe_us", per_peer_us(ns));
    let ns = best(MICRO_REPS, || {
        time_ns(|| {
            for &p in sample {
                ace.build_tree(&end.overlay, plane, p);
            }
        })
    });
    v.insert("core.engine.build_tree_us", per_peer_us(ns));

    // `optimize_peer` rewires, so every replay starts from fresh clones.
    let ns = best(LEG_REPS, || {
        let (mut ov, mut ace) = (end.overlay.clone(), end.engine.clone());
        let mut rng = stream(world.seed, 7);
        time_ns(|| {
            for &p in sample {
                if ov.is_alive(p) {
                    ace.optimize_peer(&mut ov, plane, p, &mut rng);
                }
            }
        })
    });
    v.insert("core.engine.optimize_peer_us", per_peer_us(ns));
    let ns = best(LEG_REPS, || {
        let mut ace = end.engine.clone();
        time_ns(|| {
            black_box(ace.tree_round(&end.overlay, plane));
        })
    });
    v.insert("core.engine.tree_round_ms", ns / 1e6);
}

/// Closure collection at h = 1 and 2 and both Prim variants, on
/// closures of the workload's own overlay with true link costs.
fn closures_and_trees(
    world: &World,
    overlay: &Overlay,
    sample: &[PeerId],
    v: &mut BTreeMap<&'static str, f64>,
) {
    for (name, depth) in [
        ("core.closure.collect_us_h1", 1),
        ("core.closure.collect_us_h2", 2),
    ] {
        let ns = best(MICRO_REPS, || {
            time_ns(|| {
                for &p in sample {
                    black_box(Closure::collect(overlay, p, depth));
                }
            })
        });
        v.insert(name, ns / sample.len() as f64 / 1e3);
    }

    let plane = &*world.plane;
    let inputs: Vec<(PeerId, Vec<PeerId>, Vec<ClosureEdge>)> = sample
        .iter()
        .map(|&p| {
            let closure = Closure::collect(overlay, p, 1);
            let edges = closure
                .internal_edges(overlay)
                .into_iter()
                .map(|(a, b)| ClosureEdge {
                    a,
                    b,
                    cost: overlay.link_cost(plane, a, b),
                })
                .collect();
            (p, closure.members().to_vec(), edges)
        })
        .collect();
    let edges: usize = inputs.iter().map(|(_, _, e)| e.len()).sum();
    for (name, f) in [
        ("core.mst.prim_ns_per_edge", prim as fn(_, &[_], &[_]) -> _),
        ("core.mst.prim_heap_ns_per_edge", prim_heap),
    ] {
        let ns = best(MICRO_REPS, || {
            time_ns(|| {
                for (root, members, edges) in &inputs {
                    black_box(f(*root, members, edges));
                }
            })
        });
        v.insert(name, ns / edges.max(1) as f64);
    }
}
