//! One pass: replay the script from a clone of the snapshot, time every
//! unit, count what the layers did, and check what came out.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use ace_core::protocol::{AsyncAceSim, NetemStats};
use ace_core::{AceEngine, AceForward, ControllerStats, CoreCacheStats, OverheadKind};
use ace_engine::SimTime;
use ace_overlay::{
    run_query_into, serve_batch, FloodAll, ForwardPolicy, Overlay, QueryOutcome, QueryScratch,
    QuerySpec, ServeConfig, ServeReport,
};
use rand::rngs::StdRng;

use crate::trace::Tracer;
use crate::world::{proto_config, Churn, Step, World, JOIN_ATTACH, QUERY};

/// The state every pass starts from: the overlay and engine after the
/// workload's warm-up rounds, and the round RNG at that point.
#[derive(Clone)]
pub struct Snapshot {
    /// Overlay after warm-up.
    pub overlay: Overlay,
    /// Engine after warm-up. Its `ScratchPool` clones empty, so every
    /// pass rebuilds the plan arenas in its first round — the same in
    /// every pass.
    pub engine: AceEngine,
    /// Round RNG after warm-up.
    pub rng: StdRng,
    /// Σ alive peers over the warm-up rounds.
    pub warm_peer_rounds: u64,
}

/// Exact counts taken at the layer boundaries during one pass.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Rounds run.
    pub rounds: u64,
    /// Σ alive peers at round start.
    pub peer_rounds: u64,
    /// Σ `RoundStats.replaced`.
    pub replaced: u64,
    /// Σ `RoundStats.added`.
    pub added: u64,
    /// Σ `RoundStats.trees_built`.
    pub trees_built: u64,
    /// Σ `RoundStats.plans_skipped`.
    pub plans_skipped: u64,
    /// Σ `RoundStats.overhead.count_of(kind)` in `OverheadKind::ALL` order.
    pub overhead_msgs: [u64; 6],
    /// `RoundStats.core_cache` of the last round (totals since the
    /// engine was built).
    pub core_cache: CoreCacheStats,
    /// Query slots, messages and duplicate receipts under `AceForward`.
    pub ace: ServeCount,
    /// The same under `FloodAll`.
    pub flood: ServeCount,
    /// Messages of the single queries.
    pub single_msgs: u64,
    /// Batch slots skipped because their source was dead.
    pub skipped: u64,
    /// `messages_delivered()` at the end of the async section.
    pub delivered: u64,
    /// `run_until` units.
    pub async_runs: u64,
    /// Wire accounting of the async section.
    pub netem: NetemStats,
    /// Rate-controller bookkeeping of the engine at the end.
    pub controller: ControllerStats,
}

/// Serving counts of one forwarding policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCount {
    /// Query slots served.
    pub queries: u64,
    /// Query transmissions.
    pub messages: u64,
    /// Transmissions that reached an already-visited peer.
    pub duplicates: u64,
}

impl ServeCount {
    fn add(&mut self, r: &ServeReport) {
        self.queries += r.served;
        self.messages += r.messages;
        self.duplicates += r.duplicates;
    }
}

/// What one pass produced.
pub struct Pass {
    /// Wall time of every unit, in script order.
    pub unit_ns: Vec<u64>,
    /// Digest over the engine, every serve report, every single query
    /// and the simulator; equal between passes or the run is wrong.
    pub digest: u64,
    /// Operations attempted (rounds, events, queries, async units).
    pub attempted: u64,
    /// Operations failed: `Err` from `leave`/`join`, a skipped or
    /// zero-scope query, a flip the simulator refused, an invariant
    /// violation.
    pub failed: u64,
    /// Boundary counts.
    pub counters: Counters,
    /// Overlay at the end of the pass.
    pub overlay: Overlay,
    /// Engine at the end of the pass.
    pub engine: AceEngine,
}

/// Serve configuration: one worker; `chunk` is only lowered by the
/// pool probe, which needs more than one shard per batch.
pub fn serve_config(workers: usize, chunk: usize) -> ServeConfig {
    ServeConfig {
        query: QUERY,
        workers,
        chunk,
    }
}

/// `serve_batch` of `specs` under `policy`, answered from the world's
/// placement.
pub fn serve<P: ForwardPolicy + Sync + ?Sized>(
    world: &World,
    overlay: &Overlay,
    policy: &P,
    specs: &[QuerySpec],
    cfg: &ServeConfig,
) -> ServeReport {
    serve_batch(
        overlay,
        &*world.plane,
        policy,
        specs,
        &|obj, peer| world.placement.is_holder(obj, peer),
        cfg,
    )
}

/// A fresh simulator of the async section, on the initial overlay.
fn new_sim(world: &World) -> AsyncAceSim {
    AsyncAceSim::new(world.overlay0.clone(), proto_config(world.seed), world.seed)
}

/// Replays `script` against clones of `snap`. `script` is normally
/// `world.script`; tests pass scripts with steps that must fail.
pub fn run_pass(world: &World, snap: &Snapshot, script: &[Step], tracer: &mut Tracer) -> Pass {
    let plane = &*world.plane;
    let Snapshot {
        overlay: mut ov,
        engine: mut ace,
        mut rng,
        ..
    } = snap.clone();
    let cfg = serve_config(1, ServeConfig::default().chunk);
    let mut scratch = QueryScratch::new();
    let mut outcome = QueryOutcome::default();
    let mut sim: Option<AsyncAceSim> = None;

    let mut digest = std::collections::hash_map::DefaultHasher::new();
    let mut c = Counters::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut unit_ns = Vec::with_capacity(script.len());

    for (i, step) in script.iter().enumerate() {
        tracer.set_unit(i);
        let outer = tracer.enter(step.span_name());
        let t = Instant::now();
        match step {
            Step::Round => {
                attempted += 1;
                c.rounds += 1;
                c.peer_rounds += ov.alive_count() as u64;
                let s = tracer.enter("core.engine.round");
                let stats = ace.round(&mut ov, plane, &mut rng);
                tracer.exit(s);
                c.replaced += stats.replaced as u64;
                c.added += stats.added as u64;
                c.trees_built += stats.trees_built as u64;
                c.plans_skipped += stats.plans_skipped as u64;
                for (slot, kind) in c.overhead_msgs.iter_mut().zip(OverheadKind::ALL) {
                    *slot += stats.overhead.count_of(kind);
                }
                c.core_cache = stats.core_cache;
            }
            Step::Event(p, churn) => {
                attempted += 1;
                let s = tracer.enter(match churn {
                    Churn::Join => "overlay.network.join",
                    _ => "overlay.network.leave",
                });
                let ok = match churn {
                    Churn::Join => ov.join(*p, JOIN_ATTACH, &mut rng).is_ok(),
                    _ => ov.leave(*p).is_ok(),
                };
                tracer.exit(s);
                if ok {
                    let s = tracer.enter(match churn {
                        Churn::Leave => "core.engine.on_leave",
                        Churn::Crash => "core.engine.on_crash",
                        Churn::Join => "core.engine.on_join",
                    });
                    match churn {
                        Churn::Leave => ace.on_leave(*p),
                        Churn::Crash => ace.on_crash(*p),
                        Churn::Join => ace.on_join(*p),
                    }
                    tracer.exit(s);
                } else {
                    failed += 1;
                }
            }
            Step::BatchAce(range) | Step::BatchFlood(range) => {
                let specs = &world.specs[range.clone()];
                let ace_side = matches!(step, Step::BatchAce(_));
                attempted += specs.len() as u64;
                let s = tracer.enter("overlay.serve.serve_batch");
                let report = if ace_side {
                    serve(world, &ov, &AceForward::new(&ace), specs, &cfg)
                } else {
                    serve(world, &world.overlay0, &FloodAll, specs, &cfg)
                };
                tracer.exit(s);
                if ace_side { &mut c.ace } else { &mut c.flood }.add(&report);
                c.skipped += report.skipped;
                failed += report.outcome.scope.iter().filter(|&&s| s == 0).count() as u64;
                report.digest().hash(&mut digest);
            }
            Step::Query(q) => {
                attempted += 1;
                let spec = world.specs[*q];
                if ov.is_alive(spec.source) {
                    let s = tracer.enter("overlay.search.run_query_into");
                    run_query_into(
                        &ov,
                        plane,
                        spec.source,
                        &QUERY,
                        &AceForward::new(&ace),
                        |p| world.placement.is_holder(spec.object, p),
                        &mut scratch,
                        &mut outcome,
                    );
                    tracer.exit(s);
                    c.single_msgs += outcome.messages;
                    (
                        outcome.scope,
                        outcome.messages,
                        outcome.traffic_cost.to_bits(),
                    )
                        .hash(&mut digest);
                } else {
                    // `run_query_into` panics on a dead source; a batch
                    // driver counts it instead.
                    failed += 1;
                }
            }
            Step::AsyncRun(secs) => {
                attempted += 1;
                c.async_runs += 1;
                let sim = sim.get_or_insert_with(|| new_sim(world));
                let s = tracer.enter("core.protocol.run_until");
                sim.run_until(plane, SimTime::from_secs(*secs));
                tracer.exit(s);
            }
            Step::AsyncFlip(peers) => {
                attempted += peers.len() as u64;
                let sim = sim.get_or_insert_with(|| new_sim(world));
                for &p in peers {
                    let ok = if sim.overlay().is_alive(p) {
                        let s = tracer.enter("core.protocol.peer_leave");
                        let ok = sim.peer_leave(plane, p);
                        tracer.exit(s);
                        ok
                    } else {
                        let s = tracer.enter("core.protocol.peer_join");
                        let ok = sim.peer_join(p, JOIN_ATTACH);
                        tracer.exit(s);
                        ok
                    };
                    failed += u64::from(!ok);
                }
            }
        }
        unit_ns.push(t.elapsed().as_nanos() as u64);
        tracer.exit(outer);
    }

    // Output checks, outside every timed unit.
    failed += u64::from(ov.check_invariants().is_err());
    failed += u64::from(ace.check_invariants(&ov).is_err());
    ace.state_digest().hash(&mut digest);
    (ov.alive_count(), ov.edge_count()).hash(&mut digest);
    if let Some(sim) = &sim {
        failed += u64::from(sim.check_invariants().is_err());
        sim.state_digest().hash(&mut digest);
        c.delivered = sim.messages_delivered();
        c.netem = *sim.netem_stats();
    }
    c.controller = ace.controller_stats();

    Pass {
        unit_ns,
        digest: digest.finish(),
        attempted,
        failed,
        counters: c,
        overlay: ov,
        engine: ace,
    }
}
