//! One run of one workload: set-up, warm-up, the replayed passes, the
//! output checks, and the reduction of unit timings to metrics.
//!
//! The untraced run yields the end-to-end metrics; the traced run
//! (`--trace 1`) adds one pass under the span recorder plus the layer
//! probes and yields the per-layer metrics. End-to-end numbers never
//! come from a traced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ace_core::{AceEngine, AceForward};
use ace_engine::SimTime;
use ace_overlay::{FloodAll, ServeConfig};
use serde::Serialize;

use crate::probes;
use crate::replay::{run_pass, serve, serve_config, Counters, Pass, Snapshot};
use crate::spec::{MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::stats::{best_of, median, percentile, replay_spread, NOISY_SPREAD};
use crate::trace::{totals, Span, SpanTotal, Tracer};
use crate::world::{ace_config, probe_specs, proto_config, setup, Step, World};

/// Identical passes of an untraced run; each unit's time is the minimum
/// over them. A constant, the same on every commit and host: a minimum
/// falls as passes are added, so a count that followed the clock would
/// flatter whichever side ran faster.
pub const PASSES: usize = 5;
/// Untraced passes of a traced run (its numbers carry no bound).
const TRACE_PASSES: usize = 3;
/// Complete set-ups per untraced run; `setup_s` is the best of them.
const SETUPS: usize = 3;
/// Scope the optimised overlay must retain, as a share of flooding's.
const SCOPE_FLOOR: f64 = 0.9;

/// How to run a workload.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name and unit.
    pub def: MetricDef,
    /// The value, with all its digits.
    pub value: f64,
}

/// Everything a run reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted over all passes and the probe set.
    pub attempted: u64,
    /// Operations failed (see [`Pass::failed`]), plus one per pass whose
    /// digest differs from the first pass's.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Passes replayed.
    pub passes: usize,
    /// Digest every pass ended in.
    pub digest: u64,
    /// `Σ median-of-R ÷ Σ best-of-R − 1` over the untraced passes.
    pub replay_spread: f64,
    /// `replay_spread` above 0.25: the host was too busy to trust.
    pub noisy_run: bool,
    /// Why `correct` is false, when it is.
    pub problems: Vec<String>,
}

/// Process peak RSS in MiB (`VmHWM`), 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed amount of work that touches no layer of the program: when it
/// slows down, the host did. Returns its wall time in milliseconds.
fn reference_kernel() -> f64 {
    let mut table = vec![0u32; 1 << 20];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t = Instant::now();
    for _ in 0..(1 << 22) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x >> 44) as usize];
        *slot = slot.wrapping_add(x as u32);
    }
    black_box(&table);
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the warm-up rounds and freezes the state every pass starts from.
pub fn warm_up(world: &World) -> Snapshot {
    let w = &world.workload;
    let mut overlay = world.overlay0.clone();
    let mut engine = AceEngine::new(overlay.peer_count(), ace_config(w));
    let mut rng = world.rng.clone();
    let mut warm_peer_rounds = 0;
    for _ in 0..w.warm_rounds {
        warm_peer_rounds += overlay.alive_count() as u64;
        engine.round(&mut overlay, &*world.plane, &mut rng);
    }
    Snapshot {
        overlay,
        engine,
        rng,
        warm_peer_rounds,
    }
}

/// The four simulated metrics, on a probe set drawn from the peers
/// alive at the end of a pass. They repeat exactly for a seed.
struct Simulated {
    traffic_ratio: f64,
    scope_ratio: f64,
    response_ratio: f64,
    overhead_per_peer_round: f64,
    attempted: u64,
    failed: u64,
}

fn simulate(world: &World, snap: &Snapshot, pass: &Pass) -> Simulated {
    let specs = probe_specs(world, &pass.overlay);
    let cfg = serve_config(1, ServeConfig::default().chunk);
    let ace = serve(
        world,
        &pass.overlay,
        &AceForward::new(&pass.engine),
        &specs,
        &cfg,
    );
    let flood_now = serve(world, &pass.overlay, &FloodAll, &specs, &cfg);
    let flood_initial = serve(world, &world.overlay0, &FloodAll, &specs, &cfg);

    // First-response time over the slots both sides answered.
    let (mut ace_ticks, mut flood_ticks) = (0u64, 0u64);
    for (a, f) in ace
        .outcome
        .first_response
        .iter()
        .zip(&flood_initial.outcome.first_response)
    {
        if let (Some(a), Some(f)) = (a, f) {
            ace_ticks += a.as_ticks();
            flood_ticks += f.as_ticks();
        }
    }
    let peer_rounds = snap.warm_peer_rounds + pass.counters.peer_rounds;
    let failed = [&ace, &flood_now, &flood_initial]
        .iter()
        .map(|r| r.outcome.scope.iter().filter(|&&s| s == 0).count() as u64)
        .sum();
    Simulated {
        traffic_ratio: ace.traffic_cost / flood_initial.traffic_cost,
        scope_ratio: ace.mean_scope / flood_now.mean_scope,
        response_ratio: ace_ticks as f64 / flood_ticks as f64,
        overhead_per_peer_round: pass.engine.ledger().total_cost() / peer_rounds as f64,
        attempted: 3 * specs.len() as u64,
        failed,
    }
}

/// Best-of times of the units `keep` selects, in script order.
fn pick(script: &[Step], best: &[u64], keep: impl Fn(&Step) -> bool) -> Vec<u64> {
    script
        .iter()
        .zip(best)
        .filter(|(s, _)| keep(s))
        .map(|(_, &ns)| ns)
        .collect()
}

/// Best-of unit times grouped by the kind of unit.
struct UnitTimes {
    /// `AceEngine::round` units.
    rounds: Vec<u64>,
    /// Lifecycle events.
    events: Vec<u64>,
    /// `serve_batch` under `AceForward`.
    batch_ace: Vec<u64>,
    /// `serve_batch` under `FloodAll`.
    batch_flood: Vec<u64>,
    /// Single queries.
    queries: Vec<u64>,
    /// `AsyncAceSim::run_until` units.
    async_runs: Vec<u64>,
}

impl UnitTimes {
    fn group(script: &[Step], best: &[u64]) -> Self {
        UnitTimes {
            rounds: pick(script, best, |s| matches!(s, Step::Round)),
            events: pick(script, best, |s| matches!(s, Step::Event(..))),
            batch_ace: pick(script, best, |s| matches!(s, Step::BatchAce(_))),
            batch_flood: pick(script, best, |s| matches!(s, Step::BatchFlood(_))),
            queries: pick(script, best, |s| matches!(s, Step::Query(_))),
            async_runs: pick(script, best, |s| matches!(s, Step::AsyncRun(_))),
        }
    }
}

fn sum(ns: &[u64]) -> u64 {
    ns.iter().sum()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The passes of a run and what was checked about them.
struct Replayed {
    unit_ns: Vec<Vec<u64>>,
    first: Pass,
    simulated: Simulated,
    rss_mb: f64,
    attempted: u64,
    failed: u64,
    ref_ms: Vec<f64>,
    problems: Vec<String>,
}

/// Replays the script `passes` times. The first pass's end state feeds
/// the simulated metrics; every later pass must end in the first one's
/// digest. `reference` runs the reference kernel between passes (the
/// traced run reports it; the untraced run keeps its caches to itself).
fn replay(world: &World, snap: &Snapshot, passes: usize, reference: bool) -> Replayed {
    let mut first = run_pass(world, snap, &world.script, &mut Tracer::off());
    let rss_mb = peak_rss_mb();
    let simulated = simulate(world, snap, &first);
    let mut out = Replayed {
        unit_ns: vec![std::mem::take(&mut first.unit_ns)],
        attempted: first.attempted + simulated.attempted + 1,
        failed: first.failed + simulated.failed,
        first,
        simulated,
        rss_mb,
        ref_ms: Vec::new(),
        problems: Vec::new(),
    };
    while out.unit_ns.len() < passes {
        if reference {
            out.ref_ms.push(reference_kernel());
        }
        let pass = run_pass(world, snap, &world.script, &mut Tracer::off());
        out.attempted += pass.attempted + 1;
        out.failed += pass.failed;
        if pass.digest != out.first.digest {
            out.failed += 1;
            out.problems.push(format!(
                "pass {} ended in digest {:016x}, pass 1 in {:016x}",
                out.unit_ns.len() + 1,
                pass.digest,
                out.first.digest
            ));
        }
        out.unit_ns.push(pass.unit_ns);
    }
    if out.failed > 0 {
        out.problems
            .push(format!("{} operations failed", out.failed));
    }
    let sim = &out.simulated;
    if sim.scope_ratio < SCOPE_FLOOR {
        out.problems.push(format!(
            "scope_ratio {} is below {SCOPE_FLOOR}",
            sim.scope_ratio
        ));
    }
    if sim.traffic_ratio >= 1.0 {
        out.problems.push(format!(
            "traffic_ratio {} is not below 1",
            sim.traffic_ratio
        ));
    }
    out
}

/// Runs `w` as `opts` says.
///
/// # Errors
///
/// Fails when a metric cannot be computed at all (a percentile without
/// enough samples, a non-finite value, an unwritable trace file) — the
/// caller prints no result and exits non-zero.
pub fn run(w: &Workload, opts: &Options) -> Result<Report, String> {
    if opts.trace {
        return run_traced(w, opts);
    }
    // Best of several complete set-ups, each dropped before the next.
    let mut setup_s = f64::INFINITY;
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup(w, opts.seed));
        setup_s = setup_s.min(t.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up ran");
    let snap = warm_up(&world);
    let r = replay(&world, &snap, PASSES, false);

    let best = best_of(&r.unit_ns);
    let t = UnitTimes::group(&world.script, &best);
    let c = &r.first.counters;
    let us = |ns: Option<u64>, what: &str| {
        ns.map(|ns| ns as f64 / 1e3)
            .ok_or_else(|| format!("{}: too few {what} for that percentile", w.name))
    };
    let sim = &r.simulated;
    let values = [
        setup_s,
        c.peer_rounds as f64 / secs(sum(&t.rounds)),
        us(percentile(&t.events, 0.5), "events")?,
        us(percentile(&t.events, 0.9), "events")?,
        c.ace.queries as f64 / secs(sum(&t.batch_ace)),
        c.flood.queries as f64 / secs(sum(&t.batch_flood)),
        us(percentile(&t.queries, 0.5), "queries")?,
        us(percentile(&t.queries, 0.9), "queries")?,
        c.delivered as f64 / secs(sum(&t.async_runs)),
        r.rss_mb,
        sim.traffic_ratio,
        sim.scope_ratio,
        sim.response_ratio,
        sim.overhead_per_peer_round,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&def, value)| Metric { def, value })
        .collect();
    finish(w, opts, &r, metrics)
}

/// Checks the metric values and folds a replay into a [`Report`].
fn finish(
    w: &Workload,
    opts: &Options,
    r: &Replayed,
    metrics: Vec<Metric>,
) -> Result<Report, String> {
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{}: {} is {}", w.name, bad.def.name, bad.value));
    }
    let spread = replay_spread(&r.unit_ns);
    Ok(Report {
        workload: w.name,
        seed: opts.seed,
        correct: r.problems.is_empty(),
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        passes: r.unit_ns.len(),
        digest: r.first.digest,
        replay_spread: spread,
        noisy_run: spread > NOISY_SPREAD,
        problems: r.problems.clone(),
    })
}

/// What the traced run writes to `out/trace-<workload>.json`.
#[derive(Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    noisy_run: bool,
    /// Boundary counts of the traced pass, by name.
    counters: BTreeMap<&'static str, f64>,
    /// Span totals by name; `self_ns` is duration minus children.
    self_time: BTreeMap<&'static str, SpanTotal>,
    /// The per-layer metrics this run reported.
    metrics: BTreeMap<&'static str, f64>,
    spans: Vec<Span>,
}

/// Boundary counts as a flat name → value map for the trace file.
fn counter_map(c: &Counters) -> BTreeMap<&'static str, f64> {
    [
        ("rounds", c.rounds),
        ("peer_rounds", c.peer_rounds),
        ("replaced", c.replaced),
        ("added", c.added),
        ("trees_built", c.trees_built),
        ("plans_skipped", c.plans_skipped),
        ("core_cache.hits", c.core_cache.hits),
        ("core_cache.misses", c.core_cache.misses),
        ("core_cache.inserts", c.core_cache.inserts),
        ("serve.ace.messages", c.ace.messages),
        ("serve.ace.duplicates", c.ace.duplicates),
        ("serve.flood.messages", c.flood.messages),
        ("serve.flood.duplicates", c.flood.duplicates),
        ("search.single.messages", c.single_msgs),
        ("protocol.delivered", c.delivered),
        ("netem.sent", c.netem.sent),
        ("netem.lost", c.netem.lost),
        ("netem.duplicated", c.netem.duplicated),
        ("netem.retransmits", c.netem.retransmits),
        ("netem.deduped", c.netem.deduped),
        ("controller.entries", c.controller.entries as u64),
        ("controller.evictions", c.controller.evictions),
        ("controller.purges", c.controller.purges),
    ]
    .into_iter()
    .map(|(name, count)| (name, count as f64))
    .collect()
}

/// Where trace files go: `benchmark/out` from the repo root, `out` from
/// inside `benchmark/`.
fn out_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}

fn run_traced(w: &Workload, opts: &Options) -> Result<Report, String> {
    let world = setup(w, opts.seed);
    let t = Instant::now();
    let snap = warm_up(&world);
    let warmup_s = t.elapsed().as_secs_f64();
    let mut r = replay(&world, &snap, TRACE_PASSES, true);

    let mut tracer = Tracer::on();
    let traced = run_pass(&world, &snap, &world.script, &mut tracer);
    r.attempted += traced.attempted + 1;
    r.failed += traced.failed;
    if traced.digest != r.first.digest {
        r.failed += 1;
        r.problems
            .push("the traced pass ended in another digest".into());
    }
    let span_totals = totals(tracer.spans());
    let span_us = |name: &str| {
        span_totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64 / 1e3)
    };

    let best = best_of(&r.unit_ns);
    let t = UnitTimes::group(&world.script, &best);
    let c = &traced.counters;
    let best_pass_ns = r.unit_ns.iter().map(|p| sum(p)).min().unwrap_or(1);
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let round_ms: Vec<f64> = t.rounds.iter().map(|&ns| ns as f64 / 1e6).collect();
    let run_ms: Vec<f64> = t.async_runs.iter().map(|&ns| ns as f64 / 1e6).collect();
    let sim_ticks = SimTime::from_secs(w.async_units as u64 * w.async_unit_secs).as_ticks();
    let period_ticks = proto_config(opts.seed).timing.cycle_period;
    let (ace, flood, cache) = (&c.ace, &c.flood, &c.core_cache);
    let [probe, table, relay, reconnect, probe_retry, control_retry] =
        c.overhead_msgs.map(|msgs| ratio(msgs, c.peer_rounds));

    #[rustfmt::skip]
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("topology.generate.world_ms", world.times.world_ms),
        ("overlay.network.leave_us", span_us("overlay.network.leave")),
        ("overlay.network.join_us", span_us("overlay.network.join")),
        ("overlay.serve.flood_ns_per_msg", ratio(sum(&t.batch_flood), flood.messages)),
        ("overlay.serve.ace_ns_per_msg", ratio(sum(&t.batch_ace), ace.messages)),
        ("overlay.serve.msgs_per_query_flood", ratio(flood.messages, flood.queries)),
        ("overlay.serve.msgs_per_query_ace", ratio(ace.messages, ace.queries)),
        ("overlay.serve.dup_ratio_flood", ratio(flood.duplicates, flood.messages)),
        ("overlay.serve.dup_ratio_ace", ratio(ace.duplicates, ace.messages)),
        ("overlay.search.single_ns_per_msg", ratio(sum(&t.queries), c.single_msgs)),
        ("overlay.serve.batch_vs_single",
            ratio(sum(&t.batch_ace), ace.queries) / ratio(sum(&t.queries), t.queries.len() as u64)),
        ("overlay.serve.skipped", c.skipped as f64),
        ("core.engine.round_ms_p50", median(&round_ms)),
        ("core.engine.round_ms_max", round_ms.iter().copied().fold(0.0, f64::max)),
        ("core.engine.round_ms_first", round_ms[0]),
        ("core.engine.round_ms_last", round_ms[round_ms.len() - 1]),
        ("core.engine.warmup_s", warmup_s),
        ("core.engine.plan_skip_ratio", ratio(c.plans_skipped, c.trees_built)),
        ("core.engine.replaced_per_round", ratio(c.replaced, c.rounds)),
        ("core.engine.added_per_round", ratio(c.added, c.rounds)),
        ("core.engine.on_leave_us", span_us("core.engine.on_leave")),
        ("core.engine.on_crash_us", span_us("core.engine.on_crash")),
        ("core.engine.on_join_us", span_us("core.engine.on_join")),
        ("core.core_cache.hit_ratio", ratio(cache.hits, cache.hits + cache.misses)),
        ("core.core_cache.bytes_mb", cache.bytes as f64 / (1024.0 * 1024.0)),
        ("core.core_cache.evictions", cache.evictions as f64),
        ("core.core_cache.purged", cache.purged as f64),
        ("core.autorate.due_ratio", ratio(c.trees_built, c.peer_rounds)),
        ("core.autorate.soft_state_bytes", c.controller.soft_state_bytes as f64),
        ("core.overhead.msgs_per_peer_round.probe", probe),
        ("core.overhead.msgs_per_peer_round.table_exchange", table),
        ("core.overhead.msgs_per_peer_round.closure_relay", relay),
        ("core.overhead.msgs_per_peer_round.reconnect", reconnect),
        ("core.overhead.msgs_per_peer_round.probe_retry", probe_retry),
        ("core.overhead.msgs_per_peer_round.control_retry", control_retry),
        ("core.protocol.run_until_ms_p50", median(&run_ms)),
        ("core.protocol.events_per_period", c.delivered as f64 * period_ticks as f64 / sim_ticks as f64),
        ("core.protocol.peer_leave_us", span_us("core.protocol.peer_leave")),
        ("core.protocol.peer_join_us", span_us("core.protocol.peer_join")),
        ("core.netem.lost_ratio", ratio(c.netem.lost, c.netem.sent)),
        ("core.netem.retransmit_ratio", ratio(c.netem.retransmits, c.netem.sent)),
        ("core.netem.deduped", c.netem.deduped as f64),
        ("harness.trace_overhead_ratio", ratio(sum(&traced.unit_ns), best_pass_ns)),
        ("harness.replay_spread", replay_spread(&r.unit_ns)),
        ("host.ref_ms", median(&r.ref_ms)),
    ]);
    probes::run(&world, &snap, &traced, &mut v);
    // Last, so that it also sees the distance queries of the probes'
    // engine legs on the workload's own plane.
    let rows = world.plane.plane_stats().cache;
    v.insert(
        "topology.oracle.cache_hit_ratio",
        ratio(rows.hits, rows.hits + rows.misses),
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&def| {
            let value = v
                .get(def.name)
                .ok_or_else(|| format!("{}: {} was not measured", w.name, def.name))?;
            Ok(Metric { def, value: *value })
        })
        .collect::<Result<_, String>>()?;
    let report = finish(w, opts, &r, metrics)?;

    let file = TraceFile {
        workload: w.name.to_string(),
        seed: opts.seed,
        noisy_run: report.noisy_run,
        counters: counter_map(c),
        self_time: span_totals,
        metrics: v,
        spans: tracer.spans().to_vec(),
    };
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            let text = serde_json::to_string(&file).expect("the vendored printer is infallible");
            std::fs::write(&path, text)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}
