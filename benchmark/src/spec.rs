//! What the benchmark runs and what it reports: the four workloads, the
//! metric names with their units, and the reader for `BENCHMARK.json`
//! (which mirrors these tables — a test holds the two together).

use std::path::PathBuf;

use serde::{Deserialize, Value};

/// Which distance plane a workload's world is priced on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlaneKind {
    /// `HybridOracle` (Vivaldi coordinates plus exact tiers).
    Hybrid,
    /// Exact `DistanceOracle`, one row per peer host warmed in set-up.
    Exact,
}

/// Which round schedule a workload's engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Plan/commit pipeline on one worker.
    Planned,
    /// Plan/commit pipeline with the autonomic rate controller on.
    PlannedAutorate,
    /// The paper's serial random-order schedule with h = 2 closures.
    SerialH2,
}

/// One workload: a world, an engine regime and the script of units a
/// pass replays. Every workload runs every kind of unit, because the
/// driver reads every end-to-end metric from every workload (README,
/// "The driver's contract"); what differs is the regime and which
/// sections are the long ones.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Seed used when `--seed` is absent.
    pub default_seed: u64,
    /// Logical peers.
    pub peers: usize,
    /// Autonomous systems of the two-level physical topology.
    pub as_count: usize,
    /// Routers per autonomous system.
    pub nodes_per_as: usize,
    /// Distance plane.
    pub plane: PlaneKind,
    /// Round schedule.
    pub schedule: Schedule,
    /// Optimisation rounds run once before the snapshot every pass
    /// starts from (outside `setup_s` and outside every pass).
    pub warm_rounds: usize,
    /// Rounds at the head of a pass.
    pub head_rounds: usize,
    /// 32-query `serve_batch` calls per policy (ACE on the current
    /// overlay, then the same batches flooded on the initial one).
    pub serve_batches: usize,
    /// Single queries through `run_query_into`.
    pub single_queries: usize,
    /// Churn blocks; each is `events_per_block` lifecycle events
    /// followed by one round.
    pub churn_blocks: usize,
    /// Lifecycle events per churn block.
    pub events_per_block: usize,
    /// `AsyncAceSim::run_until` units on a fresh simulator.
    pub async_units: usize,
    /// Simulated seconds each async unit advances.
    pub async_unit_secs: u64,
    /// Peers flipped (`peer_leave` / `peer_join`) between async units.
    pub async_flips: usize,
    /// Queries of the probe set the simulated metrics are taken on.
    pub probe_queries: usize,
}

/// Queries per `serve_batch` unit.
pub const BATCH: usize = 32;

/// `run_seconds` in `BENCHMARK.json`: about what five passes of the
/// scripts below measure on the reference host. `--seconds N` scales the
/// units per pass by N ÷ this, never the number of passes.
pub const DEFAULT_SECONDS: u64 = 20;

/// The four workloads at full scale. The sections a workload exists for
/// are sized for a best-of window of about 1 s; the other sections get
/// what is left of a pass of 3–4 s, and at least what their metric needs
/// (README, "Sizing").
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold_scale_20k",
        default_seed: 97,
        peers: 20_000,
        as_count: 200,
        nodes_per_as: 500,
        plane: PlaneKind::Hybrid,
        schedule: Schedule::Planned,
        warm_rounds: 0,
        head_rounds: 8,
        serve_batches: 1,
        single_queries: 100,
        churn_blocks: 1,
        events_per_block: 100,
        async_units: 4,
        async_unit_secs: 1,
        async_flips: 10,
        probe_queries: 48,
    },
    Workload {
        name: "steady_churn_5k",
        default_seed: 97,
        peers: 5_000,
        as_count: 50,
        nodes_per_as: 500,
        plane: PlaneKind::Hybrid,
        schedule: Schedule::PlannedAutorate,
        warm_rounds: 30,
        head_rounds: 0,
        serve_batches: 2,
        single_queries: 100,
        churn_blocks: 18,
        events_per_block: 10,
        async_units: 4,
        async_unit_secs: 5,
        async_flips: 10,
        probe_queries: 128,
    },
    Workload {
        name: "serve_zipf_5k",
        default_seed: 211,
        peers: 5_000,
        as_count: 50,
        nodes_per_as: 500,
        plane: PlaneKind::Hybrid,
        schedule: Schedule::Planned,
        warm_rounds: 10,
        head_rounds: 3,
        serve_batches: 12,
        single_queries: 380,
        churn_blocks: 1,
        events_per_block: 200,
        async_units: 4,
        async_unit_secs: 5,
        async_flips: 10,
        probe_queries: 128,
    },
    Workload {
        name: "paper_async_2k",
        default_seed: 31,
        peers: 2_000,
        as_count: 20,
        nodes_per_as: 500,
        plane: PlaneKind::Exact,
        schedule: Schedule::SerialH2,
        warm_rounds: 0,
        head_rounds: 23,
        serve_batches: 4,
        single_queries: 150,
        churn_blocks: 1,
        events_per_block: 400,
        async_units: 20,
        async_unit_secs: 15,
        async_flips: 10,
        probe_queries: 128,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The script sized for `--seconds`: units per pass scale with
    /// `seconds ÷ DEFAULT_SECONDS`, rounded up, so that the work is fixed
    /// by the arguments and never by the clock. The p90 metrics keep the
    /// 100 events and queries they need.
    pub fn for_seconds(self, seconds: u64) -> Workload {
        let scale = |units: usize| (units as u64 * seconds).div_ceil(DEFAULT_SECONDS) as usize;
        Workload {
            head_rounds: scale(self.head_rounds),
            serve_batches: scale(self.serve_batches).max(1),
            single_queries: scale(self.single_queries).max(100),
            churn_blocks: scale(self.churn_blocks).max(100usize.div_ceil(self.events_per_block)),
            async_units: scale(self.async_units).max(1),
            ..self
        }
    }

    /// The `--quick` variant: a 300-peer world and a short script that
    /// still has the ≥ 100 events and queries the p90 metrics need.
    pub fn quick(self) -> Workload {
        Workload {
            peers: 300,
            as_count: 3,
            nodes_per_as: 500,
            warm_rounds: self.warm_rounds.min(3),
            head_rounds: self.head_rounds.min(3),
            serve_batches: self.serve_batches.min(2),
            single_queries: 100,
            churn_blocks: self.churn_blocks.min(10),
            async_units: self.async_units.min(3),
            events_per_block: self.events_per_block.min(100),
            probe_queries: 16,
            ..self
        }
    }
}

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics, emitted by the untraced run.
pub const END_TO_END: [MetricDef; 14] = [
    m("setup_s", "s"),
    m("peer_rounds_per_s", "1/s"),
    m("churn_event_us_p50", "us"),
    m("churn_event_us_p90", "us"),
    m("qps_ace", "1/s"),
    m("qps_flood", "1/s"),
    m("query_us_p50", "us"),
    m("query_us_p90", "us"),
    m("events_per_s", "1/s"),
    m("peak_rss_mb", "MiB"),
    m("traffic_ratio", "ratio"),
    m("scope_ratio", "ratio"),
    m("response_ratio", "ratio"),
    m("overhead_per_peer_round", "cost"),
];

/// The per-layer metrics, emitted by the traced run (layer =
/// `crate.module`).
pub const PER_LAYER: [MetricDef; 65] = [
    m("topology.generate.world_ms", "ms"),
    m("topology.hybrid.build_ms", "ms"),
    m("topology.hybrid.distance_ns", "ns"),
    m("topology.hybrid.coord_share", "ratio"),
    m("topology.oracle.cold_row_us", "us"),
    m("topology.oracle.hit_ns", "ns"),
    m("topology.oracle.cache_hit_ratio", "ratio"),
    m("engine.pool.round_speedup_w2", "ratio"),
    m("engine.pool.serve_speedup_w2", "ratio"),
    m("engine.queue.push_pop_ns", "ns"),
    m("overlay.network.leave_us", "us"),
    m("overlay.network.join_us", "us"),
    m("overlay.network.rewire_ns", "ns"),
    m("overlay.serve.flood_ns_per_msg", "ns"),
    m("overlay.serve.ace_ns_per_msg", "ns"),
    m("overlay.serve.msgs_per_query_flood", "count"),
    m("overlay.serve.msgs_per_query_ace", "count"),
    m("overlay.serve.dup_ratio_flood", "ratio"),
    m("overlay.serve.dup_ratio_ace", "ratio"),
    m("overlay.search.single_ns_per_msg", "ns"),
    m("overlay.serve.batch_vs_single", "ratio"),
    m("overlay.serve.skipped", "count"),
    m("core.engine.round_ms_p50", "ms"),
    m("core.engine.round_ms_max", "ms"),
    m("core.engine.round_ms_first", "ms"),
    m("core.engine.round_ms_last", "ms"),
    m("core.engine.warmup_s", "s"),
    m("core.engine.plan_skip_ratio", "ratio"),
    m("core.engine.replaced_per_round", "count"),
    m("core.engine.added_per_round", "count"),
    m("core.engine.phase1_probe_us", "us"),
    m("core.engine.build_tree_us", "us"),
    m("core.engine.optimize_peer_us", "us"),
    m("core.engine.tree_round_ms", "ms"),
    m("core.engine.on_leave_us", "us"),
    m("core.engine.on_crash_us", "us"),
    m("core.engine.on_join_us", "us"),
    m("core.core_cache.hit_ratio", "ratio"),
    m("core.core_cache.bytes_mb", "MiB"),
    m("core.core_cache.evictions", "count"),
    m("core.core_cache.purged", "count"),
    m("core.mst.prim_ns_per_edge", "ns"),
    m("core.mst.prim_heap_ns_per_edge", "ns"),
    m("core.closure.collect_us_h1", "us"),
    m("core.closure.collect_us_h2", "us"),
    m("core.policy.forward_targets_ns", "ns"),
    m("core.autorate.round_overhead_ratio", "ratio"),
    m("core.autorate.due_ratio", "ratio"),
    m("core.autorate.soft_state_bytes", "B"),
    m("core.overhead.msgs_per_peer_round.probe", "count"),
    m("core.overhead.msgs_per_peer_round.table_exchange", "count"),
    m("core.overhead.msgs_per_peer_round.closure_relay", "count"),
    m("core.overhead.msgs_per_peer_round.reconnect", "count"),
    m("core.overhead.msgs_per_peer_round.probe_retry", "count"),
    m("core.overhead.msgs_per_peer_round.control_retry", "count"),
    m("core.protocol.run_until_ms_p50", "ms"),
    m("core.protocol.events_per_period", "count"),
    m("core.protocol.peer_leave_us", "us"),
    m("core.protocol.peer_join_us", "us"),
    m("core.netem.lost_ratio", "ratio"),
    m("core.netem.retransmit_ratio", "ratio"),
    m("core.netem.deduped", "count"),
    m("harness.trace_overhead_ratio", "ratio"),
    m("harness.replay_spread", "ratio"),
    m("host.ref_ms", "ms"),
];

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, Deserialize)]
pub struct BoundedMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the median by which the metric may worsen.
    pub bound: f64,
}

/// A named entry of `BENCHMARK.json` (`workloads`, `per_layer`); the
/// other keys of the entry are not needed here.
#[derive(Clone, Debug)]
pub struct Named {
    /// Entry name.
    pub name: String,
    /// Unit, when the entry has one.
    pub unit: Option<String>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Clone, Debug)]
pub struct Contract {
    /// `run_seconds`.
    pub run_seconds: u64,
    /// `workloads`.
    pub workloads: Vec<Named>,
    /// `end_to_end`.
    pub end_to_end: Vec<BoundedMetric>,
    /// `per_layer`.
    pub per_layer: Vec<Named>,
}

/// The value of `name` in a JSON object (`None` for a missing key or a
/// value that is no object).
pub fn field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

impl Contract {
    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a missing key.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let key = |k: &str| field(&root, k).ok_or_else(|| format!("BENCHMARK.json has no `{k}`"));
        let named = |k: &str| -> Result<Vec<Named>, String> {
            key(k)?
                .as_array()
                .ok_or_else(|| format!("`{k}` is not a list"))?
                .iter()
                .map(|entry| {
                    let text = |f: &str| field(entry, f).and_then(|v| String::from_value(v).ok());
                    Ok(Named {
                        name: text("name").ok_or_else(|| format!("`{k}` entry without a name"))?,
                        unit: text("unit"),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: u64::from_value(key("run_seconds")?).map_err(|e| e.to_string())?,
            workloads: named("workloads")?,
            end_to_end: Vec::from_value(key("end_to_end")?).map_err(|e| e.to_string())?,
            per_layer: named("per_layer")?,
        })
    }

    /// Reads `BENCHMARK.json` from the working directory or its parent
    /// (the benchmark is run from the repo root or from `benchmark/`).
    ///
    /// # Errors
    ///
    /// Fails when neither place has a readable, well-formed file.
    pub fn load() -> Result<Self, String> {
        let path = ["BENCHMARK.json", "../BENCHMARK.json"]
            .iter()
            .map(PathBuf::from)
            .find(|p| p.is_file())
            .ok_or("no BENCHMARK.json in the working directory or its parent")?;
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// The declared bound of an end-to-end metric.
    pub fn bound(&self, metric: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == metric)
            .map(|m| m.bound)
    }
}
