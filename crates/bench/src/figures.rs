//! One reproduction function per shared sweep, and the [`FIGURES`] table
//! that `repro` runs them from.
//!
//! Each function builds its workloads through `ace_core::experiments` and
//! returns one [`ExperimentRecord`] (persisted as JSON by `repro`) with its
//! human-readable [`Table`]s per record id. Figure numbering follows the
//! paper:
//!
//! * Tables 1–2 — query paths/costs on 1- and 2-closure trees (§3.4);
//! * Figures 7–8 — static traffic / response vs optimization steps (§5.1);
//! * Figures 9–10 — dynamic traffic / response under churn (§5.2);
//! * Figures 11–16 — closure-depth and frequency-ratio tradeoffs (§5.3);
//! * extensions/ablations — index caching (§5.2), replacement policies
//!   (§6), landmark clustering (§2), phase contributions, TTL and overlay
//!   families.

use ace_core::experiments::{
    depth_sweep, dynamic_run, landmark_overlay, measure_queries, static_run, DepthPoint,
    DepthSweepConfig, DynamicConfig, OverlayKind, PhysKind, Scenario, ScenarioConfig, StaticConfig,
    StaticResult,
};
use ace_core::ltm::{LtmConfig, LtmEngine};
use ace_core::protocol::{AsyncAceSim, AsyncForward, ProtoConfig};
use ace_core::{AceConfig, AceEngine, AceForward, OverheadKind, ProbeModel, ReplacePolicy};
use ace_engine::pool::{effective_workers, plan_parallel};
use ace_engine::rng::sample_distinct;
use ace_metrics::{f1, f3, pct, ExperimentRecord, NamedSeries, Table};
use ace_overlay::{
    assign_capacities, random_overlay, random_walk_query, run_query, run_query_traced,
    zipf_workload, FloodAll, ForwardPolicy, GiaAdaptation, GiaConfig, HpfWeight, Overlay,
    PartialFlood, PeerId, QueryConfig, QuerySpec, TwoTierConfig, TwoTierNetwork, WalkConfig,
    GNUTELLA_CAPACITY_MIX,
};
use ace_topology::{
    DistanceOracle, DistancePlane, Graph, LandmarkOracle, NodeId, VivaldiConfig, VivaldiCoords,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Scale;

/// The paper's average-connection sweep.
pub const C_SWEEP: [usize; 4] = [4, 6, 8, 10];
/// Frequency-ratio curves of Figures 13–14 (the paper sweeps 1.0–2.0; we
/// extend to 4.0 because our byte-level overhead accounting shifts the
/// break-even point to slightly larger R — see EXPERIMENTS.md).
pub const R_CURVES: [f64; 6] = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0];
/// Frequency-ratio x-axis of Figures 15–16.
pub const R_AXIS: [f64; 8] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0];

/// What a figure function returns: `(record, tables)` per record id.
pub type Records = Vec<(ExperimentRecord, Vec<Table>)>;

/// One row of the figure table. A figure is a selection of records from
/// a shared sweep, not a program: `run` computes the sweep once however
/// many of the row's `ids` were asked for.
pub struct Figure {
    /// Record ids the run emits, in order — the file names under
    /// `target/experiments/`.
    pub ids: &'static [&'static str],
    /// What `repro list` says about the row.
    pub about: &'static str,
    /// Computes every record of the row at the given scale.
    pub run: fn(Scale) -> Records,
}

/// The whole evaluation, in the order `repro all` walks it.
pub const FIGURES: [Figure; 20] = [
    Figure {
        ids: &["table01_02"],
        about: "Tables 1-2: query paths and costs on closure trees (§3.4)",
        run: table01_02,
    },
    Figure {
        ids: &["fig07", "fig08"],
        about: "Figures 7-8: traffic and response time vs steps (§5.1)",
        run: fig07_08,
    },
    Figure {
        ids: &["fig09", "fig10"],
        about: "Figures 9-10: traffic and response time under churn (§5.2)",
        run: fig09_10,
    },
    Figure {
        ids: &["fig11", "fig12", "fig13", "fig14", "fig15", "fig16"],
        about:
            "Figures 11-16: reduction, overhead and optimization rate vs closure depth and R (§5.3)",
        run: depth_figures,
    },
    Figure {
        ids: &["ext_cache"],
        about: "§5.2 extension: ACE plus a 200-item response index cache",
        run: ext_cache,
    },
    Figure {
        ids: &["ext_async"],
        about: "the message-level asynchronous protocol vs the round harness",
        run: ext_async,
    },
    Figure {
        ids: &["ext_async_churn"],
        about: "the asynchronous protocol under churn, path stretch",
        run: ext_async_churn,
    },
    Figure {
        ids: &["ext_search_strategies"],
        about: "flooding, HPF, k-walkers and ACE trees",
        run: ext_search_strategies,
    },
    Figure {
        ids: &["ext_supernode"],
        about: "ACE applied to a KaZaA-style supernode core",
        run: ext_supernode,
    },
    Figure {
        ids: &["ext_random_walk"],
        about: "k-walker random walks before and after matching",
        run: ext_random_walk,
    },
    Figure {
        ids: &["baseline_gia"],
        about: "Gia capacity adaptation alongside ACE's physical matching",
        run: baseline_gia,
    },
    Figure {
        ids: &["baseline_ltm"],
        about: "ACE vs LTM (detector-based matching) vs blind flooding",
        run: baseline_ltm,
    },
    Figure {
        ids: &["ablation_policies"],
        about: "§6 replacement policies: Random, Naive, Closest",
        run: ablation_policies,
    },
    Figure {
        ids: &["ablation_landmark"],
        about: "§2 landmark clustering vs random attachment vs ACE",
        run: ablation_landmark,
    },
    Figure {
        ids: &["ablation_phases"],
        about: "phase 2 (trees) alone vs phases 2+3 (reconnection)",
        run: ablation_phases,
    },
    Figure {
        ids: &["ablation_ttl"],
        about: "the TTL at which ACE's scope-retention claim holds",
        run: ablation_ttl,
    },
    Figure {
        ids: &["ablation_overlays"],
        about: "clustered vs random vs preferential attachment",
        run: ablation_overlays,
    },
    Figure {
        ids: &["ablation_estimation"],
        about: "ACE on noisy estimators (Vivaldi, landmarks)",
        run: ablation_estimation,
    },
    Figure {
        ids: &["ablation_min_flooding"],
        about: "scope-guard sweep: links kept vs pruning",
        run: ablation_min_flooding,
    },
    Figure {
        ids: &["ablation_load"],
        about: "forwarding-load concentration, ACE trees vs flooding",
        run: ablation_load,
    },
];

fn base_scenario(scale: Scale, avg_degree: usize, seed: u64) -> ScenarioConfig {
    let (as_count, nodes_per_as) = scale.phys();
    ScenarioConfig {
        phys: PhysKind::TwoLevel {
            as_count,
            nodes_per_as,
        },
        peers: scale.peers(),
        avg_degree,
        overlay: OverlayKind::Clustered,
        objects: 500,
        replicas: 8,
        zipf: 0.8,
        seed,
    }
}

// ---------------------------------------------------------------------
// Tables 1 & 2 — the §3.4 walk-through example
// ---------------------------------------------------------------------

fn peer_name(p: PeerId) -> String {
    char::from(b'A' + p.raw() as u8).to_string()
}

/// Record every query transmission (including duplicates) in send order.
fn record_transmissions<P: ForwardPolicy + ?Sized>(
    ov: &Overlay,
    oracle: &dyn DistancePlane,
    src: PeerId,
    policy: &P,
) -> (Vec<(PeerId, PeerId, u32)>, f64, u64) {
    let mut sends = Vec::new();
    // The default TTL of 7 never expires on the six-peer example.
    let out = run_query_traced(
        ov,
        oracle,
        src,
        &QueryConfig::default(),
        policy,
        |_| false,
        |from, to, cost| sends.push((from, to, cost)),
    );
    (sends, out.traffic_cost, out.duplicates)
}

/// The 6-peer two-site example of §3.4: query paths and costs under blind
/// flooding and on trees built in 1- and 2-neighbor closures (the paper's
/// Tables 1 and 2). Exact published costs are not recoverable from the
/// source text; the reproduced invariant is the *ordering*:
/// `cost(flooding) > cost(h=1) > cost(h=2)` with duplicates shrinking.
pub fn table01_02(_scale: Scale) -> Records {
    // Physical: two 3-router sites joined by one expensive link.
    let mut g = Graph::new(6);
    for (a, b, w) in [
        (0, 1, 2),
        (1, 2, 3),
        (0, 2, 4),
        (3, 4, 2),
        (4, 5, 3),
        (3, 5, 4),
        (2, 3, 40),
    ] {
        g.add_edge(NodeId::new(a), NodeId::new(b), w).unwrap();
    }
    let oracle = DistanceOracle::new(g);
    // Mismatched overlay: local chains plus three cross-site links.
    let mut ov = Overlay::new((0..6).map(NodeId::new).collect(), None);
    for (a, b) in [
        (0, 1),
        (1, 2),
        (3, 4),
        (4, 5),
        (3, 5),
        (0, 3),
        (1, 4),
        (2, 5),
    ] {
        ov.connect(PeerId::new(a), PeerId::new(b)).unwrap();
    }
    let src = PeerId::new(0);

    let mut tables = Vec::new();
    let mut rec = ExperimentRecord::new(
        "table01_02",
        "Query paths and costs on closure trees (paper §3.4, Tables 1-2)",
    );
    let mut totals = NamedSeries::new("total cost");
    let mut dup_series = NamedSeries::new("duplicate transmissions");

    let render = |label: &str, sends: &[(PeerId, PeerId, u32)], total: f64| {
        let mut t = Table::new(["from", "to", "cost"]);
        for &(a, b, c) in sends {
            t.row([peer_name(a), peer_name(b), c.to_string()]);
        }
        t.row(["total".to_string(), format!("({label})"), f1(total)]);
        t
    };

    let (sends, total, dups) = record_transmissions(&ov, &oracle, src, &FloodAll);
    tables.push(render("blind flooding", &sends, total));
    totals.push(0.0, total);
    dup_series.push(0.0, dups as f64);
    let flood_total = total;

    for h in [1u8, 2u8] {
        let mut engine = AceEngine::new(
            6,
            AceConfig {
                depth: h,
                min_flooding: 1,
                ..AceConfig::paper_default()
            },
        );
        engine.tree_round(&ov, &oracle);
        let fwd = AceForward::new(&engine);
        let (sends, total, dups) = record_transmissions(&ov, &oracle, src, &fwd);
        tables.push(render(&format!("trees, h={h}"), &sends, total));
        totals.push(f64::from(h), total);
        dup_series.push(f64::from(h), dups as f64);
        assert!(
            total <= flood_total,
            "closure trees must not cost more than flooding"
        );
    }
    rec.param("peers", 6).param("source", "A");
    rec.add_series(totals).add_series(dup_series);
    vec![(rec, tables)]
}

// ---------------------------------------------------------------------
// Figures 7 & 8 — static environment
// ---------------------------------------------------------------------

/// Shared static sweep over the paper's average-connection values, one
/// independent world (seed `40 + C`) per value, scheduled across the
/// worker pool; inside each world the engine itself runs its rounds
/// through the parallel plan/commit pipeline (results are bit-identical
/// to the serial engine's planned mode regardless of the host's core
/// count).
pub fn compute_static(scale: Scale) -> Vec<(usize, StaticResult)> {
    let runs = plan_parallel(C_SWEEP.len(), effective_workers(0), |i| {
        let c = C_SWEEP[i];
        let cfg = StaticConfig {
            scenario: base_scenario(scale, c, 40 + c as u64),
            ace: AceConfig {
                parallel: true,
                ..AceConfig::paper_default()
            },
            steps: scale.steps(),
            query_samples: scale.samples(),
            ttl: 32,
        };
        static_run(&cfg)
    });
    C_SWEEP.iter().copied().zip(runs).collect()
}

/// Figures 7 and 8 from one shared sweep: traffic cost per query and
/// average response time vs optimization steps, one curve per `C`.
pub fn fig07_08(scale: Scale) -> Records {
    let runs = compute_static(scale);

    let mut rec7 = ExperimentRecord::new("fig07", "Traffic cost per query vs optimization steps");
    let mut rec8 = ExperimentRecord::new("fig08", "Average response time vs optimization steps");
    for rec in [&mut rec7, &mut rec8] {
        rec.param("peers", scale.peers())
            .param("phys_nodes", scale.phys().0 * scale.phys().1)
            .param("steps", scale.steps());
    }
    let mut t7 = Table::new(["step", "C=4", "C=6", "C=8", "C=10"]);
    let mut t8 = Table::new(["step", "C=4", "C=6", "C=8", "C=10"]);
    let steps = runs[0].1.steps.len();
    for i in 0..steps {
        let r7: Vec<String> = runs
            .iter()
            .map(|(_, r)| f1(r.steps[i].ace.traffic))
            .collect();
        let r8: Vec<String> = runs
            .iter()
            .map(|(_, r)| f1(r.steps[i].ace.response_ms))
            .collect();
        let mut row7 = vec![i.to_string()];
        row7.extend(r7);
        t7.row(row7);
        let mut row8 = vec![i.to_string()];
        row8.extend(r8);
        t8.row(row8);
    }
    for (c, r) in &runs {
        let mut s7 = NamedSeries::new(format!("C={c}"));
        let mut s8 = NamedSeries::new(format!("C={c}"));
        for st in &r.steps {
            s7.push(st.step as f64, st.ace.traffic);
            s8.push(st.step as f64, st.ace.response_ms);
        }
        rec7.add_series(s7);
        rec8.add_series(s8);
        rec7.param(format!("reduction_C{c}"), pct(r.traffic_reduction()));
        rec8.param(format!("reduction_C{c}"), pct(r.response_reduction()));
        rec7.param(format!("min_scope_ratio_C{c}"), f3(r.min_scope_ratio()));
    }
    vec![(rec7, vec![t7]), (rec8, vec![t8])]
}

// ---------------------------------------------------------------------
// Figures 9 & 10 — dynamic environment
// ---------------------------------------------------------------------

/// Figures 9 and 10: per-query traffic (ACE overhead included) and
/// response time over the query sequence, Gnutella-like flooding vs
/// ACE-enabled, under the paper's churn/workload parameters.
pub fn fig09_10(scale: Scale) -> Records {
    let scenario = base_scenario(scale, 6, 91);
    let mk = |ace: Option<AceConfig>| {
        let mut cfg = DynamicConfig::paper_default(scenario, ace);
        cfg.total_queries = scale.dynamic_queries();
        cfg.window = (cfg.total_queries / 20).max(50);
        dynamic_run(&cfg)
    };
    let base = mk(None);
    let ace = mk(Some(AceConfig::paper_default()));

    let mut rec9 = ExperimentRecord::new(
        "fig09",
        "Average traffic cost per query in a dynamic environment",
    );
    let mut rec10 =
        ExperimentRecord::new("fig10", "Average response time in a dynamic environment");
    for rec in [&mut rec9, &mut rec10] {
        rec.param("peers", scale.peers())
            .param("queries", scale.dynamic_queries())
            .param("lifetime_mean_min", 10)
            .param("query_rate_per_min", 0.3)
            .param("ace_period_secs", 30);
    }
    rec9.param("churn_events_ace", ace.churn_events);
    rec9.param("total_overhead", f1(ace.total_overhead));
    rec9.param(
        "steady_reduction",
        pct(1.0 - ace.steady_traffic() / base.steady_traffic()),
    );
    rec10.param(
        "steady_reduction",
        pct(1.0 - ace.steady_response_ms() / base.steady_response_ms()),
    );

    let mut t9 = Table::new(["queries", "Gnutella-like", "ACE-enabled"]);
    let mut t10 = Table::new(["queries", "Gnutella-like", "ACE-enabled"]);
    let mut s9b = NamedSeries::new("Gnutella-like");
    let mut s9a = NamedSeries::new("ACE-enabled");
    let mut s10b = NamedSeries::new("Gnutella-like");
    let mut s10a = NamedSeries::new("ACE-enabled");
    for (wb, wa) in base.windows.iter().zip(ace.windows.iter()) {
        t9.row([wb.queries_done.to_string(), f1(wb.traffic), f1(wa.traffic)]);
        t10.row([
            wb.queries_done.to_string(),
            f1(wb.response_ms),
            f1(wa.response_ms),
        ]);
        s9b.push(wb.queries_done as f64, wb.traffic);
        s9a.push(wa.queries_done as f64, wa.traffic);
        s10b.push(wb.queries_done as f64, wb.response_ms);
        s10a.push(wa.queries_done as f64, wa.response_ms);
    }
    rec9.add_series(s9b).add_series(s9a);
    rec10.add_series(s10b).add_series(s10a);
    vec![(rec9, vec![t9]), (rec10, vec![t10])]
}

// ---------------------------------------------------------------------
// Figures 11-16 — closure depth & frequency ratio
// ---------------------------------------------------------------------

/// Depth sweep data per average-connection value: `h = 1..=4` for every
/// `C`, extended to `h = 1..=8` for `C = 4` (Figure 16's axis).
pub struct DepthData {
    /// `(C, points by depth)` in `C_SWEEP` order.
    pub by_c: Vec<(usize, Vec<DepthPoint>)>,
}

/// Runs the closure-depth sweeps shared by Figures 11–16, one world
/// (seed `70 + C`) per `C`, scheduled across the worker pool.
pub fn compute_depth_data(scale: Scale) -> DepthData {
    let sweeps = plan_parallel(C_SWEEP.len(), effective_workers(0), |i| {
        let c = C_SWEEP[i];
        let max_depth = if c == 4 { 8 } else { 4 };
        let cfg = DepthSweepConfig {
            scenario: ScenarioConfig {
                peers: scale.sweep_peers(),
                ..base_scenario(scale, c, 70 + c as u64)
            },
            max_depth,
            steps: scale.steps().min(12),
            query_samples: scale.samples(),
            ttl: 32,
        };
        depth_sweep(&cfg)
    });
    DepthData {
        by_c: C_SWEEP.iter().copied().zip(sweeps).collect(),
    }
}

/// Figures 11–16 from one shared sweep.
pub fn depth_figures(scale: Scale) -> Records {
    let data = compute_depth_data(scale);
    let mut out = Vec::new();

    // Fig 11: traffic reduction rate vs depth, per C.
    let mut rec = ExperimentRecord::new("fig11", "Query traffic reduction rate vs closure depth");
    rec.param("peers", scale.sweep_peers());
    let mut t = Table::new(["h", "C=4", "C=6", "C=8", "C=10"]);
    for h in 1..=4usize {
        let mut row = vec![h.to_string()];
        for (_, pts) in &data.by_c {
            row.push(pct(pts[h - 1].reduction));
        }
        t.row(row);
    }
    for (c, pts) in &data.by_c {
        let mut s = NamedSeries::new(format!("C={c}"));
        for p in pts {
            s.push(f64::from(p.depth), p.reduction * 100.0);
        }
        rec.add_series(s);
    }
    out.push((rec, vec![t]));

    // Fig 12: overhead traffic vs depth, per C.
    let mut rec = ExperimentRecord::new("fig12", "Overhead traffic vs closure depth");
    rec.param("peers", scale.sweep_peers());
    let mut t = Table::new(["h", "C=4", "C=6", "C=8", "C=10"]);
    for h in 1..=4usize {
        let mut row = vec![h.to_string()];
        for (_, pts) in &data.by_c {
            row.push(f1(pts[h - 1].overhead_per_round));
        }
        t.row(row);
    }
    for (c, pts) in &data.by_c {
        let mut s = NamedSeries::new(format!("C={c}"));
        for p in pts {
            s.push(f64::from(p.depth), p.overhead_per_round);
        }
        rec.add_series(s);
    }
    out.push((rec, vec![t]));

    // Figs 13/14: optimization rate vs depth for C=10 / C=4, per R.
    for (id, c, title) in [
        ("fig13", 10usize, "Optimization rate vs depth (C=10)"),
        ("fig14", 4usize, "Optimization rate vs depth (C=4)"),
    ] {
        let pts = &data
            .by_c
            .iter()
            .find(|(cc, _)| *cc == c)
            .expect("C in sweep")
            .1;
        let mut rec = ExperimentRecord::new(id, title);
        rec.param("C", c).param("peers", scale.sweep_peers());
        let mut headers = vec!["h".to_string()];
        headers.extend(R_CURVES.iter().map(|r| format!("R={r}")));
        let mut t = Table::new(headers);
        for p in pts.iter().take(4) {
            let mut row = vec![p.depth.to_string()];
            for &r in &R_CURVES {
                row.push(f3(p.optimization_rate(r)));
            }
            t.row(row);
        }
        for &r in &R_CURVES {
            let mut s = NamedSeries::new(format!("R={r}"));
            for p in pts.iter().take(4) {
                s.push(f64::from(p.depth), p.optimization_rate(r));
            }
            rec.add_series(s);
        }
        out.push((rec, vec![t]));
    }

    // Figs 15/16: optimization rate vs R for C=10 (h=1..4) / C=4 (h=1..8).
    for (id, c, hmax, title) in [
        (
            "fig15",
            10usize,
            4usize,
            "Optimization rate vs frequency ratio (C=10)",
        ),
        (
            "fig16",
            4usize,
            8usize,
            "Optimization rate vs frequency ratio (C=4)",
        ),
    ] {
        let pts = &data
            .by_c
            .iter()
            .find(|(cc, _)| *cc == c)
            .expect("C in sweep")
            .1;
        let hmax = hmax.min(pts.len());
        let mut rec = ExperimentRecord::new(id, title);
        rec.param("C", c).param("peers", scale.sweep_peers());
        let mut headers = vec!["R".to_string()];
        headers.extend((1..=hmax).map(|h| format!("h={h}")));
        let mut t = Table::new(headers);
        for &r in &R_AXIS {
            let mut row = vec![format!("{r}")];
            for p in pts.iter().take(hmax) {
                row.push(f3(p.optimization_rate(r)));
            }
            t.row(row);
        }
        for p in pts.iter().take(hmax) {
            let mut s = NamedSeries::new(format!("h={}", p.depth));
            for &r in &R_AXIS {
                s.push(r, p.optimization_rate(r));
            }
            rec.add_series(s);
        }
        out.push((rec, vec![t]));
    }
    out
}

// ---------------------------------------------------------------------
// Extension: response index caching (§5.2)
// ---------------------------------------------------------------------

/// The §5.2 claim: ACE plus a 200-item response index cache per peer cuts
/// ~75% of traffic and ~70% of response time relative to plain flooding.
pub fn ext_cache(scale: Scale) -> Records {
    let scenario = base_scenario(scale, 6, 123);
    let mk = |ace: Option<AceConfig>, cache: Option<usize>| {
        let mut cfg = DynamicConfig::paper_default(scenario, ace);
        cfg.total_queries = scale.dynamic_queries();
        cfg.window = (cfg.total_queries / 20).max(50);
        cfg.index_cache = cache;
        dynamic_run(&cfg)
    };
    let base = mk(None, None);
    let ace = mk(Some(AceConfig::paper_default()), None);
    let cached = mk(Some(AceConfig::paper_default()), Some(200));

    let mut rec = ExperimentRecord::new(
        "ext_cache",
        "ACE + 200-item response index cache vs plain flooding (dynamic)",
    );
    rec.param("peers", scale.peers()).param("cache_items", 200);
    let mut t = Table::new(["system", "traffic/query", "response ms", "vs flooding"]);
    let rows = [
        (
            "Gnutella flooding",
            base.steady_traffic(),
            base.steady_response_ms(),
        ),
        ("ACE", ace.steady_traffic(), ace.steady_response_ms()),
        (
            "ACE + index cache",
            cached.steady_traffic(),
            cached.steady_response_ms(),
        ),
    ];
    for (name, traffic, resp) in rows {
        t.row([
            name.to_string(),
            f1(traffic),
            f1(resp),
            pct(1.0 - traffic / base.steady_traffic()),
        ]);
    }
    rec.param(
        "traffic_reduction",
        pct(1.0 - cached.steady_traffic() / base.steady_traffic()),
    );
    rec.param(
        "response_reduction",
        pct(1.0 - cached.steady_response_ms() / base.steady_response_ms()),
    );
    let mut s = NamedSeries::new("traffic: flooding/ACE/ACE+cache");
    s.push(0.0, base.steady_traffic());
    s.push(1.0, ace.steady_traffic());
    s.push(2.0, cached.steady_traffic());
    rec.add_series(s);
    vec![(rec, vec![t])]
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// §6 ablation: Random vs Naive vs Closest replacement policies.
pub fn ablation_policies(scale: Scale) -> Records {
    let mut rec = ExperimentRecord::new(
        "ablation_policies",
        "Phase-3 replacement policies: Random vs Naive vs Closest",
    );
    rec.param("peers", scale.peers()).param("C", 6);
    let mut t = Table::new([
        "policy",
        "traffic reduction",
        "response reduction",
        "probe msgs",
        "probe cost",
    ]);
    for (name, policy) in [
        ("Random", ReplacePolicy::Random),
        ("Naive", ReplacePolicy::Naive),
        ("Closest", ReplacePolicy::Closest),
    ] {
        let cfg = StaticConfig {
            scenario: base_scenario(scale, 6, 55),
            ace: AceConfig {
                policy,
                ..AceConfig::paper_default()
            },
            steps: scale.steps(),
            query_samples: scale.samples(),
            ttl: 32,
        };
        let r = static_run(&cfg);
        let probes: u64 = r
            .steps
            .iter()
            .map(|s| s.overhead.count_of(OverheadKind::Probe))
            .sum();
        let probe_cost: f64 = r
            .steps
            .iter()
            .map(|s| s.overhead.cost_of(OverheadKind::Probe))
            .sum();
        t.row([
            name.to_string(),
            pct(r.traffic_reduction()),
            pct(r.response_reduction()),
            probes.to_string(),
            f1(probe_cost),
        ]);
        let mut s = NamedSeries::new(name);
        for st in &r.steps {
            s.push(st.step as f64, st.ace.traffic);
        }
        rec.add_series(s);
    }
    vec![(rec, vec![t])]
}

/// Related-work ablation (§2): landmark-clustered neighbor selection vs
/// random attachment vs ACE's measurement-based adaptation.
pub fn ablation_landmark(scale: Scale) -> Records {
    use ace_topology::generate::{two_level, TwoLevelConfig};
    let (as_count, nodes_per_as) = scale.phys();
    let mut rng = StdRng::seed_from_u64(77);
    let topo = two_level(
        &TwoLevelConfig {
            as_count,
            nodes_per_as,
            ..TwoLevelConfig::default()
        },
        &mut rng,
    );
    let n = topo.graph.node_count();
    let oracle = DistanceOracle::new(topo.graph);
    let peers = scale.peers();
    let hosts: Vec<NodeId> = sample_nodes(&mut rng, n, peers);
    let landmarks: Vec<NodeId> = sample_nodes(&mut rng, n, 8);
    let lm = LandmarkOracle::new(oracle.graph(), landmarks);

    // Three overlays on identical hosts.
    let random = random_overlay(hosts.clone(), 6, None, &mut rng);
    let landmarked = landmark_overlay(hosts.clone(), 6, &lm, &mut rng);
    let mut scenario = Scenario::build(&ScenarioConfig {
        peers,
        ..base_scenario(scale, 6, 77)
    });

    let qc = QueryConfig {
        ttl: 32,
        stop_at_responder: false,
    };
    let sources: Vec<PeerId> = (0..scale.samples())
        .map(|_| PeerId::new(rng.gen_range(0..peers as u32)))
        .collect();
    let measure = |ov: &Overlay, policy: &dyn ForwardPolicy| {
        let mut total = 0.0;
        let mut scope = 0.0;
        for &s in &sources {
            let q = run_query(ov, &oracle, s, &qc, policy, |_| false);
            total += q.traffic_cost;
            scope += q.scope as f64;
        }
        (total / sources.len() as f64, scope / sources.len() as f64)
    };

    let (t_rand, s_rand) = measure(&random, &FloodAll);
    let (t_lm, s_lm) = measure(&landmarked, &FloodAll);
    // ACE on the clustered overlay, converged.
    let mut ace = AceEngine::new(peers, AceConfig::paper_default());
    for _ in 0..scale.steps() {
        ace.round(&mut scenario.overlay, &scenario.oracle, &mut scenario.rng);
    }
    let sources2 = sources.clone();
    let mut total = 0.0;
    let mut scope = 0.0;
    for &s in &sources2 {
        let q = run_query(
            &scenario.overlay,
            &scenario.oracle,
            s,
            &qc,
            &AceForward::new(&ace),
            |_| false,
        );
        total += q.traffic_cost;
        scope += q.scope as f64;
    }
    let (t_ace, s_ace) = (total / sources2.len() as f64, scope / sources2.len() as f64);

    let mut rec = ExperimentRecord::new(
        "ablation_landmark",
        "Landmark clustering vs random attachment vs ACE",
    );
    rec.param("peers", peers).param("landmarks", 8);
    let mut t = Table::new(["scheme", "traffic/query", "avg scope"]);
    t.row([
        "random attachment + flooding".to_string(),
        f1(t_rand),
        f1(s_rand),
    ]);
    t.row([
        "landmark clustering + flooding".to_string(),
        f1(t_lm),
        f1(s_lm),
    ]);
    t.row(["ACE (measurement-based)".to_string(), f1(t_ace), f1(s_ace)]);
    let mut s = NamedSeries::new("traffic: random/landmark/ACE");
    s.push(0.0, t_rand);
    s.push(1.0, t_lm);
    s.push(2.0, t_ace);
    rec.add_series(s);
    vec![(rec, vec![t])]
}

fn sample_nodes(rng: &mut StdRng, n: usize, k: usize) -> Vec<NodeId> {
    sample_distinct(rng, n, k)
        .into_iter()
        .map(|i| NodeId::new(i as u32))
        .collect()
}

/// Phase-contribution ablation: flooding vs trees-only (phase 2) vs full
/// ACE (phases 2+3).
pub fn ablation_phases(scale: Scale) -> Records {
    let scenario_cfg = base_scenario(scale, 8, 88);
    let mut s = Scenario::build(&scenario_cfg);
    let specs = zipf_workload(&s.overlay, &s.catalog, scale.samples(), &mut s.rng);

    let flood = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, 32, &FloodAll);

    // Trees only.
    let mut trees = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    trees.tree_round(&s.overlay, &s.oracle);
    let tree_sample = measure_queries(
        &s.overlay,
        &s.oracle,
        &s.placement,
        &specs,
        32,
        &AceForward::new(&trees),
    );

    // Full ACE to convergence.
    let mut full = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..scale.steps() {
        full.round(&mut s.overlay, &s.oracle, &mut s.rng);
    }
    let full_sample = measure_queries(
        &s.overlay,
        &s.oracle,
        &s.placement,
        &specs,
        32,
        &AceForward::new(&full),
    );

    let mut rec = ExperimentRecord::new(
        "ablation_phases",
        "Contribution of phase 2 (trees) vs phase 3 (reconnection)",
    );
    rec.param("peers", scale.peers()).param("C", 8);
    let mut t = Table::new(["stage", "traffic/query", "response ms", "scope"]);
    for (name, q) in [
        ("blind flooding", flood),
        ("phase 2 trees only", tree_sample),
        ("full ACE (2+3)", full_sample),
    ] {
        t.row([
            name.to_string(),
            f1(q.traffic),
            f1(q.response_ms),
            f1(q.scope),
        ]);
    }
    rec.param(
        "tree_only_reduction",
        pct(1.0 - tree_sample.traffic / flood.traffic),
    );
    rec.param(
        "full_reduction",
        pct(1.0 - full_sample.traffic / flood.traffic),
    );
    let mut series = NamedSeries::new("traffic: flood/trees/full");
    series.push(0.0, flood.traffic);
    series.push(1.0, tree_sample.traffic);
    series.push(2.0, full_sample.traffic);
    rec.add_series(series);
    vec![(rec, vec![t])]
}

/// TTL ablation: tree forwarding dilates hop paths, so small Gnutella TTLs
/// truncate ACE's scope before flooding's — quantifies the TTL needed for
/// the paper's "search scope retained" claim to hold.
pub fn ablation_ttl(scale: Scale) -> Records {
    let scenario_cfg = base_scenario(scale, 6, 99);
    let mut s = Scenario::build(&scenario_cfg);
    let specs = zipf_workload(&s.overlay, &s.catalog, scale.samples(), &mut s.rng);
    let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..scale.steps() {
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
    }

    let mut rec = ExperimentRecord::new(
        "ablation_ttl",
        "Search scope vs TTL: blind flooding vs ACE tree forwarding",
    );
    rec.param("peers", scale.peers());
    let mut t = Table::new(["ttl", "flood scope", "ACE scope", "ACE/flood"]);
    let mut sf = NamedSeries::new("flooding");
    let mut sa = NamedSeries::new("ACE");
    for ttl in [4u8, 5, 6, 7, 8, 10, 12, 16, 24, 32] {
        let f = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, ttl, &FloodAll);
        let a = measure_queries(
            &s.overlay,
            &s.oracle,
            &s.placement,
            &specs,
            ttl,
            &AceForward::new(&ace),
        );
        t.row([
            ttl.to_string(),
            f1(f.scope),
            f1(a.scope),
            f3(if f.scope > 0.0 {
                a.scope / f.scope
            } else {
                1.0
            }),
        ]);
        sf.push(f64::from(ttl), f.scope);
        sa.push(f64::from(ttl), a.scope);
    }
    rec.add_series(sf).add_series(sa);
    vec![(rec, vec![t])]
}

/// Overlay-family ablation: ACE's gain depends on the overlay having
/// local structure (the paper's small-world premise); random-attachment
/// overlays leave phase 2 with star closures.
pub fn ablation_overlays(scale: Scale) -> Records {
    let mut rec = ExperimentRecord::new(
        "ablation_overlays",
        "ACE traffic reduction by overlay family (clustering dependence)",
    );
    rec.param("peers", scale.peers()).param("C", 6);
    let mut t = Table::new([
        "overlay",
        "traffic reduction",
        "response reduction",
        "min scope",
    ]);
    for (name, kind) in [
        ("clustered (small-world)", OverlayKind::Clustered),
        ("random attachment", OverlayKind::Random),
        ("preferential attachment", OverlayKind::PrefAttach),
    ] {
        let cfg = StaticConfig {
            scenario: ScenarioConfig {
                overlay: kind,
                ..base_scenario(scale, 6, 66)
            },
            ace: AceConfig::paper_default(),
            steps: scale.steps(),
            query_samples: scale.samples(),
            ttl: 32,
        };
        let r = static_run(&cfg);
        t.row([
            name.to_string(),
            pct(r.traffic_reduction()),
            pct(r.response_reduction()),
            f3(r.min_scope_ratio()),
        ]);
        let mut s = NamedSeries::new(name);
        for st in &r.steps {
            s.push(st.step as f64, st.ace.traffic);
        }
        rec.add_series(s);
    }
    vec![(rec, vec![t])]
}

/// Baseline comparison against LTM (Location-aware Topology Matching,
/// the authors' companion scheme the paper's §2 discusses): LTM keeps
/// flooding but cuts redundant/slow links via TTL-2 detectors; ACE
/// replaces flooding with spanning trees plus reconnection.
pub fn baseline_ltm(scale: Scale) -> Records {
    let scenario_cfg = base_scenario(scale, 6, 133);

    // Arm 1: untouched flooding.
    let mut s0 = Scenario::build(&scenario_cfg);
    let specs = zipf_workload(&s0.overlay, &s0.catalog, scale.samples(), &mut s0.rng);
    let flood = measure_queries(
        &s0.overlay,
        &s0.oracle,
        &s0.placement,
        &specs,
        32,
        &FloodAll,
    );

    // Arm 2: LTM-optimized topology, still flooding.
    let mut s1 = Scenario::build(&scenario_cfg);
    let mut ltm = LtmEngine::new(LtmConfig::default());
    for _ in 0..scale.steps() {
        ltm.round(&mut s1.overlay, &s1.oracle, &mut s1.rng);
    }
    let ltm_sample = measure_queries(
        &s1.overlay,
        &s1.oracle,
        &s1.placement,
        &specs,
        32,
        &FloodAll,
    );
    let ltm_overhead = ltm.ledger().total_cost();

    // Arm 3: ACE.
    let mut s2 = Scenario::build(&scenario_cfg);
    let mut ace = AceEngine::new(s2.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..scale.steps() {
        ace.round(&mut s2.overlay, &s2.oracle, &mut s2.rng);
    }
    let ace_sample = measure_queries(
        &s2.overlay,
        &s2.oracle,
        &s2.placement,
        &specs,
        32,
        &AceForward::new(&ace),
    );
    let ace_overhead = ace.ledger().total_cost();

    let mut rec = ExperimentRecord::new(
        "baseline_ltm",
        "ACE vs LTM (location-aware topology matching) vs blind flooding",
    );
    rec.param("peers", scale.peers())
        .param("C", 6)
        .param("steps", scale.steps());
    let mut t = Table::new([
        "scheme",
        "traffic/query",
        "response ms",
        "scope",
        "total overhead",
    ]);
    t.row([
        "blind flooding".to_string(),
        f1(flood.traffic),
        f1(flood.response_ms),
        f1(flood.scope),
        "0".to_string(),
    ]);
    t.row([
        "LTM + flooding".to_string(),
        f1(ltm_sample.traffic),
        f1(ltm_sample.response_ms),
        f1(ltm_sample.scope),
        f1(ltm_overhead),
    ]);
    t.row([
        "ACE".to_string(),
        f1(ace_sample.traffic),
        f1(ace_sample.response_ms),
        f1(ace_sample.scope),
        f1(ace_overhead),
    ]);
    rec.param(
        "ltm_reduction",
        pct(1.0 - ltm_sample.traffic / flood.traffic),
    );
    rec.param(
        "ace_reduction",
        pct(1.0 - ace_sample.traffic / flood.traffic),
    );
    let mut series = NamedSeries::new("traffic: flood/LTM/ACE");
    series.push(0.0, flood.traffic);
    series.push(1.0, ltm_sample.traffic);
    series.push(2.0, ace_sample.traffic);
    rec.add_series(series);
    vec![(rec, vec![t])]
}

/// Extension: ACE also helps non-flooding search — k-walker random walks
/// (the paper's reference \[10\]) on the original vs the ACE-matched
/// topology. Walks do not use spanning trees, so any improvement comes
/// purely from phase 3's physical rewiring.
pub fn ext_random_walk(scale: Scale) -> Records {
    let scenario_cfg = base_scenario(scale, 6, 141);
    let mut s = Scenario::build(&scenario_cfg);
    let specs = zipf_workload(&s.overlay, &s.catalog, scale.samples(), &mut s.rng);
    let cfg = WalkConfig::default();

    let walk_avg = |s: &mut Scenario, label: &str| {
        let (mut traffic, mut resp, mut found) = (0.0, 0.0, 0u64);
        for &QuerySpec {
            source: src,
            object: obj,
        } in &specs
        {
            let out = random_walk_query(
                &s.overlay,
                &s.oracle,
                src,
                &cfg,
                |p| s.placement.is_holder(obj, p),
                &mut s.rng,
            );
            traffic += out.traffic_cost;
            if let Some(rt) = out.first_response {
                resp += rt.as_millis_f64();
                found += 1;
            }
        }
        let n = specs.len() as f64;
        let _ = label;
        (
            traffic / n,
            if found > 0 { resp / found as f64 } else { 0.0 },
            found as f64 / n,
        )
    };

    let (t_before, r_before, hit_before) = walk_avg(&mut s, "before");
    let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..scale.steps() {
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
    }
    let (t_after, r_after, hit_after) = walk_avg(&mut s, "after");

    let mut rec = ExperimentRecord::new(
        "ext_random_walk",
        "k-walker random-walk search before vs after ACE topology matching",
    );
    rec.param("peers", scale.peers())
        .param("walkers", cfg.walkers)
        .param("max_hops", cfg.max_hops);
    let mut t = Table::new(["topology", "walk traffic", "walk response ms", "hit rate"]);
    t.row([
        "original".to_string(),
        f1(t_before),
        f1(r_before),
        pct(hit_before),
    ]);
    t.row([
        "ACE-matched".to_string(),
        f1(t_after),
        f1(r_after),
        pct(hit_after),
    ]);
    rec.param("traffic_reduction", pct(1.0 - t_after / t_before));
    rec.param(
        "response_reduction",
        pct(1.0 - r_after / r_before.max(1e-9)),
    );
    let mut series = NamedSeries::new("walk traffic: before/after");
    series.push(0.0, t_before);
    series.push(1.0, t_after);
    rec.add_series(series);
    vec![(rec, vec![t])]
}

/// Extension: the asynchronous protocol under churn — peers crash and
/// rejoin mid-cycle while the message-level implementation keeps
/// optimizing. Reports the traffic trajectory and the path *stretch*
/// (overlay route delay ÷ direct physical delay, 1.0 = perfectly matched).
pub fn ext_async_churn(scale: Scale) -> Records {
    use ace_engine::SimTime;
    let scenario_cfg = base_scenario(scale, 6, 221);
    let s = Scenario::build(&scenario_cfg);
    let oracle = &s.oracle;
    let mut sim = AsyncAceSim::new(s.overlay.clone(), ProtoConfig::default(), 222);
    let mut crng = StdRng::seed_from_u64(223);
    let qc = QueryConfig {
        ttl: 32,
        stop_at_responder: false,
    };

    // Mean stretch of reached peers for a probe query from peer 0.
    let stretch = |sim: &AsyncAceSim| -> (f64, f64, usize) {
        let src = PeerId::new(0);
        if !sim.overlay().is_alive(src) {
            return (0.0, 0.0, 0);
        }
        let fwd = AsyncForward::new(sim);
        let q = run_query(sim.overlay(), oracle, src, &qc, &fwd, |_| false);
        let mut total_stretch = 0.0;
        let mut counted = 0usize;
        for p in sim.overlay().alive_peers() {
            if p == src {
                continue;
            }
            if let Some(t) = q.arrivals[p.index()] {
                let direct = oracle.distance(sim.overlay().host(src), sim.overlay().host(p));
                if direct > 0 {
                    total_stretch += t.as_ticks() as f64 / f64::from(direct);
                    counted += 1;
                }
            }
        }
        let st = if counted > 0 {
            total_stretch / counted as f64
        } else {
            0.0
        };
        (q.traffic_cost, st, q.scope)
    };

    let mut rec = ExperimentRecord::new(
        "ext_async_churn",
        "Asynchronous ACE under churn: traffic and path stretch over time",
    );
    rec.param("peers", scale.peers());
    let mut t = Table::new(["t (s)", "traffic/query", "mean stretch", "scope", "alive"]);
    let mut s_traffic = NamedSeries::new("traffic");
    let mut s_stretch = NamedSeries::new("stretch");
    let minutes = if scale == Scale::Quick { 5u64 } else { 10 };
    for minute in 0..=minutes {
        if minute > 0 {
            sim.run_until(oracle, SimTime::from_secs(minute * 60));
            // Balanced churn ~2% of the population per minute: one join
            // per leave, as in the paper's dynamic environment.
            let churn = (scale.peers() / 50).max(2);
            for _ in 0..churn {
                let victim = PeerId::new(crng.gen_range(0..scale.peers() as u32));
                if sim.overlay().is_alive(victim) && sim.overlay().alive_count() > 2 {
                    sim.peer_leave(oracle, victim);
                }
                let dead: Vec<PeerId> = sim
                    .overlay()
                    .peers()
                    .filter(|&p| !sim.overlay().is_alive(p))
                    .collect();
                if !dead.is_empty() {
                    let joiner = dead[crng.gen_range(0..dead.len())];
                    sim.peer_join(joiner, 6);
                }
            }
        }
        let (traffic, st, scope) = stretch(&sim);
        t.row([
            (minute * 60).to_string(),
            f1(traffic),
            f3(st),
            scope.to_string(),
            sim.overlay().alive_count().to_string(),
        ]);
        s_traffic.push((minute * 60) as f64, traffic);
        s_stretch.push((minute * 60) as f64, st);
    }
    rec.param("final_overhead", f1(sim.ledger().total_cost()));
    rec.add_series(s_traffic).add_series(s_stretch);
    vec![(rec, vec![t])]
}

/// Baseline/composition with Gia-style capacity adaptation (the paper's
/// reference \[4\]): Gia matches capacities, ACE matches physical
/// distances; the experiment shows the two address orthogonal problems
/// and compose.
pub fn baseline_gia(scale: Scale) -> Records {
    let scenario_cfg = base_scenario(scale, 6, 201);
    let mut s = Scenario::build(&scenario_cfg);
    let specs = zipf_workload(&s.overlay, &s.catalog, scale.samples(), &mut s.rng);
    let caps = assign_capacities(s.overlay.peer_count(), &GNUTELLA_CAPACITY_MIX, &mut s.rng);
    let gia = GiaAdaptation::new(caps, GiaConfig::default());

    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new(); // name, traffic, corr, scope
    let flood = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, 32, &FloodAll);
    rows.push((
        "original, flooding".into(),
        flood.traffic,
        gia.capacity_degree_correlation(&s.overlay).unwrap_or(0.0),
        flood.scope,
    ));

    // Gia alone.
    for _ in 0..scale.steps() {
        gia.round(&mut s.overlay, &mut s.rng);
    }
    let gia_sample = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, 32, &FloodAll);
    rows.push((
        "Gia capacity adaptation, flooding".into(),
        gia_sample.traffic,
        gia.capacity_degree_correlation(&s.overlay).unwrap_or(0.0),
        gia_sample.scope,
    ));

    // Gia + ACE composed (alternating rounds on the same overlay).
    let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..scale.steps() {
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
        gia.round(&mut s.overlay, &mut s.rng);
    }
    let both = measure_queries(
        &s.overlay,
        &s.oracle,
        &s.placement,
        &specs,
        32,
        &AceForward::new(&ace),
    );
    rows.push((
        "Gia + ACE composed".into(),
        both.traffic,
        gia.capacity_degree_correlation(&s.overlay).unwrap_or(0.0),
        both.scope,
    ));

    let mut rec = ExperimentRecord::new(
        "baseline_gia",
        "Capacity matching (Gia) vs physical matching (ACE): orthogonal, composable",
    );
    rec.param("peers", scale.peers()).param("C", 6);
    let mut t = Table::new(["system", "traffic/query", "capacity-degree corr", "scope"]);
    let mut series = NamedSeries::new("traffic");
    let mut corr_series = NamedSeries::new("capacity-degree correlation");
    for (i, (name, traffic, corr, scope)) in rows.iter().enumerate() {
        t.row([name.clone(), f1(*traffic), f3(*corr), f1(*scope)]);
        series.push(i as f64, *traffic);
        corr_series.push(i as f64, *corr);
    }
    rec.add_series(series).add_series(corr_series);
    vec![(rec, vec![t])]
}

/// Extension: round-synchronous harness vs the message-level asynchronous
/// protocol implementation — same world, same budget of optimization
/// cycles. Validates that ACE's gains survive real message delays, stale
/// state and unsynchronized peers.
pub fn ext_async(scale: Scale) -> Records {
    use ace_engine::SimTime;
    let scenario_cfg = base_scenario(scale, 6, 191);

    // Arm 1: round-based engine.
    let mut s1 = Scenario::build(&scenario_cfg);
    let specs = zipf_workload(&s1.overlay, &s1.catalog, scale.samples(), &mut s1.rng);
    let flood = measure_queries(
        &s1.overlay,
        &s1.oracle,
        &s1.placement,
        &specs,
        32,
        &FloodAll,
    );
    let mut eng = AceEngine::new(s1.overlay.peer_count(), AceConfig::paper_default());
    let cycles = scale.steps() as u64;
    for _ in 0..cycles {
        eng.round(&mut s1.overlay, &s1.oracle, &mut s1.rng);
    }
    let sync_sample = measure_queries(
        &s1.overlay,
        &s1.oracle,
        &s1.placement,
        &specs,
        32,
        &AceForward::new(&eng),
    );

    // Arm 2: asynchronous protocol on an identical world, run for the same
    // number of 30-second optimization periods.
    let s2 = Scenario::build(&scenario_cfg);
    let mut sim = AsyncAceSim::new(s2.overlay, ProtoConfig::default(), 192);
    sim.run_until(&s2.oracle, SimTime::from_secs(30 * (cycles + 1)));
    let async_sample = {
        let fwd = AsyncForward::new(&sim);
        measure_queries(sim.overlay(), &s2.oracle, &s2.placement, &specs, 32, &fwd)
    };

    let mut rec = ExperimentRecord::new(
        "ext_async",
        "Round-based harness vs message-level asynchronous ACE",
    );
    rec.param("peers", scale.peers())
        .param("cycles", cycles)
        .param("async_messages", sim.messages_delivered());
    let mut t = Table::new(["implementation", "traffic/query", "scope", "overhead"]);
    t.row([
        "blind flooding (baseline)".to_string(),
        f1(flood.traffic),
        f1(flood.scope),
        "0".to_string(),
    ]);
    t.row([
        "round-based engine".to_string(),
        f1(sync_sample.traffic),
        f1(sync_sample.scope),
        f1(eng.ledger().total_cost()),
    ]);
    t.row([
        "asynchronous protocol".to_string(),
        f1(async_sample.traffic),
        f1(async_sample.scope),
        f1(sim.ledger().total_cost()),
    ]);
    rec.param(
        "sync_reduction",
        pct(1.0 - sync_sample.traffic / flood.traffic),
    );
    rec.param(
        "async_reduction",
        pct(1.0 - async_sample.traffic / flood.traffic),
    );
    let mut series = NamedSeries::new("traffic: flood/sync/async");
    series.push(0.0, flood.traffic);
    series.push(1.0, sync_sample.traffic);
    series.push(2.0, async_sample.traffic);
    rec.add_series(series);
    vec![(rec, vec![t])]
}

/// Extension: head-to-head search strategies — blind flooding, HPF-style
/// partial flooding (the authors' ICPP'03 scheme), k-walker random walks,
/// and ACE tree forwarding — all on the same ACE-matched world.
pub fn ext_search_strategies(scale: Scale) -> Records {
    let scenario_cfg = base_scenario(scale, 6, 181);
    let mut s = Scenario::build(&scenario_cfg);
    let specs = zipf_workload(&s.overlay, &s.catalog, scale.samples(), &mut s.rng);
    let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..scale.steps() {
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
    }

    let flood = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, 32, &FloodAll);
    let hpf_policy = PartialFlood::new(&s.oracle, 0.5, 2, HpfWeight::Cheapest);
    let hpf = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, 32, &hpf_policy);
    let tree = measure_queries(
        &s.overlay,
        &s.oracle,
        &s.placement,
        &specs,
        32,
        &AceForward::new(&ace),
    );
    // Random walks measured separately (not a ForwardPolicy propagation).
    let (mut w_traffic, mut w_resp, mut w_hits) = (0.0, 0.0, 0u64);
    let wcfg = WalkConfig::default();
    for &QuerySpec {
        source: src,
        object: obj,
    } in &specs
    {
        let out = random_walk_query(
            &s.overlay,
            &s.oracle,
            src,
            &wcfg,
            |p| s.placement.is_holder(obj, p),
            &mut s.rng,
        );
        w_traffic += out.traffic_cost;
        if let Some(rt) = out.first_response {
            w_resp += rt.as_millis_f64();
            w_hits += 1;
        }
    }
    let n = specs.len() as f64;
    let walks = (
        w_traffic / n,
        if w_hits > 0 {
            w_resp / w_hits as f64
        } else {
            0.0
        },
        w_hits as f64 / n,
    );

    let mut rec = ExperimentRecord::new(
        "ext_search_strategies",
        "Search strategies on the ACE-matched overlay: flooding vs HPF vs walks vs trees",
    );
    rec.param("peers", scale.peers()).param("C", 6);
    let mut t = Table::new([
        "strategy",
        "traffic/query",
        "response ms",
        "scope",
        "success",
    ]);
    t.row([
        "blind flooding".to_string(),
        f1(flood.traffic),
        f1(flood.response_ms),
        f1(flood.scope),
        pct(flood.success),
    ]);
    t.row([
        "HPF partial flooding (50%)".to_string(),
        f1(hpf.traffic),
        f1(hpf.response_ms),
        f1(hpf.scope),
        pct(hpf.success),
    ]);
    t.row([
        "16-walker random walk".to_string(),
        f1(walks.0),
        f1(walks.1),
        "-".to_string(),
        pct(walks.2),
    ]);
    t.row([
        "ACE tree forwarding".to_string(),
        f1(tree.traffic),
        f1(tree.response_ms),
        f1(tree.scope),
        pct(tree.success),
    ]);
    let mut series = NamedSeries::new("traffic: flood/hpf/walk/tree");
    for (i, v) in [flood.traffic, hpf.traffic, walks.0, tree.traffic]
        .into_iter()
        .enumerate()
    {
        series.push(i as f64, v);
    }
    rec.add_series(series);
    vec![(rec, vec![t])]
}

/// Extension: the KaZaA-style two-tier architecture from the paper's
/// introduction — queries flood among supernodes only — and ACE applied
/// to that supernode core. Shows the mismatch problem (and ACE's fix)
/// lives at whichever tier does the flooding.
pub fn ext_supernode(scale: Scale) -> Records {
    let scenario_cfg = base_scenario(scale, 6, 171);
    let mut s = Scenario::build(&scenario_cfg);
    let hosts: Vec<NodeId> = s.overlay.peers().map(|p| s.overlay.host(p)).collect();
    let qc = QueryConfig {
        ttl: 32,
        stop_at_responder: false,
    };
    let samples = scale.samples();

    // Flat Gnutella reference on the same hosts.
    let specs = zipf_workload(&s.overlay, &s.catalog, samples, &mut s.rng);
    let flat = measure_queries(&s.overlay, &s.oracle, &s.placement, &specs, 32, &FloodAll);

    // Two-tier network (random attach, the mismatch-prone default).
    let mut tt = TwoTierNetwork::build(hosts, &TwoTierConfig::default(), &s.oracle, &mut s.rng);
    let leaves: Vec<usize> = (0..samples)
        .map(|_| s.rng.gen_range(0..tt.leaf_count()))
        .collect();
    let measure_tt = |tt: &TwoTierNetwork, policy: &dyn ForwardPolicy, rng_leaves: &[usize]| {
        let mut total = 0.0;
        let mut scope = 0.0;
        for &l in rng_leaves {
            let (outcome, cost) = tt.query_from_leaf(&s.oracle, l, &qc, policy, |_| false);
            total += cost;
            scope += outcome.scope as f64;
        }
        (
            total / rng_leaves.len() as f64,
            scope / rng_leaves.len() as f64,
        )
    };
    let (tt_flood, tt_scope) = measure_tt(&tt, &FloodAll, &leaves);

    // ACE on the supernode core.
    let mut ace = AceEngine::new(tt.core.peer_count(), AceConfig::paper_default());
    let mut arng = StdRng::seed_from_u64(172);
    for _ in 0..scale.steps() {
        ace.round(&mut tt.core, &s.oracle, &mut arng);
    }
    let fwd = AceForward::new(&ace);
    let (tt_ace, tt_ace_scope) = measure_tt(&tt, &fwd, &leaves);

    let mut rec = ExperimentRecord::new(
        "ext_supernode",
        "Two-tier (KaZaA-style) supernode core, with and without ACE",
    );
    rec.param("peers", scale.peers())
        .param("supernodes", tt.supernode_count())
        .param("leaves", tt.leaf_count());
    let mut t = Table::new(["system", "traffic/query", "flooding scope"]);
    t.row([
        "flat Gnutella (all peers flood)".to_string(),
        f1(flat.traffic),
        f1(flat.scope),
    ]);
    t.row([
        "two-tier, flooding core".to_string(),
        f1(tt_flood),
        f1(tt_scope),
    ]);
    t.row([
        "two-tier, ACE-optimized core".to_string(),
        f1(tt_ace),
        f1(tt_ace_scope),
    ]);
    rec.param("core_reduction", pct(1.0 - tt_ace / tt_flood));
    let mut series = NamedSeries::new("traffic: flat/two-tier/two-tier+ACE");
    series.push(0.0, flat.traffic);
    series.push(1.0, tt_flood);
    series.push(2.0, tt_ace);
    rec.add_series(series);
    vec![(rec, vec![t])]
}

/// Measurement-accuracy ablation: ACE driven by noisy delay measurements
/// (e.g. Vivaldi-style coordinate estimates instead of direct probes).
/// The first row reports the accuracy our own Vivaldi embedding reaches
/// on the same physical topology, anchoring the noise sweep in a real
/// estimator.
pub fn ablation_estimation(scale: Scale) -> Records {
    // Measure Vivaldi's accuracy on this world's peer hosts.
    let scenario_cfg = base_scenario(scale, 6, 151);
    let probe_world = Scenario::build(&scenario_cfg);
    let hosts: Vec<NodeId> = probe_world
        .overlay
        .peers()
        .map(|p| probe_world.overlay.host(p))
        .collect();
    let mut vrng = StdRng::seed_from_u64(152);
    let viv = VivaldiCoords::compute(
        &probe_world.oracle,
        &hosts,
        &VivaldiConfig::default(),
        &mut vrng,
    );
    let viv_err = viv.median_relative_error(&probe_world.oracle, 500, &mut vrng);

    let mut rec = ExperimentRecord::new(
        "ablation_estimation",
        "ACE under measurement error (direct probes vs estimator-grade noise)",
    );
    rec.param("peers", scale.peers())
        .param("vivaldi_median_rel_error", pct(viv_err));
    let mut t = Table::new([
        "measurement noise",
        "traffic reduction",
        "response reduction",
        "min scope",
    ]);
    let mut series = NamedSeries::new("reduction vs noise");
    for noise in [0.0f64, 0.1, 0.2, 0.4] {
        let cfg = StaticConfig {
            scenario: scenario_cfg,
            ace: AceConfig {
                probe: ProbeModel::with_noise(noise, 153),
                ..AceConfig::paper_default()
            },
            steps: scale.steps(),
            query_samples: scale.samples(),
            ttl: 32,
        };
        let r = static_run(&cfg);
        let label = if (noise - viv_err).abs() < 0.055 {
            format!("{:.0}% (≈ Vivaldi)", noise * 100.0)
        } else {
            format!("{:.0}%", noise * 100.0)
        };
        t.row([
            label,
            pct(r.traffic_reduction()),
            pct(r.response_reduction()),
            f3(r.min_scope_ratio()),
        ]);
        series.push(noise * 100.0, r.traffic_reduction() * 100.0);
    }
    rec.add_series(series);
    vec![(rec, vec![t])]
}

/// Fairness ablation: does tree-based forwarding concentrate the relay
/// load on a few peers? Measures the per-peer forwarding-load
/// distribution (mean, p95, max, Gini-style top-10% share) under blind
/// flooding vs converged ACE.
pub fn ablation_load(scale: Scale) -> Records {
    let scenario_cfg = base_scenario(scale, 6, 211);
    let mut s = Scenario::build(&scenario_cfg);
    let specs = zipf_workload(&s.overlay, &s.catalog, scale.samples(), &mut s.rng);
    let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
    for _ in 0..scale.steps() {
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);
    }

    let qc = QueryConfig {
        ttl: 32,
        stop_at_responder: false,
    };
    let load_stats = |policy: &dyn ForwardPolicy| {
        let n = s.overlay.peer_count();
        let mut load = vec![0u64; n];
        for &QuerySpec {
            source: src,
            object: obj,
        } in &specs
        {
            let q = run_query(&s.overlay, &s.oracle, src, &qc, policy, |p| {
                s.placement.is_holder(obj, p)
            });
            for (i, &c) in q.sent_by.iter().enumerate() {
                load[i] += u64::from(c);
            }
        }
        let total: u64 = load.iter().sum();
        let mut sorted = load.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = sorted.iter().take(n / 10).sum();
        let mean = total as f64 / n as f64;
        let p95 = sorted[(n as f64 * 0.05) as usize] as f64;
        let max = sorted[0] as f64;
        (mean, p95, max, top10 as f64 / total.max(1) as f64)
    };
    let flood = load_stats(&FloodAll);
    let fwd = AceForward::new(&ace);
    let tree = load_stats(&fwd);

    let mut rec = ExperimentRecord::new(
        "ablation_load",
        "Per-peer forwarding-load distribution: flooding vs ACE trees",
    );
    rec.param("peers", scale.peers())
        .param("queries", scale.samples());
    let mut t = Table::new([
        "policy",
        "mean load",
        "p95 load",
        "max load",
        "top-10% share",
    ]);
    t.row([
        "blind flooding".to_string(),
        f1(flood.0),
        f1(flood.1),
        f1(flood.2),
        pct(flood.3),
    ]);
    t.row([
        "ACE trees".to_string(),
        f1(tree.0),
        f1(tree.1),
        f1(tree.2),
        pct(tree.3),
    ]);
    let mut series = NamedSeries::new("top-10% load share");
    series.push(0.0, flood.3);
    series.push(1.0, tree.3);
    rec.add_series(series);
    vec![(rec, vec![t])]
}

/// Scope-guard ablation: sweep `min_flooding` (the minimum flooding links
/// each peer keeps). 1 = maximal pruning (best traffic, scope risk);
/// higher values trade traffic for scope robustness.
pub fn ablation_min_flooding(scale: Scale) -> Records {
    let mut rec = ExperimentRecord::new(
        "ablation_min_flooding",
        "Scope guard: minimum flooding links vs traffic reduction and scope",
    );
    rec.param("peers", scale.peers()).param("C", 4);
    let mut t = Table::new([
        "min_flooding",
        "traffic reduction",
        "min scope",
        "response reduction",
    ]);
    let results = plan_parallel(4, effective_workers(0), |i| {
        let mf = i + 1;
        let cfg = StaticConfig {
            scenario: base_scenario(scale, 4, 161),
            ace: AceConfig {
                min_flooding: mf,
                ..AceConfig::paper_default()
            },
            steps: scale.steps(),
            query_samples: scale.samples(),
            ttl: 32,
        };
        (mf, static_run(&cfg))
    });
    let mut s_red = NamedSeries::new("traffic reduction %");
    let mut s_scope = NamedSeries::new("min scope ratio");
    for (mf, r) in results {
        t.row([
            mf.to_string(),
            pct(r.traffic_reduction()),
            f3(r.min_scope_ratio()),
            pct(r.response_reduction()),
        ]);
        s_red.push(mf as f64, r.traffic_reduction() * 100.0);
        s_scope.push(mf as f64, r.min_scope_ratio());
    }
    rec.add_series(s_red).add_series(s_scope);
    vec![(rec, vec![t])]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_example_orders_costs() {
        let (rec, tables) = table01_02(Scale::Quick).remove(0);
        assert_eq!(tables.len(), 3);
        let totals = rec.series_by_label("total cost").unwrap();
        let ys: Vec<f64> = totals.points.iter().map(|&(_, y)| y).collect();
        assert!(ys[0] > ys[1], "flooding {} vs h=1 {}", ys[0], ys[1]);
        assert!(ys[1] >= ys[2], "h=1 {} vs h=2 {}", ys[1], ys[2]);
        let dups = rec.series_by_label("duplicate transmissions").unwrap();
        assert!(dups.points[0].1 >= dups.points[2].1);
    }
}
