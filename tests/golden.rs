//! The golden registry: every hand-written pin of a simulated result in
//! the workspace, one `#[test]` per cell.
//!
//! A cell runs a fixed, seeded workload and folds what it measures
//! through `ace_engine::digest`; its golden value is what that fold gave
//! when the cell was captured. A cell that moves fails with
//! `name: golden X, now Y`, and every cell is its own test, so one
//! `cargo test --test golden` run lists every cell that moved with its
//! new value. Re-capturing — copying `now` over `golden` — is legitimate
//! only for a change that means to move what the cell measures; the
//! change's notes say which cells moved and why.
//!
//! * `schedule_*`: both round schedules (`AceConfig::parallel` false =
//!   serial, true = planned) over depth h ∈ {1, 2} × injected faults ×
//!   rate controller, 12 seeds × {Random, Naive, Closest} × 200 peers ×
//!   10 rounds. Each round folds the engine's `state_digest`, the overlay
//!   wiring, the round's counters and overhead, and the pairwise-core
//!   cache counters. The planned schedule is bit-identical for any worker
//!   count, so its three-worker cell shares the one-worker golden.
//!   `schedule_tree_round` folds two `tree_round`s at h ∈ {1, 2, 3}.
//! * `serving_*`: ACE serving (`AceForward` through `run_query_into` and
//!   `serve_batch`) over 3 seeds × 150 peers, after 4 rounds of one
//!   schedule with or without faults, then optionally a churn burst told
//!   to the engine through its lifecycle hooks and optionally link cuts
//!   the engine never hears about.
//! * `kernel_*`: the query-propagation kernel through both drivers, one
//!   cell per (peers, policy), over 3 seeds × ttl ∈ {1, 3, 7} ×
//!   `stop_at_responder` × worker counts × chunk sizes.
//! * `figure_records`: the 22 quick-scale figure records' JSON, in
//!   `figures::FIGURES` order (debug and release builds agree).
//! * `join_targets`: which targets `Overlay::join` picks over a seeded
//!   churn script.
//! * `controller_eviction`: the rate controller's state after four
//!   over-budget periods (its eviction order).

use ace_bench::figures::FIGURES;
use ace_bench::Scale;
use ace_core::experiments::{Scenario, ScenarioConfig};
use ace_core::{
    AceConfig, AceEngine, AceForward, AutoRateConfig, FaultConfig, RateController, RateSample,
    ReplacePolicy, RoundStats,
};
use ace_engine::digest::{fold, Digest};
use ace_engine::SimTime;
use ace_overlay::{
    random_overlay, run_query_into, serve_batch, zipf_workload, Catalog, FloodAll, ForwardPolicy,
    HpfWeight, ObjectId, Overlay, PartialFlood, PeerId, QueryConfig, QueryOutcome, QueryScratch,
    QuerySpec, ServeConfig, ServeReport,
};
use ace_topology::generate::{ba, BaConfig};
use ace_topology::{DistanceOracle, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `name = golden: cell;` — one `#[test]` per cell.
macro_rules! golden {
    ($($name:ident = $golden:literal: $cell:expr;)*) => {$(
        #[test]
        fn $name() {
            let (golden, now): (u64, u64) = ($golden, $cell);
            assert!(
                now == golden,
                "{}: golden {golden:#018x}, now {now:#018x}",
                stringify!($name)
            );
        }
    )*};
}

golden! {
    schedule_serial_h1 = 0x4436_9c13_a6dc_7585: schedule(1, false, false, false, 1);
    schedule_serial_h1_autorate = 0x7929_ee92_785f_d143: schedule(1, false, true, false, 1);
    schedule_serial_h1_faults = 0x1552_1b13_309f_0754: schedule(1, true, false, false, 1);
    schedule_serial_h1_faults_autorate = 0x20f2_7561_efa4_5781: schedule(1, true, true, false, 1);
    schedule_serial_h2 = 0xc11b_0218_a6e3_f451: schedule(2, false, false, false, 1);
    schedule_serial_h2_autorate = 0x2fd3_05c1_d53b_5ff1: schedule(2, false, true, false, 1);
    schedule_serial_h2_faults = 0x4999_b87e_22b3_cab4: schedule(2, true, false, false, 1);
    schedule_serial_h2_faults_autorate = 0x3ebd_0810_8440_f947: schedule(2, true, true, false, 1);
    schedule_planned_h1 = 0x24e3_b375_f94b_3fab: schedule(1, false, false, true, 1);
    schedule_planned_h1_autorate = 0x4085_1477_90f7_1f75: schedule(1, false, true, true, 1);
    schedule_planned_h1_faults = 0x53c7_9838_88c2_e136: schedule(1, true, false, true, 1);
    schedule_planned_h1_faults_autorate = 0xb33d_6426_e923_87c5: schedule(1, true, true, true, 1);
    schedule_planned_h1_faults_autorate_workers3 = 0xb33d_6426_e923_87c5: schedule(1, true, true, true, 3);
    schedule_planned_h2 = 0xb608_1bc1_a69d_e598: schedule(2, false, false, true, 1);
    schedule_planned_h2_autorate = 0xb379_1505_e2d5_eb81: schedule(2, false, true, true, 1);
    schedule_planned_h2_faults = 0x143e_4fc2_bb1d_c7d8: schedule(2, true, false, true, 1);
    schedule_planned_h2_faults_autorate = 0x7c83_40ad_0beb_2d7f: schedule(2, true, true, true, 1);
    schedule_tree_round = 0x0fab_5932_9ae5_7f1a: tree_round();

    serving_serial = 0xc90c_c54b_2ca0_6b02: serving(false, false, false, false);
    serving_serial_blind = 0x9f9c_6b23_6c1d_f709: serving(false, false, false, true);
    serving_serial_churn = 0x71ff_f86e_47e5_9586: serving(false, false, true, false);
    serving_serial_churn_blind = 0xef90_a2d1_ad66_8be2: serving(false, false, true, true);
    serving_serial_faults = 0x5378_66bd_e90e_4584: serving(false, true, false, false);
    serving_serial_faults_blind = 0x1e40_cb87_1cb1_fa10: serving(false, true, false, true);
    serving_serial_faults_churn = 0xfc20_89e1_dd0b_f82c: serving(false, true, true, false);
    serving_serial_faults_churn_blind = 0xc9cf_375b_6235_5721: serving(false, true, true, true);
    serving_planned = 0x75f4_8d3f_1120_525e: serving(true, false, false, false);
    serving_planned_blind = 0xabed_ef86_84b0_123b: serving(true, false, false, true);
    serving_planned_churn = 0xd80b_c300_61f6_998a: serving(true, false, true, false);
    serving_planned_churn_blind = 0x2809_ae84_8c82_0cca: serving(true, false, true, true);
    serving_planned_faults = 0x20db_d1fa_55a0_9e24: serving(true, true, false, false);
    serving_planned_faults_blind = 0x34bb_8bf2_c9c9_4deb: serving(true, true, false, true);
    serving_planned_faults_churn = 0xd7c6_19c2_e92c_21e2: serving(true, true, true, false);
    serving_planned_faults_churn_blind = 0x79c5_8b5e_e048_54ed: serving(true, true, true, true);

    kernel_60_flood = 0x6fff_3d0d_7bdc_4453: kernel(60, None);
    kernel_60_cheapest = 0xff1b_a84e_833a_da14: kernel(60, Some((0.5, 2, HpfWeight::Cheapest)));
    kernel_60_highest_degree = 0xd702_c208_9f54_161a: kernel(60, Some((0.6, 1, HpfWeight::HighestDegree)));
    kernel_200_flood = 0xfa97_691a_f3f9_6276: kernel(200, None);
    kernel_200_cheapest = 0x7f4c_a275_c159_7921: kernel(200, Some((0.5, 2, HpfWeight::Cheapest)));
    kernel_200_highest_degree = 0x210e_feb5_af6a_d263: kernel(200, Some((0.6, 1, HpfWeight::HighestDegree)));

    figure_records = 0x43c1_d1da_2985_45bb: records();
    join_targets = 0x403d_61f4_283c_0bb1: joins();
    controller_eviction = 0xe8ec_1bce_b6e8_3cbe: evictions();
}

// ----- shared worlds and folds ---------------------------------------------

/// A two-level physical network of `as_count × nodes_per_as` routers
/// under `peers` peers.
fn world(as_count: usize, nodes_per_as: usize, peers: usize, seed: u64) -> Scenario {
    Scenario::build(&ScenarioConfig {
        as_count,
        nodes_per_as,
        peers,
        avg_degree: 5,
        objects: 20,
        replicas: 3,
        seed,
        ..ScenarioConfig::default()
    })
}

fn faults(seed: u64) -> FaultConfig {
    FaultConfig {
        probe_loss: 0.15,
        crash: 0.03,
        leave: 0.03,
        rejoin: 0.4,
        seed,
    }
}

fn ticks(t: Option<SimTime>) -> u64 {
    t.map_or(u64::MAX, SimTime::as_ticks)
}

fn peer(p: Option<PeerId>) -> u64 {
    p.map_or(u64::MAX, |p| u64::from(p.raw()))
}

fn peers(d: &mut Digest, ps: &[PeerId]) {
    d.words(ps.iter().map(|p| u64::from(p.raw())));
}

fn fold_outcome(d: &mut Digest, q: &QueryOutcome) {
    d.word(q.scope as u64)
        .word(q.messages)
        .word(q.duplicates)
        .word(q.responders_hit as u64)
        .word(q.traffic_cost.to_bits())
        .word(ticks(q.first_response))
        .word(peer(q.first_responder))
        .words(q.arrivals.iter().map(|&t| ticks(t)))
        .words(q.parents.iter().map(|&p| peer(p)))
        .words(q.sent_by.iter().map(|&s| u64::from(s)));
}

/// A batch's digest, counts, inbox loads and latency quantiles.
fn fold_report(d: &mut Digest, r: &ServeReport) {
    d.word(r.digest())
        .word(r.served)
        .word(r.skipped)
        .words(r.inbox_load.iter().copied());
    for hist in [&r.hop_latency, &r.response_latency] {
        for q in [0.5, 0.99] {
            d.word(hist.quantile(q).unwrap_or(u64::MAX));
        }
    }
}

// ----- schedule_* ------------------------------------------------------------

/// Everything a round can move.
fn fold_round(d: &mut Digest, ace: &AceEngine, ov: &Overlay, stats: &RoundStats) {
    d.word(ace.state_digest());
    for p in ov.peers() {
        d.word(u64::from(ov.is_alive(p)));
        peers(d, ov.neighbors(p));
    }
    let c = stats.core_cache;
    d.word(stats.replaced as u64)
        .word(stats.added as u64)
        .word(stats.trees_built as u64)
        .word(stats.crashed as u64)
        .word(stats.left as u64)
        .word(stats.rejoined as u64)
        .word(stats.overhead.total_cost().to_bits())
        .word(stats.overhead.total_count())
        .word(c.hits)
        .word(c.misses)
        .word(c.inserts)
        .word(c.entries as u64);
}

fn schedule(depth: u8, with_faults: bool, autorate: bool, parallel: bool, workers: usize) -> u64 {
    let mut d = Digest::new(0);
    for seed in 1..=12 {
        for policy in [
            ReplacePolicy::Random,
            ReplacePolicy::Naive,
            ReplacePolicy::Closest,
        ] {
            let mut w = world(6, 50, 200, seed);
            let mut ace = AceEngine::new(
                w.overlay.peer_count(),
                AceConfig {
                    depth,
                    policy,
                    faults: with_faults.then(|| faults(seed)),
                    autorate: autorate.then_some(AutoRateConfig),
                    parallel,
                    workers,
                    ..AceConfig::paper_default()
                },
            );
            for _ in 0..10 {
                let stats = ace.round(&mut w.overlay, &w.oracle, &mut w.rng);
                fold_round(&mut d, &ace, &w.overlay, &stats);
            }
            ace.check_invariants(&w.overlay).unwrap();
        }
    }
    d.finish()
}

fn tree_round() -> u64 {
    let mut d = Digest::new(0);
    for depth in 1..=3u8 {
        for seed in 1..=12 {
            let w = world(6, 50, 200, seed);
            let mut ace = AceEngine::new(
                w.overlay.peer_count(),
                AceConfig {
                    depth,
                    ..AceConfig::paper_default()
                },
            );
            // The second round hits the warm core cache and diffs
            // against an existing tree.
            for _ in 0..2 {
                let stats = ace.tree_round(&w.overlay, &w.oracle);
                fold_round(&mut d, &ace, &w.overlay, &stats);
            }
        }
    }
    d.finish()
}

// ----- serving_* -------------------------------------------------------------

/// Twelve draws through the engine's hooks: alive peers leave (every
/// third one crashes), then every other departed peer rejoins.
fn churn_burst(w: &mut Scenario, ace: &mut AceEngine) {
    let mut departed = Vec::new();
    for i in 0..12 {
        let p = PeerId::new(w.rng.gen_range(0..w.overlay.peer_count() as u32));
        if !w.overlay.is_alive(p) || w.overlay.alive_count() <= 3 {
            continue;
        }
        w.overlay.leave(p).unwrap();
        if i % 3 == 0 {
            ace.on_crash(p);
        } else {
            ace.on_leave(p);
        }
        departed.push(p);
    }
    for &p in departed.iter().step_by(2) {
        w.overlay.join(p, 3, &mut w.rng).unwrap();
        ace.on_join(p);
    }
}

/// Cuts behind the engine's back: one live forwarding link at each of
/// six random peers, and every live forwarding link of a seventh that
/// keeps another neighbor (its answer falls back to blind flooding).
fn blind_cuts(w: &mut Scenario, ace: &AceEngine) {
    let mut targets = Vec::new();
    for i in 0..7 {
        let p = PeerId::new(w.rng.gen_range(0..w.overlay.peer_count() as u32));
        ace.forward_targets_into(&w.overlay, p, None, &mut targets);
        if i < 6 {
            if let Some(&f) = targets.first() {
                w.overlay.disconnect(p, f).unwrap();
            }
        } else if targets.len() < w.overlay.degree(p) {
            for &f in &targets {
                w.overlay.disconnect(p, f).unwrap();
            }
        }
    }
}

fn serving(parallel: bool, with_faults: bool, churn: bool, blind: bool) -> u64 {
    let mut d = Digest::new(0);
    for seed in [5, 23, 71] {
        let mut w = world(5, 40, 150, seed);
        let mut ace = AceEngine::new(
            150,
            AceConfig {
                parallel,
                workers: 1,
                faults: with_faults.then(|| faults(seed)),
                ..AceConfig::paper_default()
            },
        );
        for _ in 0..4 {
            ace.round(&mut w.overlay, &w.oracle, &mut w.rng);
        }
        let specs = zipf_workload(&w.overlay, &w.catalog, 60, &mut w.rng);
        if churn {
            churn_burst(&mut w, &mut ace);
        }
        if blind {
            blind_cuts(&mut w, &ace);
        }
        let policy = AceForward::new(&ace);
        let holder = |object, p| w.placement.is_holder(object, p);
        let (mut scratch, mut q) = (QueryScratch::new(), QueryOutcome::default());
        for ttl in [3u8, 7] {
            let query = QueryConfig {
                ttl,
                stop_at_responder: false,
            };
            for spec in specs.iter().filter(|s| w.overlay.is_alive(s.source)) {
                run_query_into(
                    &w.overlay,
                    &w.oracle,
                    spec.source,
                    &query,
                    &policy,
                    |p| holder(spec.object, p),
                    &mut scratch,
                    &mut q,
                );
                fold_outcome(&mut d, &q);
            }
            for (workers, chunk) in [(1, 256), (2, 7)] {
                let cfg = ServeConfig {
                    query,
                    workers,
                    chunk,
                };
                let r = serve_batch(&w.overlay, &w.oracle, &policy, &specs, &holder, &cfg);
                fold_report(&mut d, &r);
            }
        }
    }
    d.finish()
}

// ----- kernel_* --------------------------------------------------------------

/// A BA physical network of `3 × peers` nodes under a random overlay;
/// every ninth workload source departs after the workload is drawn.
fn kernel_world(peers: usize, seed: u64) -> (Overlay, DistanceOracle, Vec<QuerySpec>) {
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
    let specs = zipf_workload(&overlay, &Catalog::new(40, 0.8), 90, &mut rng);
    for spec in specs.iter().step_by(9) {
        if overlay.is_alive(spec.source) {
            overlay.leave(spec.source).unwrap();
        }
    }
    (overlay, oracle, specs)
}

/// Deterministic stand-in placement: roughly one peer in seven holds any
/// given object.
fn holder(object: ObjectId, peer: PeerId) -> bool {
    fold(0, &[u64::from(object), u64::from(peer.raw())]).is_multiple_of(7)
}

/// Flooding (`None`) or `PartialFlood` with the given fraction, minimum
/// and weight.
fn kernel(peers: usize, partial: Option<(f64, usize, HpfWeight)>) -> u64 {
    let mut d = Digest::new(0);
    for seed in [3, 17, 101] {
        let (overlay, oracle, specs) = kernel_world(peers, seed);
        match partial {
            None => kernel_cell(&mut d, &overlay, &oracle, &specs, &FloodAll),
            Some((fraction, min, weight)) => {
                let policy = PartialFlood::new(&oracle, fraction, min, weight);
                kernel_cell(&mut d, &overlay, &oracle, &specs, &policy);
            }
        }
    }
    d.finish()
}

/// Every single query and every batch shape, over all TTLs and
/// responder-stop settings.
fn kernel_cell<P: ForwardPolicy + Sync>(
    d: &mut Digest,
    overlay: &Overlay,
    oracle: &DistanceOracle,
    specs: &[QuerySpec],
    policy: &P,
) {
    let (mut scratch, mut q) = (QueryScratch::new(), QueryOutcome::default());
    for ttl in [1u8, 3, 7] {
        for stop_at_responder in [false, true] {
            let query = QueryConfig {
                ttl,
                stop_at_responder,
            };
            for spec in specs.iter().filter(|s| overlay.is_alive(s.source)) {
                run_query_into(
                    overlay,
                    oracle,
                    spec.source,
                    &query,
                    policy,
                    |p| holder(spec.object, p),
                    &mut scratch,
                    &mut q,
                );
                fold_outcome(d, &q);
            }
            for workers in [1, 3] {
                for chunk in [7, 256] {
                    let cfg = ServeConfig {
                        query,
                        workers,
                        chunk,
                    };
                    fold_report(
                        d,
                        &serve_batch(overlay, oracle, policy, specs, &holder, &cfg),
                    );
                }
            }
        }
    }
}

// ----- the rest --------------------------------------------------------------

/// The 22 quick-scale records' JSON in table order; each row emits
/// exactly the ids it advertises, and Figure 7 has one falling curve per
/// C and a row per step.
fn records() -> u64 {
    let ids: Vec<&str> = FIGURES.iter().flat_map(|f| f.ids).copied().collect();
    assert_eq!(ids.len(), 22);
    for (i, id) in ids.iter().enumerate() {
        assert!(!ids[..i].contains(id), "record id {id} appears twice");
    }
    let mut d = Digest::new(0);
    for fig in &FIGURES {
        let records = (fig.run)(Scale::Quick);
        let emitted: Vec<&str> = records.iter().map(|(rec, _)| rec.id.as_str()).collect();
        assert_eq!(emitted, fig.ids, "row emits exactly the ids it advertises");
        for (rec, tables) in &records {
            assert!(!tables.is_empty(), "{}: no table to print", rec.id);
            d.bytes(rec.to_json().expect("record serializes").as_bytes());
        }
        if fig.ids == ["fig07", "fig08"] {
            let (rec7, t7) = &records[0];
            assert_eq!(rec7.series.len(), 4);
            assert_eq!(t7[0].row_count(), Scale::Quick.steps() + 1);
            for s in &rec7.series {
                let first = s.points.first().unwrap().1;
                let last = s.points.last().unwrap().1;
                assert!(last < first, "{}: {first} -> {last}", s.label);
            }
        }
    }
    d.finish()
}

/// 200 seeded leaves and joins on 150 peers, 40 of them never linked
/// (so their address caches are empty): each join's peer and targets.
/// `network.rs`'s `join_targets_are_pinned_over_a_seeded_churn_script`
/// runs the same script and checks it reaches every cache case.
fn joins() -> u64 {
    let mut rng = StdRng::seed_from_u64(0xACE);
    let mut ov = Overlay::new((0..150).map(NodeId::new).collect(), None);
    for a in 0..110u32 {
        for _ in 0..rng.gen_range(1..3) {
            let b = rng.gen_range(0..110);
            let _ = ov.connect(PeerId::new(a), PeerId::new(b));
        }
    }
    let mut d = Digest::new(0);
    for _ in 0..200 {
        let p = PeerId::new(rng.gen_range(0..150));
        if ov.is_alive(p) {
            ov.leave(p).unwrap();
            continue;
        }
        d.word(u64::from(p.raw()));
        peers(&mut d, &ov.join(p, 3, &mut rng).unwrap());
    }
    d.finish()
}

/// 5,000 peers fed for four periods into a controller that holds 780:
/// every period evicts down to the budget.
fn evictions() -> u64 {
    let mut c = RateController::default();
    let sample = RateSample {
        overhead: 5000.0,
        ..RateSample::default()
    };
    for period in 0..4 {
        for i in 0..5_000 {
            c.observe(PeerId::new(i), 0, period, &sample, true);
        }
        c.end_period(period);
    }
    c.digest()
}
