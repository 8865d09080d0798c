//! Golden pin of ACE serving, and the lockstep that ties the engine's
//! forwarding answers to the one forwarding rule.
//!
//! `AceEngine::forward_targets_into` is what every query visit under
//! `AceForward` asks. It must answer exactly what
//! `policy::select_forward_targets` computes from the engine's flooding
//! set and the overlay it is handed — however the engine arrives at that
//! answer, and whatever happened to the overlay since the last round.
//!
//! * **Golden cells.** The constants below were captured by running this
//!   file unmodified on commit 9876ae7, where the engine derived every
//!   answer from its per-peer state at query time. Each cell folds the
//!   `run_query_into` outcomes and the `serve_batch` digests, inbox loads
//!   and served / skipped counts under `AceForward`, over 3 seeds × 150
//!   peers, after 4 rounds of one schedule (serial or planned, with or
//!   without injected faults), then optionally a churn burst told to the
//!   engine through its lifecycle hooks and optionally link cuts the
//!   engine never hears about. A mismatch prints the value the cell
//!   produced; re-capturing is only legitimate for a change that *means*
//!   to move what a query measures.
//! * **Lockstep.** Random rounds, lifecycle events with and without the
//!   engine's hooks, raw `connect` / `disconnect` / `leave` / `join`, and
//!   a diverging clone of the overlay; after every step, for every peer
//!   and every sender the kernel could pass, the engine's answer equals
//!   the rule's on both overlays.
//!
//! Runs in CI's debug `churn` leg too, where every `round` audits the
//! engine and the kernel checks each target is a neighbor.

use ace_core::experiments::{PhysKind, Scenario, ScenarioConfig};
use ace_core::{policy, AceConfig, AceEngine, AceForward, AutoRateConfig, FaultConfig};
use ace_engine::SimTime;
use ace_overlay::{
    run_query_into, serve_batch, zipf_workload, Overlay, PeerId, QueryConfig, QueryOutcome,
    QueryScratch, QuerySpec, ServeConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const SEEDS: [u64; 3] = [5, 23, 71];
const PEERS: usize = 150;
const ROUNDS: usize = 4;
const QUERIES: usize = 60;

fn world(seed: u64, peers: usize) -> Scenario {
    Scenario::build(&ScenarioConfig {
        phys: PhysKind::TwoLevel {
            as_count: 5,
            nodes_per_as: 40,
        },
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
        max_retries: 2,
        backoff: 1.5,
        crash: 0.03,
        leave: 0.03,
        rejoin: 0.4,
        rejoin_attach: 3,
        seed,
    }
}

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

/// Every single query and two batch shapes under `AceForward`.
fn serve(w: &Scenario, ace: &AceEngine, specs: &[QuerySpec], h: &mut DefaultHasher) {
    let policy = AceForward::new(ace);
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
            fold_outcome(&q, h);
        }
        for (workers, chunk) in [(1, 256), (2, 7)] {
            let cfg = ServeConfig {
                query,
                workers,
                chunk,
            };
            let r = serve_batch(&w.overlay, &w.oracle, &policy, specs, &holder, &cfg);
            (r.digest(), r.served, r.skipped).hash(h);
            r.inbox_load.hash(h);
        }
    }
}

fn cell(parallel: bool, with_faults: bool, churn: bool, blind: bool) -> u64 {
    let mut h = DefaultHasher::new();
    for seed in SEEDS {
        let mut w = world(seed, PEERS);
        let mut ace = AceEngine::new(
            PEERS,
            AceConfig {
                parallel,
                workers: 1,
                faults: with_faults.then(|| faults(seed)),
                ..AceConfig::paper_default()
            },
        );
        for _ in 0..ROUNDS {
            ace.round(&mut w.overlay, &w.oracle, &mut w.rng);
        }
        let specs = zipf_workload(&w.overlay, &w.catalog, QUERIES, &mut w.rng);
        if churn {
            churn_burst(&mut w, &mut ace);
        }
        if blind {
            blind_cuts(&mut w, &ace);
        }
        serve(&w, &ace, &specs, &mut h);
    }
    h.finish()
}

/// One `#[test]` per `(schedule, faults, churn, blind cuts)` cell.
macro_rules! cells {
    ($($name:ident: ($parallel:expr, $faults:expr, $churn:expr, $blind:expr) => $golden:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_eq!(
                cell($parallel, $faults, $churn, $blind),
                $golden,
                "ACE serving moved (got left, golden right)"
            );
        }
    )*};
}

cells! {
    serial:                     (false, false, false, false) => 209856229346306535;
    serial_blind:               (false, false, false, true)  => 10807009380684362894;
    serial_churn:               (false, false, true, false)  => 7725695828840581718;
    serial_churn_blind:         (false, false, true, true)   => 8445440568651569902;
    serial_faults:              (false, true, false, false)  => 8239579424354517389;
    serial_faults_blind:        (false, true, false, true)   => 15183806137458708109;
    serial_faults_churn:        (false, true, true, false)   => 13468856141502632271;
    serial_faults_churn_blind:  (false, true, true, true)    => 11896070408540203362;
    planned:                    (true, false, false, false)  => 8710951664207074245;
    planned_blind:              (true, false, false, true)   => 1411188914226251380;
    planned_churn:              (true, false, true, false)   => 12612443592063174112;
    planned_churn_blind:        (true, false, true, true)    => 14158370847611045441;
    planned_faults:             (true, true, false, false)   => 7840681620728648852;
    planned_faults_blind:       (true, true, false, true)    => 14485753616413483330;
    planned_faults_churn:       (true, true, true, false)    => 1479207422586493650;
    planned_faults_churn_blind: (true, true, true, true)     => 9347137879111512443;
}

// ----- lockstep ----------------------------------------------------------

/// The engine's answer for every peer and every sender the kernel could
/// pass (none, or any current neighbor) against the rule's.
fn check_rule(ace: &AceEngine, ov: &Overlay, what: &str) -> Result<(), String> {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for p in ov.peers() {
        let senders = std::iter::once(None).chain(ov.neighbors(p).iter().copied().map(Some));
        for from in senders {
            ace.forward_targets_into(ov, p, from, &mut got);
            policy::select_forward_targets(
                ov,
                p,
                from,
                ace.tree_built(p),
                |b| ace.flooding_neighbors_into(p, b),
                &mut want,
            );
            prop_assert_eq!(&got, &want, "{}: peer {} from {:?}", what, p, from);
        }
    }
    Ok(())
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Round,
    TreeRound,
    /// Leave (or crash, with the flag) told to the engine.
    Leave(PeerId, bool),
    Join(PeerId),
    /// `Overlay::leave` alone: the engine is never told (a crash nobody
    /// reported).
    RawLeave(PeerId),
    /// `Overlay::join` alone, only where that leaves no stale state
    /// behind (the peer's last exit was a hooked graceful leave);
    /// otherwise told to the engine.
    RawJoin(PeerId),
    Connect(PeerId, PeerId),
    Disconnect(PeerId, PeerId),
    /// Replaces the clone with a fresh copy of the overlay.
    Fork,
    /// Toggles a link on the clone only.
    ForkToggle(PeerId, PeerId),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn forwarding_answers_follow_the_rule(seed in 0u64..1_000_000) {
        let peers = 30 + (seed % 51) as usize;
        let mut w = world(seed, peers);
        // Raw overlay edits leave stale trees at peers that do not
        // re-plan next round, which the round's audit rejects: with raw
        // edits every alive peer is due (no controller).
        let raw = seed % 2 == 0;
        let with_faults = seed % 3 == 0;
        let mut ace = AceEngine::new(peers, AceConfig {
            parallel: seed % 4 < 2,
            workers: 2,
            depth: 1 + (seed % 5 == 4) as u8,
            faults: with_faults.then(|| faults(seed)),
            autorate: (!raw && seed % 3 == 1).then(AutoRateConfig::default),
            ..AceConfig::paper_default()
        });
        let mut script_rng = StdRng::seed_from_u64(seed ^ 0xF0_4A2D);
        let pick = |rng: &mut StdRng| PeerId::new(rng.gen_range(0..peers as u32));
        let mut join_rng = StdRng::seed_from_u64(seed);
        let mut fork = w.overlay.clone();
        // Peers whose last exit was a hooked graceful leave: survivors
        // purged them, so a raw rejoin leaves nothing stale.
        let mut clean_exit = vec![false; peers];
        for step in 0..40 {
            let (a, b) = (pick(&mut script_rng), pick(&mut script_rng));
            let op = match script_rng.gen_range(0..12) {
                0..=1 => Op::Round,
                2 => Op::TreeRound,
                3 => Op::Leave(a, script_rng.gen_bool(0.3)),
                4 => Op::Join(a),
                5 if raw => Op::RawLeave(a),
                6 if raw => Op::RawJoin(a),
                7 if raw => Op::Connect(a, b),
                8 if raw => Op::Disconnect(a, b),
                9 => Op::Fork,
                10 | 11 => Op::ForkToggle(a, b),
                _ => Op::Round,
            };
            let ov = &mut w.overlay;
            match op {
                Op::Round => {
                    ace.round(ov, &w.oracle, &mut w.rng);
                    if with_faults {
                        clean_exit.fill(false); // injected churn moved peers
                    }
                }
                Op::TreeRound => {
                    ace.tree_round(ov, &w.oracle);
                }
                Op::Leave(p, crash) if ov.is_alive(p) && ov.alive_count() > 3 => {
                    ov.leave(p).unwrap();
                    if crash {
                        ace.on_crash(p);
                    } else {
                        ace.on_leave(p);
                    }
                    clean_exit[p.index()] = !crash;
                }
                Op::RawLeave(p) if ov.is_alive(p) && ov.alive_count() > 3 => {
                    ov.leave(p).unwrap();
                    clean_exit[p.index()] = false;
                }
                Op::Join(p) | Op::RawJoin(p) if !ov.is_alive(p) => {
                    ov.join(p, 3, &mut join_rng).unwrap();
                    if !matches!(op, Op::RawJoin(_)) || !clean_exit[p.index()] {
                        ace.on_join(p);
                    }
                    clean_exit[p.index()] = false;
                }
                Op::Connect(a, b) => {
                    let _ = ov.connect(a, b);
                }
                Op::Disconnect(a, b) => {
                    let _ = ov.disconnect(a, b);
                }
                Op::Fork => fork = ov.clone(),
                Op::ForkToggle(a, b) => {
                    let _ = fork.disconnect(a, b).or_else(|_| fork.connect(a, b));
                }
                _ => {} // drawn blind; skip what cannot happen
            }
            let what = format!("step {step} {op:?}");
            check_rule(&ace, &w.overlay, &what)?;
            check_rule(&ace, &fork, &format!("{what} (clone)"))?;
        }
    }
}
