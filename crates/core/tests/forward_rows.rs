//! The lockstep that ties the engine's forwarding answers to the one
//! forwarding rule.
//!
//! `AceEngine::forward_targets_into` is what every query visit under
//! `AceForward` asks. It must answer exactly what
//! `policy::select_forward_targets` computes from the engine's flooding
//! set and the overlay it is handed — however the engine arrives at that
//! answer, and whatever happened to the overlay since the last round.
//! Random rounds, lifecycle events with and without the engine's hooks,
//! raw `connect` / `disconnect` / `leave` / `join`, and a diverging clone
//! of the overlay; after every step, for every peer and every sender the
//! kernel could pass, the engine's answer equals the rule's on both
//! overlays. (What ACE serving measures is pinned by the `serving_*`
//! cells of the root package's `tests/golden.rs`.)
//!
//! Runs in CI's debug `churn` leg too, where every `round` audits the
//! engine.

use ace_core::experiments::{Scenario, ScenarioConfig};
use ace_core::{policy, AceConfig, AceEngine, AutoRateConfig};
use ace_overlay::{Overlay, PeerId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn world(seed: u64, peers: usize) -> Scenario {
    Scenario::build(&ScenarioConfig {
        as_count: 5,
        nodes_per_as: 40,
        peers,
        avg_degree: 5,
        objects: 20,
        replicas: 3,
        seed,
        ..ScenarioConfig::default()
    })
}

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
        let mut ace = AceEngine::new(peers, AceConfig {
            parallel: seed % 4 < 2,
            workers: 2,
            depth: 1 + (seed % 5 == 4) as u8,
            autorate: (!raw && seed % 3 == 1).then_some(AutoRateConfig),
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
