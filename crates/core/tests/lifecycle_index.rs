//! Lockstep differential for the lifecycle indexes, through the public
//! surface only.
//!
//! `on_leave` / `on_join` used to read every peer's state to drop one
//! id; they now visit the departed peer's reverse references and its
//! chain through the core cache's insertion log. This drives one engine
//! through random rounds (either schedule, with and without injected
//! faults and the rate controller) and lifecycle events, and after every
//! event compares what the observers show of **every** peer with what
//! "retain over everyone" computes from the pre-event observation — a
//! reference the indexes cannot fool, because it never consults them.
//! The auditor runs before and after each event: it checks that the
//! indexes cover every live reference (watches included, which no
//! observer shows) and every cached pair. The in-crate twin of this test
//! (`engine.rs`) compares the private state and the digest as well.
//!
//! Runs in CI's debug `churn-faults` job, where every `round` also
//! audits the indexes under `debug_assert`.

use ace_core::experiments::{Scenario, ScenarioConfig};
use ace_core::{AceConfig, AceEngine, AutoRateConfig, FaultConfig};
use ace_overlay::{Overlay, PeerId};
use ace_topology::Delay;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the public observers show of one peer.
#[derive(Clone, Debug, Default, PartialEq)]
struct Seen {
    tree: Vec<PeerId>,
    flooding: Vec<PeerId>,
    costs: Vec<(PeerId, Delay)>,
    built: bool,
}

fn observe(ace: &AceEngine, peers: u32) -> Vec<Seen> {
    (0..peers)
        .map(PeerId::new)
        .map(|q| {
            let mut flooding = Vec::new();
            ace.flooding_neighbors_into(q, &mut flooding);
            Seen {
                tree: ace.tree_neighbors_of(q).to_vec(),
                flooding,
                costs: (0..peers)
                    .map(PeerId::new)
                    .filter_map(|n| Some((n, ace.probed_cost(q, n)?)))
                    .collect(),
                built: ace.tree_built(q),
            }
        })
        .collect()
}

/// The reference: every peer forgets `peer` (unless nobody saw it go),
/// and `peer` itself starts over.
fn sweep(seen: &mut [Seen], peer: PeerId, survivors_purge: bool) {
    if survivors_purge {
        for s in seen.iter_mut() {
            s.tree.retain(|&p| p != peer);
            s.flooding.retain(|&p| p != peer);
            s.costs.retain(|&(p, _)| p != peer);
        }
    }
    seen[peer.index()] = Seen::default();
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Round,
    Leave(PeerId),
    Crash(PeerId),
    Join(PeerId),
    /// A lifecycle call for an id the engine was not built for.
    Stranger(u32),
}

/// Applies `op`; lifecycle events are checked against the reference.
fn apply(
    op: Op,
    w: &mut Scenario,
    ace: &mut AceEngine,
    join_rng: &mut StdRng,
) -> Result<(), String> {
    let peers = w.overlay.peer_count() as u32;
    let ov: &mut Overlay = &mut w.overlay;
    let (peer, survivors_purge) = match op {
        Op::Round => {
            ace.round(ov, &w.oracle, &mut w.rng);
            return Ok(());
        }
        Op::Stranger(beyond) => {
            let (id, before) = (PeerId::new(peers + beyond), ace.state_digest());
            ace.on_leave(id);
            ace.on_crash(id);
            ace.on_join(id);
            prop_assert_eq!(ace.state_digest(), before);
            return Ok(());
        }
        Op::Leave(p) | Op::Join(p) => (p, true),
        Op::Crash(p) => (p, false),
    };
    let alive = ov.is_alive(peer);
    if alive == matches!(op, Op::Join(_)) || (alive && ov.alive_count() <= 3) {
        return Ok(()); // the script is drawn blind; skip what cannot happen
    }
    prop_assert_eq!(ace.check_invariants(ov), Ok(()));
    let mut want = observe(ace, peers);
    sweep(&mut want, peer, survivors_purge);
    match op {
        Op::Join(_) => {
            ov.join(peer, 3, join_rng).map_err(|e| e.to_string())?;
            ace.on_join(peer);
        }
        Op::Crash(_) => {
            ov.leave(peer).map_err(|e| e.to_string())?;
            ace.on_crash(peer);
        }
        _ => {
            ov.leave(peer).map_err(|e| e.to_string())?;
            ace.on_leave(peer);
        }
    }
    let got = observe(ace, peers);
    for q in 0..peers as usize {
        prop_assert_eq!(&got[q], &want[q], "{:?}: peer {} diverged", op, q);
    }
    prop_assert_eq!(ace.check_invariants(ov), Ok(()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lifecycle_events_match_retain_over_everyone(seed in 0u64..1_000_000) {
        let peers = 30 + (seed % 51) as usize;
        let mut w = Scenario::build(&ScenarioConfig {
            as_count: 4,
            nodes_per_as: 30,
            peers,
            avg_degree: 4 + (seed % 3) as usize,
            objects: 10,
            replicas: 2,
            seed,
            ..ScenarioConfig::default()
        });
        let cfg = AceConfig {
            parallel: seed % 2 == 0,
            workers: 2,
            depth: 1 + (seed % 4 == 3) as u8,
            faults: (seed % 3 == 0).then_some(FaultConfig {
                probe_loss: 0.1,
                crash: 0.03,
                leave: 0.03,
                rejoin: 0.4,
                seed,
            }),
            autorate: (seed % 5 < 2).then_some(AutoRateConfig),
            // ~40 pairs: budget eviction interleaves with the purges.
            core_cache_budget: if seed % 7 == 0 { 2048 } else { 0 },
            ..AceConfig::paper_default()
        };
        let mut ace = AceEngine::new(peers, cfg);
        let mut script_rng = StdRng::seed_from_u64(seed ^ 0x5C81);
        let script: Vec<Op> = (0..40)
            .map(|_| {
                let p = PeerId::new(script_rng.gen_range(0..peers as u32));
                match script_rng.gen_range(0..10) {
                    0..=2 => Op::Round,
                    3..=4 => Op::Leave(p),
                    5 => Op::Crash(p),
                    6..=8 => Op::Join(p),
                    _ => Op::Stranger(script_rng.gen_range(0..1000)),
                }
            })
            .collect();
        // A clone taken mid-script replays the rest on its own: the
        // indexes are state like any other and must carry over exactly.
        let fork_at = script_rng.gen_range(0..script.len());
        let mut join_rng = StdRng::seed_from_u64(seed);
        let mut fork = None;
        for (i, &op) in script.iter().enumerate() {
            if i == fork_at {
                fork = Some((w.overlay.clone(), w.rng.clone(), ace.clone(), join_rng.clone()));
            }
            apply(op, &mut w, &mut ace, &mut join_rng)?;
        }
        let (overlay, rng, mut twin, mut twin_join_rng) = fork.expect("fork_at is in range");
        let digest = ace.state_digest();
        (w.overlay, w.rng) = (overlay, rng);
        for &op in &script[fork_at..] {
            apply(op, &mut w, &mut twin, &mut twin_join_rng)?;
        }
        prop_assert_eq!(twin.state_digest(), digest);
    }
}
