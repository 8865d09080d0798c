//! Chaos soak: the adversarial wire crossed with churn, as shrinkable
//! properties.
//!
//! Each case draws a wire configuration (loss, duplication, reordering
//! jitter, scheduled partitions) and an interleaving of protocol time
//! with leaves and rejoins, then requires
//!
//! * the auditor green at every step — during faults it may only lean on
//!   its deferral windows (drops and partitions excuse a disagreement
//!   until the repair window runs out, never forever);
//! * the auditor green again after the last partition heals plus a full
//!   repair window — soft-state refresh must actually reconcile;
//! * the chaos ledger identity: every transmission the wire carried —
//!   original, injected duplicate or ARQ retransmission — appears in
//!   the overhead ledger, wasted or not.
//!
//! On failure proptest shrinks toward a minimal wire + churn schedule
//! and persists the seed in `chaos.proptest-regressions`.

use ace_core::experiments::{Scenario, ScenarioConfig};
use ace_core::protocol::{AsyncAceSim, ProtoConfig, REPAIR_PERIODS};
use ace_core::{NetemConfig, Partition, PartitionKind};
use ace_engine::SimTime;
use ace_overlay::PeerId;
use proptest::prelude::*;

/// One step of the interleaving: advance a cycle period, or churn.
#[derive(Clone, Copy, Debug)]
enum ChaosOp {
    Run,
    Leave(usize),
    Rejoin(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<ChaosOp>> {
    // Bias toward Run so cycles actually complete between churn edges.
    let op = (0u8..4, 0usize..64).prop_map(|(kind, sel)| match kind {
        0 | 1 => ChaosOp::Run,
        2 => ChaosOp::Leave(sel),
        _ => ChaosOp::Rejoin(sel),
    });
    proptest::collection::vec(op, 4..12)
}

fn arb_partitions() -> impl Strategy<Value = Vec<Partition>> {
    let p =
        (2u64..8, 1u64..3, 0u8..2, any::<u64>()).prop_map(|(start, dur, kind, salt)| Partition {
            start: SimTime::from_secs(start * 30).as_ticks(),
            duration: SimTime::from_secs(dur * 30).as_ticks(),
            kind: if kind == 0 {
                PartitionKind::Bipartition { salt }
            } else {
                PartitionKind::Islands { count: 3, salt }
            },
        });
    proptest::collection::vec(p, 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn chaos_interleavings_converge_and_stay_audited(
        seed in any::<u64>(),
        wire_seed in any::<u64>(),
        // Permille draws: the vendored proptest has integer strategies only.
        loss_pm in 0u64..150,
        duplicate_pm in 0u64..100,
        jitter in 0u64..50,
        partitions in arb_partitions(),
        ops in arb_ops(),
    ) {
        let scenario = ScenarioConfig {
            as_count: 4,
            nodes_per_as: 60,
            peers: 50,
            avg_degree: 6,
            objects: 20,
            replicas: 4,
            seed,
            ..ScenarioConfig::default()
        };
        let s = Scenario::build(&scenario);
        let netem = NetemConfig {
            loss: loss_pm as f64 / 1000.0,
            duplicate: duplicate_pm as f64 / 1000.0,
            reorder_jitter: jitter,
            partitions,
            seed: wire_seed,
        };
        let cfg = ProtoConfig {
            netem: Some(netem.clone()),
            ..ProtoConfig::default()
        };
        let period = cfg.timing.cycle_period;
        let repair = REPAIR_PERIODS * period;
        let mut sim = AsyncAceSim::new(s.overlay, cfg, seed ^ 0xc4a0);
        let oracle = s.oracle;

        sim.run_until(&oracle, SimTime::from_ticks(2 * period));
        for op in ops {
            match op {
                ChaosOp::Run => {
                    let next = sim.now() + period;
                    sim.run_until(&oracle, next);
                }
                ChaosOp::Leave(sel) => {
                    let alive: Vec<PeerId> = sim.overlay().alive_peers().collect();
                    if alive.len() > 8 {
                        sim.peer_leave(&oracle, alive[sel % alive.len()]);
                    }
                }
                ChaosOp::Rejoin(sel) => {
                    let dead: Vec<PeerId> = sim
                        .overlay()
                        .peers()
                        .filter(|&p| !sim.overlay().is_alive(p))
                        .collect();
                    if !dead.is_empty() {
                        sim.peer_join(dead[sel % dead.len()], 3);
                    }
                }
            }
            // Churn may split the graph (a cut vertex can leave); the
            // auditor must stay green regardless, leaning only on its
            // bounded deferral windows.
            if let Err(e) = sim.check_invariants() {
                prop_assert!(false, "mid-run auditor: {}", e);
            }
        }

        // Settle past the last heal plus a full repair window: the
        // deferral the auditor extended during the faults must have been
        // repaid by the soft-state refresh.
        let settle = netem.last_heal().max(sim.now().as_ticks()) + repair + 2 * period;
        sim.run_until(&oracle, SimTime::from_ticks(settle));
        if let Err(e) = sim.check_invariants() {
            prop_assert!(false, "post-heal auditor: {}", e);
        }
        prop_assert!(sim.min_cycles_done() >= 1, "no peer finished a cycle");

        let st = *sim.netem_stats();
        prop_assert_eq!(
            sim.ledger().total_count(),
            st.sent + st.duplicated + st.retransmits,
            "chaos ledger identity: sent {} dup {} rtx {}",
            st.sent,
            st.duplicated,
            st.retransmits
        );
    }
}
