//! Reference model of the query kernel, for tests only.
//!
//! [`reference_query`] is the textbook event loop the kernel is an
//! optimization of: every transmission goes onto a `BinaryHeap` keyed by
//! `(time, push counter)`, each send is priced through the plane, and the
//! visited check happens when a message pops. It is the kernel's
//! pop-order reference too: the kernel pops a stable radix queue with no
//! push counter, prices a batch's sends from a table built once, and
//! drops a certain duplicate at send time (see `search::propagate`). The
//! proptests here and in `serve.rs` hold it to this model field for
//! field and send for send, on small random overlays built to produce
//! the cases those optimizations could get wrong: zero-cost links between
//! peers on one host, equal arrival times from different senders, wide
//! link weights that reach the queue's high buckets, low TTLs,
//! responders that stop the query, dead and out-of-range sources, and a
//! partial forwarding policy beside blind flooding.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ace_engine::SimTime;
use ace_topology::{Delay, DistanceOracle, DistancePlane, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::Overlay;
use crate::peer::PeerId;
use crate::search::{ForwardPolicy, QueryConfig, QueryOutcome};

/// The push-every-message propagation loop: the same outcome the kernel
/// must produce, `None` for a source that is not alive. `on_receipt`
/// sees every receipt as it pops, `on_send` every transmission in send
/// order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reference_query<P: ForwardPolicy + ?Sized>(
    overlay: &Overlay,
    plane: &dyn DistancePlane,
    source: PeerId,
    config: &QueryConfig,
    policy: &P,
    is_responder: impl Fn(PeerId) -> bool,
    mut on_receipt: impl FnMut(PeerId, Option<PeerId>, SimTime, bool),
    mut on_send: impl FnMut(PeerId, PeerId, Delay),
) -> Option<QueryOutcome> {
    if !overlay.is_alive(source) {
        return None;
    }
    let mut out = QueryOutcome::default();
    out.reset(overlay.peer_count());
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    heap.push(Reverse((SimTime::ZERO, seq, source, source, config.ttl)));
    let mut targets = Vec::new();
    while let Some(Reverse((t, _, peer, from, ttl))) = heap.pop() {
        let from = (peer != from).then_some(from);
        let first = out.arrivals[peer.index()].is_none();
        on_receipt(peer, from, t, first);
        if !first {
            out.duplicates += 1;
            continue;
        }
        out.arrivals[peer.index()] = Some(t);
        out.parents[peer.index()] = from;
        out.scope += 1;
        let mut stop_here = false;
        if peer != source && is_responder(peer) {
            out.responders_hit += 1;
            let rtt = SimTime::from_ticks(2 * t.as_ticks());
            if out.first_response.is_none_or(|cur| rtt < cur) {
                out.first_response = Some(rtt);
                out.first_responder = Some(peer);
            }
            stop_here = config.stop_at_responder;
        }
        if ttl == 0 || stop_here {
            continue;
        }
        policy.forward_targets_into(overlay, peer, from, &mut targets);
        for &target in &targets {
            let cost = overlay.link_cost(plane, peer, target);
            out.traffic_cost += f64::from(cost);
            out.messages += 1;
            out.sent_by[peer.index()] += 1;
            on_send(peer, target, cost);
            seq += 1;
            heap.push(Reverse((t + u64::from(cost), seq, target, peer, ttl - 1)));
        }
    }
    Some(out)
}

/// Every field of an outcome, `traffic_cost` as its bits: equal keys
/// mean bit-identical outcomes.
#[allow(clippy::type_complexity)]
pub(crate) fn outcome_key(
    o: &QueryOutcome,
) -> (
    (usize, u64, u64, u64, usize),
    (Option<SimTime>, Option<PeerId>),
    (&[Option<SimTime>], &[Option<PeerId>], &[u32]),
) {
    (
        (
            o.scope,
            o.traffic_cost.to_bits(),
            o.messages,
            o.duplicates,
            o.responders_hit,
        ),
        (o.first_response, o.first_responder),
        (&o.arrivals, &o.parents, &o.sent_by),
    )
}

/// A small random world drawn from `seed`: 2–12 peers on 1–8 physical
/// hosts (so peers often share a host and the link between them costs
/// 0), physical weights 1–3 (so arrival times tie often) or, in about one
/// world in four, 1–2^20 (so arrivals spread over the kernel queue's high
/// buckets), a random overlay wiring, a few departed peers and a random
/// responder set.
pub(crate) struct SmallWorld {
    pub overlay: Overlay,
    pub oracle: DistanceOracle,
    pub responders: Vec<bool>,
}

impl SmallWorld {
    pub(crate) fn draw(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let hosts = rng.gen_range(1..=8u32);
        let max_weight: Delay = if rng.gen_bool(0.25) { 1 << 20 } else { 3 };
        let mut graph = Graph::new(hosts as usize);
        for h in 1..hosts {
            // A random spanning tree keeps every host reachable ...
            let parent = rng.gen_range(0..h);
            let w = rng.gen_range(1..=max_weight);
            graph
                .add_edge(NodeId::new(parent), NodeId::new(h), w)
                .unwrap();
        }
        for _ in 0..hosts {
            // ... and a few chords make unequal routes of equal length.
            let (a, b) = (rng.gen_range(0..hosts), rng.gen_range(0..hosts));
            let w = rng.gen_range(1..=max_weight);
            let _ = graph.add_edge(NodeId::new(a), NodeId::new(b), w);
        }
        let oracle = DistanceOracle::new(graph);
        let peers = rng.gen_range(2..=12u32);
        let on = (0..peers)
            .map(|_| NodeId::new(rng.gen_range(0..hosts)))
            .collect();
        let mut overlay = Overlay::new(on, None);
        let density = rng.gen_range(0.1..0.7);
        for a in 0..peers {
            for b in a + 1..peers {
                if rng.gen_bool(density) {
                    overlay.connect(PeerId::new(a), PeerId::new(b)).unwrap();
                }
            }
        }
        for p in 0..peers {
            if rng.gen_bool(0.1) {
                overlay.leave(PeerId::new(p)).unwrap();
            }
        }
        let odds = rng.gen_range(0.0..0.5);
        let responders = (0..peers).map(|_| rng.gen_bool(odds)).collect();
        SmallWorld {
            overlay,
            oracle,
            responders,
        }
    }

    pub(crate) fn is_responder(&self, p: PeerId) -> bool {
        self.responders[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpf::{HpfWeight, PartialFlood};
    use crate::search::{run_query_into, run_query_traced, FloodAll, QueryScratch};
    use proptest::prelude::*;

    /// One query through the kernel and the model, compared on every
    /// outcome field and on the send sequence; the kernel runs on a
    /// scratch reused across cases.
    fn check<P: ForwardPolicy + ?Sized>(
        w: &SmallWorld,
        source: PeerId,
        cfg: &QueryConfig,
        policy: &P,
        scratch: &mut QueryScratch,
    ) -> Result<(), String> {
        let n = w.overlay.peer_count();
        let mut model_sends = Vec::new();
        let model = reference_query(
            &w.overlay,
            &w.oracle,
            source,
            cfg,
            policy,
            |p| w.is_responder(p),
            |_, _, _, _| {},
            |f, t, c| model_sends.push((f, t, c)),
        )
        .unwrap_or_else(|| {
            let mut empty = QueryOutcome::default();
            empty.reset(n);
            empty
        });
        let mut sends = Vec::new();
        let traced = run_query_traced(
            &w.overlay,
            &w.oracle,
            source,
            cfg,
            policy,
            |p| w.is_responder(p),
            |f, t, c| sends.push((f, t, c)),
        );
        prop_assert_eq!(outcome_key(&traced), outcome_key(&model));
        prop_assert_eq!(sends, model_sends);
        let mut reused = QueryOutcome::default();
        run_query_into(
            &w.overlay,
            &w.oracle,
            source,
            cfg,
            policy,
            |p| w.is_responder(p),
            scratch,
            &mut reused,
        );
        prop_assert_eq!(outcome_key(&reused), outcome_key(&model));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn kernel_matches_the_push_every_message_model(
            seed in any::<u64>(),
            ttl in 0u8..=4,
            stop in any::<bool>(),
            fraction in 1u32..=4,
        ) {
            let w = SmallWorld::draw(seed);
            let cfg = QueryConfig { ttl, stop_at_responder: stop };
            let partial = PartialFlood::new(
                &w.oracle,
                f64::from(fraction) / 4.0,
                1,
                if seed % 2 == 0 { HpfWeight::Cheapest } else { HpfWeight::HighestDegree },
            );
            let mut scratch = QueryScratch::new();
            // Every peer (departed ones included) and one past the end.
            for s in 0..=w.overlay.peer_count() as u32 {
                check(&w, PeerId::new(s), &cfg, &FloodAll, &mut scratch)?;
                check(&w, PeerId::new(s), &cfg, &partial, &mut scratch)?;
            }
        }
    }

    /// The model itself sees what the kernel is built to skip, and what
    /// its queue must order: ties, zero-cost links, duplicates and wide
    /// link costs (past 2^16 ticks, so refills run from high buckets) all
    /// occur across the drawn worlds.
    #[test]
    fn drawn_worlds_cover_ties_zero_cost_links_and_duplicates() {
        let (mut ties, mut zero_cost, mut duplicates) = (false, false, false);
        let mut wide = false;
        for seed in 0..200 {
            let w = SmallWorld::draw(seed);
            let mut arrivals = Vec::new();
            let out = reference_query(
                &w.overlay,
                &w.oracle,
                PeerId::new(0),
                &QueryConfig::default(),
                &FloodAll,
                |_| false,
                |to, _, t, _| arrivals.push((to, t)),
                |_, _, c| {
                    zero_cost |= c == 0;
                    wide |= c >= 1 << 16;
                },
            );
            arrivals.sort_unstable();
            ties |= arrivals.windows(2).any(|p| p[0] == p[1]);
            duplicates |= out.is_some_and(|o| o.duplicates > 0);
        }
        assert!(ties && zero_cost && duplicates && wide);
    }
}
