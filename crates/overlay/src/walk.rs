//! k-walker random-walk search — the era's main alternative to flooding
//! (Lv et al., ICS 2002; reference [10] of the paper).
//!
//! Instead of flooding, the source dispatches `k` walkers that each step
//! to a random neighbor until an object holder is found or the hop budget
//! runs out. Walks trade response time for traffic; ACE's topology
//! matching shortens every hop, so the reproduction uses this module to
//! show the optimization also benefits non-flooding search primitives.

use rand::Rng;

use ace_engine::SimTime;
use ace_topology::{Delay, DistancePlane};

use crate::network::Overlay;
use crate::peer::PeerId;

/// Parameters of a k-walker search. Walkers never step straight back
/// where they came from while the peer has another neighbor.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Number of parallel walkers.
    pub walkers: usize,
    /// Maximum hops per walker.
    pub max_hops: usize,
}

impl Default for WalkConfig {
    /// 16 walkers × 64 hops, no immediate backtracking — in the range the
    /// random-walk literature recommends for Gnutella-sized overlays.
    fn default() -> Self {
        WalkConfig {
            walkers: 16,
            max_hops: 64,
        }
    }
}

/// Everything measured about one k-walker search.
#[derive(Clone, Debug, Default)]
pub struct WalkOutcome {
    /// Total traffic cost (Σ physical delay of every walker hop).
    pub traffic_cost: f64,
    /// Total walker hops taken.
    pub messages: u64,
    /// Distinct peers visited (including the source).
    pub peers_visited: usize,
    /// Round trip until the source hears the first hit, if any.
    pub first_response: Option<SimTime>,
    /// The peer that produced the first hit.
    pub first_responder: Option<PeerId>,
}

impl WalkOutcome {
    /// True if any walker found a responder.
    pub fn found(&self) -> bool {
        self.first_responder.is_some()
    }
}

/// Runs one k-walker search from `source`.
///
/// Every walker stops as soon as *it* finds a responder (checking each
/// peer it lands on); other walkers continue until their own hop budget
/// is exhausted — the standard "check at every node" variant without a
/// central stop signal.
///
/// # Examples
///
/// ```
/// use ace_overlay::{random_walk_query, Overlay, PeerId, WalkConfig};
/// use ace_topology::{DistanceOracle, Graph, NodeId};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 5).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2), 5).unwrap();
/// let oracle = DistanceOracle::new(g);
/// let mut ov = Overlay::new((0..3).map(NodeId::new).collect(), None);
/// ov.connect(PeerId::new(0), PeerId::new(1)).unwrap();
/// ov.connect(PeerId::new(1), PeerId::new(2)).unwrap();
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let out = random_walk_query(&ov, &oracle, PeerId::new(0), &WalkConfig::default(),
///                             |p| p == PeerId::new(2), &mut rng);
/// assert!(out.found());
/// ```
///
/// A `source` that is not alive walks nowhere: the outcome is
/// [`WalkOutcome::default`], as for the flooding entry points.
///
/// # Panics
///
/// Panics if `cfg.walkers == 0`.
pub fn random_walk_query<R, F>(
    overlay: &Overlay,
    oracle: &dyn DistancePlane,
    source: PeerId,
    cfg: &WalkConfig,
    is_responder: F,
    rng: &mut R,
) -> WalkOutcome
where
    R: Rng + ?Sized,
    F: FnMut(PeerId) -> bool,
{
    random_walk_query_traced(
        overlay,
        oracle,
        source,
        cfg,
        is_responder,
        rng,
        |_, _, _| {},
    )
}

/// Picks a walker's next hop with exactly one RNG draw: uniform over the
/// neighbors minus `prev`, falling back to uniform over all neighbors
/// when every candidate equals `prev` (a dead-end where backtracking is
/// the only move). Selecting from the filtered candidate list directly —
/// instead of rejection-sampling until a non-`prev` neighbor comes up —
/// keeps the draw count fixed per hop (determinism) and cannot spin on
/// degenerate neighbor lists.
fn choose_step<R: Rng + ?Sized>(nbrs: &[PeerId], prev: Option<PeerId>, rng: &mut R) -> PeerId {
    debug_assert!(!nbrs.is_empty());
    let Some(p) = prev else {
        return nbrs[rng.gen_range(0..nbrs.len())];
    };
    let others = nbrs.iter().filter(|&&n| n != p).count();
    if others == 0 {
        return nbrs[rng.gen_range(0..nbrs.len())];
    }
    let k = rng.gen_range(0..others);
    nbrs.iter()
        .copied()
        .filter(|&n| n != p)
        .nth(k)
        .expect("k < candidate count")
}

/// [`random_walk_query`] with a per-hop tracer: `on_hop(from, to, cost)`
/// fires for every walker step, in order, so callers can account
/// per-link message load (the scenario matrix's link-stress metric)
/// without re-deriving the walk.
///
/// # Panics
///
/// Panics if `cfg.walkers == 0`.
pub fn random_walk_query_traced<R, F, H>(
    overlay: &Overlay,
    oracle: &dyn DistancePlane,
    source: PeerId,
    cfg: &WalkConfig,
    mut is_responder: F,
    rng: &mut R,
    mut on_hop: H,
) -> WalkOutcome
where
    R: Rng + ?Sized,
    F: FnMut(PeerId) -> bool,
    H: FnMut(PeerId, PeerId, Delay),
{
    assert!(cfg.walkers > 0, "need at least one walker");
    let mut out = WalkOutcome::default();
    if !overlay.is_alive(source) {
        return out;
    }
    let mut visited = vec![false; overlay.peer_count()];
    visited[source.index()] = true;
    out.peers_visited = 1;

    for _ in 0..cfg.walkers {
        let mut at = source;
        let mut prev: Option<PeerId> = None;
        let mut elapsed = 0u64;
        for _ in 0..cfg.max_hops {
            let nbrs = overlay.neighbors(at);
            if nbrs.is_empty() {
                break;
            }
            let next = choose_step(nbrs, prev, rng);
            let cost = overlay.link_cost(oracle, at, next);
            on_hop(at, next, cost);
            out.traffic_cost += f64::from(cost);
            out.messages += 1;
            elapsed += u64::from(cost);
            prev = Some(at);
            at = next;
            if !visited[at.index()] {
                visited[at.index()] = true;
                out.peers_visited += 1;
            }
            if at != source && is_responder(at) {
                // Hit: result travels straight back over the walked delay.
                let rtt = SimTime::from_ticks(2 * elapsed);
                if out.first_response.is_none_or(|cur| rtt < cur) {
                    out.first_response = Some(rtt);
                    out.first_responder = Some(at);
                }
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_topology::{DistanceOracle, Graph, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: u32, w: u32) -> (Overlay, DistanceOracle) {
        let mut g = Graph::new(n as usize);
        for i in 0..n {
            g.add_edge(NodeId::new(i), NodeId::new((i + 1) % n), w)
                .unwrap();
        }
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..n).map(NodeId::new).collect(), None);
        for i in 0..n {
            ov.connect(PeerId::new(i), PeerId::new((i + 1) % n))
                .unwrap();
        }
        (ov, oracle)
    }

    #[test]
    fn walkers_find_nearby_object() {
        let (ov, oracle) = ring(16, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let out = random_walk_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &WalkConfig::default(),
            |p| p == PeerId::new(2),
            &mut rng,
        );
        assert!(out.found());
        assert_eq!(out.first_responder, Some(PeerId::new(2)));
        // The hit is 2 ring hops away: RTT at least 2×2×5.
        assert!(out.first_response.unwrap() >= SimTime::from_ticks(20));
        assert!(out.traffic_cost > 0.0);
    }

    #[test]
    fn hop_budget_limits_messages() {
        let (ov, oracle) = ring(64, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = WalkConfig {
            walkers: 3,
            max_hops: 10,
        };
        let out = random_walk_query(&ov, &oracle, PeerId::new(0), &cfg, |_| false, &mut rng);
        assert!(!out.found());
        assert_eq!(out.messages, 30, "3 walkers x 10 hops");
        assert!(out.peers_visited <= 31);
    }

    #[test]
    fn walker_stops_at_its_first_hit() {
        let (ov, oracle) = ring(8, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = WalkConfig {
            walkers: 1,
            max_hops: 100,
        };
        let out = random_walk_query(&ov, &oracle, PeerId::new(0), &cfg, |_| true, &mut rng);
        assert_eq!(out.messages, 1, "first step lands on a responder");
    }

    #[test]
    fn no_backtrack_walk_on_line_advances() {
        // On a path graph without backtracking the single walker must
        // march forward deterministically from an endpoint.
        let mut g = Graph::new(5);
        for i in 1..5u32 {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i), 1).unwrap();
        }
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..5).map(NodeId::new).collect(), None);
        for i in 1..5u32 {
            ov.connect(PeerId::new(i - 1), PeerId::new(i)).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = WalkConfig {
            walkers: 1,
            max_hops: 10,
        };
        let out = random_walk_query(
            &ov,
            &oracle,
            PeerId::new(0),
            &cfg,
            |p| p == PeerId::new(4),
            &mut rng,
        );
        assert!(out.found());
        assert_eq!(out.messages, 4);
    }

    /// Regression: backtrack avoidance used to rejection-sample (`loop {
    /// draw; retry if == prev }`), consuming a *variable* number of RNG
    /// values per hop — on this ring every non-source hop retries with
    /// probability 1/2, so the stream position after a walk depended on
    /// the walk's outcomes. Selecting from the filtered candidate list
    /// pins consumption to exactly one draw per hop: after the walk, the
    /// RNG must sit precisely `messages` draws past its starting state.
    #[test]
    fn backtrack_selection_draws_exactly_one_value_per_hop() {
        let (ov, oracle) = ring(3, 1);
        let mut rng = StdRng::seed_from_u64(11);
        let mut probe = rng.clone();
        let cfg = WalkConfig {
            walkers: 4,
            max_hops: 25,
        };
        let out = random_walk_query(&ov, &oracle, PeerId::new(0), &cfg, |_| false, &mut rng);
        assert_eq!(out.messages, 100);
        for _ in 0..out.messages {
            probe.gen::<u64>();
        }
        assert_eq!(
            rng.gen::<u64>(),
            probe.gen::<u64>(),
            "walk consumed a different number of RNG draws than hops taken"
        );
    }

    /// Regression: with a neighbor list where every candidate equals
    /// `prev`, the pre-fix rejection loop spun forever. The filtered
    /// selection falls back to backtracking — the only legal move.
    #[test]
    fn choose_step_backtracks_only_when_unavoidable() {
        let p = PeerId::new(7);
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(choose_step(&[p, p], Some(p), &mut rng), p);
        assert_eq!(choose_step(&[p], Some(p), &mut rng), p);
    }

    #[test]
    fn choose_step_never_picks_prev_when_alternatives_exist() {
        let prev = PeerId::new(1);
        let nbrs = [PeerId::new(0), prev, PeerId::new(2)];
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            assert_ne!(choose_step(&nbrs, Some(prev), &mut rng), prev);
        }
    }

    #[test]
    fn traced_walk_reports_every_hop() {
        let (ov, oracle) = ring(8, 3);
        let mut rng = StdRng::seed_from_u64(14);
        let cfg = WalkConfig {
            walkers: 2,
            max_hops: 12,
        };
        let mut hops = 0u64;
        let mut cost = 0.0f64;
        let out = random_walk_query_traced(
            &ov,
            &oracle,
            PeerId::new(0),
            &cfg,
            |_| false,
            &mut rng,
            |from, to, c| {
                assert!(ov.are_neighbors(from, to));
                hops += 1;
                cost += f64::from(c);
            },
        );
        assert_eq!(hops, out.messages);
        assert_eq!(cost, out.traffic_cost);
    }

    /// A departed or out-of-range source walks nowhere.
    #[test]
    fn dead_source_yields_the_default_outcome() {
        let (mut ov, oracle) = ring(4, 1);
        ov.leave(PeerId::new(2)).unwrap();
        for source in [PeerId::new(2), PeerId::new(9)] {
            let mut rng = StdRng::seed_from_u64(7);
            let out = random_walk_query_traced(
                &ov,
                &oracle,
                source,
                &WalkConfig::default(),
                |_| true,
                &mut rng,
                |_, _, _| panic!("a dead source sends nothing"),
            );
            assert_eq!((out.messages, out.peers_visited), (0, 0));
            assert!(!out.found());
        }
    }

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn zero_walkers_rejected() {
        let (ov, oracle) = ring(4, 1);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = WalkConfig {
            walkers: 0,
            ..WalkConfig::default()
        };
        random_walk_query(&ov, &oracle, PeerId::new(0), &cfg, |_| false, &mut rng);
    }
}
