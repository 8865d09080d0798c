//! Dynamic-environment experiments (paper §5.2, Figures 9–10, and the
//! index-caching extension).
//!
//! An event-driven simulation with the paper's parameters: peer lifetimes
//! ~ Normal(10 min, std 5 min), 0.3 queries/minute/peer, population kept
//! constant by joining a fresh peer whenever one leaves, and (when ACE is
//! enabled) a full optimization round every 30 s whose control overhead is
//! charged into the reported per-query traffic.

use ace_engine::{EventQueue, SimTime};
use ace_overlay::{
    run_query, DepartureKind, DepartureModel, FloodAll, ForwardPolicy, IndexCache, LifetimeModel,
    Overlay, PeerId, Placement, QueryConfig, QueryRate,
};
use ace_topology::DistancePlane;
use rand::Rng;

use crate::engine::{AceConfig, AceEngine};
use crate::forwarding::AceForward;
use crate::policy::{purge_index_cache, LifecycleEvent};

use super::{Scenario, ScenarioConfig};

/// Configuration of a dynamic run.
#[derive(Clone, Copy, Debug)]
pub struct DynamicConfig {
    /// World description.
    pub scenario: ScenarioConfig,
    /// ACE parameters; `None` runs the plain Gnutella-like baseline.
    pub ace: Option<AceConfig>,
    /// Peer lifetime distribution.
    pub lifetime: LifetimeModel,
    /// How departures split between graceful leaves (engine state purged
    /// everywhere at once) and silent crashes (survivors keep stale
    /// references until the next probe sweep prunes them).
    pub departures: DepartureModel,
    /// Per-peer query arrival rate.
    pub query_rate: QueryRate,
    /// Seconds between ACE optimization rounds (paper: peers optimize
    /// twice per minute ⇒ 30).
    pub ace_period_secs: u64,
    /// Stop after this many completed queries.
    pub total_queries: u64,
    /// Queries per reporting window.
    pub window: u64,
    /// Query TTL.
    pub ttl: u8,
    /// Per-peer response index cache capacity (`Some` enables the §5.2
    /// caching extension, queries then stop at the first responder).
    pub index_cache: Option<usize>,
}

impl DynamicConfig {
    /// Paper-style defaults on top of a scenario: 10-minute lifetimes,
    /// 0.3 q/min, ACE every 30 s, no cache.
    pub fn paper_default(scenario: ScenarioConfig, ace: Option<AceConfig>) -> Self {
        DynamicConfig {
            scenario,
            ace,
            lifetime: LifetimeModel::paper_default(),
            departures: DepartureModel::paper_default(),
            query_rate: QueryRate::paper_default(),
            ace_period_secs: 30,
            total_queries: 2_000,
            window: 200,
            ttl: 32,
            index_cache: None,
        }
    }
}

/// One reporting window of a dynamic run.
#[derive(Clone, Copy, Debug)]
pub struct DynamicWindow {
    /// Cumulative queries completed at the end of this window.
    pub queries_done: u64,
    /// Mean per-query traffic cost **including** amortized ACE overhead
    /// spent during the window.
    pub traffic: f64,
    /// Mean first-response round trip (ms) over answered queries.
    pub response_ms: f64,
    /// Mean fraction of alive peers reached per query.
    pub scope_frac: f64,
    /// Fraction of queries answered.
    pub success: f64,
}

/// Result of [`dynamic_run`].
#[derive(Clone, Debug)]
pub struct DynamicResult {
    /// Reporting windows in order.
    pub windows: Vec<DynamicWindow>,
    /// Total ACE control overhead spent (0 for the baseline).
    pub total_overhead: f64,
    /// Total join/leave churn events processed.
    pub churn_events: u64,
    /// Simulated time at the end of the run.
    pub sim_end: SimTime,
}

impl DynamicResult {
    /// Mean traffic over the second half of the run (the warmed-up state).
    pub fn steady_traffic(&self) -> f64 {
        let half = self.windows.len() / 2;
        let tail = &self.windows[half..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().map(|w| w.traffic).sum::<f64>() / tail.len() as f64
        }
    }

    /// Mean response time over the second half of the run.
    pub fn steady_response_ms(&self) -> f64 {
        let half = self.windows.len() / 2;
        let tail = &self.windows[half..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().map(|w| w.response_ms).sum::<f64>() / tail.len() as f64
        }
    }
}

#[derive(Debug)]
enum Event {
    Query(PeerId, u32),
    Leave(PeerId, u32),
    Join,
    AceRound,
}

#[allow(clippy::too_many_arguments)]
fn one_query<P: ForwardPolicy + ?Sized>(
    overlay: &Overlay,
    oracle: &dyn DistancePlane,
    placement: &Placement,
    cache: &mut Option<IndexCache>,
    src: PeerId,
    obj: u32,
    qc: &QueryConfig,
    policy: &P,
) -> ace_overlay::QueryOutcome {
    match cache {
        Some(c) => run_query(overlay, oracle, src, qc, policy, |x| {
            placement.is_holder(obj, x) || c.lookup_alive(x, obj, |h| overlay.is_alive(h)).is_some()
        }),
        None => run_query(overlay, oracle, src, qc, policy, |x| {
            placement.is_holder(obj, x)
        }),
    }
}

/// Runs the dynamic environment until `total_queries` queries completed.
pub fn dynamic_run(cfg: &DynamicConfig) -> DynamicResult {
    let mut s = Scenario::build(&cfg.scenario);
    let peer_count = s.overlay.peer_count();
    let attach = cfg.scenario.avg_degree; // keeps average degree stable under churn
    let mut ace = cfg.ace.map(|a| AceEngine::new(peer_count, a));
    let mut cache = cfg.index_cache.map(|cap| IndexCache::new(peer_count, cap));
    let qc = QueryConfig {
        ttl: cfg.ttl,
        stop_at_responder: cache.is_some(),
    };

    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut epoch = vec![0u32; peer_count];
    for p in s.overlay.peers() {
        queue.push(
            SimTime::ZERO + cfg.lifetime.sample(&mut s.rng).as_ticks(),
            Event::Leave(p, 0),
        );
        queue.push(
            SimTime::ZERO + cfg.query_rate.next_gap(&mut s.rng).as_ticks(),
            Event::Query(p, 0),
        );
    }
    if ace.is_some() {
        queue.push(SimTime::from_secs(cfg.ace_period_secs), Event::AceRound);
    }

    let mut windows = Vec::new();
    let mut done = 0u64;
    let mut churn_events = 0u64;
    let mut now = SimTime::ZERO;
    // Window accumulators.
    let (mut w_traffic, mut w_resp, mut w_scope, mut w_n, mut w_answered) =
        (0.0f64, 0.0f64, 0.0f64, 0u64, 0u64);
    let mut overhead_mark = 0.0f64;

    while done < cfg.total_queries {
        let Some((t, ev)) = queue.pop() else { break };
        now = t;
        match ev {
            Event::Query(p, e) => {
                if e != epoch[p.index()] || !s.overlay.is_alive(p) {
                    continue;
                }
                let obj = s.catalog.draw(&mut s.rng);
                let outcome = if let Some(eng) = &ace {
                    let policy = AceForward::new(eng);
                    one_query(
                        &s.overlay,
                        &s.oracle,
                        &s.placement,
                        &mut cache,
                        p,
                        obj,
                        &qc,
                        &policy,
                    )
                } else {
                    one_query(
                        &s.overlay,
                        &s.oracle,
                        &s.placement,
                        &mut cache,
                        p,
                        obj,
                        &qc,
                        &FloodAll,
                    )
                };
                // Feed response indices into caches along the return path.
                if let (Some(c), Some(responder)) = (&mut cache, outcome.first_responder) {
                    let holder = if s.placement.is_holder(obj, responder) {
                        Some(responder)
                    } else {
                        c.lookup_alive(responder, obj, |h| s.overlay.is_alive(h))
                    };
                    if let Some(h) = holder {
                        if let Some(path) = outcome.reverse_path(p, responder) {
                            for hop in path {
                                c.insert(hop, obj, h);
                            }
                        }
                    }
                }
                w_traffic += outcome.traffic_cost;
                w_scope += outcome.scope as f64 / s.overlay.alive_count().max(1) as f64;
                if let Some(rt) = outcome.first_response {
                    w_resp += rt.as_millis_f64();
                    w_answered += 1;
                }
                w_n += 1;
                done += 1;
                if w_n >= cfg.window || done >= cfg.total_queries {
                    let overhead_now = ace.as_ref().map_or(0.0, |e| e.ledger().total_cost());
                    let overhead_delta = overhead_now - overhead_mark;
                    overhead_mark = overhead_now;
                    windows.push(DynamicWindow {
                        queries_done: done,
                        traffic: (w_traffic + overhead_delta) / w_n as f64,
                        response_ms: if w_answered > 0 {
                            w_resp / w_answered as f64
                        } else {
                            0.0
                        },
                        scope_frac: w_scope / w_n as f64,
                        success: w_answered as f64 / w_n as f64,
                    });
                    w_traffic = 0.0;
                    w_resp = 0.0;
                    w_scope = 0.0;
                    w_n = 0;
                    w_answered = 0;
                }
                queue.push(
                    now + cfg.query_rate.next_gap(&mut s.rng).as_ticks(),
                    Event::Query(p, e),
                );
            }
            Event::Leave(p, e) => {
                if e != epoch[p.index()] || !s.overlay.is_alive(p) {
                    continue;
                }
                // Never take the last peer offline.
                if s.overlay.alive_count() <= 1 {
                    continue;
                }
                let _ = s.overlay.leave(p);
                epoch[p.index()] += 1;
                churn_events += 1;
                // One draw decides how the departure presents; engine state
                // and index caches then follow the same purge taxonomy, so
                // a silent crash leaves survivor caches stale (pruned lazily
                // by `lookup_alive`) exactly as it leaves trees stale.
                let kind = cfg.departures.sample(&mut s.rng);
                if let Some(eng) = &mut ace {
                    match kind {
                        DepartureKind::Graceful => eng.on_leave(p),
                        DepartureKind::Crash => eng.on_crash(p),
                    }
                }
                if let Some(c) = &mut cache {
                    let ev = match kind {
                        DepartureKind::Graceful => LifecycleEvent::GracefulLeave,
                        DepartureKind::Crash => LifecycleEvent::Crash,
                    };
                    purge_index_cache(c, p, ev);
                }
                // The paper keeps the population constant: one joiner per
                // leaver, arriving shortly after.
                queue.push(now + SimTime::from_secs(1).as_ticks(), Event::Join);
            }
            Event::Join => {
                let dead: Vec<PeerId> = s
                    .overlay
                    .peers()
                    .filter(|&p| !s.overlay.is_alive(p))
                    .collect();
                if dead.is_empty() {
                    continue;
                }
                let p = dead[s.rng.gen_range(0..dead.len())];
                if s.overlay.join(p, attach, &mut s.rng).is_err() {
                    continue;
                }
                epoch[p.index()] += 1;
                churn_events += 1;
                if let Some(eng) = &mut ace {
                    // A rejoin must purge any references left over from a
                    // crashed previous incarnation of the same peer id.
                    eng.on_join(p);
                }
                if let Some(c) = &mut cache {
                    // Same rule for caches: the new incarnation must not be
                    // shadowed by pointers at its crashed predecessor.
                    purge_index_cache(c, p, LifecycleEvent::Rejoin);
                }
                let e = epoch[p.index()];
                queue.push(
                    now + cfg.lifetime.sample(&mut s.rng).as_ticks(),
                    Event::Leave(p, e),
                );
                queue.push(
                    now + cfg.query_rate.next_gap(&mut s.rng).as_ticks(),
                    Event::Query(p, e),
                );
            }
            Event::AceRound => {
                if let Some(eng) = &mut ace {
                    eng.round(&mut s.overlay, &s.oracle, &mut s.rng);
                    queue.push(
                        now + SimTime::from_secs(cfg.ace_period_secs).as_ticks(),
                        Event::AceRound,
                    );
                }
            }
        }
    }

    DynamicResult {
        windows,
        total_overhead: ace.as_ref().map_or(0.0, |e| e.ledger().total_cost()),
        churn_events,
        sim_end: now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ace: Option<AceConfig>) -> DynamicConfig {
        let scenario = ScenarioConfig {
            as_count: 4,
            nodes_per_as: 40,
            peers: 60,
            avg_degree: 6,
            objects: 40,
            replicas: 5,
            seed: 21,
            ..ScenarioConfig::default()
        };
        // Fast churn so the short test exercises join/leave heavily while
        // still spanning enough simulated time for several ACE rounds.
        DynamicConfig {
            lifetime: LifetimeModel::ClampedNormal {
                mean_secs: 60.0,
                std_secs: 30.0,
                min_secs: 5.0,
            },
            query_rate: QueryRate { per_minute: 4.0 },
            total_queries: 600,
            window: 100,
            ..DynamicConfig::paper_default(scenario, ace)
        }
    }

    #[test]
    fn baseline_run_completes_with_churn() {
        let r = dynamic_run(&tiny(None));
        assert_eq!(r.windows.last().unwrap().queries_done, 600);
        assert!(r.churn_events > 10, "churn events {}", r.churn_events);
        assert_eq!(r.total_overhead, 0.0);
        for w in &r.windows {
            assert!(w.traffic > 0.0);
            assert!(w.scope_frac > 0.5, "scope fraction {}", w.scope_frac);
        }
    }

    #[test]
    fn ace_beats_baseline_in_steady_state() {
        let base = dynamic_run(&tiny(None));
        let ace = dynamic_run(&tiny(Some(AceConfig::paper_default())));
        assert!(ace.total_overhead > 0.0);
        assert!(
            ace.steady_traffic() < base.steady_traffic(),
            "ACE {} vs baseline {}",
            ace.steady_traffic(),
            base.steady_traffic()
        );
    }

    #[test]
    fn crash_heavy_churn_stays_healthy() {
        // Every departure is a silent crash: survivors keep stale trees
        // and forward requests until phase 1 prunes them. The engine's
        // debug_assert auditor runs every ACE round, so this test fails
        // loudly if crashes ever corrupt cross-peer state — and the scope
        // check fails if stale trees black-hole queries.
        let mut cfg = tiny(Some(AceConfig::paper_default()));
        cfg.departures = DepartureModel::with_crash_fraction(1.0);
        let r = dynamic_run(&cfg);
        assert_eq!(r.windows.last().unwrap().queries_done, 600);
        assert!(r.churn_events > 10, "churn events {}", r.churn_events);
        for w in &r.windows {
            assert!(w.scope_frac > 0.5, "scope fraction {}", w.scope_frac);
        }
    }

    /// Crash-only churn with caching on: survivor caches are never purged
    /// eagerly (the taxonomy forbids it — nobody observed the crash), so
    /// this run only stays healthy because `lookup_alive` refuses to serve
    /// the stale pointers and drops them on access.
    #[test]
    fn cached_pointers_survive_crash_churn() {
        let mut cfg = tiny(Some(AceConfig::paper_default()));
        cfg.departures = DepartureModel::with_crash_fraction(1.0);
        cfg.index_cache = Some(200);
        let r = dynamic_run(&cfg);
        assert_eq!(r.windows.last().unwrap().queries_done, 600);
        assert!(r.churn_events > 10, "churn events {}", r.churn_events);
        for w in &r.windows {
            assert!(w.success > 0.5, "success {}", w.success);
        }
    }

    #[test]
    fn index_cache_slashes_traffic() {
        let mut cfg = tiny(Some(AceConfig::paper_default()));
        cfg.index_cache = Some(200);
        let cached = dynamic_run(&cfg);
        let base = dynamic_run(&tiny(None));
        assert!(
            cached.steady_traffic() < 0.5 * base.steady_traffic(),
            "cached {} vs base {}",
            cached.steady_traffic(),
            base.steady_traffic()
        );
    }
}
