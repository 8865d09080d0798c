//! Steady-state tree builds allocate nothing.
//!
//! The tree stage owns every buffer it needs in reusable arenas
//! ([`PlanScratch`] via the engine's scratch pool), and committing an
//! unchanged tree reuses the old tree's allocation. This test wraps the
//! global allocator with counters and pins the contract on the public
//! [`AceEngine::build_tree`]: once a warm call has sized the arenas and
//! filled the core cache, rebuilding a peer whose inputs did not change
//! — closure collection, core-pair staging, the plan and its commit —
//! performs **zero** heap allocations (and zero reallocations).
//!
//! Kept as the only test in this binary so no sibling test thread can
//! allocate concurrently and pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ace_core::experiments::{PhysKind, Scenario, ScenarioConfig};
use ace_core::{AceConfig, AceEngine};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_plan_pass_allocates_nothing() {
    let mut w = Scenario::build(&ScenarioConfig {
        phys: PhysKind::TwoLevel {
            as_count: 4,
            nodes_per_as: 30,
        },
        peers: 60,
        avg_degree: 5,
        objects: 20,
        replicas: 3,
        seed: 17,
        ..ScenarioConfig::default()
    });
    let mut ace = AceEngine::new(
        w.overlay.peer_count(),
        AceConfig {
            depth: 2,
            ..AceConfig::paper_default()
        },
    );
    for _ in 0..10 {
        ace.round(&mut w.overlay, &w.oracle, &mut w.rng);
    }
    // The best-connected peer: the most neighbor pairs to stage and the
    // largest closure to walk.
    let peer = w
        .overlay
        .alive_peers()
        .max_by_key(|&p| w.overlay.degree(p))
        .expect("the world has peers");
    assert!(w.overlay.degree(peer) >= 3, "peer has core pairs to stage");

    // Warm call: sizes the pooled arenas, caches the peer's core pairs
    // and commits the tree its current inputs yield.
    ace.build_tree(&w.overlay, &w.oracle, peer);
    let tree = ace.tree_neighbors_of(peer).to_vec();

    // Measured call: same inputs, warm arenas — must not touch the heap.
    let before = ALLOCS.load(Ordering::SeqCst);
    ace.build_tree(&w.overlay, &w.oracle, peer);
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(ace.tree_neighbors_of(peer), tree, "inputs were stable");
    assert_eq!(
        after - before,
        0,
        "warm build_tree allocated {} times",
        after - before
    );
}
