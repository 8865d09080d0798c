//! Deterministic fork-join worker pool.
//!
//! The plan/commit round pipeline (PR 1) and the batched query-serving
//! engine both need the same primitive: run `n` independent, read-only
//! jobs on a bounded set of threads and get the results back **in index
//! order**, so that the caller's subsequent (serial) merge is identical
//! for any worker count. This module is that primitive, extracted from
//! the ACE engine so every layer shares one implementation.
//!
//! The contract that makes worker-count independence work: `f` must be a
//! pure function of its index (no shared mutable state, no RNG draws from
//! a shared stream). The pool only changes *which thread* runs an index,
//! never *what* the index computes or the order results are returned in.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0)..f(n-1)` on `workers` scoped threads with atomic-counter
/// work stealing, returning results in index order. One worker (or one
/// item) degenerates to an inline loop with identical results — `f` must
/// not depend on which thread runs it.
///
/// # Examples
///
/// ```
/// use ace_engine::pool::plan_parallel;
/// let squares = plan_parallel(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// // Any worker count gives the same answer.
/// assert_eq!(plan_parallel(5, 1, |i| i * i), squares);
/// ```
pub fn plan_parallel<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    plan_parallel_scratch(&ScratchPool::new(), n, workers, || (), |_, i| f(i))
}

/// A pool of reusable per-worker scratch arenas.
///
/// Workers take a scratch at the start of a [`plan_parallel_scratch`]
/// run (or build a fresh one when the pool is dry) and return it at the
/// end, so arena capacity built up in one round is reused by the next —
/// across peers *and* across rounds. The pool never shrinks; it holds at
/// most one scratch per worker that ever ran.
///
/// Scratch state is transient by contract (cleared before every use),
/// so cloning a pool yields an **empty** pool: a cloned engine rebuilds
/// its arenas on first use instead of deep-copying caches it would
/// clear anyway.
pub struct ScratchPool<S> {
    inner: Mutex<Vec<S>>,
}

impl<S> ScratchPool<S> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ScratchPool {
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Takes a pooled scratch, or `None` when the pool is dry.
    pub fn take(&self) -> Option<S> {
        self.inner.lock().expect("scratch pool lock poisoned").pop()
    }

    /// Returns a scratch to the pool.
    pub fn put(&self, scratch: S) {
        self.inner
            .lock()
            .expect("scratch pool lock poisoned")
            .push(scratch);
    }

    /// Number of currently pooled (idle) scratches.
    pub fn idle(&self) -> usize {
        self.inner.lock().expect("scratch pool lock poisoned").len()
    }
}

impl<S> Default for ScratchPool<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Clone for ScratchPool<S> {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl<S> std::fmt::Debug for ScratchPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("idle", &self.idle())
            .finish()
    }
}

/// [`plan_parallel`] with a per-worker scratch arena: each worker takes
/// one scratch from `pool` (building it with `init` when the pool is
/// dry) and threads it through every `f(&mut scratch, i)` it runs,
/// returning it to the pool when its share of the work is done. `f`
/// must treat the scratch as cleared-on-entry transient state — results
/// must not depend on which scratch (or thread) served an index, which
/// preserves the pool's worker-count determinism contract.
pub fn plan_parallel_scratch<T, S, I, F>(
    pool: &ScratchPool<S>,
    n: usize,
    workers: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if n <= 1 || workers <= 1 {
        let mut scratch = pool.take().unwrap_or_else(&init);
        let out = (0..n).map(|i| f(&mut scratch, i)).collect();
        pool.put(scratch);
        return out;
    }
    let threads = workers.min(n);
    let next = AtomicUsize::new(0);
    // Each worker returns the `(index, result)` pairs it ran, indices
    // rising, so the next index is always at the head of one run.
    let mut runs: Vec<std::vec::IntoIter<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = pool.take().unwrap_or_else(&init);
                    let mut run = Vec::with_capacity(n.div_ceil(threads));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        run.push((i, f(&mut scratch, i)));
                    }
                    pool.put(scratch);
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let run = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                run.into_iter()
            })
            .collect()
    });
    let mut out = Vec::with_capacity(n);
    while let Some(run) = runs
        .iter_mut()
        .filter(|r| !r.as_slice().is_empty())
        .min_by_key(|r| r.as_slice()[0].0)
    {
        out.extend(run.next().map(|(_, v)| v));
    }
    out
}

/// Resolves a worker-count knob: `0` means one worker per available
/// hardware thread, anything else is taken literally.
pub fn effective_workers(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = plan_parallel(64, 8, |i| i as u64 * 3);
        assert_eq!(out, (0..64).map(|i| i as u64 * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_agree() {
        let reference = plan_parallel(33, 1, |i| i.wrapping_mul(0x9e37_79b9));
        for workers in [2, 3, 4, 7] {
            assert_eq!(
                plan_parallel(33, workers, |i| i.wrapping_mul(0x9e37_79b9)),
                reference,
                "workers={workers} diverged"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        assert_eq!(plan_parallel(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(plan_parallel(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn effective_workers_resolves_zero() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn scratch_pool_reuses_arenas_across_runs() {
        let pool: ScratchPool<Vec<usize>> = ScratchPool::new();
        let out = plan_parallel_scratch(&pool, 8, 1, Vec::new, |s, i| {
            s.clear();
            s.push(i);
            s[0] * 2
        });
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(pool.idle(), 1, "serial run parks exactly one scratch");
        let before = pool.idle();
        plan_parallel_scratch(&pool, 16, 4, Vec::new, |s, i| {
            s.clear();
            s.push(i);
        });
        assert!(pool.idle() >= before, "workers return their scratches");
    }

    #[test]
    fn scratch_runs_match_plain_parallel_results() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        let reference = plan_parallel(33, 1, |i| i as u64 * 7 + 1);
        for workers in [1, 2, 4] {
            let got = plan_parallel_scratch(&pool, 33, workers, Vec::new, |s, i| {
                s.clear();
                s.push(i as u64 * 7 + 1);
                s[0]
            });
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn cloned_pool_starts_empty() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        pool.put(vec![1, 2, 3]);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.clone().idle(), 0);
    }
}
