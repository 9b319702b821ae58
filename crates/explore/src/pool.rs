//! Deterministic fork-join worker pool with whole-shard work stealing.
//!
//! The one place in the workspace allowed to touch OS threads. The contract
//! that keeps it deterministic is structural, not synchronization-based:
//!
//! * work arrives as an ordered list of indexed items — its one client is
//!   `check manifest` (`impossible-ckpt`'s `run_manifest`), whose items
//!   are the manifest's jobs;
//! * idle workers claim the next *whole* item from a shared atomic claim
//!   counter (`fetch_add` over the item index). A shard's item stream is
//!   never split: whichever worker claims item `k` runs all of `f(k, item)`
//!   to completion, so per-item output is the same pure function of
//!   `(k, item)` no matter who computed it. The race decides only *who*
//!   computes each item, which is unobservable in the output;
//! * results are returned **in item order** (merged by item index into
//!   fixed slots), so the caller's merge observes a sequence that depends
//!   only on the input, never on thread scheduling.
//!
//! Consequently the mapper here is extensionally identical for any worker
//! count — `impossible-ckpt`'s
//! `outcomes_keep_manifest_order_for_any_worker_count` pins manifest
//! outcomes at 1, 2 and 8 workers, the tests below order and exclusive
//! access. No search uses the pool. Threads are *scoped* (joined before
//! return) and share only the read-only closure plus the claim counter, so
//! no state leaks across calls. A panicking item does not stop the pass:
//! every item runs, and the caller gets the lowest failing item's own
//! panic payload — the one the inline single-worker path raises.
//!
//! ## Steal accounting
//!
//! The pool counts claim-protocol activity in two atomic counters drained
//! via [`WorkerPool::take_steals`]. Which *worker* performs a given steal is
//! scheduling-dependent and deliberately not recorded; the *number* of
//! steals is not: a parallel pass over `n` items with `W` workers spawns
//! `min(W, n)` threads whose first claims are their own, so exactly
//! `n - min(W, n)` claims are steals — a pure function of `(n, W)`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-size fork-join pool. `workers == 1` runs inline with no threads.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
    /// Parallel passes in which at least one item was stolen.
    steal_passes: AtomicU64,
    /// Total items claimed beyond each worker's first (i.e. stolen shards).
    stolen_shards: AtomicU64,
}

impl WorkerPool {
    /// A pool with `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
            steal_passes: AtomicU64::new(0),
            stolen_shards: AtomicU64::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drain the steal counters accumulated since the last call: `(passes
    /// with stealing, shards claimed as steals)`. Both are deterministic
    /// projections of the claim protocol (see the module docs); the inline
    /// single-worker path never steals, so both stay 0 at `workers == 1`.
    pub fn take_steals(&self) -> (u64, u64) {
        (
            self.steal_passes.swap(0, Ordering::Relaxed),
            self.stolen_shards.swap(0, Ordering::Relaxed),
        )
    }

    /// Consume an ordered list of items, applying `f(index, item)` on
    /// whichever worker claims the index first, and return outputs in index
    /// order.
    ///
    /// This is the pool's only mapper — every engine pass goes through it —
    /// and the primitive behind worker-owned visited-set shards: passing
    /// `&mut`-borrows of the shards as items hands each claiming worker
    /// exclusive access to exactly the shards it claimed — the borrows are
    /// disjoint because each item is taken from its slot exactly once. The
    /// output is a pure function of `(items, f)`; the worker count only
    /// affects wall-clock time.
    ///
    /// # Panics
    ///
    /// With the payload of the lowest-indexed item whose `f` panicked, for
    /// any worker count: each item runs under `catch_unwind`, and the
    /// payload is re-raised after every worker has joined.
    pub fn map_indexed<T, O, F>(&self, items: Vec<T>, f: F) -> Vec<O>
    where
        T: Send,
        O: Send,
        F: Fn(usize, T) -> O + Sync,
    {
        if self.workers == 1 || items.len() <= 1 {
            return items.into_iter().enumerate().map(|(k, t)| f(k, t)).collect();
        }
        let n = items.len();
        // Steal accounting (deterministic — see module docs): the first
        // claim of each spawned worker is its own; every further claim is a
        // steal, so a pass over n items steals exactly n - spawned of them.
        let spawned = self.workers.min(n);
        let stolen = (n - spawned) as u64;
        if stolen > 0 {
            self.steal_passes.fetch_add(1, Ordering::Relaxed);
            self.stolen_shards.fetch_add(stolen, Ordering::Relaxed);
        }
        // Each item sits in a one-shot slot; a worker that wins index k via
        // the claim counter takes the item out and is its only toucher.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        // Scoped threads: joined before return, sharing only `f`, the slots
        // and the claim counter. Results are placed by item index, so
        // scheduling order cannot influence the output.
        // LINT-ALLOW: det-ambient -- deterministic fork-join pool: atomic whole-shard claim counter, ordered merge (docs/EXPLORE.md)
        let merged = std::thread::scope(|scope| {
            let f = &f;
            let slots = &slots;
            let next = &next;
            let handles: Vec<_> = (0..spawned)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= n {
                                break;
                            }
                            let t = slots[k]
                                .lock()
                                .expect("claim slot poisoned")
                                .take()
                                .expect("item claimed twice");
                            done.push((k, catch_unwind(AssertUnwindSafe(|| f(k, t)))));
                        }
                        done
                    })
                })
                .collect();
            let mut merged: Vec<Option<std::thread::Result<O>>> = (0..n).map(|_| None).collect();
            for h in handles {
                for (k, r) in h.join().expect("pool worker panicked outside its items") {
                    merged[k] = Some(r);
                }
            }
            merged
        });
        merged
            .into_iter()
            .map(|r| match r.expect("item covered") {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_parts(parts: &[Vec<u64>], workers: usize) -> Vec<Vec<u64>> {
        WorkerPool::new(workers).map_indexed(parts.to_vec(), |_, part| {
            part.iter().map(|x| x * x).collect()
        })
    }

    #[test]
    fn output_is_worker_count_invariant() {
        let parts: Vec<Vec<u64>> = (0..13).map(|k| (0..k).collect()).collect();
        let one = square_parts(&parts, 1);
        for w in [2, 3, 8, 64] {
            assert_eq!(square_parts(&parts, w), one);
        }
    }

    #[test]
    fn empty_and_single_partition_edge_cases() {
        assert_eq!(square_parts(&[], 4), Vec::<Vec<u64>>::new());
        assert_eq!(square_parts(&[vec![3]], 4), vec![vec![9]]);
        assert_eq!(
            square_parts(&[vec![], vec![2], vec![]], 2),
            vec![vec![], vec![4], vec![]]
        );
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn map_indexed_moves_items_and_keeps_order() {
        // Owned items (here Strings) are consumed by whichever worker claims
        // them and outputs come back in index order for any worker count.
        let mk = || (0..17).map(|i| format!("item-{i}")).collect::<Vec<_>>();
        let one = WorkerPool::new(1).map_indexed(mk(), |k, s| format!("{k}:{s}"));
        for w in [2, 3, 8] {
            let got = WorkerPool::new(w).map_indexed(mk(), |k, s| format!("{k}:{s}"));
            assert_eq!(got, one, "workers={w}");
        }
        assert_eq!(one[0], "0:item-0");
        assert_eq!(one[16], "16:item-16");
    }

    #[test]
    fn map_indexed_grants_exclusive_mutable_access() {
        // &mut borrows as items: each claiming worker mutates only the slots
        // it claimed; the merged result is schedule-independent.
        let mut cells: Vec<u64> = vec![0; 23];
        {
            let items: Vec<&mut u64> = cells.iter_mut().collect();
            WorkerPool::new(4).map_indexed(items, |k, cell| {
                *cell = (k as u64) * 10;
            });
        }
        assert!(cells.iter().enumerate().all(|(k, &v)| v == (k as u64) * 10));
    }

    #[test]
    fn the_lowest_failing_items_own_panic_reaches_the_caller() {
        // Items 5 and 11 panic with distinct messages; whatever worker
        // claims which, the caller sees item 5's, as the inline path does.
        for w in [1, 2, 3, 8] {
            let caught = std::panic::catch_unwind(|| {
                WorkerPool::new(w).map_indexed((0..16u64).collect(), |k, x| {
                    if k == 5 || k == 11 {
                        panic!("item {k} failed");
                    }
                    x
                })
            });
            let payload = caught.expect_err("two items panicked");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("item 5 failed"),
                "workers={w}"
            );
        }
    }

    #[test]
    fn steal_counters_are_a_pure_function_of_items_and_workers() {
        // 64 items, 2 workers: the pass spawns 2 threads whose first claims
        // are their own, so exactly 62 claims are steals — regardless of
        // which thread performed them.
        let pool = WorkerPool::new(2);
        let _ = pool.map_indexed((0..64u64).collect(), |_, x| x + 1);
        assert_eq!(pool.take_steals(), (1, 62));
        // Drained: a second take reads zero.
        assert_eq!(pool.take_steals(), (0, 0));
        // Counters accumulate across passes until drained.
        let _ = pool.map_indexed((0..64u64).collect(), |_, x| x);
        let _ = pool.map_indexed((0..5u64).collect(), |_, x| x);
        assert_eq!(pool.take_steals(), (2, 62 + 3));
    }

    #[test]
    fn inline_paths_never_steal() {
        // One worker (inline) and degenerate item counts record no steals.
        let one = WorkerPool::new(1);
        let _ = one.map_indexed((0..64u64).collect(), |_, x| x);
        assert_eq!(one.take_steals(), (0, 0));
        let many = WorkerPool::new(8);
        let _ = many.map_indexed(vec![7u64], |_, x| x);
        let _ = many.map_indexed(Vec::<u64>::new(), |_, x| x);
        // n <= 1 runs inline; n == 8 spawns 8 workers, zero steals.
        let _ = many.map_indexed((0..8u64).collect(), |_, x| x);
        assert_eq!(many.take_steals(), (0, 0));
    }
}
