//! The resident determinism contract: the same search under the same seed
//! produces byte-identical reports, traces and checkpoints — whatever
//! `Search::workers` says, across pauses, and for any budget.
//!
//! The resident route has one traversal order and one level body (the fused
//! single-threaded one); `workers` is only recorded, on every route. The
//! spill route's oracle is `tests/extmem_spill.rs`. `DET_SEED` replays the
//! property cases.

use impossible_det::{det_assert, det_assert_eq, det_prop, DetRng};
use impossible_explore::property::{eventually, never};
use impossible_explore::table::TryInsert;
use impossible_core::system::System;
use impossible_explore::{
    Cap, Encode, FpHasher, FpMap, Grid, PauseBudget, Resumable, Search, SearchReport,
    DEFAULT_SEED,
};
use impossible_obs::RingTracer;

/// Debug strings are the byte-level comparison: every field, every witness
/// state and action, formatted identically or not at all. Only
/// `stats.workers` — the requested count, recorded by design — is masked.
fn strip_workers(r: &SearchReport<Vec<u8>, usize>) -> String {
    let mut stats = r.stats;
    stats.workers = 0;
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.num_states, r.num_transitions, r.terminal_states, r.truncated_by, r.witness, stats
    )
}

/// `at(w)` for w ∈ {1, 2, 8}, asserted equal; returns the common value.
fn same_at_1_2_8<T: PartialEq + std::fmt::Debug>(what: &str, at: impl Fn(usize) -> T) -> T {
    let one = at(1);
    for w in [2, 8] {
        assert_eq!(one, at(w), "{what}: worker count {w} changed the bytes");
    }
    one
}

#[test]
fn resident_runs_ignore_the_worker_count() {
    // `workers` is recorded and otherwise unread on the resident route:
    // every report, trace, checkpoint and graph is equal at w ∈ {1,2,8}
    // with nothing masked but `stats.workers`, and no run ever steals.
    let render = |r: SearchReport<Vec<u8>, usize>, w: usize| {
        assert_eq!((r.stats.workers, r.stats.steals, r.stats.stolen_shards), (w, 0, 0));
        strip_workers(&r)
    };
    fn corner(max: u8) -> impl Fn(&Vec<u8>) -> bool {
        move |s| s.iter().all(|&c| c == max)
    }

    // Full explore, witness hunt, traced hunt and the graph route, under
    // the default seed, the trace suite's 42 and a dozen drawn ones.
    let mut rng = DetRng::seed_from_u64(0x5EED);
    let drawn = (0..12).map(|_| rng.bounded_u64(1_000_000));
    for seed in [DEFAULT_SEED, 42].into_iter().chain(drawn) {
        let sys = Grid { n: 4, max: 3 };
        same_at_1_2_8("explore", |w| {
            render(Search::new(&sys).workers(w).seed(seed).explore(), w)
        });
        same_at_1_2_8("hunt", |w| {
            render(Search::new(&sys).workers(w).seed(seed).search(corner(3)), w)
        });
        let trace = same_at_1_2_8("traced hunt", |w| {
            let sys = Grid { n: 3, max: 4 };
            let mut tracer = RingTracer::new(4096);
            let r = Search::new(&sys)
                .workers(w)
                .seed(seed)
                .tracer(&mut tracer)
                .search(corner(4));
            assert!(r.witness.is_some(), "corner reachable");
            assert_eq!(tracer.dropped(), 0, "trace fits the ring");
            tracer.to_jsonl()
        });
        assert!(trace.lines().count() > 10, "trace has real content:\n{trace}");
        assert!(trace.contains("\"kind\":\"level.exit\""));
        assert!(trace.contains("\"kind\":\"found\""));
        same_at_1_2_8("graph + property", |w| {
            let sys = Grid { n: 3, max: 3 };
            let search = || Search::new(&sys).workers(w).seed(seed);
            let g = search().graph();
            let live = search().check_property(&eventually("never-stops", |_| false));
            let safe = search().check_property(&never("diagonal", corner(2)));
            format!("{:?}|{:?}|{}|{}", g.order, g.succ, live.to_json(), safe.to_json())
        });
    }

    // State caps that bind mid-level: truncation interacts with insert
    // order, and the `truncate` trace event's position must not move
    // either.
    let sys = Grid { n: 4, max: 4 };
    for cap in [97, 301] {
        same_at_1_2_8("capped explore", |w| {
            let r = Search::new(&sys).max_states(cap).workers(w).explore();
            assert_eq!(r.num_states, cap);
            assert!(r.truncated());
            assert!(r.stats.cap_fallbacks > 0, "the cap did bind somewhere");
            render(r, w)
        });
    }
    // An uncapped run of the same space never counts a fallback.
    assert_eq!(Search::new(&sys).workers(8).explore().stats.cap_fallbacks, 0);
    let trace = same_at_1_2_8("capped trace", |w| {
        let sys = Grid { n: 3, max: 4 };
        let mut tracer = RingTracer::new(4096);
        let r = Search::new(&sys)
            .workers(w)
            .max_states(73)
            .tracer(&mut tracer)
            .explore();
        assert_eq!(r.num_states, 73);
        tracer.to_jsonl()
    });
    assert!(trace.contains("\"kind\":\"truncate\""));

    // The suspended state itself — canonical shard pages + partition-
    // ordered frontier — and the run resumed from it, at every pause
    // point of the cap-straddling search and one of an uncapped one.
    for (cap, pause_at) in [(usize::MAX, 60), (301, 60), (301, 200), (301, 290)] {
        let search = |w: usize| Search::new(&sys).max_states(cap).workers(w);
        let straight = strip_workers(&search(1).explore());
        let ckpt = same_at_1_2_8("checkpoint", |w| {
            search(w)
                .run_resumable(PauseBudget::states(pause_at))
                .paused()
                .expect("pause budget below the space must pause")
        });
        let resumed = same_at_1_2_8("resumed report", |w| {
            let done = search(w).resume(ckpt.clone(), PauseBudget::never()).done();
            render(done.expect("never-budget resume runs to completion"), w)
        });
        assert_eq!(straight, resumed, "cap={cap} pause_at={pause_at}");
    }
}

#[test]
fn resident_entry_points_take_states_that_cannot_cross_threads() {
    // An `Rc` in the state makes it neither `Send` nor `Sync`: this
    // compiles only while the resident route asks for `Encode` alone.
    use std::rc::Rc;
    struct Countdown;
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Held(Rc<u8>);
    // LINT-ALLOW: encode-coverage -- `Rc<u8>` is not `Encode` (the macro calls `Encode::encode` by path, which does not auto-deref); the one field is consumed
    impl Encode for Held {
        fn encode(&self, h: &mut FpHasher) {
            self.0.encode(h);
        }
    }
    impl System for Countdown {
        type State = Held;
        type Action = u8;
        fn initial_states(&self) -> Vec<Held> {
            vec![Held(Rc::new(3))]
        }
        fn enabled(&self, s: &Held) -> Vec<u8> {
            (0..(*s.0).min(2)).collect()
        }
        fn step(&self, s: &Held, a: &u8) -> Held {
            Held(Rc::new(*s.0 - 1 - a))
        }
    }
    let search = || Search::new(&Countdown).workers(2);
    assert_eq!(search().explore().num_states, 4);
    let w = search().search(|s| *s.0 == 0).witness.expect("reachable");
    assert_eq!(w.len(), 2);
    let ckpt = search().run_resumable(PauseBudget::levels(1)).paused();
    let resumed = search().resume(ckpt.expect("pauses"), PauseBudget::never());
    assert_eq!(resumed.done(), Some(search().explore()));
    assert_eq!(search().graph().len(), 4);
}

#[test]
fn paused_and_resumed_run_matches_uninterrupted_bytes() {
    // The core resume contract: pause at a state budget, resume, and the
    // final report is byte-identical to the uninterrupted run — including
    // `stats.workers`, which is the *resuming* builder's requested count.
    let sys = Grid { n: 4, max: 3 };
    let straight = Search::new(&sys).workers(2).explore();
    let ckpt = Search::new(&sys)
        .workers(1)
        .run_resumable(PauseBudget::states(60))
        .paused()
        .expect("60 < 256 states: must pause");
    assert!(ckpt.num_states() >= 60);
    assert!(ckpt.frontier_len() > 0);
    let resumed = Search::new(&sys)
        .workers(2)
        .resume(ckpt, PauseBudget::never())
        .done()
        .expect("never-budget resume runs to completion");
    assert_eq!(straight, resumed);
}

#[test]
fn resume_preserves_cap_truncation_and_fallback_counters() {
    // Satellite: a run stopped by `Truncation::States` exactly at the cap
    // must report the same `truncated_by`/`cap_fallbacks` whether the cap
    // bound before the pause, on the resumed side, or with no pause at all
    // — the resumable path runs the very same level loop as the fused path.
    let sys = Grid { n: 4, max: 4 };
    let straight = Search::new(&sys).max_states(301).explore();
    assert_eq!(straight.num_states, 301);
    assert!(straight.truncated());
    assert!(straight.stats.cap_fallbacks > 0);

    for pause_at in [60, 200, 290] {
        let ckpt = Search::new(&sys)
            .max_states(301)
            .run_resumable(PauseBudget::states(pause_at))
            .paused()
            .expect("pause budget below the cap must pause");
        let resumed = Search::new(&sys)
            .max_states(301)
            .resume(ckpt, PauseBudget::never())
            .done()
            .expect("resume to completion");
        assert_eq!(resumed.truncated_by, straight.truncated_by);
        assert_eq!(
            resumed.stats.cap_fallbacks, straight.stats.cap_fallbacks,
            "pause_at={pause_at}"
        );
        assert_eq!(straight, resumed);
    }
}

#[test]
fn chained_pauses_reach_the_same_bytes() {
    // Resume may itself pause; an arbitrary chain of budgets must land on
    // the uninterrupted bytes.
    let sys = Grid { n: 4, max: 3 };
    let straight = Search::new(&sys).explore();
    let mut state = Search::new(&sys).run_resumable(PauseBudget::levels(1));
    let mut hops = 0usize;
    let report = loop {
        match state {
            Resumable::Done(r) => break r,
            Resumable::Paused(ckpt) => {
                hops += 1;
                assert!(hops <= 32, "chain must terminate");
                state = Search::new(&sys).resume(ckpt, PauseBudget::levels(ckpt_next(hops)));
            }
        }
    };
    assert!(hops >= 2, "the chain actually paused repeatedly");
    assert_eq!(straight, report);
}

/// Budget schedule for the chained-pause test: one more level per hop.
fn ckpt_next(hop: usize) -> usize {
    hop + 1
}

det_prop! {
    fn pause_resume_is_byte_identical_for_any_budget(cases = 10, seed in 0u64..1_000_000, pause_at in 10usize..250) {
        let sys = Grid { n: 4, max: 3 };
        let straight = Search::new(&sys).seed(seed).explore();
        let finished = match Search::new(&sys).seed(seed).run_resumable(PauseBudget::states(pause_at)) {
            // Budget past the space: the resumable path must agree anyway.
            Resumable::Done(r) => r,
            Resumable::Paused(ckpt) => Search::new(&sys)
                .seed(seed)
                .resume(ckpt, PauseBudget::never())
                .done()
                .expect("resume to completion"),
        };
        det_assert_eq!(straight, finished);
    }
}

/// `n` distinct non-zero keys, ascending, from `rng`.
fn ascending_keys(rng: &mut DetRng, n: usize) -> Vec<u64> {
    let mut keys = std::collections::BTreeSet::new();
    while keys.len() < n {
        keys.insert(rng.next_u64().max(1));
    }
    keys.into_iter().collect()
}

det_prop! {
    fn from_ascending_is_the_table_incremental_insertion_grows(cases = 3, seed in 0u64..u64::MAX) {
        // The bulk load against the incremental oracle, at every length a
        // small shard sees and on both sides of every doubling up to 2¹⁴
        // slots (the table doubles when entry cap/2 + 1 arrives): same
        // capacity — so the same `approx_bytes`, i.e. the same `peak_bytes`
        // after a resume — and every key where a probe finds it.
        let mut rng = DetRng::seed_from_u64(seed);
        let doublings = (5..=13).flat_map(|p| [(1usize << p) - 1, 1 << p, (1 << p) + 1]);
        for len in (0..=300).chain(doublings) {
            let keys = ascending_keys(&mut rng, len);
            let bulk = FpMap::from_ascending(keys.iter().map(|&k| (k, !k)));
            let mut shuffled = keys.clone();
            rng.shuffle(&mut shuffled);
            let mut grown: FpMap<u64> = FpMap::new();
            for &k in &shuffled {
                grown.try_insert_with(k, Cap::Unbounded, || !k);
            }
            det_assert!(bulk.capacity() == grown.capacity(), "len {len}: {} slots, grown {}", bulk.capacity(), grown.capacity());
            det_assert_eq!(bulk.approx_bytes(), grown.approx_bytes());
            det_assert_eq!(bulk.len(), len);
            for &k in &keys {
                det_assert!(bulk.get(k) == Some(&!k), "len {len}: key {k:#x} is not where a probe looks");
                // Neighbours share the home slot and so walk the same cluster.
                for absent in [k - 1, k.wrapping_add(1)] {
                    if absent != 0 && keys.binary_search(&absent).is_err() {
                        det_assert!(!bulk.contains(absent), "len {len}: {absent:#x} was never inserted");
                    }
                }
            }
            let pairs = |m: &FpMap<u64>| m.iter_ordered().map(|(k, &v)| (k, v)).collect::<Vec<_>>();
            det_assert_eq!(pairs(&bulk), pairs(&grown));
        }
    }
}

det_prop! {
    fn take_ordered_is_collect_and_sort_then_an_empty_table(cases = 48, seed in 0u64..u64::MAX, n in 0usize..600, crowd in 0usize..40) {
        // Keys built to break "slot order is key order": `crowd` of them
        // share the top 24 bits (one home slot at any capacity here, so one
        // long cluster), `crowd` more sit just below `u64::MAX` (home slot =
        // the last one: they probe off the end and wrap to slot 0, where the
        // smallest keys live), plus the folded zero and `u64::MAX` itself —
        // inserted in shuffled order among `n` uniform ones.
        let mut rng = DetRng::seed_from_u64(seed);
        let prefix = rng.next_u64() & !((1u64 << 40) - 1);
        let mut fps: Vec<u64> = ascending_keys(&mut rng, n);
        fps.extend((0..crowd as u64).map(|j| prefix | (1 + j * 0x10_0001)));
        fps.extend((0..crowd as u64).map(|j| u64::MAX - 1 - j));
        fps.extend([0, u64::MAX]);
        rng.shuffle(&mut fps);

        let mut table: FpMap<u64> = FpMap::new();
        let mut oracle = std::collections::BTreeMap::new();
        for &fp in &fps {
            let key = fp.max(1); // the fold
            let inserted = table.try_insert_with(fp, Cap::Unbounded, || !key) == TryInsert::Inserted;
            det_assert_eq!(inserted, oracle.insert(key, !key).is_none());
        }
        let sorted: Vec<(u64, u64)> = oracle.into_iter().collect();
        let walked: Vec<(u64, u64)> = table.iter_ordered().map(|(k, &v)| (k, v)).collect();
        det_assert_eq!(walked, sorted);
        let taken = table.take_ordered();
        det_assert_eq!(taken, sorted);

        // What is left is `FpMap::new()`: empty, 64 slots, usable.
        det_assert_eq!((table.len(), table.capacity()), (0, 64));
        det_assert_eq!(table.approx_bytes(), FpMap::<u64>::new().approx_bytes());
        det_assert!(sorted.iter().all(|&(k, _)| !table.contains(k)), "a taken key is still found");
        table.try_insert_with(7, Cap::Unbounded, || 7);
        det_assert_eq!(table.get(7), Some(&7));

        // And the page goes back: the wrapped crowd lands where probes look.
        let mut back = FpMap::from_ascending(taken);
        det_assert!(sorted.iter().all(|&(k, v)| back.get(k) == Some(&v)), "a reloaded key is lost");
        det_assert_eq!(back.take_ordered(), sorted);
    }
}

#[test]
#[should_panic(expected = "non-zero and strictly ascending")]
fn from_ascending_refuses_descending_keys() {
    FpMap::from_ascending(vec![(5, ()), (9, ()), (7, ())]);
}

#[test]
#[should_panic(expected = "non-zero and strictly ascending")]
fn from_ascending_refuses_a_duplicate_key() {
    FpMap::from_ascending(vec![(5, ()), (9, ()), (9, ())]);
}

#[test]
#[should_panic(expected = "non-zero and strictly ascending")]
fn from_ascending_refuses_the_zero_key() {
    FpMap::from_ascending(vec![(0, ()), (9, ())]);
}
