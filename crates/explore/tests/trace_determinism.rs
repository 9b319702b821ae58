//! Pins the trace determinism contract (docs/OBS.md): search traces are a
//! pure function of `(system, bounds, seed, canon, partitions)` and
//! `trace_diff` localizes a deliberately seeded divergence to the exact
//! event. (That `Search::workers` never reaches a trace is
//! `tests/determinism.rs::resident_runs_ignore_the_worker_count`.)

use impossible_explore::{Grid, Search};
use impossible_explore::{PauseBudget, Resumable};
use impossible_obs::Event;
use impossible_obs::{trace_diff, RingTracer, TraceDiff};

fn explore_trace(max: u8) -> Vec<impossible_obs::Event> {
    let sys = Grid { n: 2, max };
    let mut tracer = RingTracer::new(4096);
    let r = Search::new(&sys).tracer(&mut tracer).explore();
    assert!(!r.truncated());
    tracer.into_events()
}

#[test]
fn trace_event_kinds_are_pinned_for_a_small_search() {
    // The event schema is part of the contract: a search that finds its
    // witness at depth 4 on the 3x3 grid emits exactly this span sequence.
    let sys = Grid { n: 2, max: 2 };
    let mut tracer = RingTracer::new(4096);
    let r = Search::new(&sys).tracer(&mut tracer).search(|s| s.iter().all(|&c| c == 2));
    assert_eq!(r.witness.expect("corner reachable").len(), 4);
    let kinds: Vec<&str> = tracer.events().iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(
        kinds,
        [
            "start",
            "init",
            "level.enter",
            "level.exit", // level 0
            "level.enter",
            "level.exit", // level 1
            "level.enter",
            "level.exit", // level 2
            "level.enter",
            "found",
            "level.exit", // level 3: the corner appears at depth 4
            "end",
        ]
    );
    // Sequence stamps are the logical clock: 0..n with no gaps.
    for (i, e) in tracer.events().iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
}

#[test]
fn different_fingerprint_seeds_diverge_at_the_start_event() {
    let sys = Grid { n: 2, max: 3 };
    let mut a = RingTracer::new(4096);
    let mut b = RingTracer::new(4096);
    let _ = Search::new(&sys).seed(1).tracer(&mut a).explore();
    let _ = Search::new(&sys).seed(2).tracer(&mut b).explore();
    match trace_diff(a.events(), b.events()) {
        TraceDiff::Diverged { index, left, right } => {
            // The seed is stamped into the start event, so runs keyed
            // differently are distinguishable from event 0.
            assert_eq!(index, 0);
            assert_eq!(left.unwrap().kind, "start");
            assert_eq!(right.unwrap().kind, "start");
        }
        other => panic!("seeds 1 and 2 must diverge, got {other:?}"),
    }
}

#[test]
fn structural_divergence_is_localized_to_the_exact_event() {
    // Two grids that agree for the first three levels (every counter
    // profile with sum <= 3 is legal in both) and first differ when the
    // smaller grid saturates a counter at level 3: max=3 loses transitions
    // the max=4 grid still has, so the first divergent event is the
    // level-3 `level.exit` — event index 9 (start, init, then
    // enter/exit per level).
    let a = explore_trace(3);
    let b = explore_trace(4);
    match trace_diff(&a, &b) {
        TraceDiff::Diverged { index, left, right } => {
            assert_eq!(index, 9, "diverges at the level-3 exit");
            let (l, r) = (left.unwrap(), right.unwrap());
            assert_eq!(l.kind, "level.exit");
            assert_eq!(r.kind, "level.exit");
            // Same span position, different counters: the diff names the
            // exact level where the two spaces stop agreeing.
            assert_eq!(l.fields[0], ("level".to_string(), 3usize.into()));
            assert_ne!(l.fields, r.fields);
        }
        other => panic!("different grids must diverge, got {other:?}"),
    }
}

#[test]
fn jsonl_round_trips_through_the_parser() {
    // The diff workflow reads dumps back from disk; parse(to_jsonl) must be
    // the identity on every event a real engine emits.
    let sys = Grid { n: 2, max: 3 };
    let mut tracer = RingTracer::new(4096);
    let _ = Search::new(&sys).tracer(&mut tracer).search(|s| s == &vec![3, 3]);
    let jsonl = tracer.to_jsonl();
    let parsed: Vec<_> = jsonl
        .lines()
        .map(|l| impossible_obs::Event::parse_jsonl(l).expect("canonical line"))
        .collect();
    assert_eq!(parsed, tracer.into_events());
}

#[test]
fn a_paused_then_resumed_trace_is_the_straight_trace_cut_in_two() {
    // `run_resumable` / `resume` wrap the one level loop, so
    // a pause may add events — `pause` closes the first trace, a fresh
    // `start` and one `resume` open the second — but never moves one: with
    // those three kinds dropped and `seq` renumbered, paused ++ resumed is
    // the uninterrupted trace, whichever level boundary the pause fell on.
    fn spine(traces: [Vec<Event>; 2]) -> Vec<Event> {
        let kept = traces.into_iter().flatten();
        let kept = kept.filter(|e| !["start", "pause", "resume"].contains(&e.kind.as_str()));
        kept.zip(0..).map(|(e, seq)| Event { seq, ..e }).collect()
    }
    fn fields(named: &[(&str, usize)]) -> Vec<(String, impossible_obs::Value)> {
        named.iter().map(|&(name, v)| (name.to_string(), v.into())).collect()
    }
    let sys = Grid { n: 3, max: 3 };
    // Whole, and cut by the state cap (a `truncate` event mid-trace).
    for cap in [usize::MAX, 40] {
        // A fn, not a closure: each builder borrows its own tracer.
        fn search(sys: &Grid, cap: usize) -> Search<'_, Grid> {
            Search::new(sys).max_states(cap)
        }
        let mut straight = RingTracer::new(4096);
        let report = search(&sys, cap).tracer(&mut straight).explore();
        assert_eq!(report.truncated(), cap == 40);
        let want = spine([straight.into_events(), Vec::new()]);
        let mut level = 0;
        loop {
            let mut first = RingTracer::new(4096);
            let budget = PauseBudget::levels(level);
            let ckpt = match search(&sys, cap).tracer(&mut first).run_resumable(budget) {
                Resumable::Paused(ckpt) => ckpt,
                Resumable::Done(done) => {
                    assert_eq!(done, report);
                    break;
                }
            };
            let at = [
                ("level", ckpt.depth),
                ("states", ckpt.num_states()),
                ("frontier", ckpt.frontier_len()),
                ("transitions", ckpt.transitions),
            ];
            let mut second = RingTracer::new(4096);
            let resumed = search(&sys, cap).tracer(&mut second).resume(ckpt, PauseBudget::never());
            assert_eq!(resumed.done().expect("an unbounded resume finishes"), report);

            let (first, second) = (first.into_events(), second.into_events());
            let pause = first.last().expect("a paused trace ends in its pause");
            assert_eq!((pause.kind.as_str(), &pause.fields), ("pause", &fields(&at[..3])));
            assert_eq!(second[0], first[0], "the resumed trace opens with the same start");
            assert_eq!((second[1].kind.as_str(), &second[1].fields), ("resume", &fields(&at)));
            assert_eq!(spine([first, second]), want, "paused before level {level} (cap {cap})");
            level += 1;
        }
        assert_eq!(level, report.stats.levels, "every level boundary was paused at");
    }
}
