//! The trace vocabularies no binary dumps: `ckpt`'s manifest and
//! incremental passes (`scope: "ckpt"`) and the synchronous ring executor
//! (`scope: "election"`, `mode: "sync"`). Each trace is replayed, and its
//! counters are checked against the report the same call returns
//! (`docs/OBS.md` has the vocabularies).

use impossible::ckpt::{
    job_key, model_fp, reexplore_incremental, run_manifest_traced, ActionEdit, CheckJob, Verdict,
    VerdictCache,
};
use impossible::election::itai_rodeh::ItaiRodeh;
use impossible::election::ring::SyncRingRunner;
use impossible::explore::{Grid, Search, WorkerPool};
use impossible::obs::{Event, NoopTracer, RingTracer, Value};

/// The value of `e`'s field `name`.
fn field<'e>(e: &'e Event, name: &str) -> &'e Value {
    &e.fields.iter().find(|(k, _)| k == name).expect("field present").1
}

fn kinds(events: &[Event]) -> Vec<&str> {
    events.iter().map(|e| e.kind.as_str()).collect()
}

#[test]
fn the_manifest_trace_is_pool_size_invariant_and_matches_its_report() {
    // Seven real checks (explore a 2-counter grid of growing height), two
    // of them already cached.
    let grids: Vec<Grid> = (1..=7).map(|max| Grid { n: 2, max }).collect();
    let label = |i: usize| format!("grid 2 {}", i + 1);
    let key = |i: usize| job_key(model_fp("grid", &[2, i as u64 + 1]), "explore");
    let traced = |workers: usize| {
        let mut cache = VerdictCache::new();
        for i in [1, 4] {
            cache.insert(key(i), &label(i), Verdict { holds: true, states: 0, edges: 0 });
        }
        let jobs: Vec<CheckJob> = grids
            .iter()
            .enumerate()
            .map(|(i, g)| CheckJob {
                label: label(i),
                key: key(i),
                run: Box::new(move || {
                    let r = Search::new(g).explore();
                    Verdict { holds: true, states: r.num_states, edges: r.num_transitions }
                }),
            })
            .collect();
        let mut tracer = RingTracer::new(1 << 10);
        let report = run_manifest_traced(jobs, &mut cache, &WorkerPool::new(workers), &mut tracer);
        (report, tracer.to_jsonl(), tracer.into_events())
    };
    let (report, jsonl, events) = traced(1);
    assert_eq!(jsonl, traced(3).1, "the pool's size never reaches the trace");
    assert_eq!((report.hits, report.misses), (2, 5));

    let mut want = vec!["manifest.start"];
    want.extend(["job"; 7]);
    want.push("manifest.end");
    assert_eq!(kinds(&events), want);
    assert!(events.iter().all(|e| e.scope == "ckpt"));
    // One `job` per entry, in manifest order, saying what the report says.
    for (i, (e, o)) in events[1..8].iter().zip(&report.outcomes).enumerate() {
        assert_eq!(o.label, label(i));
        assert_eq!(field(e, "label"), &Value::from(o.label.as_str()));
        assert_eq!(field(e, "cached"), &Value::from(o.cached));
        assert_eq!(field(e, "states"), &Value::from(o.verdict.states));
    }
    assert_eq!(field(&events[8], "hits"), &Value::from(report.hits));
    assert_eq!(field(&events[8], "misses"), &Value::from(report.misses));
}

#[test]
fn the_incr_trace_reports_the_returned_split() {
    // Drop counter-2 increments once counter 0 is ahead: the states that
    // lose one are dirty, the rest are spliced from the old graph.
    let sys = Grid { n: 3, max: 2 };
    let old = Search::new(&sys).graph();
    let edit = ActionEdit::new(&sys, |s: &Vec<u8>, a: &usize| !(*a == 2 && s[0] > s[1]));
    let traced = || {
        let mut tracer = RingTracer::new(16);
        let (g, stats) =
            reexplore_incremental(&old, &edit, |s| edit.dirty_state(s), 1_000, &mut tracer);
        (g, stats, tracer.to_jsonl(), tracer.into_events())
    };
    let (g, stats, jsonl, events) = traced();
    assert_eq!(jsonl, traced().2);
    assert_eq!(kinds(&events), ["incr.start", "incr.end"]);
    assert!(events.iter().all(|e| e.scope == "ckpt"));
    let (start, end) = (&events[0], &events[1]);
    assert_eq!(field(start, "old_states"), &Value::from(old.len()));
    assert_eq!(field(start, "old_edges"), &Value::from(old.num_edges()));
    assert_eq!(field(end, "states"), &Value::from(g.len()));
    assert_eq!(field(end, "edges"), &Value::from(g.num_edges()));
    assert_eq!(field(end, "reused"), &Value::from(stats.reused));
    assert_eq!(field(end, "recomputed"), &Value::from(stats.recomputed));
    assert!(stats.reused > 0 && stats.recomputed > 0, "{stats:?}");
}

#[test]
fn the_sync_ring_trace_is_replayable_with_one_round_event_per_round() {
    let ring = || (0..6).map(|i| ItaiRodeh::new(6, 5 + i)).collect::<Vec<_>>();
    let traced = || {
        let mut tracer = RingTracer::new(1 << 16);
        let out = SyncRingRunner::new(ring()).run(50_000, &mut tracer);
        assert_eq!(tracer.dropped(), 0, "the trace fits the ring");
        (out, tracer.to_jsonl(), tracer.into_events())
    };
    let (out, jsonl, events) = traced();
    assert_eq!(jsonl, traced().1, "same coins, same bytes");
    assert!(out.complete && out.leader.is_some(), "{out:?}");
    let untraced = SyncRingRunner::new(ring()).run(50_000, &mut NoopTracer);
    assert_eq!(out, untraced, "tracing changes no outcome");
    let kinds = kinds(&events);
    let rounds = kinds.iter().filter(|&&k| k == "round").count();
    assert_eq!(rounds, out.rounds);
    assert_eq!((kinds[0], kinds[kinds.len() - 1]), ("start", "end"));
    assert_eq!(kinds.len(), rounds + 2, "start, one event per round, end");
    assert_eq!(field(&events[kinds.len() - 1], "rounds"), &Value::from(out.rounds));
    assert!(events.iter().all(|e| e.scope == "election"));
}
