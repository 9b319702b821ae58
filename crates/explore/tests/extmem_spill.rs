//! The external-memory determinism contract: a spilled run produces
//! byte-identical reports to the resident engine — same states, same
//! transitions, same dedup counts, same truncation, same witness — for any
//! seed, worker count, and spill threshold. Only `stats.peak_bytes` may
//! (and should) differ, downward.
//!
//! This suite is also the only oracle between the two level bodies: the
//! resident route runs the fused per-partition body, the spill route its
//! level-wide one (both single-threaded whatever `Search::workers` says,
//! both committing through `Search::commit_children`), and
//! `ram_keys(usize::MAX)` (never flushes) runs the spill body with every
//! key resident.
//!
//! `DET_SEED` replays the property cases.

use impossible_det::{det_assert, det_assert_eq, det_prop};
use impossible_explore::page::{decode_run_page, encode_run_page, run_page_keys};
use impossible_explore::{Grid, Search, SearchReport, SpillPolicy, Truncation};
use impossible_obs::RingTracer;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Strip the legitimately-differing stats (the requested worker count is
/// recorded by design, `peak_bytes` is the whole point of spilling) before
/// byte comparison. The steal counters stay in: no route steals.
fn masked(r: &SearchReport<Vec<u8>, usize>) -> String {
    let mut stats = r.stats;
    stats.workers = 0;
    stats.peak_bytes = 0;
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.num_states, r.num_transitions, r.terminal_states, r.truncated_by, r.witness, stats
    )
}

/// Sorting the counter vector — the full-permutation canonicalization of
/// the (symmetric) grid, as in `search.rs`'s `canon_quotients_the_space`.
fn sort_canon(s: &Vec<u8>) -> Vec<u8> {
    let mut t = s.clone();
    t.sort();
    t
}

/// [`sort_canon`] in place: sorted already is the one case it leaves be.
#[allow(clippy::ptr_arg)] // the hook type is `fn(&mut S) -> bool`, `S = Vec<u8>`
fn sort_in_place(s: &mut Vec<u8>) -> bool {
    let moved = !s.is_sorted();
    s.sort();
    moved
}

#[test]
fn sort_canon_passes_the_audit_on_every_reachable_grid_state() {
    use impossible_explore::canon::{audit, Canon};
    let sys = Grid { n: 4, max: 5 };
    let states = Search::new(&sys).reachable_states();
    let corner = |s: &Vec<u8>| s.iter().all(|&c| c == 5);
    for canon in [Canon::Owned(sort_canon), Canon::InPlace(sort_in_place)] {
        assert_eq!(audit(&sys, canon, &states, &[("corner", &corner)]), Ok(()));
    }
}

/// Names of the run files of flush generation `r` in `dir`.
fn run_files(dir: &std::path::Path, r: usize) -> Vec<String> {
    let suffix = format!(".run{r:03}");
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(&suffix))
        .collect()
}

/// Asserts that the run files a `ram_keys(0)` search left in `dir` (it
/// flushes every level, the last included) hold each of the report's states
/// exactly once. Clear `dir` before the search: the listing is read back.
fn assert_each_state_is_in_exactly_one_run(
    dir: &std::path::Path,
    report: &SearchReport<Vec<u8>, usize>,
    case: &str,
) {
    let mut keys: Vec<u64> = (0..report.stats.levels)
        .flat_map(|r| run_files(dir, r))
        .flat_map(|n| run_page_keys(&std::fs::read(dir.join(n)).unwrap()).unwrap())
        .collect();
    assert_eq!(keys.len(), report.num_states, "{case}");
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), report.num_states, "runs are key-disjoint ({case})");
}

/// Every `(workers, ram_keys)` the byte-identity contract is pinned at:
/// spill every level, spill a few times, never flush.
fn worker_and_threshold_sweep() -> impl Iterator<Item = (usize, usize)> {
    [1usize, 2, 8]
        .into_iter()
        .flat_map(|w| [0usize, 40, usize::MAX].into_iter().map(move |ram_keys| (w, ram_keys)))
}

#[test]
fn spilled_exploration_matches_resident_bytes() {
    // The headline contract from docs/EXTMEM.md: run files are
    // ordered-concatenated per shard and the level's children are committed
    // in partition order, so neither the worker count nor the spill
    // threshold can reach the report.
    let sys = Grid { n: 4, max: 3 }; // 256 states, several levels
    let resident = Search::new(&sys).explore();
    for (w, ram_keys) in worker_and_threshold_sweep() {
        for front in [false, true] {
            let dir = tmp(&format!("spill-match-{w}-{ram_keys}-{front}"));
            let policy = SpillPolicy::new(&dir).ram_keys(ram_keys).spill_frontier(front);
            let spilled = Search::new(&sys).workers(w).explore_extmem(&policy);
            let case = format!("w={w} ram_keys={ram_keys} front={front}");
            assert!(
                spilled.stats.peak_bytes <= resident.stats.peak_bytes,
                "spilling must not raise peak bytes ({case})"
            );
            assert_eq!(masked(&spilled), masked(&resident), "{case}");
            // Never flushing leaves the spill body all-resident.
            assert_eq!(run_files(&dir, 0).is_empty(), ram_keys == usize::MAX, "{case}");
        }
    }
}

#[test]
fn spilled_witness_replays_through_run_files() {
    let sys = Grid { n: 3, max: 4 };
    let target = |s: &Vec<u8>| s.iter().all(|&c| c == 4);
    let (mut resident_trace, mut spilled_trace) = (RingTracer::new(4096), RingTracer::new(4096));
    let resident = Search::new(&sys).tracer(&mut resident_trace).search(target);
    let policy = SpillPolicy::new(tmp("spill-witness"))
        .ram_keys(0)
        .spill_frontier(true);
    let spilled = Search::new(&sys).tracer(&mut spilled_trace).search_extmem(target, &policy);
    // ram_keys(0) flushes every level, so the witness's parent chain
    // crosses several run files; the replay must walk them from disk and
    // land on the identical shortest execution — and the builder's tracer
    // records the same events on both routes.
    assert!(spilled.witness.is_some());
    assert_eq!(masked(&spilled), masked(&resident));
    assert_eq!(spilled_trace.to_jsonl(), resident_trace.to_jsonl());
}

#[test]
fn cap_truncation_is_exact_under_spill() {
    // The cap binds mid-level: the spill body's commit must produce the
    // resident engine's exact truncation, state count, and fallback count.
    for (sys, cap) in [
        (Grid { n: 4, max: 3 }, 97),
        (Grid { n: 4, max: 4 }, 97),
        (Grid { n: 4, max: 4 }, 301),
    ] {
        let resident = Search::new(&sys).max_states(cap).explore();
        assert_eq!(resident.truncated_by, Some(Truncation::States));
        assert!(resident.stats.cap_fallbacks > 0);
        for (w, ram_keys) in worker_and_threshold_sweep() {
            let dir = tmp(&format!("spill-cap-{}-{cap}-{w}-{ram_keys}", sys.max));
            let policy = SpillPolicy::new(dir).ram_keys(ram_keys);
            let spilled = Search::new(&sys)
                .max_states(cap)
                .workers(w)
                .explore_extmem(&policy);
            assert_eq!(spilled.num_states, cap);
            assert_eq!(masked(&spilled), masked(&resident), "w={w} ram_keys={ram_keys}");
        }
    }
}

#[test]
fn canon_witness_found_after_a_flush_replays_through_run_files() {
    // 126 sorted multisets, one level per counter sum: the far corner is
    // first matched on level 20, long after the first visited flush, so the
    // witness's parent chain crosses run files and every replayed step
    // goes back through the canon hook.
    let sys = Grid { n: 4, max: 5 };
    let target = |s: &Vec<u8>| s.iter().all(|&c| c == 5);
    let resident = Search::new(&sys).canon(sort_canon).search(target);
    assert_eq!(
        resident.witness.as_ref().expect("corner reachable").len(),
        20
    );
    assert!(resident.stats.canon_hits > 0);
    for w in [1, 2, 8] {
        let dir = tmp(&format!("spill-canon-witness-{w}"));
        let policy = SpillPolicy::new(&dir).ram_keys(20).spill_frontier(true);
        let spilled = Search::new(&sys)
            .canon(sort_canon)
            .workers(w)
            .search_extmem(target, &policy);
        assert!(
            !run_files(&dir, 1).is_empty(),
            "two flushes before the match (w={w})"
        );
        assert_eq!(masked(&spilled), masked(&resident), "w={w}");
    }
}

#[test]
fn canon_cap_straddling_a_post_flush_level_is_exact() {
    // The cap binds on a level entered with keys already on disk: the
    // j-major replay must dedup against run files, count spilled keys
    // toward the cap, and still admit the resident run's exact prefix.
    let sys = Grid { n: 4, max: 5 };
    let cap = 60;
    let resident = Search::new(&sys)
        .canon(sort_canon)
        .max_states(cap)
        .explore();
    assert_eq!(resident.truncated_by, Some(Truncation::States));
    assert!(resident.stats.cap_fallbacks >= 1);
    for w in [1, 2, 8] {
        let dir = tmp(&format!("spill-canon-cap-{w}"));
        let policy = SpillPolicy::new(&dir).ram_keys(20).spill_frontier(true);
        let spilled = Search::new(&sys)
            .canon(sort_canon)
            .max_states(cap)
            .workers(w)
            .explore_extmem(&policy);
        assert!(
            !run_files(&dir, 0).is_empty(),
            "flushed before the cap bound (w={w})"
        );
        assert_eq!(spilled.num_states, cap);
        assert_eq!(masked(&spilled), masked(&resident), "w={w}");
    }
}

#[test]
fn depth_truncation_is_exact_under_spill() {
    let sys = Grid { n: 4, max: 3 };
    let resident = Search::new(&sys).max_depth(3).explore();
    assert_eq!(resident.truncated_by, Some(Truncation::Depth));
    let policy = SpillPolicy::new(tmp("spill-depth"))
        .ram_keys(0)
        .spill_frontier(true);
    let spilled = Search::new(&sys).max_depth(3).explore_extmem(&policy);
    assert_eq!(masked(&spilled), masked(&resident));
}

#[test]
fn run_files_are_deterministically_named_and_disjoint() {
    let sys = Grid { n: 3, max: 3 };
    let dir = tmp("spill-names");
    let policy = SpillPolicy::new(&dir).ram_keys(0);
    let report = Search::new(&sys).explore_extmem(&policy);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("shard"))
        .collect();
    names.sort();
    assert!(!names.is_empty());
    for n in &names {
        assert_eq!(n.len(), "shardXXX.runXXX".len(), "bad run name {n}");
    }
    // Every visited key is on disk exactly once: with ram_keys(0) the last
    // level flushed everything, so decoding all runs recovers exactly
    // `num_states` distinct keys.
    let mut total = 0usize;
    let mut all_keys: Vec<u64> = Vec::new();
    for n in &names {
        let buf = std::fs::read(dir.join(n)).unwrap();
        let keys = run_page_keys(&buf).unwrap();
        total += keys.len();
        all_keys.extend(keys);
    }
    all_keys.sort_unstable();
    all_keys.dedup();
    assert_eq!(all_keys.len(), total, "runs are key-disjoint");
    assert_eq!(total, report.num_states);

    // The same holds when a run straddles the cap under a canon hook: its
    // last levels commit under a cap that binds, against keys flushed by
    // levels it could not.
    let dir = tmp("spill-names-capped");
    let _ = std::fs::remove_dir_all(&dir);
    let policy = SpillPolicy::new(&dir).ram_keys(0);
    let report = Search::new(&Grid { n: 4, max: 5 })
        .canon(sort_canon)
        .max_states(60)
        .explore_extmem(&policy);
    assert!(report.stats.cap_fallbacks > 0 && report.stats.cap_fallbacks < report.stats.levels);
    assert_each_state_is_in_exactly_one_run(&dir, &report, "cap-straddling under canon");
}

/// [`Grid`] with wrap-around: action `i` steps counter `i` to
/// `(c + 1) % (max + 1)`. On `Grid` the counter sum grows by one a level,
/// so no child is ever a state of an earlier level and no run over it
/// finds a child's key in a run file; here every counter wraps onto states
/// visited — and flushed — levels before.
struct Torus {
    n: usize,
    max: u8,
}

impl impossible_core::system::System for Torus {
    type State = Vec<u8>;
    type Action = usize;

    fn initial_states(&self) -> Vec<Vec<u8>> {
        vec![vec![0; self.n]]
    }

    fn enabled(&self, _: &Vec<u8>) -> Vec<usize> {
        (0..self.n).collect()
    }

    fn step(&self, s: &Vec<u8>, a: &usize) -> Vec<u8> {
        let mut t = s.clone();
        t[*a] = (t[*a] + 1) % (self.max + 1);
        t
    }
}

#[test]
fn children_already_on_disk_are_dedup_hits_on_both_arms() {
    // The disk half of the commit step, which only a space with back edges
    // reaches: a child whose key a run file holds must count as a dedup hit
    // — on levels the cap cannot bind (the whole run) and on those it can
    // (from level 3 on under the cap, the level the first counters wrap) —
    // or it is inserted a second time, which moves the report and, flushing
    // every level, lands the key in a second run file.
    let sys = Torus { n: 3, max: 3 }; // 64 states, the grid's levels plus wraps
    // 1000 never binds (and ends a run that re-inserts flushed keys, which
    // on a cyclic space would otherwise wander to the default cap); 40 does.
    for cap in [1000, 40] {
        let resident = Search::new(&sys).max_states(cap).explore();
        assert_eq!(resident.truncated(), cap == 40);
        assert_eq!(resident.stats.cap_fallbacks > 0, cap == 40);
        for (w, ram_keys) in worker_and_threshold_sweep() {
            let case = format!("cap={cap} w={w} ram_keys={ram_keys}");
            let dir = tmp(&format!("spill-torus-{cap}-{w}-{ram_keys}"));
            let _ = std::fs::remove_dir_all(&dir);
            let policy = SpillPolicy::new(&dir).ram_keys(ram_keys).spill_frontier(w == 2);
            let spilled = Search::new(&sys).max_states(cap).workers(w).explore_extmem(&policy);
            assert_eq!(masked(&spilled), masked(&resident), "{case}");
            if ram_keys == 0 {
                assert_each_state_is_in_exactly_one_run(&dir, &spilled, &case);
            }
        }
    }
}

/// `Grid`, except that expanding a state whose counters sum to 1 first
/// cuts every run file in `dir` to half its length: the torn page a crash
/// or a full disk leaves behind. A `ram_keys(0)` search has flushed the
/// roots' level by then and reads that level's runs next.
struct Tearing {
    grid: Grid,
    dir: PathBuf,
}

impl impossible_core::system::System for Tearing {
    type State = Vec<u8>;
    type Action = usize;

    fn initial_states(&self) -> Vec<Vec<u8>> {
        self.grid.initial_states()
    }

    fn enabled(&self, s: &Vec<u8>) -> Vec<usize> {
        if s.iter().sum::<u8>() == 1 {
            for name in run_files(&self.dir, 0) {
                let path = self.dir.join(name);
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            }
        }
        self.grid.enabled(s)
    }

    fn step(&self, s: &Vec<u8>, a: &usize) -> Vec<u8> {
        self.grid.step(s, a)
    }
}

/// The text a spill search panicked with.
fn spill_failure(search: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(search))
        .expect_err("the spill search must fail");
    payload.downcast::<String>().map(|s| *s).expect("a formatted panic message")
}

#[test]
fn spill_file_failures_end_the_search_with_one_message() {
    // A directory that cannot be created (its parent is a file) and a run
    // file torn mid-search both surface as the spill route's one panic,
    // naming the step and the file.
    let parent = tmp("spill-parent-is-a-file");
    std::fs::write(&parent, b"").unwrap();
    let dir = parent.join("spill");
    let policy = SpillPolicy::new(&dir);
    let msg = spill_failure(|| {
        Search::new(&Grid { n: 2, max: 2 }).explore_extmem(&policy);
    });
    let want = format!("external-memory search failed: create spill dir {}: ", dir.display());
    assert!(msg.starts_with(&want), "{msg}");

    let dir = tmp("spill-torn-run");
    let _ = std::fs::remove_dir_all(&dir);
    let sys = Tearing {
        grid: Grid { n: 3, max: 3 },
        dir: dir.clone(),
    };
    let policy = SpillPolicy::new(&dir).ram_keys(0);
    let msg = spill_failure(|| {
        Search::new(&sys).explore_extmem(&policy);
    });
    let want = format!("external-memory search failed: decode run {}", dir.display());
    assert!(msg.starts_with(&want) && msg.contains(".run000: malformed encoding"), "{msg}");
}

#[test]
fn page_codec_decode_then_encode_is_identity() {
    // The round trip the other way: any bytes the encoder produced decode
    // back to a value that re-encodes to the *same* bytes — there is exactly
    // one encoding per page, so run files can be compared byte-wise.
    let keys: Vec<u64> = (0..500u64).map(|i| 1 + i * i * 37).collect();
    let entries: Vec<(u64, u32)> = keys.iter().map(|&k| (k, (k % 1000) as u32)).collect();
    let run = encode_run_page(&entries);
    let decoded = decode_run_page::<u32>(&run).unwrap();
    assert_eq!(encode_run_page(&decoded), run);
    // The key block alone, through the membership filter's decoder.
    assert_eq!(run_page_keys(&run).unwrap(), keys);
}

det_prop! {
    fn spill_sweep_any_seed_any_workers_any_threshold(cases = 10, seed in 0u64..1_000_000, w in 1usize..9, ram_keys in 0usize..300, case in 0usize..1_000_000, canon in 0usize..2) {
        // The full determinism sweep: seed × worker count × spill
        // threshold × canon off/on. The spilled run must reproduce the
        // resident run's bytes exactly (`canon_hits` included), witness
        // hunt included. Under the sort canon the space is 35 multisets,
        // so the threshold is folded down to keep it spilling.
        let sys = Grid { n: 4, max: 3 };
        let ram_keys = if canon == 1 { ram_keys % 32 } else { ram_keys };
        let base = || {
            let s = Search::new(&sys).seed(seed);
            if canon == 1 { s.canon(sort_canon) } else { s }
        };
        let resident_full = base().explore();
        let resident_hunt = base().search(|s| s.iter().all(|&c| c == 3));
        let dir = tmp(&format!("spill-sweep-{case}"));
        let spill_full = base()
            .workers(w)
            .explore_extmem(&SpillPolicy::new(dir.join("full")).ram_keys(ram_keys).spill_frontier(ram_keys % 2 == 0));
        let spill_hunt = base()
            .workers(w)
            .search_extmem(
                |s| s.iter().all(|&c| c == 3),
                &SpillPolicy::new(dir.join("hunt")).ram_keys(ram_keys).spill_frontier(ram_keys % 2 == 1),
            );
        det_assert_eq!(masked(&resident_full), masked(&spill_full));
        det_assert_eq!(masked(&resident_hunt), masked(&spill_hunt));
        det_assert_eq!(spill_full.stats.canon_hits > 0, canon == 1);
        det_assert!(spill_full.stats.peak_bytes <= resident_full.stats.peak_bytes);
    }
}

det_prop! {
    fn property_reports_are_spill_and_worker_invariant(cases = 6, seed in 0u64..1_000_000, w in 1usize..9) {
        // The property layer reads reports and graphs, never the table
        // internals: a checker fed by any engine configuration must emit
        // byte-identical PropertyReport JSON. (The graph builder itself is
        // sequential and resident; what this pins is that the spilled
        // search agrees with the graph on the space it summarizes.)
        use impossible_explore::property::eventually;
        use impossible_explore::Checker;
        let sys = Grid { n: 3, max: 3 };
        let g = Search::new(&sys).seed(seed).graph();
        let full = |s: &Vec<u8>| s.iter().all(|&c| c == 3);
        let report = Checker::new(&g).check(&eventually("saturates", full));
        let again = Checker::new(&g).check(&eventually("saturates", full));
        det_assert_eq!(report.to_json(), again.to_json());
        // Cross-check the spilled search against the graph's census.
        let dir = tmp(&format!("spill-prop-{seed}-{w}"));
        let spilled = Search::new(&sys)
            .seed(seed)
            .workers(w)
            .explore_extmem(&SpillPolicy::new(dir).ram_keys(64));
        det_assert_eq!(spilled.num_states, g.len());
        det_assert_eq!(spilled.num_transitions, g.num_edges());
    }
}
