//! The batch check service: a manifest of model × property jobs, verdicts
//! cached by canonical model fingerprint (see `docs/CKPT.md`).
//!
//! Usage:
//!
//! ```text
//! cargo run --bin check -- manifest <path> [--cache <path>] [--workers N]
//! cargo run --bin check -- snapshot <path>   # pause a search, seal it to <path>
//! cargo run --bin check -- resume <path>     # load <path>, finish the search
//! cargo run --bin check -- straight          # the same search, uninterrupted
//! ```
//!
//! Manifest lines are `<model> <params…> <property>`, one job per line
//! (`#` comments and blank lines ignored):
//!
//! ```text
//! grid <n> <max> reaches-corner    # ◇(all counters at max)
//! ring <n> evades-free             # ◇(one token) under a free scheduler
//! ring <n> greedy-elects           # multi-token ⤳ one-token, greedy merges
//! quorum <n> <failed> nonterm      # ◇(live processes decide), one crash
//! ```
//!
//! The `manifest` run prints the [`ManifestReport`](impossible::ckpt::ManifestReport) JSON and a final
//! `check: OK (jobs=… hits=… misses=…)` marker; with `--cache` the verdict
//! cache is loaded before and saved after, so a second run over an
//! unchanged manifest is served entirely from the cache. A job whose
//! property holds only on a graph the state cap cut has checked a prefix,
//! not the model: its verdict is left out of the cache, and the run ends
//! in failure, with `check: INCONCLUSIVE (jobs=… inconclusive=…)` and each
//! such label on stderr.
//!
//! `snapshot` / `resume` / `straight` are the cross-*process* resume probe: `snapshot`
//! pauses the reference grid search and seals it; `resume` (a fresh
//! process) finishes it; `straight` never pauses — and both print the same
//! canonical report line, byte for byte (pinned by `scripts/verify.sh`).
//! Nothing else is probed from here: what a spilled search or a worker
//! count may change is asserted in-process by
//! `crates/explore/tests/{extmem_spill,determinism}.rs`, over a wider sweep
//! than a subcommand could print.

use impossible::ckpt::{job_key, model_fp, CheckJob, Snapshot, Verdict, VerdictCache};
use impossible::consensus::quorum;
use impossible::election::ring_search;
use impossible::explore::{Grid, PauseBudget, PropertyReport, Search, SearchReport, WorkerPool};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// State-space ceiling for every manifest job; large enough that nothing
/// in the registry truncates.
const MAX_STATES: usize = 400_000;

/// The snapshot probe's workload: small enough to pause mid-way and finish
/// instantly, large enough to span several BFS levels.
const PROBE: Grid = Grid { n: 3, max: 4 };
/// States explored before the probe pauses (125 reachable in total).
const PROBE_PAUSE: usize = 60;

fn usage() -> String {
    "usage: check manifest <path> [--cache <path>] [--workers N]\n\
     \x20      check snapshot <path> | resume <path> | straight"
        .to_string()
}

/// The keys of the jobs whose property held on a truncated graph.
type Inconclusive = Arc<Mutex<BTreeSet<u64>>>;

/// Parse one manifest line into a runnable job, or reject it with a
/// line-numbered error. The job records its key in `inconclusive` when
/// its report holds on a truncated graph.
fn parse_job(
    line: &str,
    lineno: usize,
    inconclusive: &Inconclusive,
) -> Result<CheckJob<'static>, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    // Parsed at the width the model takes, so an out-of-range parameter is
    // refused here instead of wrapping into a different model.
    fn int<T: std::str::FromStr>(s: &str, what: &str, lineno: usize) -> Result<T, String> {
        s.parse().map_err(|_| format!("line {lineno}: bad {what} `{s}`"))
    }
    let label = toks.join(" ");
    type Run = Box<dyn Fn() -> (Verdict, bool) + Send + Sync>;
    let (key, job): (u64, Run) = match toks.as_slice() {
        ["grid", n, max, prop @ "reaches-corner"] => {
            let (n, max): (usize, u8) = (int(n, "grid size", lineno)?, int(max, "grid max", lineno)?);
            let key = job_key(model_fp("grid", &[n as u64, max as u64]), prop);
            (
                key,
                Box::new(move || {
                    let sys = Grid { n, max };
                    let corner = impossible::explore::property::eventually(
                        "reaches-corner",
                        move |s: &Vec<u8>| s.iter().all(|&c| c == max),
                    );
                    verdict(&Search::new(&sys).max_states(MAX_STATES).check_property(&corner))
                }),
            )
        }
        ["ring", n, prop @ "evades-free"] => {
            let n: usize = int(n, "ring size", lineno)?;
            let key = job_key(model_fp("ring", &[n as u64]), prop);
            (
                key,
                Box::new(move || {
                    verdict(&ring_search::election_evades_free_schedulers(n, MAX_STATES))
                }),
            )
        }
        ["ring", n, prop @ "greedy-elects"] => {
            let n: usize = int(n, "ring size", lineno)?;
            let key = job_key(model_fp("greedy-ring", &[n as u64]), prop);
            (
                key,
                Box::new(move || {
                    verdict(&ring_search::election_under_greedy_merges(n, MAX_STATES))
                }),
            )
        }
        ["quorum", n, failed, prop @ "nonterm"] => {
            let (n, failed): (usize, usize) =
                (int(n, "quorum size", lineno)?, int(failed, "failed id", lineno)?);
            if failed >= n {
                return Err(format!("line {lineno}: failed process {failed} out of range"));
            }
            let key = job_key(model_fp("quorum", &[n as u64, failed as u64]), prop);
            (
                key,
                Box::new(move || verdict(&quorum::exhibit_flp_lasso(n, failed, MAX_STATES))),
            )
        }
        [] => unreachable!("blank lines are filtered before parsing"),
        _ => return Err(format!("line {lineno}: unknown job `{label}`\n{}", usage())),
    };
    let inconclusive = Arc::clone(inconclusive);
    let run = Box::new(move || {
        let (verdict, cut) = job();
        if cut {
            inconclusive.lock().expect("inconclusive set").insert(key);
        }
        verdict
    });
    Ok(CheckJob { label, key, run })
}

/// Collapse a property report to its cacheable core, and whether it holds
/// only within a truncated graph.
fn verdict<S: Clone + std::fmt::Debug, A: Clone + std::fmt::Debug>(
    r: &PropertyReport<S, A>,
) -> (Verdict, bool) {
    let verdict = Verdict {
        holds: r.holds,
        states: r.states,
        edges: r.edges,
    };
    (verdict, r.inconclusive())
}

fn run_manifest_mode(path: &str, cache_path: Option<&str>, workers: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let inconclusive = Inconclusive::default();
    let mut jobs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        jobs.push(parse_job(line, i + 1, &inconclusive)?);
    }
    let mut cache = match cache_path {
        Some(p) => VerdictCache::load(p).map_err(|e| format!("{p}: {e}"))?,
        None => VerdictCache::new(),
    };
    let pool = WorkerPool::new(workers);
    let report = impossible::ckpt::run_manifest(jobs, &mut cache, &pool);
    let inconclusive = inconclusive.lock().expect("inconclusive set");
    for &key in inconclusive.iter() {
        cache.remove(key);
    }
    if let Some(p) = cache_path {
        cache.save(p).map_err(|e| format!("{p}: {e}"))?;
    }
    println!("{}", report.to_json());
    if inconclusive.is_empty() {
        println!(
            "check: OK (jobs={} hits={} misses={})",
            report.outcomes.len(),
            report.hits,
            report.misses
        );
        return Ok(());
    }
    let mut err = format!(
        "check: INCONCLUSIVE (jobs={} inconclusive={})",
        report.outcomes.len(),
        inconclusive.len()
    );
    for o in report.outcomes.iter().filter(|o| inconclusive.contains(&o.key)) {
        err.push_str(&format!(
            "\n  {}: holds only within the {MAX_STATES}-state cap; not cached",
            o.label
        ));
    }
    Err(err)
}

/// Canonical report line for the snapshot probe: everything except
/// `stats.workers`, which deliberately records the requested count.
fn report_line(r: &SearchReport<Vec<u8>, usize>) -> String {
    let mut stats = r.stats;
    stats.workers = 0;
    format!(
        "check-report {:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.num_states, r.num_transitions, r.terminal_states, r.truncated_by, r.witness, stats
    )
}

fn probe_fp() -> u64 {
    model_fp("grid", &[PROBE.n as u64, PROBE.max as u64])
}

fn snapshot_mode(path: &str) -> Result<(), String> {
    let ckpt = Search::new(&PROBE)
        .run_resumable(PauseBudget::states(PROBE_PAUSE))
        .paused()
        .ok_or("probe search finished before the pause budget?!")?;
    let snap = Snapshot::new(probe_fp(), ckpt);
    snap.save(path).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "check: snapshot OK (states={} frontier={} depth={})",
        snap.ckpt.num_states(),
        snap.ckpt.frontier_len(),
        snap.ckpt.depth
    );
    Ok(())
}

fn resume_mode(path: &str) -> Result<(), String> {
    let snap = Snapshot::<Vec<u8>, usize>::load(path).map_err(|e| format!("{path}: {e}"))?;
    snap.expect_model(probe_fp()).map_err(|e| e.to_string())?;
    let report = Search::new(&PROBE)
        .resume(snap.ckpt, PauseBudget::never())
        .done()
        .ok_or("unbounded resume paused?!")?;
    println!("{}", report_line(&report));
    Ok(())
}

fn straight_mode() -> Result<(), String> {
    let report = Search::new(&PROBE).explore();
    println!("{}", report_line(&report));
    Ok(())
}

/// What `main` fails with. The runtime prints a failed `main`'s error
/// through `Debug`, which for a bare `String` quotes it and escapes every
/// newline of the usage text; this `Debug` writes the message as it is.
struct CliError(String);

impl std::fmt::Debug for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn main() -> Result<(), CliError> {
    run().map_err(CliError)
}

fn run() -> Result<(), String> {
    // LINT-ALLOW: det-ambient -- CLI argument parsing; never protocol state
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    match strs.as_slice() {
        ["manifest", path, rest @ ..] => {
            let mut cache = None;
            let mut workers = 2usize;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match (*flag, it.next()) {
                    ("--cache", Some(p)) => cache = Some(*p),
                    ("--workers", Some(w)) => {
                        workers = w.parse().map_err(|_| format!("bad worker count `{w}`"))?
                    }
                    _ => return Err(usage()),
                }
            }
            run_manifest_mode(path, cache, workers)
        }
        ["snapshot", path] => snapshot_mode(path),
        ["resume", path] => resume_mode(path),
        ["straight"] => straight_mode(),
        _ => Err(usage()),
    }
}
