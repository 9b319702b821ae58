//! Answers from outside the checker.
//!
//! `expected.txt` holds, per workload and scale, the verdicts and exact
//! counts every operation must reproduce. [`regenerate`] rebuilds the file
//! from closed forms where they exist — grid sizes, necklace counts, the
//! known verdicts — and otherwise from the legacy
//! [`impossible_core::explore::Explorer`] (full states in a `BTreeMap`, no
//! fingerprints, no canonicalisation hook of its own). Counts no outside
//! source yields (BFS levels of a protocol graph, SCC counts) are *pinned*:
//! recorded from the engines once under a `pinned` section, so they must
//! at least repeat across samples, seeds and commits. Regeneration is never
//! part of a timed run.

use impossible_consensus::flp::FlpSystem;
use impossible_consensus::quorum::QuorumVote;
use impossible_core::explore::Explorer;
use impossible_core::ids::ProcessId;
use impossible_core::system::System;
use impossible_election::ring_search::{self, rotation_canon, GreedyMergeRing, TokenRing};
use impossible_explore::Search;
use impossible_sharedmem::algorithms::dijkstra::Dijkstra;
use impossible_sharedmem::MutexSystem;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `section → key → value`, as parsed from `expected.txt`.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    sections: BTreeMap<String, BTreeMap<String, String>>,
}

impl Expected {
    /// Parse the `[section]` / `key = value` format (`#` starts a comment).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut sections: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        let mut current: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                current = Some(name.to_string());
                sections.entry(name.to_string()).or_default();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("expected.txt line {}: no '='", i + 1))?;
            let section = current
                .as_ref()
                .ok_or_else(|| format!("expected.txt line {}: entry before any section", i + 1))?;
            sections
                .get_mut(section)
                .expect("section created on its header")
                .insert(key.trim().to_string(), value.trim().to_string());
        }
        Ok(Expected { sections })
    }

    /// Every numeric `key = value` of `[section]` and `[section pinned]`.
    pub fn counts(&self, section: &str) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for name in [section.to_string(), format!("{section} pinned")] {
            for (k, v) in self.sections.get(&name).into_iter().flatten() {
                if let Ok(n) = v.parse::<u64>() {
                    out.insert(k.clone(), n);
                }
            }
        }
        out
    }

    /// One count, or an error naming what is missing.
    pub fn count(&self, section: &str, key: &str) -> Result<u64, String> {
        self.counts(section)
            .get(key)
            .copied()
            .ok_or_else(|| format!("expected.txt: no `{key}` under [{section}]"))
    }

    /// The expected verdict of manifest job `label`: `(holds, states, edges)`.
    pub fn job(&self, label: &str) -> Result<(bool, usize, usize), String> {
        let missing = || format!("expected.txt: no job `{label}` under [jobs]");
        let v = self
            .sections
            .get("jobs")
            .and_then(|s| s.get(label))
            .ok_or_else(missing)?;
        let toks: Vec<&str> = v.split_whitespace().collect();
        match toks.as_slice() {
            [h, s, e] => Ok((
                h.parse().map_err(|_| missing())?,
                s.parse().map_err(|_| missing())?,
                e.parse().map_err(|_| missing())?,
            )),
            _ => Err(missing()),
        }
    }
}

// ---- closed forms ----------------------------------------------------

/// `Grid{n,max}`: `(max+1)ⁿ` states.
pub fn grid_states(n: usize, max: u8) -> u64 {
    (max as u64 + 1).pow(n as u32)
}

/// `Grid{n,max}`: each of the `n` counters can step in `max` of its
/// `max+1` positions, whatever the others hold: `n·max·(max+1)ⁿ⁻¹` edges.
pub fn grid_transitions(n: usize, max: u8) -> u64 {
    n as u64 * max as u64 * (max as u64 + 1).pow(n as u32 - 1)
}

/// `Grid{n,max}`: BFS depth is the counter sum, so the largest level is
/// the largest coefficient of `(1 + x + … + x^max)ⁿ`.
pub fn grid_peak_frontier(n: usize, max: u8) -> u64 {
    let mut poly = vec![1u64];
    for _ in 0..n {
        let mut next = vec![0u64; poly.len() + max as usize];
        for (i, c) in poly.iter().enumerate() {
            for d in 0..=max as usize {
                next[i + d] += c;
            }
        }
        poly = next;
    }
    poly.into_iter().max().unwrap_or(0)
}

/// Binary necklaces of length `n` minus the all-zero one (Burnside):
/// the rotation quotient of the token ring's `2ⁿ − 1` configurations.
pub fn nonempty_necklaces(n: usize) -> u64 {
    fn phi(mut m: usize) -> usize {
        let mut r = m;
        let mut p = 2;
        while p * p <= m {
            if m.is_multiple_of(p) {
                while m.is_multiple_of(p) {
                    m /= p;
                }
                r -= r / p;
            }
            p += 1;
        }
        if m > 1 {
            r -= r / m;
        }
        r
    }
    let total: u64 = (1..=n)
        .filter(|&d| n.is_multiple_of(d))
        .map(|d| phi(d) as u64 * (1u64 << (n / d)))
        .sum();
    total / n as u64 - 1
}

// ---- reference systems for the legacy explorer ------------------------

/// `sys` seen through a canonicalisation function: the quotient system the
/// engines explore with a `canon` hook, spelled out so the legacy explorer
/// (which has no hook) walks the same space.
struct Quotient<'a, Sys: System> {
    sys: &'a Sys,
    canon: fn(&Sys::State) -> Sys::State,
}

impl<Sys: System> System for Quotient<'_, Sys> {
    type State = Sys::State;
    type Action = Sys::Action;
    fn initial_states(&self) -> Vec<Sys::State> {
        let mut init: Vec<_> = self.sys.initial_states().iter().map(self.canon).collect();
        init.sort();
        init.dedup();
        init
    }
    fn enabled(&self, s: &Sys::State) -> Vec<Sys::Action> {
        self.sys.enabled(s)
    }
    fn step(&self, s: &Sys::State, a: &Sys::Action) -> Sys::State {
        (self.canon)(&self.sys.step(s, a))
    }
}

/// `sys` with the actions of one crashed process removed.
struct Crashed<'a, Sys: System> {
    sys: &'a Sys,
    failed: usize,
}

impl<Sys: System> System for Crashed<'_, Sys> {
    type State = Sys::State;
    type Action = Sys::Action;
    fn initial_states(&self) -> Vec<Sys::State> {
        self.sys.initial_states()
    }
    fn enabled(&self, s: &Sys::State) -> Vec<Sys::Action> {
        let mut acts = self.sys.enabled(s);
        acts.retain(|a| self.sys.owner(a) != Some(ProcessId(self.failed)));
        acts
    }
    fn step(&self, s: &Sys::State, a: &Sys::Action) -> Sys::State {
        self.sys.step(s, a)
    }
}

/// `(states, transitions)` of `sys` by the legacy explorer.
fn legacy<Sys: System>(sys: &Sys) -> (usize, usize) {
    let r = Explorer::new(sys).max_states(10_000_000).explore();
    assert!(!r.truncated, "reference exploration must be exhaustive");
    (r.num_states, r.num_transitions)
}

fn ring_edges(n: usize, greedy: bool) -> (usize, usize) {
    if greedy {
        legacy(&Quotient {
            sys: &GreedyMergeRing { n },
            canon: rotation_canon,
        })
    } else {
        legacy(&Quotient {
            sys: &TokenRing { n },
            canon: rotation_canon,
        })
    }
}

// ---- regeneration -----------------------------------------------------

fn grid_section(out: &mut String, name: &str, n: usize, max: u8) {
    let (states, transitions) = (grid_states(n, max), grid_transitions(n, max));
    let _ = writeln!(out, "[{name}]  # closed forms for Grid{{n:{n},max:{max}}}");
    let _ = writeln!(out, "states = {states}");
    let _ = writeln!(out, "transitions = {transitions}");
    let _ = writeln!(out, "levels = {}", n * max as usize + 1);
    let _ = writeln!(out, "expansions = {states}");
    let _ = writeln!(out, "dedup_hits = {}", transitions - states + 1);
    let _ = writeln!(out, "canon_hits = 0");
    let _ = writeln!(out, "peak_frontier = {}", grid_peak_frontier(n, max));
    let _ = writeln!(out, "terminals = 1");
    let _ = writeln!(out, "cap_fallbacks = 0\n");
}

fn mutex_sections(out: &mut String, scale: &str, n: usize) {
    let alg = Dijkstra::new(n);
    let sys = MutexSystem::new(&alg);
    let (states, transitions) = legacy(&sys);
    let _ = writeln!(out, "[mutex_dijkstra4/{scale}]  # Dijkstra n={n}: safe and deadlock-free [38]; sizes by the legacy explorer");
    let _ = writeln!(out, "violation = 0");
    let _ = writeln!(out, "deadlock = 0");
    let _ = writeln!(out, "states = {states}");
    let _ = writeln!(out, "transitions = {transitions}");
    // One initial state; every other state is discovered by exactly one
    // transition, and every remaining transition is a dedup hit.
    let _ = writeln!(out, "dedup_hits = {}\n", transitions - states + 1);
    let r = Search::new(&sys).max_states(10_000_000).explore();
    let _ = writeln!(out, "[mutex_dijkstra4/{scale} pinned]");
    let _ = writeln!(out, "levels = {}", r.stats.levels);
    let _ = writeln!(out, "peak_frontier = {}\n", r.stats.peak_frontier);
}

fn ring_sections(out: &mut String, scale: &str, n: usize) {
    let necklaces = nonempty_necklaces(n);
    let (free_states, free_edges) = ring_edges(n, false);
    let (greedy_states, greedy_edges) = ring_edges(n, true);
    assert_eq!(
        free_states as u64, necklaces,
        "legacy quotient must count the necklaces"
    );
    let _ = writeln!(out, "[ring_quotient20/{scale}]  # ring n={n}: both properties fail; states = necklaces − 1 (Burnside), edges by the legacy explorer over the spelled-out quotient");
    let _ = writeln!(out, "states = {necklaces}");
    let _ = writeln!(out, "evades.holds = 0");
    let _ = writeln!(out, "evades.states = {necklaces}");
    let _ = writeln!(out, "evades.edges = {free_edges}");
    let _ = writeln!(out, "greedy.holds = 0");
    let _ = writeln!(out, "greedy.states = {greedy_states}");
    let _ = writeln!(out, "greedy.edges = {greedy_edges}\n");
    let cap = 10_000_000;
    let free = ring_search::election_evades_free_schedulers(n, cap);
    let greedy = ring_search::election_under_greedy_merges(n, cap);
    let free_canon = Search::new(&TokenRing { n })
        .max_states(cap)
        .canon(rotation_canon)
        .explore();
    let greedy_canon = Search::new(&GreedyMergeRing { n })
        .max_states(cap)
        .canon(rotation_canon)
        .explore();
    let _ = writeln!(out, "[ring_quotient20/{scale} pinned]");
    for (tag, r, c) in [
        ("evades", &free, &free_canon),
        ("greedy", &greedy, &greedy_canon),
    ] {
        let _ = writeln!(out, "{tag}.region = {}", r.region);
        let _ = writeln!(out, "{tag}.sccs = {}", r.sccs);
        let _ = writeln!(out, "{tag}.candidate_sccs = {}", r.candidate_sccs);
        let _ = writeln!(out, "{tag}.canon_hits = {}", c.stats.canon_hits);
    }
    let _ = writeln!(out);
}

/// The manifest registry's labels at `small` or full scale, in canonical
/// (unshuffled) order.
pub fn manifest_labels(small: bool) -> Vec<String> {
    if small {
        return [
            "ring 8 evades-free",
            "ring 8 greedy-elects",
            "quorum 3 0 nonterm",
            "grid 4 4 reaches-corner",
        ]
        .map(String::from)
        .to_vec();
    }
    let mut labels = Vec::new();
    for n in 8..=18 {
        labels.push(format!("ring {n} evades-free"));
        labels.push(format!("ring {n} greedy-elects"));
    }
    for (n, fs) in [(3, 0..3), (4, 0..4)] {
        for f in fs {
            labels.push(format!("quorum {n} {f} nonterm"));
        }
    }
    labels.extend(
        [
            "grid 4 4 reaches-corner",
            "grid 5 5 reaches-corner",
            "grid 6 4 reaches-corner",
        ]
        .map(String::from),
    );
    labels
}

fn job_line(label: &str) -> (bool, usize, usize) {
    let toks: Vec<&str> = label.split_whitespace().collect();
    let int = |s: &str| s.parse::<usize>().expect("registry labels are well-formed");
    match toks.as_slice() {
        // ◇(one token) fails under a free scheduler for every n ≥ 2.
        ["ring", n, "evades-free"] => {
            let (s, e) = ring_edges(int(n), false);
            (false, s, e)
        }
        // multi-token ⤳ one-token under greedy merges fails for n ≥ 5.
        ["ring", n, "greedy-elects"] => {
            let (s, e) = ring_edges(int(n), true);
            (int(n) <= 4, s, e)
        }
        // FLP: one crash keeps the live processes undecided forever.
        ["quorum", n, f, "nonterm"] => {
            let cand = QuorumVote::new(int(n));
            let sys = FlpSystem::all_binary(&cand);
            let (s, e) = legacy(&Crashed {
                sys: &sys,
                failed: int(f),
            });
            (false, s, e)
        }
        // Every maximal run of the grid ends in the saturated corner.
        ["grid", n, max, "reaches-corner"] => {
            let (n, max) = (int(n), int(max) as u8);
            (
                true,
                grid_states(n, max) as usize,
                grid_transitions(n, max) as usize,
            )
        }
        _ => panic!("unknown registry label `{label}`"),
    }
}

fn manifest_sections(
    out: &mut String,
    scale: &str,
    labels: &[String],
    jobs: &BTreeMap<String, (bool, usize, usize)>,
) {
    let states: usize = labels.iter().map(|l| jobs[l].1).sum();
    for name in ["manifest_cold", "manifest_warm"] {
        let _ = writeln!(out, "[{name}/{scale}]  # sums over the [jobs] below");
        let _ = writeln!(out, "jobs = {}", labels.len());
        let _ = writeln!(out, "states = {states}");
        let (hits, misses) = if name == "manifest_cold" {
            (0, labels.len())
        } else {
            (labels.len(), 0)
        };
        let _ = writeln!(out, "hits = {hits}");
        let _ = writeln!(out, "misses = {misses}\n");
    }
}

/// Rebuild the whole of `expected.txt`.
pub fn regenerate() -> String {
    let mut out = String::from(
        "# Expected verdicts and exact counts for the ledger workloads.\n\
         # Written by `ledger.sh --regen-expected`; do not edit by hand.\n\
         # Plain sections come from outside the checker (closed forms, known\n\
         # verdicts, the legacy full-state explorer); `pinned` sections record\n\
         # engine counts no outside source yields, so they at least repeat.\n\n",
    );
    mutex_sections(&mut out, "full", 4);
    mutex_sections(&mut out, "small", 3);
    ring_sections(&mut out, "full", 20);
    ring_sections(&mut out, "small", 12);

    let mut jobs = BTreeMap::new();
    for small in [false, true] {
        for label in manifest_labels(small) {
            jobs.entry(label.clone())
                .or_insert_with(|| job_line(&label));
        }
    }
    manifest_sections(&mut out, "full", &manifest_labels(false), &jobs);
    manifest_sections(&mut out, "small", &manifest_labels(true), &jobs);
    let _ = writeln!(out, "[jobs]  # label = holds states edges");
    for (label, (h, s, e)) in &jobs {
        let _ = writeln!(out, "{label} = {h} {s} {e}");
    }
    let _ = writeln!(out);

    for name in ["grid_w1", "grid_w2", "grid_spill", "grid_resume"] {
        grid_section(&mut out, &format!("{name}/full"), 6, 9);
        grid_section(&mut out, &format!("{name}/small"), 4, 4);
    }

    out
}
