//! A generated-system differential oracle for the one exact graph builder
//! (`Search::graph_from` and everything sourced from it).
//!
//! Every graph consumer in the workspace — valence, deadlock, lockout, the
//! property layer, `ckpt::incr` — now runs on that single loop, so no other
//! engine is left to cross-check it against, and `Grid` plus one hand-picked
//! system per crate exercise few of its corners. This suite draws small
//! transition tables instead (≤ 24 states, out-degree ≤ 3, 1–3 initial
//! states with duplicates, self-loops, optionally a planted rotation
//! symmetry with its canon hook) and compares the builder, field by field,
//! with a naive `BTreeMap` FIFO written here — per-state depths instead of
//! a level cursor, map lookups instead of fingerprints — under state caps
//! that cut and depth bounds that bind (the builder's compressed rows are
//! copied out as nested lists first, so the comparison is row by row), and
//! once more on a planted shape — a terminal state between expanded ones,
//! cut by the cap. The same tables then check that `reexplore_incremental`
//! equals a full rebuild of an action-dropping edit, that the label-free
//! `Search::shape` is `Search::graph` with its labels erased, that
//! `Search::check_property`, which checks `shape()` and derives its
//! witness's actions, reports what a `Checker` over `graph()` reports,
//! that the bitmask valence classification is the one a `BTreeSet`
//! fixpoint gives, that the rotation hook gives the same bytes on every
//! search route whether it is installed in place or owned, and that
//! `Search::explore` and a run or resume that can never pause, which keep
//! keys only, report what the routes that keep parent links report, trace
//! events included for a resume (on the tables, and on grids large enough
//! that the visited table grows).

use impossible_ckpt::{reexplore_incremental, ActionEdit};
use impossible_core::ids::ProcessId;
use impossible_core::succ::Target;
use impossible_core::symmetry::Canon;
use impossible_core::system::{DecisionSystem, System};
use impossible_core::valence::ValenceEngine;
use impossible_det::{det_assert, det_assert_eq, det_prop, prop};
use impossible_explore::property::{always, eventually, leads_to, never};
use impossible_explore::{
    impl_encode_struct, impl_persist_struct, Checker, Encode, Grid, PauseBudget, ReachableGraph,
    Resumable, Search, SearchCheckpoint, SearchReport, SpillPolicy, Truncation,
};
use impossible_obs::{Event, NoopTracer, RingTracer};
use std::collections::{BTreeMap, BTreeSet};

/// A state of a generated system: a row of the transition table. It carries
/// the table's rotation period so that the canon hook — a plain fn pointer,
/// which can capture nothing — can read it off the state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Node {
    at: u8,
    period: u8,
}

impl_encode_struct!(Node { at, period });
impl_persist_struct!(Node { at, period });

/// `copies` rotated images of a `period`-row fundamental domain: row
/// `s + c·period` is row `s` with every target shifted by `c·period`, so
/// `s ↦ s + period (mod n)` is an automorphism and `s mod period` the
/// orbit minimum. `copies == 1` plants nothing.
struct Table {
    rows: Vec<Vec<u8>>,
    period: u8,
    inits: Vec<u8>,
}

impl Table {
    fn new(raw: &[Vec<u8>], copies: usize, inits: &[u8]) -> Table {
        let (m, n) = (raw.len(), raw.len() * copies);
        let rows = (0..n)
            .map(|s| {
                raw[s % m]
                    .iter()
                    .map(|&t| ((t as usize + (s / m) * m) % n) as u8)
                    .collect()
            })
            .collect();
        Table {
            rows,
            period: m as u8,
            inits: inits.iter().map(|&i| (i as usize % n) as u8).collect(),
        }
    }

    fn node(&self, at: u8) -> Node {
        Node {
            at,
            period: self.period,
        }
    }
}

impl System for Table {
    type State = Node;
    type Action = u8;

    fn initial_states(&self) -> Vec<Node> {
        self.inits.iter().map(|&i| self.node(i)).collect()
    }

    fn enabled(&self, s: &Node) -> Vec<u8> {
        (0..self.rows[s.at as usize].len() as u8).collect()
    }

    fn step(&self, s: &Node, a: &u8) -> Node {
        self.node(self.rows[s.at as usize][*a as usize])
    }
}

/// On every third row process 0 decides a bit, and on every fourth from
/// row 1 process 1 does, so a table has univalent, bivalent and undecided
/// configurations — and in row 9, where the two disagree, a broken
/// agreement.
impl DecisionSystem for Table {
    fn decisions(&self, s: &Node) -> Vec<(ProcessId, u64)> {
        let mut d = Vec::new();
        if s.at.is_multiple_of(3) {
            d.push((ProcessId(0), u64::from(s.at / 3 % 2)));
        }
        if s.at % 4 == 1 {
            d.push((ProcessId(1), u64::from(s.at / 4 % 2)));
        }
        d
    }
}

/// The values decided in `s`.
fn decided(sys: &Table, s: &Node) -> BTreeSet<u64> {
    sys.decisions(s).into_iter().map(|(_, v)| v).collect()
}

/// The reference classification of a graph: a `BTreeSet` of values per
/// state, iterated in whole rounds until nothing changes (no worklist, no
/// masks), and the bivalent, univalent and undecided initials and the
/// critical configurations read off it.
fn set_valence(sys: &Table, g: &ReachableGraph<Node, (), u32>) -> [Vec<Node>; 4] {
    let own: Vec<BTreeSet<u64>> = g.order.iter().map(|s| decided(sys, s)).collect();
    let mut val = own.clone();
    loop {
        let next: Vec<BTreeSet<u64>> = (0..g.len())
            .map(|i| g.succ[i].iter().fold(own[i].clone(), |v, &(_, t)| &v | &val[t.to_usize()]))
            .collect();
        if next == val {
            break;
        }
        val = next;
    }
    let states = |keep: &dyn Fn(usize) -> bool, n| {
        (0..n).filter(|&i| keep(i)).map(|i| g.order[i].clone()).collect()
    };
    let critical = |i: usize| {
        let real: Vec<usize> =
            g.succ[i].iter().map(|&(_, t)| t.to_usize()).filter(|&t| t != i).collect();
        val[i].len() >= 2 && !real.is_empty() && real.iter().all(|&t| val[t].len() == 1)
    };
    [
        states(&|i| val[i].len() >= 2, g.initials),
        states(&|i| val[i].len() == 1, g.initials),
        states(&|i| val[i].is_empty(), g.initials),
        states(&critical, g.len()),
    ]
}

fn orbit_minimum(s: &Node) -> Node {
    Node {
        at: s.at % s.period,
        period: s.period,
    }
}

/// [`orbit_minimum`] in place: the state moved exactly when it was past
/// the fundamental domain.
fn orbit_minimum_in_place(s: &mut Node) -> bool {
    let moved = s.at >= s.period;
    s.at %= s.period;
    moved
}

/// Every search route's output over `sys` under `canon`, as text:
/// `explore`, `search(p)` and its witness, `graph`, `shape`,
/// `check_property` for a safety and a liveness claim over `p`, a run
/// paused after one level and resumed, and a spilled `explore_extmem`
/// with its `peak_bytes` zeroed (the one field spilling is meant to move).
fn canon_routes(
    sys: &Table,
    canon: Canon<Node>,
    max_states: usize,
    p: impl Fn(&Node) -> bool + Copy,
) -> Vec<String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SPILLS: AtomicUsize = AtomicUsize::new(0);
    let search = match canon {
        Canon::InPlace(c) => Search::new(sys).canon_in_place(c),
        Canon::Owned(c) => Search::new(sys).canon(c),
    };
    let search = search.max_states(max_states);
    let resumed = match search.run_resumable(PauseBudget::levels(1)) {
        Resumable::Paused(ckpt) => format!("{:?}", search.resume(ckpt, PauseBudget::never())),
        done => format!("{done:?}"),
    };
    let spill = SPILLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("graph-oracle-canon-{spill}"));
    let policy = SpillPolicy::new(&dir).ram_keys(2).spill_frontier(true);
    let mut spilled = search.explore_extmem(&policy);
    spilled.stats.peak_bytes = 0;
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        format!("{:?}", search.explore()),
        format!("{:?}", search.search(p)),
        format!("{:?}", parts(search.graph())),
        format!("{:?}", parts(search.shape())),
        search.check_property(&always("p", p)).to_json(),
        search.check_property(&eventually("p", p)).to_json(),
        resumed,
        format!("{spilled:?}"),
    ]
}

/// A search's bounds and optional in-place canon hook: what a helper needs
/// to build the same `Search` more than once (a tracer is set on a fresh
/// builder).
struct Bounds<S> {
    max_states: usize,
    max_depth: usize,
    canon: Option<fn(&mut S) -> bool>,
}

// By hand: a derive would ask `S: Copy` of the state.
impl<S> Clone for Bounds<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for Bounds<S> {}

impl<S> Bounds<S> {
    fn build<Sys: System<State = S>>(self, sys: &Sys) -> Search<'_, Sys> {
        let search = Search::new(sys).max_states(self.max_states).max_depth(self.max_depth);
        match self.canon {
            Some(c) => search.canon_in_place(c),
            None => search,
        }
    }
}

/// A predicate-free run's report on every resident route, as text:
/// `explore()` and `run_resumable(never())`, which keep keys only; `search`
/// with a predicate that never holds, which keeps parent links; and a run
/// paused at every level boundary, each pause resumed from its checkpoint
/// (links until the last resume). `peak_bytes` prices the link-carrying
/// table on all four, so the four texts must be equal, that field included.
fn keyed_and_linked_routes<Sys>(sys: &Sys, bounds: Bounds<Sys::State>) -> [String; 4]
where
    Sys: System,
    Sys::State: Encode,
{
    let search = bounds.build(sys);
    let done = |r: Resumable<Sys::State, Sys::Action>| -> SearchReport<Sys::State, Sys::Action> {
        r.done().expect("a run with no pause budget left finishes")
    };
    let mut stepped = search.run_resumable(PauseBudget::levels(0));
    while let Resumable::Paused(ckpt) = stepped {
        let next = PauseBudget::levels(ckpt.depth + 1);
        stepped = search.resume(ckpt, next);
    }
    [
        format!("{:?}", search.explore()),
        format!("{:?}", done(search.run_resumable(PauseBudget::never()))),
        format!("{:?}", search.search(|_| false)),
        format!("{:?}", done(stepped)),
    ]
}

/// A resumed run's report as text, and its trace events.
type Traced = (String, Vec<Event>);

/// The run paused at every level boundary, each checkpoint resumed to the
/// end on both routes: `resume(ckpt, never())`, which drops the parents
/// and finishes on a key-only table, and `resume(ckpt, levels(usize::MAX
/// - 1))`, a budget that could trip and so keeps links. Returns, per pause,
/// both reports as text and both routes' trace events, which must be
/// equal pairwise (`peak_bytes` included).
fn resumed_both_ways<Sys>(sys: &Sys, bounds: Bounds<Sys::State>) -> Vec<[Traced; 2]>
where
    Sys: System,
    Sys::State: Encode,
{
    let traced = |ckpt: SearchCheckpoint<Sys::State, Sys::Action>, budget| {
        let mut ring = RingTracer::new(1 << 12);
        let report = bounds.build(sys).tracer(&mut ring).resume(ckpt, budget);
        assert_eq!(ring.dropped(), 0, "the ring holds the whole resumed trace");
        (format!("{report:?}"), ring.events().to_vec())
    };
    let search = bounds.build(sys);
    let mut pairs = Vec::new();
    let mut stepped = search.run_resumable(PauseBudget::levels(0));
    while let Resumable::Paused(ckpt) = stepped {
        pairs.push([
            traced(ckpt.clone(), PauseBudget::never()),
            traced(ckpt.clone(), PauseBudget::levels(usize::MAX - 1)),
        ]);
        let next = PauseBudget::levels(ckpt.depth + 1);
        stepped = search.resume(ckpt, next);
    }
    pairs
}

/// [`orbit_minimum_in_place`] for a grid: the counters are interchangeable,
/// so sorting them is a canon hook; it moved the state unless it was sorted.
#[allow(clippy::ptr_arg)] // the hook type is `fn(&mut S) -> bool`, `S = Vec<u8>`
fn sort_in_place(s: &mut Vec<u8>) -> bool {
    let moved = !s.is_sorted();
    s.sort_unstable();
    moved
}

type Parts<S, A> = (Vec<S>, Vec<Vec<(A, usize)>>, usize, Option<Truncation>);

/// The builder's graph with its compressed rows copied out as the nested
/// lists [`naive`] builds, targets read back as `usize` whatever their
/// width, so that equality is row by row.
fn parts<S, A: Clone, T: Target>(g: ReachableGraph<S, A, T>) -> Parts<S, A> {
    let rows = g
        .succ
        .iter()
        .map(|row| row.iter().map(|(a, t)| (a.clone(), t.to_usize())).collect())
        .collect();
    (g.order, rows, g.initials, g.truncated_by)
}

/// The reference: what `graph_filtered(keep)` under `canon` must return.
/// Initial states are interned uncapped, as the builder does.
fn naive<Sys: System>(
    sys: &Sys,
    keep: impl Fn(&Sys::Action) -> bool,
    canon: impl Fn(&Sys::State) -> Sys::State,
    max_states: usize,
    max_depth: usize,
) -> Parts<Sys::State, Sys::Action> {
    let (mut order, mut depth, mut succ) = (Vec::new(), Vec::new(), Vec::new());
    let mut index: BTreeMap<Sys::State, usize> = BTreeMap::new();
    let mut truncated_by = None;
    for s in sys.initial_states().iter().map(&canon) {
        if !index.contains_key(&s) {
            index.insert(s.clone(), order.len());
            order.push(s);
            depth.push(0);
        }
    }
    let initials = order.len();
    let mut i = 0;
    while i < order.len() {
        succ.push(Vec::new());
        let s = order[i].clone();
        for a in sys.enabled(&s).into_iter().filter(&keep) {
            if depth[i] >= max_depth {
                truncated_by.get_or_insert(Truncation::Depth);
                break;
            }
            let t = canon(&sys.step(&s, &a));
            if !index.contains_key(&t) {
                if order.len() >= max_states {
                    truncated_by.get_or_insert(Truncation::States);
                    continue;
                }
                index.insert(t.clone(), order.len());
                order.push(t.clone());
                depth.push(depth[i] + 1);
            }
            succ[i].push((a, index[&t]));
        }
        i += 1;
    }
    (order, succ, initials, truncated_by)
}

/// Each state's BFS depth, read off a FIFO graph's rows: the first row
/// that names a non-initial state discovered it.
fn fifo_depths<S, A>((order, rows, initials, _): &Parts<S, A>) -> Vec<usize> {
    let mut depth: Vec<Option<usize>> = vec![None; order.len()];
    depth[..*initials].fill(Some(0));
    for (i, row) in rows.iter().enumerate() {
        for &(_, t) in row {
            if depth[t].is_none() {
                depth[t] = depth[i].map(|d| d + 1);
            }
        }
    }
    depth.into_iter().map(|d| d.expect("every state is reached")).collect()
}

det_prop! {
    fn the_builder_matches_a_naive_fifo(
        cases = 1024,
        raw in prop::vec(prop::vec(0u8..24, 0..4), 1..9),
        copies in 1usize..=3,
        inits in prop::vec(0u8..24, 1..4),
        keep_mask in 0u8..8,
        cap in 1usize..=24,
        quotient in 0u8..2
    ) {
        let sys = Table::new(&raw, copies, &inits);
        let keep = |a: &u8| keep_mask >> a & 1 == 1;
        for max_states in [usize::MAX, cap] {
            for max_depth in [usize::MAX, 2] {
                let mut search = Search::new(&sys).max_states(max_states).max_depth(max_depth);
                let canon = if quotient == 1 {
                    search = search.canon(orbit_minimum);
                    orbit_minimum
                } else {
                    Node::clone
                };
                det_assert_eq!(
                    parts(search.graph_filtered(keep)),
                    naive(&sys, keep, canon, max_states, max_depth)
                );
                det_assert_eq!(
                    parts(search.graph()),
                    naive(&sys, |_| true, canon, max_states, max_depth)
                );
            }
        }
    }

    /// The shape the property above hardly ever draws: a terminal state in
    /// the *middle* of the index order — index 1, an initial state — with
    /// expanded states on both sides of it, under a cap that cuts. A row the
    /// builder forgot to close, or states it forgot to pad, cannot hide
    /// here behind the trailing empty rows every cut graph has.
    fn a_terminal_state_between_expanded_ones_keeps_its_empty_row(
        cases = 1024,
        extra in prop::vec(prop::vec(0u8..24, 0..3), 7..13),
        cap in 6usize..12
    ) {
        // Row `s` is `s → s + 1 (mod n)` and then the drawn extras, except
        // row 1, which is empty; 0, 1 and 2 are initial. All `n` states are
        // reachable (2 → 3 → … → 0), so any cap below `n` cuts, and from 6
        // up it cannot take state 2's first edge.
        let n = extra.len();
        let mut raw: Vec<Vec<u8>> = (0..n)
            .map(|s| [&[((s + 1) % n) as u8][..], &extra[s]].concat())
            .collect();
        raw[1].clear();
        let sys = Table::new(&raw, 1, &[0, 1, 2]);
        let cap = cap.min(n - 1);
        for max_states in [cap, usize::MAX] {
            let g = Search::new(&sys).max_states(max_states).graph();
            det_assert_eq!(g.truncated_by, (max_states == cap).then_some(Truncation::States));
            det_assert_eq!(g.succ.len(), g.len());
            det_assert!(!g.succ[0].is_empty() && g.succ[1].is_empty() && !g.succ[2].is_empty());
            det_assert_eq!(parts(g), naive(&sys, |_| true, Node::clone, max_states, usize::MAX));
        }
    }

    /// Levels several blocks wide. The builder stages, keys and reads
    /// ahead the children of up to `BLOCK` FIFO states of one level before
    /// it interns any of them; the tables above rarely have a level wider
    /// than one block. Here a table has up to `4·BLOCK` states, with up to
    /// `4·BLOCK` initial states (duplicates included) or out-degree up to
    /// 8, so one level spans several blocks and a child's first discoverer
    /// and its duplicates sit in different blocks. The cap is drawn over
    /// the whole range, so it binds in the middle of a block; depth bounds
    /// 0–3 land on the wide levels. Besides the graph, the source's calls
    /// are checked: every state once, in index order — up to and including
    /// the first state a depth cut finds work for, and none after it.
    fn wide_levels_match_a_naive_fifo(
        cases = 512,
        raw in prop::vec(prop::vec(0u8..64, 0..9), 1..33),
        copies in 1usize..=2,
        inits in prop::vec(0u8..64, 1..65),
        cap in 1usize..=64,
        max_depth in 0usize..=3,
        quotient in 0u8..2
    ) {
        let sys = Table::new(&raw, copies, &inits);
        let canon = if quotient == 1 { orbit_minimum } else { Node::clone };
        for max_states in [usize::MAX, cap] {
            for max_depth in [usize::MAX, max_depth] {
                let mut search = Search::new(&sys).max_states(max_states).max_depth(max_depth);
                if quotient == 1 {
                    search = search.canon(orbit_minimum);
                }
                let mut calls = Vec::new();
                let g: ReachableGraph<_, _> = search.graph_from(|s, out, _spares| {
                    calls.push(s.clone());
                    out.extend(sys.enabled(s).into_iter().map(|a| (a, canon(&sys.step(s, &a)))));
                });
                let want = naive(&sys, |_| true, canon, max_states, max_depth);
                let depths = fifo_depths(&want);
                let expanded = (0..want.0.len())
                    .find(|&i| depths[i] >= max_depth && !sys.enabled(&want.0[i]).is_empty())
                    .map_or(want.0.len(), |cut| cut + 1);
                det_assert_eq!(&calls[..], &want.0[..expanded]);
                det_assert_eq!(parts(g), want);
            }
        }
    }

    /// `shape()` is `graph()` with the action labels erased: the same
    /// states, initials, truncation and row targets in row order (its
    /// `u32` targets read as `usize` against `graph()`'s), under
    /// duplicate initials, self-loops, a canon hook and both cuts. The
    /// valence classification reads targets only, so it cannot tell the
    /// two graphs apart. A `shape()` whose source skipped the canon hook
    /// fails here.
    fn the_label_free_graph_is_the_labelled_one_without_labels(
        cases = 1024,
        raw in prop::vec(prop::vec(0u8..24, 0..4), 1..9),
        copies in 1usize..=3,
        inits in prop::vec(0u8..24, 1..4),
        cap in 1usize..=24,
        max_depth in 0usize..=3,
        quotient in 0u8..2
    ) {
        let sys = Table::new(&raw, copies, &inits);
        for max_states in [usize::MAX, cap] {
            for max_depth in [usize::MAX, max_depth] {
                let mut search = Search::new(&sys).max_states(max_states).max_depth(max_depth);
                if quotient == 1 {
                    search = search.canon(orbit_minimum);
                }
                let (labelled, shape) = (search.graph(), search.shape());
                let engine = ValenceEngine::new(&sys);
                let by_labels = engine.analyze_from_graph(
                    &labelled.order,
                    &labelled.succ,
                    labelled.initials,
                    labelled.truncated(),
                    &mut NoopTracer,
                );
                let by_shape = engine.analyze_from_graph(
                    &shape.order,
                    &shape.succ,
                    shape.initials,
                    shape.truncated(),
                    &mut NoopTracer,
                );
                det_assert_eq!(&by_shape, &by_labels);
                det_assert_eq!(search.valence(), by_shape);
                let (order, rows, initials, truncated_by) = parts(labelled);
                let erased = rows.iter().map(|row| row.iter().map(|&(_, t)| ((), t)).collect());
                det_assert_eq!(parts(shape), (order, erased.collect(), initials, truncated_by));
            }
        }
    }

    /// `check_property` checks the label-free graph and derives only its
    /// witness's actions, re-staging each witness edge's source state; its
    /// report must be what the labelled checker reports, byte for byte —
    /// safety and both liveness forms, under caps that cut rows mid-way (a
    /// child the cap refused sits before a kept edge, so edge `k` is not
    /// action `k`), two actions into one target, self-loops and the
    /// rotation canon hook. Deriving edge `k` as the `k`-th enabled action
    /// fails here, and so does re-staging without the canon hook.
    fn check_property_reports_what_the_labelled_checker_reports(
        cases = 1024,
        raw in prop::vec(prop::vec(0u8..24, 0..4), 1..9),
        copies in 1usize..=3,
        inits in prop::vec(0u8..24, 1..4),
        cap in 1usize..=24,
        max_depth in 0usize..=3,
        p_bits in 0u32..1 << 24,
        q_bits in 0u32..1 << 24,
        quotient in 0u8..2
    ) {
        let sys = Table::new(&raw, copies, &inits);
        let p = |s: &Node| p_bits >> s.at & 1 == 1;
        let q = |s: &Node| q_bits >> s.at & 1 == 1;
        let props = [always("p", p), eventually("q", q), leads_to("p-leads-to-q", p, q)];
        for max_states in [usize::MAX, cap] {
            for max_depth in [usize::MAX, max_depth] {
                let mut search = Search::new(&sys).max_states(max_states).max_depth(max_depth);
                if quotient == 1 {
                    search = search.canon(orbit_minimum);
                }
                let g = search.graph();
                for prop in &props {
                    det_assert_eq!(
                        search.check_property(prop).to_json(),
                        Checker::new(&g).check(prop).to_json()
                    );
                }
            }
        }
    }

    /// The bitmask valence engine against [`set_valence`], on graphs cut
    /// by caps and depth bounds and under the canon hook; and agreement,
    /// checked as `never(disagrees)`, against a scan of the reachable rows
    /// for two decided values.
    fn valence_matches_a_set_fixpoint(
        cases = 1024,
        raw in prop::vec(prop::vec(0u8..24, 0..4), 1..9),
        copies in 1usize..=3,
        inits in prop::vec(0u8..24, 1..4),
        cap in 1usize..=24,
        max_depth in 0usize..=3,
        quotient in 0u8..2
    ) {
        let sys = Table::new(&raw, copies, &inits);
        for max_states in [usize::MAX, cap] {
            for max_depth in [usize::MAX, max_depth] {
                let mut search = Search::new(&sys).max_states(max_states).max_depth(max_depth);
                if quotient == 1 {
                    search = search.canon(orbit_minimum);
                }
                let report = search.valence();
                let shape = search.shape();
                det_assert_eq!(
                    [
                        report.bivalent_initials,
                        report.univalent_initials,
                        report.undecided_initials,
                        report.critical
                    ],
                    set_valence(&sys, &shape)
                );
                let agreement = never("agreement", |s| sys.disagrees(s));
                det_assert_eq!(
                    search.check_property(&agreement).holds,
                    !shape.order.iter().any(|s| decided(&sys, s).len() >= 2)
                );
            }
        }
    }

    /// The rotation hook in place ([`orbit_minimum_in_place`]) and owned
    /// ([`orbit_minimum`], through `Canon::apply`'s adapter) give the same
    /// bytes on every route of [`canon_routes`], whole and under a cap
    /// that cuts — `canon_hits` included, so an in-place hook whose flag is
    /// not "the state changed" fails here.
    fn owned_and_in_place_hooks_agree_on_every_route(
        cases = 256,
        raw in prop::vec(prop::vec(0u8..24, 0..4), 1..9),
        copies in 1usize..=3,
        inits in prop::vec(0u8..24, 1..4),
        cap in 1usize..=24,
        p_bits in 0u32..1 << 24
    ) {
        let sys = Table::new(&raw, copies, &inits);
        let p = |s: &Node| p_bits >> s.at & 1 == 1;
        for max_states in [usize::MAX, cap] {
            det_assert_eq!(
                canon_routes(&sys, Canon::InPlace(orbit_minimum_in_place), max_states, p),
                canon_routes(&sys, Canon::Owned(orbit_minimum), max_states, p)
            );
        }
    }

    /// `explore()` and `run_resumable(never())` keep keys only and report
    /// what the routes that keep parent links report
    /// ([`keyed_and_linked_routes`]), byte for byte, `peak_bytes` included:
    /// under duplicate initials, self-loops, the rotation canon hook, and
    /// caps and depth bounds that cut. Pricing `explore()`'s `peak_bytes`
    /// from its own key-only table fails here. So does, through
    /// [`resumed_both_ways`] (a run paused at every level, each checkpoint
    /// resumed key-only and with links, reports and trace events compared),
    /// a key-only restore that drops each page's keys with its parents:
    /// the resumed run counts only the states found after the pause, and
    /// a back edge re-finds one found before it.
    fn explore_reports_what_the_link_keeping_routes_report(
        cases = 512,
        raw in prop::vec(prop::vec(0u8..24, 0..4), 1..9),
        copies in 1usize..=3,
        inits in prop::vec(0u8..24, 1..4),
        cap in 1usize..=24,
        max_depth in 0usize..=3,
        quotient in 0u8..2
    ) {
        let sys = Table::new(&raw, copies, &inits);
        let canon = (quotient == 1).then_some(orbit_minimum_in_place as fn(&mut Node) -> bool);
        for max_states in [usize::MAX, cap] {
            for max_depth in [usize::MAX, max_depth] {
                let bounds = Bounds { max_states, max_depth, canon };
                let [explored, others @ ..] = keyed_and_linked_routes(&sys, bounds);
                for other in others {
                    det_assert_eq!(&explored, &other);
                }
                for [keyed, linked] in resumed_both_ways(&sys, bounds) {
                    det_assert_eq!(keyed, linked);
                }
            }
        }
    }

    /// The same agreement on grids of 2 601–5 832 states. The tables above
    /// put a few keys in each of the visited set's 64 shards; here an
    /// unsorted grid puts about 40, past the 32 at which a shard's table
    /// doubles, so a key-only table that loses keys as it grows reports
    /// fewer states than the link-keeping ones, and a key-only table
    /// restored from a checkpoint grows past its pages. Sorting the
    /// counters (a canon hook), caps and depth bounds cut the space as
    /// above.
    fn explore_agrees_with_the_link_keeping_routes_past_a_table_doubling(
        cases = 16,
        n in 2usize..=3,
        size in 0u8..=4,
        cap in 1usize..=6000,
        max_depth in 0usize..=60,
        sorted in 0u8..2
    ) {
        let max = if n == 2 { 50 + 6 * size } else { 13 + size };
        let sys = Grid { n, max };
        let canon = (sorted == 1).then_some(sort_in_place as fn(&mut Vec<u8>) -> bool);
        for max_states in [usize::MAX, cap] {
            for max_depth in [usize::MAX, max_depth] {
                let bounds = Bounds { max_states, max_depth, canon };
                let [explored, others @ ..] = keyed_and_linked_routes(&sys, bounds);
                for other in others {
                    det_assert_eq!(&explored, &other);
                }
            }
        }
        // Pausing at every level costs a full resume per level and route,
        // so only the cut bounds: a cap past the space and a depth past the
        // last level still come up among the cases.
        let bounds = Bounds { max_states: cap, max_depth, canon };
        for [keyed, linked] in resumed_both_ways(&sys, bounds) {
            det_assert_eq!(keyed, linked);
        }
    }

    fn incremental_reexploration_matches_a_full_rebuild(
        cases = 1024,
        raw in prop::vec(prop::vec(0u8..24, 0..4), 1..9),
        copies in 1usize..=3,
        inits in prop::vec(0u8..24, 1..4),
        drops in prop::vec(0u8..96, 0..6),
        cap in 1usize..=24
    ) {
        // Each drop removes one (row, action) pair — a state-dependent
        // edit, so some states stay clean and keep their old lists.
        let sys = Table::new(&raw, copies, &inits);
        let n = sys.rows.len();
        let edit = ActionEdit::new(&sys, |s: &Node, a: &u8| {
            !drops.iter().any(|&d| (d / 4) as usize % n == s.at as usize && d % 4 == *a)
        });
        for old_cap in [usize::MAX, cap] {
            let old = Search::new(&sys).max_states(old_cap).graph();
            for new_cap in [usize::MAX, cap] {
                let dirty = |s: &_| edit.dirty_state(s);
                let (g, stats) =
                    reexplore_incremental(&old, &edit, dirty, new_cap, &mut NoopTracer);
                det_assert_eq!(stats.reused + stats.recomputed, g.len());
                if old.truncated() {
                    det_assert_eq!(stats.reused, 0);
                }
                det_assert_eq!(
                    parts(g),
                    parts(Search::new(&edit).max_states(new_cap).graph())
                );
            }
        }
    }
}
