//! A generated-system oracle for the one witness checker,
//! `core::cert::verify`, and for the canon-hook audit,
//! `explore::canon::audit`.
//!
//! The systems are small transition tables, as in `graph_oracle.rs`: ≤ 24
//! states, out-degree ≤ 3, 1–3 initial states with duplicates, self-loops,
//! back-edges, planted deadlocks (empty rows), optionally a planted
//! rotation symmetry with its canon hook. Each edge carries a random
//! fairness class and each state random goal, trigger, admissibility and
//! bad marks, all constant on rotation orbits, so the quotient is sound for
//! every predicate the checks use. Three claims:
//!
//! * every counterexample `Checker` returns for `always` / `never` /
//!   `eventually` / `leads_to` — plain or admissible and fair, whole or cut
//!   by a state cap, over the system or its quotient — passes `verify`;
//! * a one-edit mutant of a real counterexample is rejected with exactly
//!   the clause it breaks, and every clause has a mutant that kills it;
//! * `audit` passes the planted rotation's hook over the whole reachable
//!   space, and on a hook that ignores the `at` field names the first
//!   clause a naive restatement finds broken.
//!
//! The hooks here are owned, `fn(&Node) -> Node`, so the checks run
//! through `Canon::apply`'s adapter; the planted table's flag clause uses
//! in-place hooks.

use impossible_core::cert::{verify, Counterexample, Goal, Lasso, Spec, WitnessError};
use impossible_core::exec::Execution;
use impossible_core::system::System;
use impossible_det::prop::Strategy;
use impossible_det::rng::DetRng;
use impossible_det::{det_assert_eq, det_prop, prop};
use impossible_explore::canon::{audit, Canon, CanonFault};
use impossible_explore::property::{always, eventually, leads_to, never, Checker, Property};
use impossible_explore::{impl_encode_struct, ReachableGraph, Search};
use std::collections::BTreeMap;

/// A state of a generated system: a row of the table, plus the table's
/// rotation period so that the canon hook — a plain fn pointer — can read
/// it off the state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Node {
    at: u8,
    period: u8,
}

impl_encode_struct!(Node { at, period });

/// An action: the edge's index in its row, and the edge's fairness class
/// (0..3; a class at or past a checker's class count is unclassified).
type Act = (u8, u8);

/// State marks, one bit each.
const GOAL: u8 = 1;
const TRIGGER: u8 = 2;
const ADMISSIBLE: u8 = 4;
const BAD: u8 = 8;

/// `copies` rotated images of a `period`-row fundamental domain, as in
/// `graph_oracle.rs`: row `s + c·period` is row `s` with every target
/// shifted by `c·period`, and carries row `s`'s classes and marks, so
/// `s ↦ s + period (mod n)` is an automorphism that keeps every mark.
struct Table {
    /// Per row, per edge: `(target, class)`.
    rows: Vec<Vec<(u8, u8)>>,
    /// Per fundamental row: its marks.
    marks: Vec<u8>,
    period: u8,
    inits: Vec<u8>,
}

impl Table {
    /// `raw` edges encode `target + 24 · class`.
    fn new(raw: &[Vec<u8>], marks: &[u8], copies: usize, inits: &[u8]) -> Table {
        let (m, n) = (raw.len(), raw.len() * copies);
        let rows = (0..n)
            .map(|s| {
                raw[s % m]
                    .iter()
                    .map(|&e| (((e % 24) as usize + (s / m) * m) % n) as u8)
                    .zip(raw[s % m].iter().map(|&e| e / 24))
                    .collect()
            })
            .collect();
        Table {
            rows,
            marks: marks[..m].to_vec(),
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

    fn marked(&self, s: &Node, mark: u8) -> bool {
        self.marks[(s.at % self.period) as usize] & mark != 0
    }
}

impl System for Table {
    type State = Node;
    type Action = Act;

    fn initial_states(&self) -> Vec<Node> {
        self.inits.iter().map(|&i| self.node(i)).collect()
    }

    fn enabled(&self, s: &Node) -> Vec<Act> {
        let row = &self.rows[s.at as usize];
        (0..row.len() as u8)
            .map(|k| (k, row[k as usize].1))
            .collect()
    }

    fn step(&self, s: &Node, a: &Act) -> Node {
        self.node(self.rows[s.at as usize][a.0 as usize].0)
    }
}

fn orbit_minimum(s: &Node) -> Node {
    Node {
        at: s.at % s.period,
        period: s.period,
    }
}

/// A planted wrong hook: it ignores the `at` field, so every state
/// collapses onto row 0.
fn ignores_at(s: &Node) -> Node {
    Node {
        at: 0,
        period: s.period,
    }
}

fn raw_rows() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::vec(prop::vec(0u8..72, 0..4), 1..9)
}

fn raw_marks() -> impl Strategy<Value = Vec<u8>> {
    prop::vec(0u8..16, 8..9)
}

fn raw_inits() -> impl Strategy<Value = Vec<u8>> {
    prop::vec(0u8..24, 1..4)
}

/// The four properties, over `sys`'s marks.
fn properties(sys: &Table) -> [Property<'_, Node>; 4] {
    [
        always("never-bad", |s: &Node| !sys.marked(s, BAD)),
        never("bad", |s: &Node| sys.marked(s, BAD)),
        eventually("goal", |s: &Node| sys.marked(s, GOAL)),
        leads_to(
            "trigger-goal",
            |s: &Node| sys.marked(s, TRIGGER),
            |s: &Node| sys.marked(s, GOAL),
        ),
    ]
}

/// The graph of `sys`, whole or cut at `cap` states, over the system or its
/// rotation quotient, with the hook `verify` must replay it through.
fn graph(
    sys: &Table,
    cap: usize,
    quotient: bool,
) -> (ReachableGraph<Node, Act>, Option<Canon<Node>>) {
    let search = Search::new(sys).max_states(cap);
    if quotient {
        (search.canon(orbit_minimum).graph(), Some(Canon::Owned(orbit_minimum)))
    } else {
        (search.graph(), None)
    }
}

det_prop! {
    fn every_counterexample_passes_verify(
        cases = 512,
        raw in raw_rows(),
        marks in raw_marks(),
        copies in 1usize..=3,
        inits in raw_inits(),
        classes in 0usize..3,
        cap in 1usize..=24
    ) {
        let sys = Table::new(&raw, &marks, copies, &inits);
        let admissible = |s: &Node| sys.marked(s, ADMISSIBLE);
        let class_of = |a: &Act| Some(a.1 as usize);
        for quotient in [false, true] {
            for max_states in [usize::MAX, cap] {
                let (g, canon) = graph(&sys, max_states, quotient);
                let plain = Checker::new(&g);
                let constrained = Checker::new(&g).admissible(admissible).fairness(classes, class_of);
                for checker in [&plain, &constrained] {
                    for prop in &properties(&sys) {
                        let report = checker.check(prop);
                        if let Some(ce) = &report.counterexample {
                            let spec = Spec { canon, ..checker.spec(prop) };
                            det_assert_eq!(verify(&sys, &spec, ce), Ok(()));
                        }
                    }
                }
            }
        }
    }

    fn audit_passes_the_planted_rotation_and_names_what_a_wrong_hook_breaks(
        cases = 512,
        raw in raw_rows(),
        marks in raw_marks(),
        copies in 1usize..=3,
        inits in raw_inits()
    ) {
        let sys = Table::new(&raw, &marks, copies, &inits);
        let states = Search::new(&sys).reachable_states();
        let goal = |s: &Node| sys.marked(s, GOAL);
        let bad = |s: &Node| sys.marked(s, BAD);
        let preds: [(&str, &dyn Fn(&Node) -> bool); 2] = [("goal", &goal), ("bad", &bad)];
        det_assert_eq!(audit(&sys, Canon::Owned(orbit_minimum), &states, &preds), Ok(()));
        let naive = states
            .iter()
            .enumerate()
            .find_map(|(i, s)| first_fault(&sys, ignores_at, s, &preds).map(|f| (i, f)));
        let got = audit(&sys, Canon::Owned(ignores_at), &states, &preds);
        det_assert_eq!(got, naive.map_or(Ok(()), Err));
    }
}

/// The hook contract restated for one state, naively: successor multisets
/// as counting maps instead of sorted lists.
fn first_fault(
    sys: &Table,
    canon: fn(&Node) -> Node,
    s: &Node,
    preds: &[(&str, &dyn Fn(&Node) -> bool)],
) -> Option<CanonFault> {
    let c = canon(s);
    let counts = |t: &Node| {
        let mut m: BTreeMap<Node, usize> = BTreeMap::new();
        for a in sys.enabled(t) {
            *m.entry(canon(&sys.step(t, &a))).or_default() += 1;
        }
        m
    };
    if canon(&c) != c {
        Some(CanonFault::NotIdempotent)
    } else if sys.enabled(s).len() != sys.enabled(&c).len() {
        Some(CanonFault::EnabledSize)
    } else if counts(s) != counts(&c) {
        Some(CanonFault::Successors)
    } else {
        preds
            .iter()
            .find(|(_, p)| p(s) != p(&c))
            .map(|(name, _)| CanonFault::Predicate(name.to_string()))
    }
}

#[test]
fn audit_names_each_clause_on_a_planted_table() {
    // Rows 0 and 1 both step to row 2; row 2 is a deadlock, row 3 steps
    // twice. Only row 1 is a goal.
    let raw = vec![vec![2], vec![2], vec![], vec![0, 1]];
    let sys = Table::new(&raw, &[0, GOAL, 0, 0], 1, &[0]);
    let states: Vec<Node> = (0..4).map(|at| sys.node(at)).collect();
    let goal = |s: &Node| sys.marked(s, GOAL);
    let preds: [(&str, &dyn Fn(&Node) -> bool); 1] = [("goal", &goal)];
    fn next(s: &Node) -> Node {
        Node {
            at: (s.at + 1) % 4,
            period: s.period,
        }
    }
    fn row_1_to_0(s: &Node) -> Node {
        Node {
            at: if s.at == 1 { 0 } else { s.at },
            period: s.period,
        }
    }
    fn row_2_to_0(s: &Node) -> Node {
        Node {
            at: if s.at == 2 { 0 } else { s.at },
            period: s.period,
        }
    }
    fn row_3_to_1(s: &Node) -> Node {
        Node {
            at: if s.at == 3 { 1 } else { s.at },
            period: s.period,
        }
    }
    // A rotation is no idempotent hook.
    assert_eq!(
        audit(&sys, Canon::Owned(next), &states, &preds),
        Err((0, CanonFault::NotIdempotent))
    );
    // Row 1 is row 0's twin but for the goal mark.
    assert_eq!(
        audit(&sys, Canon::Owned(row_1_to_0), &states, &preds),
        Err((1, CanonFault::Predicate("goal".into())))
    );
    // Row 2 has no action; row 0 has one.
    assert_eq!(
        audit(&sys, Canon::Owned(row_2_to_0), &states, &preds),
        Err((2, CanonFault::EnabledSize))
    );
    // Row 3 has two actions, row 1 one.
    assert_eq!(
        audit(&sys, Canon::Owned(row_3_to_1), &states, &preds),
        Err((3, CanonFault::EnabledSize))
    );
    // Successors: a hook merging rows 0 and 3 of a table where both have
    // one action, to different places.
    let sys = Table::new(&[vec![1], vec![1], vec![2], vec![2]], &[0; 4], 1, &[0]);
    fn row_3_to_0(s: &Node) -> Node {
        Node {
            at: if s.at == 3 { 0 } else { s.at },
            period: s.period,
        }
    }
    assert_eq!(
        audit(&sys, Canon::Owned(row_3_to_0), &states, &[]),
        Err((3, CanonFault::Successors))
    );
    // The flag: the identity claiming a move, and a sound hook hiding one
    // (the first state it moves is row 2, period 2).
    fn claims_a_move(_: &mut Node) -> bool {
        true
    }
    fn hides_a_move(s: &mut Node) -> bool {
        *s = orbit_minimum(s);
        false
    }
    assert_eq!(
        audit(&sys, Canon::InPlace(claims_a_move), &states, &[]),
        Err((0, CanonFault::MovedFlag))
    );
    let sys = Table::new(&[vec![1], vec![0]], &[0; 8], 2, &[0]);
    let states: Vec<Node> = (0..4).map(|at| sys.node(at)).collect();
    assert_eq!(audit(&sys, Canon::Owned(orbit_minimum), &states, &[]), Ok(()));
    assert_eq!(
        audit(&sys, Canon::InPlace(hides_a_move), &states, &[]),
        Err((2, CanonFault::MovedFlag))
    );
}

/// One real counterexample's mutants: `(arm, mutant, spec, clause)`. The
/// `spec` is the counterexample's own unless the arm edits the claim.
type Mutant<'s> = (
    &'static str,
    Counterexample<Node, Act>,
    Spec<'s, Node, Act>,
    WitnessError,
);

fn lasso(ce: &Counterexample<Node, Act>) -> Option<&Lasso<Node, Act>> {
    match ce {
        Counterexample::Lasso(l) => Some(l),
        Counterexample::BadState(_) => None,
    }
}

fn with_stem(
    l: &Lasso<Node, Act>,
    states: Vec<Node>,
    actions: Vec<Act>,
) -> Counterexample<Node, Act> {
    Counterexample::Lasso(Lasso {
        stem: Execution::from_parts(states, actions),
        ..l.clone()
    })
}

/// Every mutant of `ce` (a counterexample `checker` found for `prop` on the
/// whole, unquotiented graph) that applies to it.
fn mutants<'s>(
    sys: &'s Table,
    ce: &Counterexample<Node, Act>,
    spec: impl Fn() -> Spec<'s, Node, Act>,
    head_banned: &'s dyn Fn(&Node) -> bool,
    goal_or_head: &'s dyn Fn(&Node) -> bool,
) -> Vec<Mutant<'s>> {
    let mut out: Vec<Mutant<'s>> = Vec::new();
    let stem = match ce {
        Counterexample::BadState(e) => e,
        Counterexample::Lasso(l) => &l.stem,
    };
    let (states, actions) = (stem.states().to_vec(), stem.actions().to_vec());

    // Start the run at a state no initial state canonizes to.
    let mut moved = states.clone();
    moved[0] = sys.node(99);
    let start = match ce {
        Counterexample::BadState(_) => {
            Counterexample::BadState(Execution::from_parts(moved, actions.clone()))
        }
        Counterexample::Lasso(l) => with_stem(l, moved, actions.clone()),
    };
    out.push(("non-initial start", start, spec(), WitnessError::NotInitial));
    if let Some(&first) = actions.first() {
        // The action filter drops the stem's first action.
        let forbidden: &'s dyn Fn(&Act) -> bool = match first {
            (0, _) => &not_edge_0,
            (1, _) => &not_edge_1,
            _ => &not_edge_2,
        };
        out.push((
            "filter out a stem action",
            ce.clone(),
            Spec {
                allowed: Some(forbidden),
                ..spec()
            },
            WitnessError::StemStep(0),
        ));
    }

    let Some(l) = lasso(ce) else {
        // A bad-state witness is a shortest run to the first bad index, so
        // its prefix ends on a state that is not bad.
        if !actions.is_empty() {
            let prefix = Execution::from_parts(
                states[..states.len() - 1].to_vec(),
                actions[..actions.len() - 1].to_vec(),
            );
            out.push((
                "drop the bad state",
                Counterexample::BadState(prefix),
                spec(),
                WitnessError::NotBad,
            ));
        }
        out.push((
            "bad state against a liveness claim",
            ce.clone(),
            Spec {
                goal: Goal::Eventually(goal_or_head),
                ..spec()
            },
            WitnessError::WrongKind,
        ));
        return out;
    };

    // An `eventually` stem is a shortest run inside the region, so no
    // action of its first state reaches its third.
    if l.pivot.is_none() && actions.len() >= 2 {
        let dropped = with_stem(
            l,
            [&states[..1], &states[2..]].concat(),
            actions[1..].to_vec(),
        );
        out.push((
            "drop a stem step",
            dropped,
            spec(),
            WitnessError::StemStep(0),
        ));
    }
    let head = stem.last().clone();
    if !l.cycle.is_empty() {
        let mut swapped = l.clone();
        swapped.cycle[0].0 = (9, 0);
        out.push((
            "swap a cycle action",
            Counterexample::Lasso(swapped),
            spec(),
            WitnessError::CycleStep(0),
        ));

        if let Some(j) = l.cycle.iter().position(|(_, s)| *s != head) {
            let mut open = l.clone();
            open.cycle.truncate(j + 1);
            out.push((
                "break the cycle's closure",
                Counterexample::Lasso(open),
                spec(),
                WitnessError::CycleOpen,
            ));
        }

        let mut stutter = l.clone();
        stutter.cycle.clear();
        out.push((
            "empty cycle on a non-terminal head",
            Counterexample::Lasso(stutter),
            spec(),
            WitnessError::NotTerminal,
        ));
    }
    out.push((
        "ban the head from the admissible states",
        ce.clone(),
        Spec {
            admissible: Some(head_banned),
            ..spec()
        },
        WitnessError::Inadmissible(0),
    ));
    if let Some((classes, _)) = spec().fairness {
        // The class map forgets the last class: the cycle covers it no more.
        let c = classes - 1;
        let forget: &'s dyn Fn(&Act) -> Option<usize> = match c {
            0 => &forget_class_0,
            _ => &forget_class_1,
        };
        out.push((
            "drop a class from the cycle",
            ce.clone(),
            Spec {
                fairness: Some((classes, forget)),
                ..spec()
            },
            WitnessError::Unfair(c),
        ));
    }
    match l.pivot {
        None => {
            let mut pivoted = l.clone();
            pivoted.pivot = Some(0);
            out.push((
                "pivot on an eventually lasso",
                Counterexample::Lasso(pivoted),
                spec(),
                WitnessError::Pivot,
            ));
            // The goal now includes the head, which the run reaches.
            let first = states
                .iter()
                .position(|s| *s == head)
                .expect("the stem ends at the head");
            out.push((
                "a goal the run meets",
                ce.clone(),
                Spec {
                    goal: Goal::Eventually(goal_or_head),
                    ..spec()
                },
                WitnessError::MeetsGoal(first),
            ));
        }
        Some(p) => {
            if let Some(q) = (0..states.len()).find(|&q| q != p && !sys.marked(&states[q], TRIGGER))
            {
                let mut pivoted = l.clone();
                pivoted.pivot = Some(q);
                out.push((
                    "move the pivot off a trigger",
                    Counterexample::Lasso(pivoted),
                    spec(),
                    WitnessError::Pivot,
                ));
            }
            // Back to an earlier trigger with a goal state after it.
            let goal_at = |k: usize| sys.marked(&states[k], GOAL);
            if let Some(q) =
                (0..p).find(|&q| sys.marked(&states[q], TRIGGER) && (q..p).any(goal_at))
            {
                let mut pivoted = l.clone();
                pivoted.pivot = Some(q);
                let first = (q..p).find(|&k| goal_at(k)).expect("found above");
                out.push((
                    "move the pivot before a goal",
                    Counterexample::Lasso(pivoted),
                    spec(),
                    WitnessError::MeetsGoal(first),
                ));
            }
        }
    }
    out
}

fn not_edge_0(a: &Act) -> bool {
    a.0 != 0
}

fn not_edge_1(a: &Act) -> bool {
    a.0 != 1
}

fn not_edge_2(a: &Act) -> bool {
    a.0 != 2
}

fn forget_class_0(a: &Act) -> Option<usize> {
    (a.1 != 0).then_some(a.1 as usize)
}

fn forget_class_1(a: &Act) -> Option<usize> {
    (a.1 != 1).then_some(a.1 as usize)
}

/// The arms [`mutants`] can draw, each of which must kill at least once.
const ARMS: [&str; 15] = [
    "non-initial start",
    "filter out a stem action",
    "drop the bad state",
    "bad state against a liveness claim",
    "drop a stem step",
    "swap a cycle action",
    "break the cycle's closure",
    "empty cycle on a non-terminal head",
    "ban the head from the admissible states",
    "drop a class from the cycle",
    "pivot on an eventually lasso",
    "a goal the run meets",
    "move the pivot off a trigger",
    "move the pivot before a goal",
    "stutter under fairness",
];

#[test]
fn every_mutant_is_rejected_with_exactly_its_clause() {
    let mut kills: BTreeMap<&str, usize> = BTreeMap::new();
    let mut rng = DetRng::seed_from_u64(0x1989_0C0E);
    for _ in 0..400 {
        let (raw, marks) = (
            raw_rows().generate(&mut rng),
            raw_marks().generate(&mut rng),
        );
        let copies = (1usize..=3).generate(&mut rng);
        let inits = raw_inits().generate(&mut rng);
        let classes = (1usize..3).generate(&mut rng);
        let sys = Table::new(&raw, &marks, copies, &inits);
        let g = Search::new(&sys).graph();
        let admissible = |s: &Node| sys.marked(s, ADMISSIBLE);
        let class_of = |a: &Act| Some(a.1 as usize);
        let plain = Checker::new(&g);
        let constrained = Checker::new(&g)
            .admissible(admissible)
            .fairness(classes, class_of);
        for checker in [&plain, &constrained] {
            for prop in &properties(&sys) {
                let Some(ce) = checker.check(prop).counterexample else {
                    continue;
                };
                let head = match &ce {
                    Counterexample::Lasso(l) => l.stem.last().clone(),
                    Counterexample::BadState(e) => e.last().clone(),
                };
                let head_banned =
                    |s: &Node| *s != head && checker.spec(prop).admissible.map_or(true, |f| f(s));
                let goal_or_head = |s: &Node| *s == head || sys.marked(s, GOAL);
                assert_eq!(verify(&sys, &checker.spec(prop), &ce), Ok(()));
                for (arm, mutant, spec, clause) in mutants(
                    &sys,
                    &ce,
                    || checker.spec(prop),
                    &head_banned,
                    &goal_or_head,
                ) {
                    assert_eq!(verify(&sys, &spec, &mutant), Err(clause), "{arm}: {ce:?}");
                    *kills.entry(arm).or_default() += 1;
                }
                // A stutter lasso under a fairness class takes no action.
                if let Some(l) = lasso(&ce).filter(|l| l.cycle.is_empty()) {
                    let class = |_: &Act| Some(0);
                    let fair = Spec {
                        fairness: Some((1, &class)),
                        ..checker.spec(prop)
                    };
                    assert_eq!(
                        verify(&sys, &fair, &Counterexample::Lasso(l.clone())),
                        Err(WitnessError::Unfair(0))
                    );
                    *kills.entry("stutter under fairness").or_default() += 1;
                }
            }
        }
    }
    for arm in ARMS {
        assert!(
            kills.get(arm).copied().unwrap_or(0) > 0,
            "no case drew the `{arm}` mutant: {kills:?}"
        );
    }
}
