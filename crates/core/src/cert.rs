//! The one checker for run evidence.
//!
//! The survey insists that "it is not possible to fake an impossibility
//! proof". The executable analogue: every engine in this workspace, when it
//! refutes a candidate algorithm, returns a concrete object that a human
//! or another program can independently re-check. For a [`System`] that
//! object is a [`Counterexample`]: a bad execution, or a [`Lasso`], the
//! finite form of an infinite admissible run. Every engine that returns a
//! counterexample re-checks it with [`verify`] first, through the system
//! alone, so a wrong witness is an engine bug that panics. The
//! combinatorial refuters outside `System` return the evidence their own
//! argument builds instead — a `scenario::ScenarioContradiction`, a typed
//! horn beside a [`Chain`](crate::chain::Chain) of executions, a
//! `symmetry::SymmetryVerdict` — and their tests re-check it with the
//! engine's own checker (`Chain::verify`, the window obligation evaluated
//! over the ring's decisions).

use crate::exec::Execution;
use crate::symmetry::Canon;
use crate::system::System;
use std::fmt;

/// A liveness counterexample: a finite stem from an initial state to a
/// loop head, plus a cycle the adversary can repeat forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lasso<S, A> {
    /// Initial state to the loop head (the stem's last state).
    pub stem: Execution<S, A>,
    /// Steps around the cycle; the last state equals the loop head. Empty
    /// means the head is terminal and the run stutters there forever.
    pub cycle: Vec<(A, S)>,
    /// For `leads_to(p, q)`: index into `stem.states()` of the triggering
    /// `p`-state that `q` never answers. `None` for `eventually`.
    pub pivot: Option<usize>,
}

/// Why a property failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Counterexample<S, A> {
    /// Safety: the shortest execution reaching a violating state.
    BadState(Execution<S, A>),
    /// Liveness: a stem plus a repeatable cycle avoiding the goal.
    Lasso(Lasso<S, A>),
}

/// The temporal claim a [`Counterexample`] refutes.
pub enum Goal<'a, S> {
    /// `□p`: a bad state violates `p`.
    Always(&'a dyn Fn(&S) -> bool),
    /// `□¬p`: a bad state satisfies `p`.
    Never(&'a dyn Fn(&S) -> bool),
    /// `◇p`: a lasso, no pivot, avoids `p`.
    Eventually(&'a dyn Fn(&S) -> bool),
    /// `□(p → ◇q)`: a lasso pivots on a `p` state and avoids `q` from it on.
    LeadsTo(&'a dyn Fn(&S) -> bool, &'a dyn Fn(&S) -> bool),
}

/// What [`verify`] checks a counterexample against: the claim, and the
/// system as the engine explored it (`explore::property::Checker::spec`
/// fills in a checker's part).
pub struct Spec<'a, S, A> {
    /// The claim refuted.
    pub goal: Goal<'a, S>,
    /// The quotient's canon hook, applied to initial states and successors.
    pub canon: Option<Canon<S>>,
    /// The actions the run may take (a crashed process takes none).
    pub allowed: Option<&'a dyn Fn(&A) -> bool>,
    /// The states a lasso may repeat forever (head and cycle).
    pub admissible: Option<&'a dyn Fn(&S) -> bool>,
    /// `(classes, class_of)`: the cycle takes an action of every class.
    pub fairness: Option<Fairness<'a, A>>,
}

/// [`Spec::fairness`]: a class count and the class of each action (`None`:
/// unclassified).
pub type Fairness<'a, A> = (usize, &'a dyn Fn(&A) -> Option<usize>);

impl<'a, S, A> Spec<'a, S, A> {
    /// `goal` over the plain system, with no constraint on the cycle.
    pub fn new(goal: Goal<'a, S>) -> Self {
        Spec {
            goal,
            canon: None,
            allowed: None,
            admissible: None,
            fairness: None,
        }
    }
}

/// The first clause of [`verify`]'s contract a counterexample breaks; its
/// `Display` is the clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessError {
    /// The stem does not start at an initial state.
    NotInitial,
    /// Stem step `k` is not a step of the system.
    StemStep(usize),
    /// The last state does not violate the property.
    NotBad,
    /// A bad state against a liveness claim, or a lasso against safety.
    WrongKind,
    /// Cycle step `k` is not a step of the system.
    CycleStep(usize),
    /// The cycle does not close on the loop head.
    CycleOpen,
    /// An empty cycle on a head with an allowed action.
    NotTerminal,
    /// Loop state `k` (0: the head, then the cycle's) is not admissible.
    Inadmissible(usize),
    /// The cycle takes no action of fairness class `c`.
    Unfair(usize),
    /// The pivot is missing, stray or not a trigger state.
    Pivot,
    /// Run state `k` (stem, then cycle) meets the goal it claims to avoid.
    MeetsGoal(usize),
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let clause = match self {
            WitnessError::NotInitial => "the stem does not start at an initial state".into(),
            WitnessError::StemStep(k) => format!("stem step {k} is not a step of the system"),
            WitnessError::NotBad => "the last state does not violate the property".into(),
            WitnessError::WrongKind => {
                "a bad state against liveness, or a lasso against safety".into()
            }
            WitnessError::CycleStep(k) => format!("cycle step {k} is not a step of the system"),
            WitnessError::CycleOpen => "the cycle does not close on the loop head".into(),
            WitnessError::NotTerminal => "an empty cycle on a head with an allowed action".into(),
            WitnessError::Inadmissible(k) => format!("loop state {k} is not admissible"),
            WitnessError::Unfair(c) => format!("the cycle takes no action of fairness class {c}"),
            WitnessError::Pivot => "the pivot is missing, stray or not a trigger state".into(),
            WitnessError::MeetsGoal(k) => {
                format!("run state {k} meets the goal it claims to avoid")
            }
        };
        write!(f, "witness rejected: {clause}")
    }
}

/// Re-check `ce` as a run of `sys` refuting `spec.goal`, with
/// `initial_states` / `enabled` / `step`, the canon hook and the
/// predicates only. In order, the first clause to fail is returned:
///
/// 1. the stem starts at a canonized initial state;
/// 2. every step is an enabled, allowed action, and its canonized
///    successor is the recorded state;
/// 3. a bad state violates its property ([`Goal::Always`] /
///    [`Goal::Never`]); a lasso is offered only for a liveness goal;
/// 4. the cycle's steps satisfy (2) and close on the head, or the cycle is
///    empty on a head with no allowed action;
/// 5. the head and every cycle state are admissible, and the cycle takes
///    an action of every fairness class;
/// 6. the pivot is absent for [`Goal::Eventually`], and for
///    [`Goal::LeadsTo`] marks a trigger state; from it on (from the start,
///    without one) no state of the run meets the goal.
///
/// A lasso over a quotient is a run of the canonized system; see
/// `docs/PROPERTIES.md`, "Witnesses are verified".
pub fn verify<Sys: System>(
    sys: &Sys,
    spec: &Spec<'_, Sys::State, Sys::Action>,
    ce: &Counterexample<Sys::State, Sys::Action>,
) -> Result<(), WitnessError> {
    let canonize = |mut s: Sys::State| {
        if let Some(c) = spec.canon {
            c.apply(&mut s);
        }
        s
    };
    let allowed = |a: &Sys::Action| spec.allowed.is_none_or(|f| f(a));
    let follows = |pre: &Sys::State, a: &Sys::Action, post: &Sys::State| {
        allowed(a) && sys.enabled(pre).contains(a) && canonize(sys.step(pre, a)) == *post
    };

    let stem = match ce {
        Counterexample::BadState(e) => e,
        Counterexample::Lasso(l) => &l.stem,
    };
    if !sys.initial_states().into_iter().any(|s| canonize(s) == *stem.first()) {
        return Err(WitnessError::NotInitial);
    }
    if let Some(k) = stem.steps().position(|(pre, a, post)| !follows(pre, a, post)) {
        return Err(WitnessError::StemStep(k));
    }

    let lasso = match (ce, &spec.goal) {
        (Counterexample::BadState(e), Goal::Always(p)) => {
            return (!p(e.last())).then_some(()).ok_or(WitnessError::NotBad);
        }
        (Counterexample::BadState(e), Goal::Never(p)) => {
            return p(e.last()).then_some(()).ok_or(WitnessError::NotBad);
        }
        (Counterexample::Lasso(l), Goal::Eventually(_) | Goal::LeadsTo(..)) => l,
        _ => return Err(WitnessError::WrongKind),
    };

    let head = stem.last();
    let mut cur = head;
    for (k, (a, post)) in lasso.cycle.iter().enumerate() {
        if !follows(cur, a, post) {
            return Err(WitnessError::CycleStep(k));
        }
        cur = post;
    }
    if cur != head {
        return Err(WitnessError::CycleOpen);
    }
    if lasso.cycle.is_empty() && sys.enabled(head).iter().any(allowed) {
        return Err(WitnessError::NotTerminal);
    }

    let cycle_states = || lasso.cycle.iter().map(|(_, s)| s);
    let loop_states = || std::iter::once(head).chain(cycle_states());
    if let Some(k) = spec.admissible.and_then(|f| loop_states().position(|s| !f(s))) {
        return Err(WitnessError::Inadmissible(k));
    }
    let uncovered = |(classes, class_of): Fairness<'_, Sys::Action>| {
        (0..classes).find(|&c| !lasso.cycle.iter().any(|(a, _)| class_of(a) == Some(c)))
    };
    if let Some(c) = spec.fairness.and_then(uncovered) {
        return Err(WitnessError::Unfair(c));
    }

    let states = stem.states();
    let (from, goal) = match (&spec.goal, lasso.pivot) {
        (Goal::Eventually(p), None) => (0, p),
        (Goal::LeadsTo(p, q), Some(k)) if k < states.len() && p(&states[k]) => (k, q),
        _ => return Err(WitnessError::Pivot),
    };
    match states[from..].iter().chain(cycle_states()).position(goal) {
        Some(k) => Err(WitnessError::MeetsGoal(from + k)),
        None => Ok(()),
    }
}

/// `witness`, a run of `sys` ending in a state that satisfies `bad`,
/// re-checked by [`verify`] against [`Goal::Never`]`(bad)` and handed
/// back: the one exit of every bad-state engine. A rejection panics,
/// naming the clause — a wrong witness is an engine bug.
pub fn verified_bad_state<Sys: System>(
    sys: &Sys,
    bad: &dyn Fn(&Sys::State) -> bool,
    witness: Execution<Sys::State, Sys::Action>,
) -> Execution<Sys::State, Sys::Action> {
    let ce = Counterexample::BadState(witness);
    verify(sys, &Spec::new(Goal::Never(bad)), &ce).unwrap_or_else(|e| panic!("{e}"));
    let Counterexample::BadState(witness) = ce else { unreachable!("built as a bad state") };
    witness
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::test_systems::Counters;

    #[test]
    fn verify_accepts_a_bad_state_and_a_stutter_and_names_each_failure() {
        // Two counters up to 1: (0,0) → (1,0) → (1,1), which is terminal.
        let sys = Counters { n: 2, max: 1 };
        let run = Execution::from_parts(vec![vec![0, 0], vec![1, 0], vec![1, 1]], vec![0, 1]);
        let full = |s: &Vec<u8>| s.iter().all(|&c| c == 1);
        let bad = Counterexample::BadState(run.clone());
        assert_eq!(verify(&sys, &Spec::new(Goal::Never(&full)), &bad), Ok(()));
        assert_eq!(
            verify(&sys, &Spec::new(Goal::Always(&full)), &bad),
            Err(WitnessError::NotBad)
        );
        // A stutter at the terminal corner refutes "eventually 2".
        let two = |s: &Vec<u8>| s.contains(&2);
        let lasso = |cycle, pivot| {
            Counterexample::Lasso(Lasso {
                stem: run.clone(),
                cycle,
                pivot,
            })
        };
        let eventually_two = Spec::new(Goal::Eventually(&two));
        assert_eq!(verify(&sys, &eventually_two, &lasso(vec![], None)), Ok(()));
        assert_eq!(verify(&sys, &eventually_two, &bad), Err(WitnessError::WrongKind));
        assert_eq!(
            verify(&sys, &eventually_two, &lasso(vec![], Some(0))),
            Err(WitnessError::Pivot)
        );
        assert_eq!(
            verify(&sys, &eventually_two, &lasso(vec![(0, vec![1, 1])], None)),
            Err(WitnessError::CycleStep(0))
        );
        // Under a fairness class, a stutter takes no action at all.
        let class = |_: &usize| Some(0);
        let fair = Spec {
            fairness: Some((1, &class)),
            ..Spec::new(Goal::Eventually(&two))
        };
        assert_eq!(
            verify(&sys, &fair, &lasso(vec![], None)),
            Err(WitnessError::Unfair(0))
        );
        // The corner meets "eventually full" at run state 2.
        assert_eq!(
            verify(&sys, &Spec::new(Goal::Eventually(&full)), &lasso(vec![], None)),
            Err(WitnessError::MeetsGoal(2))
        );
        assert!(WitnessError::MeetsGoal(2).to_string().contains("run state 2"));
    }

    #[test]
    #[should_panic(expected = "the last state does not violate the property")]
    fn verified_bad_state_hands_back_a_good_run_and_panics_on_a_wrong_one() {
        let sys = Counters { n: 2, max: 1 };
        let run = Execution::from_parts(vec![vec![0, 0], vec![1, 0], vec![1, 1]], vec![0, 1]);
        let full = |s: &Vec<u8>| s.iter().all(|&c| c == 1);
        assert_eq!(verified_bad_state(&sys, &full, run.clone()), run);
        // One step short, the run never reaches the full state.
        let short = Execution::from_parts(vec![vec![0, 0], vec![1, 0]], vec![0]);
        verified_bad_state(&sys, &full, short);
    }
}
