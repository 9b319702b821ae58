//! Executions, schedules and admissibility.
//!
//! The survey stresses that "the proper treatment of admissibility was one of
//! the most difficult aspects of this work": an impossibility proof must
//! construct a *bad* execution that is nonetheless **admissible** — every
//! non-failed process keeps taking steps and every message is eventually
//! delivered. This module makes executions and admissibility first-class so
//! that the engines never hand back a counterexample that the problem
//! statement would disqualify.

use crate::system::System;
use std::fmt;

/// A finite execution fragment: `s0 -a1-> s1 -a2-> ... -ak-> sk`.
///
/// Invariant: `states.len() == actions.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution<S, A> {
    states: Vec<S>,
    actions: Vec<A>,
}

impl<S: Clone, A: Clone> Execution<S, A> {
    /// An execution consisting of just the initial state.
    pub fn start(initial: S) -> Self {
        Execution {
            states: vec![initial],
            actions: Vec::new(),
        }
    }

    /// Construct from parallel state/action vectors.
    ///
    /// # Panics
    ///
    /// Panics unless `states.len() == actions.len() + 1`.
    pub fn from_parts(states: Vec<S>, actions: Vec<A>) -> Self {
        assert_eq!(
            states.len(),
            actions.len() + 1,
            "an execution has one more state than actions"
        );
        Execution { states, actions }
    }

    /// Append a step.
    pub fn push(&mut self, action: A, state: S) {
        self.actions.push(action);
        self.states.push(state);
    }

    /// The initial state.
    pub fn first(&self) -> &S {
        &self.states[0]
    }

    /// The final state.
    pub fn last(&self) -> &S {
        self.states.last().expect("nonempty by invariant")
    }

    /// Number of steps (actions).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if no step has been taken.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The action sequence.
    pub fn actions(&self) -> &[A] {
        &self.actions
    }

    /// The state sequence (one longer than [`Self::actions`]).
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Iterate `(pre_state, action, post_state)` triples.
    pub fn steps(&self) -> impl Iterator<Item = (&S, &A, &S)> {
        self.actions
            .iter()
            .enumerate()
            .map(move |(i, a)| (&self.states[i], a, &self.states[i + 1]))
    }
}

/// A schedule: the action sequence of an execution, without the states.
///
/// The paper's constructions are phrased as schedules applied to
/// configurations ("run σ from C"); [`Schedule::run`] realizes that.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule<A> {
    actions: Vec<A>,
}

impl<A: Clone> Schedule<A> {
    /// The empty schedule.
    pub fn new() -> Self {
        Schedule {
            actions: Vec::new(),
        }
    }

    /// The underlying actions.
    pub fn actions(&self) -> &[A] {
        &self.actions
    }

    /// Append an action.
    pub fn push(&mut self, action: A) {
        self.actions.push(action);
    }

    /// Run this schedule on `sys` from `state`, producing the full execution.
    ///
    /// # Errors
    ///
    /// Returns `Err(i)` if the `i`-th action is not enabled when reached —
    /// the classic way a paper proof says "σ is not applicable to C".
    pub fn run<Sys>(&self, sys: &Sys, state: &Sys::State) -> Result<Execution<Sys::State, A>, usize>
    where
        Sys: System<Action = A>,
        A: PartialEq,
    {
        let mut exec = Execution::start(state.clone());
        for (i, a) in self.actions.iter().enumerate() {
            if !sys.enabled(exec.last()).contains(a) {
                return Err(i);
            }
            let next = sys.step(exec.last(), a);
            exec.push(a.clone(), next);
        }
        Ok(exec)
    }
}

impl<A> FromIterator<A> for Schedule<A> {
    fn from_iter<I: IntoIterator<Item = A>>(iter: I) -> Self {
        Schedule {
            actions: iter.into_iter().collect(),
        }
    }
}

/// Admissibility policy: which infinite behaviours count as "the system really
/// ran" (as opposed to the scheduler simply starving everyone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admissibility {
    /// Processes that may fail (stop taking steps) without violating
    /// admissibility. FLP's 1-resilience = any single process.
    pub max_failures: usize,
    /// If true, every action enabled infinitely often and owned by a live
    /// process must be taken infinitely often (weak fairness); this is the
    /// "all messages eventually delivered" half of the FLP admissibility.
    pub weak_fairness: bool,
}

impl Admissibility {
    /// `t`-resilient admissibility: up to `t` processes may stop.
    pub fn resilient(t: usize) -> Self {
        Admissibility {
            max_failures: t,
            weak_fairness: true,
        }
    }

    /// The *wait-free* (fully resilient) notion used by Herlihy \[65\]: the only
    /// liveness requirement is that *some* process keeps taking steps.
    pub fn wait_free(n: usize) -> Self {
        Admissibility {
            max_failures: n.saturating_sub(1),
            weak_fairness: false,
        }
    }
}

impl<S: fmt::Debug, A: fmt::Debug> fmt::Display for Execution<S, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "execution ({} steps):", self.actions.len())?;
        writeln!(f, "  {:?}", self.states[0])?;
        for (i, a) in self.actions.iter().enumerate() {
            writeln!(f, "  --{a:?}-->")?;
            writeln!(f, "  {:?}", self.states[i + 1])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::test_systems::Counters;

    #[test]
    fn execution_push_and_views() {
        let mut e = Execution::start(0u8);
        e.push('a', 1);
        e.push('b', 2);
        assert_eq!(e.len(), 2);
        assert_eq!(*e.first(), 0);
        assert_eq!(*e.last(), 2);
        assert_eq!(e.actions(), &['a', 'b']);
        let steps: Vec<_> = e.steps().collect();
        assert_eq!(steps[1], (&1, &'b', &2));
    }

    #[test]
    #[should_panic(expected = "one more state")]
    fn from_parts_validates() {
        let _ = Execution::from_parts(vec![0u8], vec!['a']);
    }

    #[test]
    fn schedule_run_success_and_failure() {
        let sys = Counters { n: 2, max: 1 };
        let init = sys.initial_states()[0].clone();
        let ok = [0usize, 1].into_iter().collect::<Schedule<_>>().run(&sys, &init).unwrap();
        assert_eq!(*ok.last(), vec![1, 1]);
        let err = [0usize, 0].into_iter().collect::<Schedule<_>>().run(&sys, &init);
        assert_eq!(err.unwrap_err(), 1);
    }

    #[test]
    fn schedule_from_iterator() {
        let s: Schedule<u32> = (0..3).collect();
        assert_eq!(s.actions(), &[0, 1, 2]);
    }
}
