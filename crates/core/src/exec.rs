//! Executions and admissibility.
//!
//! The survey stresses that "the proper treatment of admissibility was one of
//! the most difficult aspects of this work": an impossibility proof must
//! construct a *bad* execution that is nonetheless **admissible** — every
//! non-failed process keeps taking steps and every message is eventually
//! delivered. This module makes executions and admissibility first-class so
//! that the engines never hand back a counterexample that the problem
//! statement would disqualify.


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

#[cfg(test)]
mod tests {
    use super::*;

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
}
