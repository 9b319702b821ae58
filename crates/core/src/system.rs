//! Labelled transition systems — the common model foundation.
//!
//! The survey laments that "the modeling work starts from scratch" in paper
//! after paper and asks for "some body of common definitions that people could
//! use for asynchronous computing impossibility results". [`System`] is that
//! body of definitions for this workspace: a transition system whose actions
//! carry an *owner* (the process that controls them), from which executions,
//! fairness, indistinguishability and all the proof engines are derived.

use crate::ids::ProcessId;
use std::fmt::Debug;
use std::hash::Hash;

/// A labelled transition system with per-process action ownership.
///
/// States must be cheap-ish to clone and **totally ordered** so the
/// explicit-state engines ([`crate::explore`], [`crate::valence`]) can
/// deduplicate them in ordered maps. Ordered (rather than hashed)
/// containers are a soundness requirement, not a style choice: every
/// engine output must be byte-for-byte replayable, and hash-iteration
/// order is the classic silent nondeterminism source (the in-tree
/// `impossible-lint` pass rejects hashed containers statically).
///
/// `enabled` must be deterministic (same state → same action list); all
/// nondeterminism of a distributed system is expressed through the *choice*
/// among enabled actions, which is the scheduler's (adversary's) job. This is
/// exactly the I/O-automaton discipline the paper advocates: a clean split
/// between the algorithm (the transition function) and the environment (who
/// gets to move).
pub trait System {
    /// Global configuration of the system. Its `Hash` must agree with its
    /// `Eq` (equal states hash equal): the exact graph builder in
    /// `impossible-explore` dedups through both, and a disagreement would
    /// intern one state as two nodes (`docs/EXPLORE.md`, "Fingerprint dedup
    /// and the collision policy"; the `hash-eq` lint denies the usual way to
    /// break it, a derive beside a hand-written twin).
    type State: Clone + Eq + Ord + Hash + Debug;
    /// A transition label (a step of one process, a message delivery, ...).
    type Action: Clone + Eq + Hash + Debug;

    /// The initial configurations. Impossibility proofs quantify over these
    /// (e.g. FLP's Lemma: *some* initial configuration is bivalent).
    fn initial_states(&self) -> Vec<Self::State>;

    /// Actions enabled in `state`. An empty vector means the system has
    /// terminated (or deadlocked — the checkers distinguish the two).
    fn enabled(&self, state: &Self::State) -> Vec<Self::Action>;

    /// [`System::enabled`] into a list the caller already owns: whatever
    /// `out` holds on entry is discarded, and on return it is `==` to
    /// `self.enabled(state)`. The search engines expand every state through
    /// this with one list they keep for the whole run, so a model that
    /// overrides it (`clear`, then push) allocates no action list per
    /// expansion; the default simply assigns. As with
    /// [`System::step_into`], a model that overrides keeps one body —
    /// `enabled` calls this on an empty list — and
    /// `tests/explore_equivalence.rs` checks every overriding model against
    /// `enabled` over its reachable space, from junk of every length.
    fn enabled_into(&self, state: &Self::State, out: &mut Vec<Self::Action>) {
        *out = self.enabled(state);
    }

    /// Apply `action` to `state`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `action` is not enabled in `state`;
    /// the engines only ever apply enabled actions.
    fn step(&self, state: &Self::State, action: &Self::Action) -> Self::State;

    /// [`System::step`] into storage the caller already owns: `out` may hold
    /// **any** value of the state type on entry — a stale successor of some
    /// other state, a state of a different shape (shorter or longer `Vec`s),
    /// anything — and must be `==` to `self.step(state, action)` on return.
    /// Nothing else about `out` may be observed.
    ///
    /// The one caller is the search engines' successor-generation step
    /// (`impossible_explore`'s `Search::stage_successors`): three of four
    /// successors of a typical space are duplicates the visited set rejects
    /// at once, and the engines hand those rejected states back here instead
    /// of freeing them, so a model that overwrites `out` in place
    /// (`clone_from` field by field, then its transition) never touches the
    /// allocator on the duplicate path. The default simply assigns, which
    /// is exactly `step`'s cost; overriding is an optimisation, never a
    /// requirement, and the engines do not ask which a model does.
    ///
    /// A model that overrides keeps **one** transition body: a private
    /// `apply(state, action, next)` that assumes `next == state`, called by
    /// `step` after `state.clone()` and by `step_into` after a reusing
    /// `clone_from` (note that `#[derive(Clone)]` does not generate one — a
    /// derived `clone_from` reallocates every field, so a struct state
    /// calls `clone_from` on its fields). `tests/explore_equivalence.rs`
    /// checks every overriding model against `step` over its reachable
    /// space, from junk of every shape.
    fn step_into(&self, state: &Self::State, action: &Self::Action, out: &mut Self::State) {
        *out = self.step(state, action);
    }

    /// The process controlling `action`, if any.
    ///
    /// Actions owned by the environment (e.g. a message loss chosen by a
    /// channel adversary) return `None`. Ownership drives fairness: an
    /// *admissible* execution must give every live process infinitely many
    /// steps (see [`crate::exec::Admissibility`]).
    fn owner(&self, action: &Self::Action) -> Option<ProcessId> {
        let _ = action;
        None
    }

    /// Number of processes participating, when meaningful.
    ///
    /// Engines that reason about resilience (tolerating `t` of `n` failures)
    /// need this; systems without a fixed population return `None`.
    fn num_processes(&self) -> Option<usize> {
        None
    }
}

/// A [`System`] whose executions may produce per-process *decisions*.
///
/// Consensus, leader election, renaming and commit are all decision problems;
/// the valence engine ([`crate::valence`]) and the task framework
/// ([`crate::task`]) operate on any `DecisionSystem`.
pub trait DecisionSystem: System {
    /// The decisions already made in `state`: `(process, value)` pairs.
    ///
    /// A decision is irrevocable: if `(p, v)` appears in a state it must
    /// appear, with the same `v`, in every successor. No engine checks
    /// this; the valence classification ([`crate::valence`]) assumes it,
    /// since it reads a decided value as fixed for every run through the
    /// state. `tests/cross_engine.rs` checks it on every edge of the FLP
    /// candidates and the Herlihy protocols.
    fn decisions(&self, state: &Self::State) -> Vec<(ProcessId, u64)>;

    /// Two processes have decided different values in `state`: the bad
    /// state of agreement, checked as `never(disagrees)`.
    fn disagrees(&self, state: &Self::State) -> bool {
        let d = self.decisions(state);
        d.iter().any(|&(_, v)| v != d[0].1)
    }

    /// The decision of `process` in `state`, if it has decided.
    fn decision_of(&self, state: &Self::State, process: ProcessId) -> Option<u64> {
        self.decisions(state)
            .into_iter()
            .find(|(p, _)| *p == process)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
pub(crate) mod test_systems {
    use super::*;

    /// Two processes, each may increment its own counter up to `max`.
    /// Owner of action `i` is process `i`.
    pub struct Counters {
        pub n: usize,
        pub max: u8,
    }

    impl System for Counters {
        type State = Vec<u8>;
        type Action = usize;

        fn initial_states(&self) -> Vec<Self::State> {
            vec![vec![0; self.n]]
        }

        fn enabled(&self, s: &Self::State) -> Vec<usize> {
            (0..self.n).filter(|&i| s[i] < self.max).collect()
        }

        fn step(&self, s: &Self::State, a: &usize) -> Self::State {
            let mut t = s.clone();
            t[*a] += 1;
            t
        }

        fn owner(&self, a: &usize) -> Option<ProcessId> {
            Some(ProcessId(*a))
        }

        fn num_processes(&self) -> Option<usize> {
            Some(self.n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_systems::Counters;
    use super::*;

    #[test]
    fn ownership() {
        let sys = Counters { n: 2, max: 1 };
        assert_eq!(sys.owner(&1), Some(ProcessId(1)));
        assert_eq!(sys.num_processes(), Some(2));
    }
}
