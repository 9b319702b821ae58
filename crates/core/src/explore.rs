//! Explicit-state exploration: the reference engine.
//!
//! [`Explorer`] is a bounded breadth-first reachability engine with state
//! deduplication, predicate search and trace reconstruction. It dedups by
//! storing full cloned states in a `BTreeMap` and runs single-threaded,
//! and it has exactly one job left: being the simple **oracle** the
//! `impossible-explore` crate is compared against
//! (`tests/explore_equivalence.rs`, and the ledger's `--regen-expected`).
//! It counts and searches; it does not build graphs — the one loop that
//! interns a system into `(order, succ)` is `impossible-explore`'s
//! `Search::graph_from`, which the valence engine, the mutex checkers and
//! the property layer all consume. New code should use that crate, which
//! reaches the same reports through a fingerprint visited-set, optional
//! symmetry canonicalization and spill-to-disk.
//!
//! [`Truncation`], the vocabulary both engines report a tripped bound in,
//! lives here so that core's consumers can name it.

use crate::exec::Execution;
use crate::system::System;
use std::collections::{BTreeMap, VecDeque};

/// Which bound stopped an exploration before the space was exhausted.
///
/// Callers used to guess from the configured bounds; the report now says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Truncation {
    /// The distinct-state cap tripped (`num_states` equals the cap).
    States,
    /// The depth cap tripped: some non-terminal state at the cutoff depth
    /// was left unexpanded.
    Depth,
    /// An index-width limit tripped: the engine's compact node indices
    /// (`u32` in the interned graph builder) cannot address any more
    /// states, so discovery stopped before the configured bounds did.
    Index,
}

impl Truncation {
    /// Stable lowercase name, used by trace events and JSON stats.
    pub fn name(&self) -> &'static str {
        match self {
            Truncation::States => "states",
            Truncation::Depth => "depth",
            Truncation::Index => "index",
        }
    }
}

/// Result of exploring a system's reachable state space.
#[derive(Debug, Clone)]
pub struct ExploreReport<S, A> {
    /// Number of distinct states reached (within bounds).
    pub num_states: usize,
    /// Number of transitions traversed.
    pub num_transitions: usize,
    /// States with no enabled action.
    pub terminal_states: Vec<S>,
    /// True if exploration hit the state or depth bound before exhausting
    /// the space (so absence of a violation is *not* a proof).
    pub truncated: bool,
    /// The first bound that tripped, if any (`truncated` == `truncated_by.is_some()`).
    pub truncated_by: Option<Truncation>,
    /// If a search predicate was installed and matched, a shortest execution
    /// witnessing it.
    pub witness: Option<Execution<S, A>>,
}

/// Bounded BFS explorer over a [`System`].
///
/// # Examples
///
/// Find a state where both counters are saturated:
///
/// ```
/// use impossible_core::explore::Explorer;
/// # use impossible_core::system::System;
/// # struct C;
/// # impl System for C {
/// #     type State = (u8, u8);
/// #     type Action = usize;
/// #     fn initial_states(&self) -> Vec<(u8,u8)> { vec![(0,0)] }
/// #     fn enabled(&self, s:&(u8,u8)) -> Vec<usize> {
/// #         let mut v = vec![]; if s.0<1 {v.push(0);} if s.1<1 {v.push(1);} v }
/// #     fn step(&self, s:&(u8,u8), a:&usize) -> (u8,u8) {
/// #         let mut t=*s; if *a==0 {t.0+=1} else {t.1+=1}; t }
/// # }
/// let report = Explorer::new(&C).search(|s| *s == (1, 1));
/// assert_eq!(report.witness.unwrap().len(), 2);
/// ```
pub struct Explorer<'a, Sys: System> {
    sys: &'a Sys,
    max_states: usize,
    max_depth: usize,
}

/// [`Explorer`]'s witness map: each visited state's BFS parent and the
/// action taken from it (`None` for an initial state).
type Parents<S, A> = BTreeMap<S, Option<(S, A)>>;

impl<'a, Sys: System> Explorer<'a, Sys> {
    /// Explorer with generous default bounds (1M states, depth 10k).
    pub fn new(sys: &'a Sys) -> Self {
        Explorer {
            sys,
            max_states: 1_000_000,
            max_depth: 10_000,
        }
    }

    /// Cap the number of distinct states visited.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Cap the BFS depth.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Explore the full reachable space (within bounds), no predicate.
    pub fn explore(&self) -> ExploreReport<Sys::State, Sys::Action> {
        self.run(None::<fn(&Sys::State) -> bool>)
    }

    /// Explore until `pred` matches; the report's `witness` is a shortest
    /// execution from an initial state to a matching state.
    pub fn search<F>(&self, pred: F) -> ExploreReport<Sys::State, Sys::Action>
    where
        F: Fn(&Sys::State) -> bool,
    {
        self.run(Some(pred))
    }

    fn run<F>(&self, pred: Option<F>) -> ExploreReport<Sys::State, Sys::Action>
    where
        F: Fn(&Sys::State) -> bool,
    {
        // Parent map for witness reconstruction: state -> (parent, action).
        let mut parent: Parents<Sys::State, Sys::Action> = BTreeMap::new();
        let mut queue: VecDeque<(Sys::State, usize)> = VecDeque::new();
        let mut terminal = Vec::new();
        let mut transitions = 0usize;
        let mut truncated_by: Option<Truncation> = None;
        let mut found: Option<Sys::State> = None;

        for s in self.sys.initial_states() {
            if parent.len() >= self.max_states {
                truncated_by.get_or_insert(Truncation::States);
                break;
            }
            if !parent.contains_key(&s) {
                parent.insert(s.clone(), None);
                if pred.as_ref().is_some_and(|p| p(&s)) && found.is_none() {
                    found = Some(s.clone());
                }
                queue.push_back((s, 0));
            }
        }

        'bfs: while let Some((s, d)) = queue.pop_front() {
            if found.is_some() {
                break;
            }
            let acts = self.sys.enabled(&s);
            if acts.is_empty() {
                terminal.push(s.clone());
                continue;
            }
            if d >= self.max_depth {
                truncated_by.get_or_insert(Truncation::Depth);
                continue;
            }
            for a in acts {
                let t = self.sys.step(&s, &a);
                transitions += 1;
                if !parent.contains_key(&t) {
                    if parent.len() >= self.max_states {
                        truncated_by.get_or_insert(Truncation::States);
                        continue 'bfs;
                    }
                    parent.insert(t.clone(), Some((s.clone(), a.clone())));
                    if pred.as_ref().is_some_and(|p| p(&t)) && found.is_none() {
                        found = Some(t.clone());
                        break 'bfs;
                    }
                    queue.push_back((t, d + 1));
                }
            }
        }

        let witness = found.map(|target| {
            // Walk parents back to an initial state.
            let mut rev_states = vec![target.clone()];
            let mut rev_actions = Vec::new();
            let mut cur = target;
            while let Some(Some((p, a))) = parent.get(&cur) {
                rev_actions.push(a.clone());
                rev_states.push(p.clone());
                cur = p.clone();
            }
            rev_states.reverse();
            rev_actions.reverse();
            Execution::from_parts(rev_states, rev_actions)
        });

        ExploreReport {
            num_states: parent.len(),
            num_transitions: transitions,
            terminal_states: terminal,
            truncated: truncated_by.is_some(),
            truncated_by,
            witness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::test_systems::Counters;

    #[test]
    fn explores_full_space() {
        let sys = Counters { n: 2, max: 2 };
        let r = Explorer::new(&sys).explore();
        assert_eq!(r.num_states, 9); // 3 x 3 grid
        assert!(!r.truncated);
        assert_eq!(r.truncated_by, None);
        assert_eq!(r.terminal_states, vec![vec![2, 2]]);
    }

    #[test]
    fn search_returns_shortest_witness() {
        let sys = Counters { n: 2, max: 5 };
        let r = Explorer::new(&sys).search(|s| s[0] == 2 && s[1] == 1);
        let w = r.witness.expect("target reachable");
        assert_eq!(w.len(), 3); // BFS => shortest
        assert_eq!(*w.last(), vec![2, 1]);
        // Witness must be a genuine execution.
        assert_eq!(*w.first(), vec![0, 0]);
    }

    #[test]
    fn state_bound_truncates() {
        let sys = Counters { n: 2, max: 100 };
        let r = Explorer::new(&sys).max_states(10).explore();
        assert!(r.truncated);
        assert_eq!(r.truncated_by, Some(Truncation::States));
        assert_eq!(r.num_states, 10);
    }

    #[test]
    fn depth_bound_truncates() {
        let sys = Counters { n: 1, max: 100 };
        let r = Explorer::new(&sys).max_depth(3).explore();
        assert!(r.truncated);
        assert_eq!(r.truncated_by, Some(Truncation::Depth));
        assert_eq!(r.num_states, 4); // depth 0..=3
    }

    #[test]
    fn unreachable_predicate_yields_no_witness() {
        let sys = Counters { n: 2, max: 2 };
        let r = Explorer::new(&sys).search(|s| s[0] == 99);
        assert!(r.witness.is_none());
        assert!(!r.truncated);
    }
}
