//! Knowledge in distributed systems — the epistemic thread of the survey.
//!
//! Dwork–Moses \[47\], Halpern–Moses \[64\], Moses–Tuttle \[86\], Hadzilacos \[62\]
//! and Chandy–Misra \[29\] recast indistinguishability arguments in terms of
//! *knowledge*: "if a process can see a certain matrix in either of two
//! executions ... we can say that the process does not know which of the
//! two executions it's in". This module computes those notions exactly, on
//! finite state spaces:
//!
//! * [`KnowledgeFrame`] — a set of global states plus a per-process *view*
//!   function; two states are indistinguishable to `p` iff `p`'s views are
//!   equal (an equivalence relation, the Kripke frame of S5 knowledge).
//! * [`KnowledgeFrame::knows`] — `K_p(φ)` holds at `s` iff `φ` holds at
//!   every state `p` cannot distinguish from `s`.
//! * [`KnowledgeFrame::iterated_knowledge`] — `E^k(φ)`, where
//!   `E(φ) = ⋀_p K_p(φ)` is `k = 1`.
//! * [`KnowledgeFrame::common_knowledge`] — `C(φ)`: the greatest fixpoint
//!   of `X ↦ φ ∧ E(X)`, i.e. the union of the indistinguishability
//!   equivalence classes (under the transitive closure over all processes)
//!   on which `φ` holds everywhere.
//!
//! The classic theorem — *common knowledge cannot be gained where
//! communication is uncertain* \[64\] — falls out by construction: if the
//! reachable set contains a chain of states linking a `φ` state to a `¬φ`
//! state (the Two Generals chain!), then `C(φ)` is false everywhere on the
//! chain. The tests verify exactly that.

use crate::ids::ProcessId;
use std::collections::VecDeque;
use std::hash::Hash;

/// A finite Kripke frame: global states with per-process views.
pub struct KnowledgeFrame<S, V> {
    states: Vec<S>,
    num_processes: usize,
    views: Vec<Vec<V>>, // views[state][process]
}

impl<S, V: Eq + Hash + Clone> KnowledgeFrame<S, V> {
    /// Build a frame from `states` and a view extractor.
    pub fn new<F>(states: Vec<S>, num_processes: usize, view: F) -> Self
    where
        F: Fn(&S, ProcessId) -> V,
    {
        let views = states
            .iter()
            .map(|s| {
                ProcessId::all(num_processes)
                    .map(|p| view(s, p))
                    .collect()
            })
            .collect();
        KnowledgeFrame {
            states,
            num_processes,
            views,
        }
    }

    /// The states of the frame.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.num_processes
    }

    /// Indices of states `p` cannot distinguish from state `i`.
    pub fn indistinguishable(&self, i: usize, p: ProcessId) -> Vec<usize> {
        let v = &self.views[i][p.index()];
        (0..self.states.len())
            .filter(|&j| &self.views[j][p.index()] == v)
            .collect()
    }

    /// Evaluate a fact at every state.
    fn eval<F: Fn(&S) -> bool>(&self, fact: F) -> Vec<bool> {
        self.states.iter().map(fact).collect()
    }

    /// `K_p(φ)` as a per-state truth vector: `p` knows `φ` at `s` iff `φ`
    /// holds at every state `p` cannot distinguish from `s`.
    // LINT-ALLOW: dead-pub -- K_p, the knowledge operator every indistinguishability argument restates; tests knowledge_is_truthful, first_general_knows_after_two_trips
    pub fn knows<F: Fn(&S) -> bool>(&self, p: ProcessId, fact: F) -> Vec<bool> {
        let base = self.eval(fact);
        (0..self.states.len())
            .map(|i| self.indistinguishable(i, p).into_iter().all(|j| base[j]))
            .collect()
    }

    /// `C(φ)`: common knowledge — the greatest fixpoint of `φ ∧ E(·)`.
    ///
    /// Computed as: a state satisfies `C(φ)` iff every state reachable from
    /// it through the union of the indistinguishability relations satisfies
    /// `φ`.
    pub fn common_knowledge<F: Fn(&S) -> bool>(&self, fact: F) -> Vec<bool> {
        let base = self.eval(fact);
        let n = self.states.len();
        // Union-reachability BFS from each state (memoized by component).
        let mut component = vec![usize::MAX; n];
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for start in 0..n {
            if component[start] != usize::MAX {
                continue;
            }
            let id = comps.len();
            let mut members = Vec::new();
            let mut q = VecDeque::from([start]);
            component[start] = id;
            while let Some(i) = q.pop_front() {
                members.push(i);
                for p in ProcessId::all(self.num_processes) {
                    for j in self.indistinguishable(i, p) {
                        if component[j] == usize::MAX {
                            component[j] = id;
                            q.push_back(j);
                        }
                    }
                }
            }
            comps.push(members);
        }
        let comp_ok: Vec<bool> = comps
            .iter()
            .map(|members| members.iter().all(|&i| base[i]))
            .collect();
        (0..n).map(|i| comp_ok[component[i]]).collect()
    }

    /// Iterated knowledge `E^k(φ)`: everyone knows that everyone knows ...
    /// (`k` levels). Common knowledge is the limit; on finite frames the
    /// sequence stabilizes, and comparing levels shows *where* it degrades
    /// (the Dwork–Moses round-by-round analysis).
    pub fn iterated_knowledge<F: Fn(&S) -> bool + Copy>(&self, fact: F, k: usize) -> Vec<bool> {
        let mut cur = self.eval(fact);
        for _ in 0..k {
            let mut next = vec![true; self.states.len()];
            for p in ProcessId::all(self.num_processes) {
                for (i, known) in next.iter_mut().enumerate() {
                    if *known {
                        *known = self
                            .indistinguishable(i, p)
                            .into_iter()
                            .all(|j| cur[j]);
                    }
                }
            }
            cur = next;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Two Generals knowledge frame: states are "how many messenger
    /// trips succeeded" (0..=k); general 0's view is the number it
    /// received, likewise general 1 (as in `datalink::two_generals`).
    fn generals_frame(trips: usize) -> KnowledgeFrame<usize, usize> {
        let states: Vec<usize> = (0..=trips).collect();
        KnowledgeFrame::new(states, 2, |&k, p| {
            if p.index() == 0 {
                k / 2
            } else {
                k.div_ceil(2)
            }
        })
    }

    #[test]
    fn knowledge_is_truthful() {
        // K_p(φ) ⇒ φ (the T axiom): wherever a general knows "≥1 trip
        // succeeded", at least one did.
        let frame = generals_frame(6);
        let fact = |&k: &usize| k >= 1;
        for p in 0..2 {
            let k = frame.knows(ProcessId(p), fact);
            for (i, knows) in k.iter().enumerate() {
                if *knows {
                    assert!(fact(&frame.states()[i]));
                }
            }
        }
    }

    #[test]
    fn first_general_knows_after_two_trips() {
        // General 0 receives trip 2: at state 2 it knows a trip succeeded;
        // at state 1 it does not (it received nothing).
        let frame = generals_frame(6);
        let k0 = frame.knows(ProcessId(0), |&k| k >= 1);
        assert!(!k0[0]);
        assert!(!k0[1]); // received 0 messages: state 1 looks like state 0
        assert!(k0[2]);
    }

    #[test]
    fn iterated_knowledge_degrades_one_level_per_trip() {
        // E^j("≥1 trip") requires ~j+1 successful trips — each nesting
        // level consumes one acknowledgement. The Dwork–Moses picture.
        let frame = generals_frame(8);
        let fact = |&k: &usize| k >= 1;
        for j in 1..=4usize {
            let ej = frame.iterated_knowledge(fact, j);
            // The full-delivery state still satisfies E^j.
            assert!(ej[8], "E^{j} fails even at full delivery");
            // But low states do not.
            assert!(!ej[j], "E^{j} unexpectedly holds at state {j}");
        }
    }

    #[test]
    fn common_knowledge_is_unattainable_over_the_unreliable_channel() {
        // The Halpern–Moses theorem on this frame: the chain k ~ k-1 ~ ...
        // ~ 0 connects every state to state 0 where φ fails, so C(φ) is
        // false EVERYWHERE — even with all messages delivered.
        let frame = generals_frame(10);
        let c = frame.common_knowledge(|&k| k >= 1);
        assert!(c.iter().all(|&x| !x), "C(φ) must fail everywhere: {c:?}");
    }

    #[test]
    fn common_knowledge_of_tautology_holds() {
        let frame = generals_frame(5);
        let c = frame.common_knowledge(|_| true);
        assert!(c.iter().all(|&x| x));
    }

    #[test]
    fn synchronized_frame_attains_common_knowledge() {
        // Contrast: if views reveal the state exactly (a synchronous,
        // reliable world), C(φ) = φ.
        let states: Vec<usize> = (0..5).collect();
        let frame = KnowledgeFrame::new(states, 2, |&k, _p| k);
        let c = frame.common_knowledge(|&k| k >= 2);
        assert_eq!(c, vec![false, false, true, true, true]);
    }

    #[test]
    fn indistinguishability_is_reflexive_and_symmetric() {
        let frame = generals_frame(4);
        for i in 0..frame.states().len() {
            for p in 0..2 {
                let cls = frame.indistinguishable(i, ProcessId(p));
                assert!(cls.contains(&i));
                for &j in &cls {
                    assert!(frame.indistinguishable(j, ProcessId(p)).contains(&i));
                }
            }
        }
    }
}
