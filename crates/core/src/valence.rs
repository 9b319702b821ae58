//! The bivalence engine — Figures 2 and 3 of the paper, made executable.
//!
//! The Fischer–Lynch–Paterson proof (and its many descendants: Dolev–Dwork–
//! Stockmeyer, Loui–Abu-Amara, Herlihy, Bridgeland–Watro, Moran–Wolfstahl...)
//! all analyze how a decision protocol's configurations move from *bivalent*
//! (both decision values still reachable) to *univalent*. This module
//! computes the valence of every reachable configuration of a finite-instance
//! [`DecisionSystem`] — a bitmask per graph node, bit *k* standing for the
//! *k*-th smallest value decided anywhere in the graph, so binary consensus
//! uses two bits — and searches for the structures those proofs need:
//!
//! * **bivalent initial configurations** (FLP Lemma 2),
//! * **critical configurations** — bivalent, with every successor univalent
//!   (Herlihy's simplified "decider", Figure 3),
//! * **decider configurations** in the Bridgeland–Watro sense — a bivalent
//!   configuration from which a single process *on its own* can drive the
//!   system to either valence (Figure 2).
//!
//! It only classifies. Agreement and validity are safety properties, and
//! the counterexample every bivalence proof then constructs — an
//! admissible non-deciding execution — a liveness one: `consensus::flp`
//! and `registers::herlihy` check them with `explore::property`
//! (`never(`[`DecisionSystem::disagrees`]`)`, `never(decided ≠ input)`, a
//! fair [`Lasso`](crate::cert::Lasso)), each witness replayed by
//! [`verify`](crate::cert::verify).
//!
//! [`ValenceEngine`] takes a graph built by `impossible-explore`'s one
//! builder (`Search::graph_from`) as it stands — `order[i]` is
//! configuration `i`, `succ[i]` its `(label, target index)` edges in
//! [`Succ`]'s compressed rows, capped, depth-bounded or quotiented as the
//! caller asked. Callers go through `Search::valence`, which hands it the
//! label-free graph (`Search::shape`: the classification reads targets
//! only), and `Search::find_decider`, which hands it the labelled one
//! (the hunt filters edges by the process owning their action).
//!
//! Nor does it walk the rows by hand: both are queries through
//! [`crate::succ`]'s graph layer. The fixpoint's worklist re-queues a
//! changed configuration's sources from [`Succ::preds`]; the decider hunt
//! grows one [`crate::succ::BfsTree`] per (bivalent configuration,
//! process) — an edge filter admitting that process's actions, a visitor
//! stopping at the second univalent valence — and reports the two tree
//! paths ([`crate::succ::BfsTree::path`]) as its runs.
//!
//! ```
//! use impossible_core::ids::ProcessId;
//! use impossible_core::succ::Succ;
//! use impossible_core::system::{DecisionSystem, System};
//! use impossible_core::valence::ValenceEngine;
//! use impossible_obs::NoopTracer;
//!
//! // One process free to decide either bit: the initial configuration is
//! // bivalent and every successor univalent — a minimal Figure 3
//! // "critical configuration".
//! struct FreeChoice;
//! impl System for FreeChoice {
//!     type State = Option<u64>;
//!     type Action = u64;
//!     fn initial_states(&self) -> Vec<Self::State> { vec![None] }
//!     fn enabled(&self, s: &Self::State) -> Vec<u64> {
//!         if s.is_none() { vec![0, 1] } else { Vec::new() }
//!     }
//!     fn step(&self, _s: &Self::State, a: &u64) -> Self::State { Some(*a) }
//! }
//! impl DecisionSystem for FreeChoice {
//!     fn decisions(&self, s: &Self::State) -> Vec<(ProcessId, u64)> {
//!         s.iter().map(|&v| (ProcessId(0), v)).collect()
//!     }
//! }
//!
//! // Its reachable graph, written out by hand: three configurations, the
//! // undecided one leading to each decided one.
//! let order = [None, Some(0), Some(1)];
//! let succ = Succ::from_rows([vec![(0, 1), (1, 2)], vec![], vec![]]);
//! // One initial configuration, `order[0]`; nothing truncated.
//! let engine = ValenceEngine::new(&FreeChoice);
//! let report = engine.analyze_from_graph(&order, &succ, 1, false, &mut NoopTracer);
//! assert_eq!(report.bivalent_initials.len(), 1);
//! assert_eq!(report.critical.len(), 1);
//! ```

use crate::exec::Execution;
use crate::ids::ProcessId;
use crate::succ::{Succ, Target};
use crate::system::DecisionSystem;
use impossible_obs::{trace_event, NoopTracer, Tracer};
use std::collections::VecDeque;

/// The valence classification of a protocol instance's reachable graph: the
/// configurations the bivalence proofs name. A configuration's valence is
/// the set of decision values reachable from it; the paper treats the
/// binary case, and any `u64` values are allowed here, so "bivalent" means
/// "at least two values" and "univalent" exactly one. Each initial
/// configuration is in exactly one of the three `*_initials` buckets.
#[derive(Debug, PartialEq, Eq)]
pub struct ValenceReport<S> {
    /// Initial configurations that are bivalent.
    pub bivalent_initials: Vec<S>,
    /// Initial configurations that are univalent: exactly one value is
    /// reachable.
    pub univalent_initials: Vec<S>,
    /// Initial configurations from which no decided value is reachable
    /// inside the graph — a protocol that never decides, or a cut graph
    /// whose explored part holds no decision below them.
    pub undecided_initials: Vec<S>,
    /// Critical configurations: bivalent, every successor univalent.
    pub critical: Vec<S>,
    /// True if exploration hit a bound (classification then incomplete).
    pub truncated: bool,
    /// Number of reachable configurations analyzed.
    pub num_states: usize,
}

/// A Bridgeland–Watro decider: from a bivalent configuration (the first
/// state of both executions), process `p` can reach, by taking steps
/// *alone*, both a configuration of valence `{v0}` and one of valence
/// `{v1}` with `v0 != v1`.
#[derive(Debug, Clone)]
pub struct Decider<S, A> {
    /// The deciding process.
    pub process: ProcessId,
    /// A `process`-solo schedule from the bivalent configuration to a
    /// 0-side univalent config.
    pub to_first: Execution<S, A>,
    /// A `process`-solo schedule from the same configuration to the other valence.
    pub to_second: Execution<S, A>,
}

/// The bivalence engine over a [`DecisionSystem`] and a reachable graph of
/// it built elsewhere.
pub struct ValenceEngine<'a, Sys: DecisionSystem> {
    sys: &'a Sys,
}

impl<'a, Sys: DecisionSystem> ValenceEngine<'a, Sys> {
    /// New engine over `sys`.
    pub fn new(sys: &'a Sys) -> Self {
        ValenceEngine { sys }
    }

    /// Classify the valence of every configuration of a reachable graph:
    /// `order[i]` is state `i`, `succ[i]` its `(label, target_index)`
    /// successors (labels are never read: a label-free `Succ<(), u32>`
    /// serves as well as a labelled one), `order[..initials]` the initial
    /// configurations as the builder interned them (canonised, under a
    /// canon hook), and `truncated` whether the builder hit a bound
    /// (classification then incomplete). The graph must be closed under
    /// `succ` (every target index < `order.len()`). Records `scope:
    /// "valence"` events into `tracer`: graph size, fixpoint effort, the
    /// valence of each initial configuration, and the classification
    /// tallies (`violations` counts the configurations already holding two
    /// decided values).
    ///
    /// # Panics
    ///
    /// If more than 64 distinct values are decided in the graph: a
    /// valence is a `u64` bitmask.
    pub fn analyze_from_graph<L, T: Target>(
        &self,
        order: &[Sys::State],
        succ: &Succ<L, T>,
        initials: usize,
        truncated: bool,
        tracer: &mut dyn Tracer,
    ) -> ValenceReport<Sys::State> {
        trace_event!(tracer, "valence", "classify.start",
            "states": order.len(),
            "truncated": truncated,
        );
        let (own, val) = self.fixpoint(order, succ, tracer);

        let mut bivalent_initials = Vec::new();
        let mut univalent_initials = Vec::new();
        let mut undecided_initials = Vec::new();
        for (i, s) in order[..initials].iter().enumerate() {
            trace_event!(tracer, "valence", "initial",
                "index": i,
                "values": val[i].count_ones(),
                "bivalent": val[i].count_ones() >= 2,
            );
            match val[i].count_ones() {
                0 => undecided_initials.push(s.clone()),
                1 => univalent_initials.push(s.clone()),
                _ => bivalent_initials.push(s.clone()),
            }
        }

        // Critical configurations (Figure 3): bivalent, and every *real*
        // successor (ignoring stutter self-loops such as null steps) is
        // univalent.
        let critical: Vec<Sys::State> = order
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let targets = succ[*i].iter().map(|&(_, t)| t.to_usize());
                let mut real = targets.filter(|t| t != i).peekable();
                val[*i].count_ones() >= 2
                    && real.peek().is_some()
                    && real.all(|t| val[t].count_ones() == 1)
            })
            .map(|(_, s)| s.clone())
            .collect();

        trace_event!(tracer, "valence", "classify.end",
            "bivalent_initials": bivalent_initials.len(),
            "univalent_initials": univalent_initials.len(),
            "critical": critical.len(),
            "violations": own.iter().filter(|m| m.count_ones() >= 2).count(),
        );

        ValenceReport {
            bivalent_initials,
            univalent_initials,
            undecided_initials,
            critical,
            truncated,
            num_states: order.len(),
        }
    }

    /// `val(s) = own(s) ∪ ⋃ val(succ(s))` per graph index, where `own` is
    /// what is already decided in `s`, by reverse worklist (its effort goes
    /// to `tracer` as one `fixpoint` event). Both are bitmasks: bit `k` is
    /// the `k`-th smallest value decided anywhere in the graph. Returns
    /// `(own, val)`.
    fn fixpoint<L, T: Target>(
        &self,
        order: &[Sys::State],
        succ: &Succ<L, T>,
        tracer: &mut dyn Tracer,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut values: Vec<u64> = Vec::new();
        for (_, v) in order.iter().flat_map(|s| self.sys.decisions(s)) {
            if let Err(k) = values.binary_search(&v) {
                assert!(
                    values.len() < 64,
                    "valence: more than 64 distinct decision values, a u64 mask holds 64"
                );
                values.insert(k, v);
            }
        }
        let own: Vec<u64> = order
            .iter()
            .map(|s| {
                self.sys.decisions(s).iter().fold(0, |m, (_, v)| {
                    m | 1 << values.binary_search(v).expect("collected above")
                })
            })
            .collect();
        let preds = succ.preds();
        let mut val = own.clone();
        let mut queue: VecDeque<usize> = (0..order.len()).collect();
        let mut queued: Vec<bool> = vec![true; order.len()];
        let mut pops = 0usize;
        let mut changed = 0usize;
        while let Some(i) = queue.pop_front() {
            pops += 1;
            queued[i] = false;
            let v = succ[i].iter().fold(own[i], |m, &(_, t)| m | val[t.to_usize()]);
            if v != val[i] {
                changed += 1;
                val[i] = v;
                for p in preds[i].iter().map(|&p| p as usize) {
                    if !queued[p] {
                        queued[p] = true;
                        queue.push_back(p);
                    }
                }
            }
        }
        trace_event!(tracer, "valence", "fixpoint", "pops": pops, "changed": changed);
        (own, val)
    }

    /// Search a reachable graph (as for
    /// [`ValenceEngine::analyze_from_graph`]) for a Bridgeland–Watro decider
    /// configuration (Figure 2): the first bivalent configuration, in graph
    /// order, from which some process's solo runs *inside the graph* reach
    /// two different univalent valences. Records `scope: "valence"` events
    /// into `tracer`: one `decider.probe` per (bivalent configuration,
    /// process) solo-run attempt, then `decider.found` or `decider.none`.
    /// Panics where [`ValenceEngine::analyze_from_graph`] does.
    pub fn find_decider_from_graph(
        &self,
        order: &[Sys::State],
        succ: &Succ<Sys::Action>,
        tracer: &mut dyn Tracer,
    ) -> Option<Decider<Sys::State, Sys::Action>> {
        let (_, val) = self.fixpoint(order, succ, &mut NoopTracer);
        let n = self.sys.num_processes()?;
        trace_event!(tracer, "valence", "decider.hunt",
            "states": order.len(),
            "processes": n,
        );
        // One tree for every probe: each search clears only the states the
        // previous one reached.
        let mut tree = succ.bfs_tree();
        for i in 0..order.len() {
            if val[i].count_ones() < 2 {
                continue;
            }
            for p in ProcessId::all(n) {
                // Explore p-solo executions from `order[i]`, FIFO; keep the first
                // state to reach each univalent valence. The two runs a
                // decider reports are the tree paths to those states.
                let mut reached: Vec<(u64, usize)> = Vec::new();
                tree.search(
                    [i],
                    |a, _| self.sys.owner(a) == Some(p),
                    |v| {
                        let fresh = !reached.iter().any(|&(rv, _)| rv == val[v]);
                        if val[v].count_ones() == 1 && fresh {
                            reached.push((val[v], v));
                        }
                        reached.len() >= 2
                    },
                );
                trace_event!(tracer, "valence", "decider.probe",
                    "config": i,
                    "process": p.0,
                    "valences": reached.len(),
                );
                if reached.len() >= 2 {
                    trace_event!(tracer, "valence", "decider.found",
                        "config": i,
                        "process": p.0,
                    );
                    let run_to = |v| {
                        let (path, edges) = tree.path(v);
                        Execution::from_parts(
                            path.iter().map(|&j| order[j].clone()).collect(),
                            path.iter().zip(edges).map(|(&j, e)| succ[j][e].0.clone()).collect(),
                        )
                    };
                    return Some(Decider {
                        process: p,
                        to_first: run_to(reached[0].1),
                        to_second: run_to(reached[1].1),
                    });
                }
            }
        }
        trace_event!(tracer, "valence", "decider.none");
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;

    /// Configurations `0..=6` wired by hand: from `0`, process 0 alone
    /// reaches `3` (1-valent) in one step and `2` (0-valent) in two, through
    /// `1` (bivalent, also leading to `4 → 5`); action `9` — process 1's —
    /// leads to `6`. Action `a` is the edge's label, its target the state
    /// the rows below name.
    struct Wired;
    const ROWS: [&[(u8, usize)]; 7] = [
        &[(1, 1), (9, 6), (3, 3)],
        &[(6, 4), (2, 2)],
        &[],
        &[],
        &[(5, 5)],
        &[],
        &[],
    ];
    impl System for Wired {
        type State = u8;
        type Action = u8;
        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn enabled(&self, s: &u8) -> Vec<u8> {
            ROWS[*s as usize].iter().map(|&(a, _)| a).collect()
        }
        fn step(&self, s: &u8, a: &u8) -> u8 {
            let &(_, t) = ROWS[*s as usize]
                .iter()
                .find(|(b, _)| b == a)
                .expect("enabled");
            t as u8
        }
        fn owner(&self, a: &u8) -> Option<ProcessId> {
            Some(ProcessId(usize::from(*a == 9)))
        }
        fn num_processes(&self) -> Option<usize> {
            Some(2)
        }
    }
    impl DecisionSystem for Wired {
        fn decisions(&self, s: &u8) -> Vec<(ProcessId, u64)> {
            match s {
                2 => vec![(ProcessId(0), 0)],
                3 | 5 => vec![(ProcessId(0), 1)],
                6 => vec![(ProcessId(1), 1)],
                _ => vec![],
            }
        }
    }

    /// State `0` leads to each of `1..=n`; state `k` decides `1000 + k`.
    struct Fan;
    impl System for Fan {
        type State = u8;
        type Action = u8;
        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn enabled(&self, _s: &u8) -> Vec<u8> {
            Vec::new()
        }
        fn step(&self, s: &u8, _a: &u8) -> u8 {
            *s
        }
    }
    impl DecisionSystem for Fan {
        fn decisions(&self, s: &u8) -> Vec<(ProcessId, u64)> {
            (*s > 0).then_some((ProcessId(0), 1000 + u64::from(*s))).into_iter().collect()
        }
    }

    fn fan(n: u8) -> ValenceReport<u8> {
        let order: Vec<u8> = (0..=n).collect();
        let mut rows = vec![vec![]; usize::from(n) + 1];
        rows[0] = (1..=n).map(|t| (t, usize::from(t))).collect();
        let succ = Succ::from_rows(rows);
        ValenceEngine::new(&Fan).analyze_from_graph(&order, &succ, 1, false, &mut NoopTracer)
    }

    #[test]
    fn sixty_four_decided_values_fit_the_mask() {
        let report = fan(64);
        assert_eq!((report.bivalent_initials, report.critical), (vec![0], vec![0]));
    }

    #[test]
    #[should_panic(expected = "more than 64 distinct decision values")]
    fn a_sixty_fifth_decided_value_is_refused() {
        fan(65);
    }

    #[test]
    fn decider_runs_are_the_solo_bfs_tree_paths() {
        // The two runs are rebuilt from parent links: each action is the
        // one on the tree edge (row 1 lists `4` before `2`, row 0 lists
        // process 1's edge between process 0's), each state the edge's
        // target, and the tree is first-discovery FIFO, so the 1-valent run
        // is the one-step `0 → 3`, found before `2`.
        let order: Vec<u8> = (0..7).collect();
        let succ = Succ::from_rows(ROWS.map(<[_]>::to_vec));
        let d = ValenceEngine::new(&Wired)
            .find_decider_from_graph(&order, &succ, &mut NoopTracer)
            .expect("0 is a decider for process 0");
        assert_eq!((*d.to_first.first(), d.process), (0, ProcessId(0)));
        assert_eq!(d.to_first, Execution::from_parts(vec![0, 3], vec![3]));
        assert_eq!(
            d.to_second,
            Execution::from_parts(vec![0, 1, 2], vec![1, 2])
        );
    }
}
