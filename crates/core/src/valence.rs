//! The bivalence engine — Figures 2 and 3 of the paper, made executable.
//!
//! The Fischer–Lynch–Paterson proof (and its many descendants: Dolev–Dwork–
//! Stockmeyer, Loui–Abu-Amara, Herlihy, Bridgeland–Watro, Moran–Wolfstahl...)
//! all analyze how a decision protocol's configurations move from *bivalent*
//! (both decision values still reachable) to *univalent*. This module
//! computes the valence of every reachable configuration of a finite-instance
//! [`DecisionSystem`] and searches for the structures those proofs need:
//!
//! * **bivalent initial configurations** (FLP Lemma 2),
//! * **critical configurations** — bivalent, with every successor univalent
//!   (Herlihy's simplified "decider", Figure 3),
//! * **decider configurations** in the Bridgeland–Watro sense — a bivalent
//!   configuration from which a single process *on its own* can drive the
//!   system to either valence (Figure 2).
//!
//! The counterexample every bivalence proof then constructs — an admissible
//! non-deciding execution, a fair "lasso" — is a liveness check, so it
//! lives with the liveness checker: `consensus::flp::find_nontermination`
//! over `explore::property::Checker`.
//!
//! ```
//! use impossible_core::ids::ProcessId;
//! use impossible_core::system::{DecisionSystem, System};
//! use impossible_core::valence::ValenceEngine;
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
//! let report = ValenceEngine::new(&FreeChoice).analyze();
//! assert_eq!(report.bivalent_initials.len(), 1);
//! assert_eq!(report.critical.len(), 1);
//! ```

use crate::exec::Execution;
use crate::ids::ProcessId;
use crate::system::{DecisionSystem, SystemExt};
use impossible_obs::{trace_event, NoopTracer, Tracer};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The valence of a configuration: the set of decision values reachable from
/// it. (The paper treats the binary case; we allow any `u64` values, so
/// "bivalent" generalizes to "multivalent".)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Valence(pub BTreeSet<u64>);

impl Valence {
    /// Exactly one decision value is reachable.
    pub fn is_univalent(&self) -> bool {
        self.0.len() == 1
    }

    /// At least two decision values are reachable.
    pub fn is_bivalent(&self) -> bool {
        self.0.len() >= 2
    }

    /// `v`-valent: univalent with value `v`.
    pub fn is_valent(&self, v: u64) -> bool {
        self.is_univalent() && self.0.contains(&v)
    }
}

/// Full valence classification of a protocol instance's reachable graph.
#[derive(Debug)]
pub struct ValenceReport<S> {
    /// Valence of every reachable configuration.
    pub valence: BTreeMap<S, Valence>,
    /// Initial configurations that are bivalent.
    pub bivalent_initials: Vec<S>,
    /// Initial configurations that are univalent.
    pub univalent_initials: Vec<S>,
    /// Critical configurations: bivalent, every successor univalent.
    pub critical: Vec<S>,
    /// True if exploration hit a bound (classification then incomplete).
    pub truncated: bool,
    /// Number of reachable configurations analyzed.
    pub num_states: usize,
    /// Configurations where a process has decided but agreement is violated
    /// somewhere below — diagnostic for buggy candidate protocols.
    pub agreement_violations: Vec<S>,
}

/// A Bridgeland–Watro decider: from `config`, process `p` can reach, by
/// taking steps *alone*, both a configuration of valence `{v0}` and one of
/// valence `{v1}` with `v0 != v1`.
#[derive(Debug, Clone)]
pub struct Decider<S, A> {
    /// The bivalent configuration.
    pub config: S,
    /// The deciding process.
    pub process: ProcessId,
    /// A `process`-solo schedule from `config` to a 0-side univalent config.
    pub to_first: Execution<S, A>,
    /// A `process`-solo schedule from `config` to the other valence.
    pub to_second: Execution<S, A>,
}

/// The bivalence engine over a [`DecisionSystem`].
pub struct ValenceEngine<'a, Sys: DecisionSystem> {
    sys: &'a Sys,
    max_states: usize,
}

impl<'a, Sys: DecisionSystem> ValenceEngine<'a, Sys> {
    /// New engine with a default bound of 2M states.
    pub fn new(sys: &'a Sys) -> Self {
        ValenceEngine {
            sys,
            max_states: 2_000_000,
        }
    }

    /// Cap the reachable-graph size.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Build the reachable graph and classify every configuration's valence.
    pub fn analyze(&self) -> ValenceReport<Sys::State> {
        self.analyze_traced(&mut NoopTracer)
    }

    /// [`ValenceEngine::analyze`], recording trace events into `tracer`
    /// (scope `"valence"`): graph size, fixpoint effort, the valence of
    /// each initial configuration, and the classification tallies.
    pub fn analyze_traced(&self, tracer: &mut dyn Tracer) -> ValenceReport<Sys::State> {
        let (order, succ, truncated) = self.reachable_graph();
        self.analyze_from_graph_traced(&order, &succ, truncated, tracer)
    }

    /// Classify valences over an externally built reachable graph.
    ///
    /// This is the seam that lets faster graph builders (notably
    /// `impossible-explore`'s fingerprint-indexed builder) reuse the
    /// classification fixpoint without this crate depending on them:
    /// `order[i]` is state `i`, `succ[i]` its `(action, target_index)`
    /// successors, and `truncated` whether the builder hit a bound. The
    /// graph must be closed under `succ` (every target index < `order.len()`)
    /// and contain every initial state it reached.
    pub fn analyze_from_graph(
        &self,
        order: &[Sys::State],
        succ: &[Vec<(Sys::Action, usize)>],
        truncated: bool,
    ) -> ValenceReport<Sys::State> {
        self.analyze_from_graph_traced(order, succ, truncated, &mut NoopTracer)
    }

    /// [`ValenceEngine::analyze_from_graph`], recording trace events into
    /// `tracer` (scope `"valence"`).
    pub fn analyze_from_graph_traced(
        &self,
        order: &[Sys::State],
        succ: &[Vec<(Sys::Action, usize)>],
        truncated: bool,
        tracer: &mut dyn Tracer,
    ) -> ValenceReport<Sys::State> {
        trace_event!(tracer, "valence", "classify.start",
            "states": order.len(),
            "truncated": truncated,
        );
        let index: BTreeMap<&Sys::State, usize> =
            order.iter().enumerate().map(|(i, s)| (s, i)).collect();

        // Immediate decisions per state.
        let own: Vec<BTreeSet<u64>> = order
            .iter()
            .map(|s| self.sys.decisions(s).into_iter().map(|(_, v)| v).collect())
            .collect();

        // Fixpoint: val(s) = own(s) ∪ ⋃ val(succ(s)), via reverse worklist.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
        for (i, ts) in succ.iter().enumerate() {
            for &(_, t) in ts {
                preds[t].push(i);
            }
        }
        let mut val: Vec<BTreeSet<u64>> = own.clone();
        let mut queue: VecDeque<usize> = (0..order.len()).collect();
        let mut queued: Vec<bool> = vec![true; order.len()];
        let mut pops = 0usize;
        let mut changed = 0usize;
        while let Some(i) = queue.pop_front() {
            pops += 1;
            queued[i] = false;
            // Recompute val[i] from own + successors.
            let mut v = own[i].clone();
            for &(_, t) in &succ[i] {
                for x in &val[t] {
                    v.insert(*x);
                }
            }
            if v != val[i] {
                changed += 1;
                val[i] = v;
                for &p in &preds[i] {
                    if !queued[p] {
                        queued[p] = true;
                        queue.push_back(p);
                    }
                }
            }
        }
        trace_event!(tracer, "valence", "fixpoint", "pops": pops, "changed": changed);

        // Agreement diagnostics: a state where two distinct values are
        // *already decided* simultaneously.
        let agreement_violations: Vec<Sys::State> = order
            .iter()
            .enumerate()
            .filter(|(i, _)| own[*i].len() >= 2)
            .map(|(_, s)| s.clone())
            .collect();

        let mut valence = BTreeMap::new();
        for (i, s) in order.iter().enumerate() {
            valence.insert(s.clone(), Valence(val[i].clone()));
        }

        let mut bivalent_initials = Vec::new();
        let mut univalent_initials = Vec::new();
        for s in self.sys.initial_states() {
            if let Some(i) = index.get(&s) {
                trace_event!(tracer, "valence", "initial",
                    "index": *i,
                    "values": val[*i].len(),
                    "bivalent": val[*i].len() >= 2,
                );
                if val[*i].len() >= 2 {
                    bivalent_initials.push(s);
                } else {
                    univalent_initials.push(s);
                }
            }
        }

        // Critical configurations (Figure 3): bivalent, and every *real*
        // successor (ignoring stutter self-loops such as null steps) is
        // univalent.
        let critical: Vec<Sys::State> = order
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let real: Vec<usize> = succ[*i]
                    .iter()
                    .map(|&(_, t)| t)
                    .filter(|t| t != i)
                    .collect();
                val[*i].len() >= 2
                    && !real.is_empty()
                    && real.iter().all(|&t| val[t].len() == 1)
            })
            .map(|(_, s)| s.clone())
            .collect();

        trace_event!(tracer, "valence", "classify.end",
            "bivalent_initials": bivalent_initials.len(),
            "univalent_initials": univalent_initials.len(),
            "critical": critical.len(),
            "violations": agreement_violations.len(),
        );

        ValenceReport {
            valence,
            bivalent_initials,
            univalent_initials,
            critical,
            truncated,
            num_states: order.len(),
            agreement_violations,
        }
    }

    /// Search for a Bridgeland–Watro decider configuration (Figure 2).
    pub fn find_decider(&self) -> Option<Decider<Sys::State, Sys::Action>> {
        self.find_decider_traced(&mut NoopTracer)
    }

    /// [`ValenceEngine::find_decider`], recording trace events into
    /// `tracer` (scope `"valence"`): one `decider.probe` per
    /// (bivalent configuration, process) solo-run attempt, then
    /// `decider.found` or `decider.none`.
    pub fn find_decider_traced(
        &self,
        tracer: &mut dyn Tracer,
    ) -> Option<Decider<Sys::State, Sys::Action>> {
        let (order, succ, truncated) = self.reachable_graph();
        let report = self.analyze_from_graph(&order, &succ, truncated);
        let n = self.sys.num_processes()?;
        trace_event!(tracer, "valence", "decider.hunt",
            "states": order.len(),
            "processes": n,
        );
        for (i, s) in order.iter().enumerate() {
            if !report.valence[s].is_bivalent() {
                continue;
            }
            for p in ProcessId::all(n) {
                // Explore p-solo executions from s; collect reachable
                // valences.
                let mut reached: Vec<(Valence, Execution<Sys::State, Sys::Action>)> = Vec::new();
                let mut seen: BTreeSet<Sys::State> = BTreeSet::new();
                let mut q: VecDeque<Execution<Sys::State, Sys::Action>> = VecDeque::new();
                q.push_back(Execution::start(s.clone()));
                seen.insert(s.clone());
                while let Some(e) = q.pop_front() {
                    let v = &report.valence[e.last()];
                    if v.is_univalent() && !reached.iter().any(|(rv, _)| rv == v) {
                        reached.push((v.clone(), e.clone()));
                        if reached.len() >= 2 {
                            break;
                        }
                    }
                    for (a, t) in self.sys.successors(e.last()) {
                        if self.sys.owner(&a) == Some(p)
                            && report.valence.contains_key(&t)
                            && seen.insert(t.clone())
                        {
                            q.push_back(e.extended(a, t));
                        }
                    }
                }
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
                    let mut it = reached.into_iter();
                    let (_, to_first) = it.next().expect("len >= 2");
                    let (_, to_second) = it.next().expect("len >= 2");
                    return Some(Decider {
                        config: s.clone(),
                        process: p,
                        to_first,
                        to_second,
                    });
                }
            }
        }
        trace_event!(tracer, "valence", "decider.none");
        None
    }

    /// Reachable graph: state order, successor lists `(action, target_index)`,
    /// truncation flag.
    #[allow(clippy::type_complexity)]
    fn reachable_graph(&self) -> (Vec<Sys::State>, Vec<Vec<(Sys::Action, usize)>>, bool) {
        let mut order: Vec<Sys::State> = Vec::new();
        let mut index: BTreeMap<Sys::State, usize> = BTreeMap::new();
        let mut succ: Vec<Vec<(Sys::Action, usize)>> = Vec::new();
        let mut truncated = false;

        let mut queue: VecDeque<usize> = VecDeque::new();
        for s in self.sys.initial_states() {
            if !index.contains_key(&s) {
                let i = order.len();
                index.insert(s.clone(), i);
                order.push(s);
                succ.push(Vec::new());
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            let state = order[i].clone();
            for a in self.sys.enabled(&state) {
                let t = self.sys.step(&state, &a);
                let ti = match index.get(&t) {
                    Some(&ti) => ti,
                    None => {
                        if order.len() >= self.max_states {
                            truncated = true;
                            continue;
                        }
                        let ti = order.len();
                        index.insert(t.clone(), ti);
                        order.push(t);
                        succ.push(Vec::new());
                        queue.push_back(ti);
                        ti
                    }
                };
                succ[i].push((a, ti));
            }
        }
        (order, succ, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;

    /// A toy 2-process "consensus" where each process i has input bit b_i and
    /// the *first* process to move decides its own input; the other then
    /// copies. Correct agreement, but configurations before the first move
    /// are bivalent when inputs differ.
    #[derive(Clone)]
    struct FirstMover;

    type FmState = (Option<u64>, [u64; 2], [Option<u64>; 2]); // (decided value, inputs, decisions)

    impl System for FirstMover {
        type State = FmState;
        type Action = usize; // which process moves

        fn initial_states(&self) -> Vec<FmState> {
            let mut v = Vec::new();
            for b0 in 0..2u64 {
                for b1 in 0..2u64 {
                    v.push((None, [b0, b1], [None, None]));
                }
            }
            v
        }

        fn enabled(&self, s: &FmState) -> Vec<usize> {
            (0..2).filter(|&i| s.2[i].is_none()).collect()
        }

        fn step(&self, s: &FmState, a: &usize) -> FmState {
            let mut t = s.clone();
            let v = t.0.unwrap_or(t.1[*a]);
            t.0 = Some(v);
            t.2[*a] = Some(v);
            t
        }

        fn owner(&self, a: &usize) -> Option<ProcessId> {
            Some(ProcessId(*a))
        }

        fn num_processes(&self) -> Option<usize> {
            Some(2)
        }
    }

    impl DecisionSystem for FirstMover {
        fn decisions(&self, s: &FmState) -> Vec<(ProcessId, u64)> {
            s.2.iter()
                .enumerate()
                .filter_map(|(i, d)| d.map(|v| (ProcessId(i), v)))
                .collect()
        }
    }

    #[test]
    fn classifies_initial_valences() {
        let report = ValenceEngine::new(&FirstMover).analyze();
        // Mixed-input initials are bivalent; same-input initials univalent.
        assert_eq!(report.bivalent_initials.len(), 2);
        assert_eq!(report.univalent_initials.len(), 2);
        assert!(!report.truncated);
        assert!(report.agreement_violations.is_empty());
    }

    #[test]
    fn mixed_input_initial_is_critical_here() {
        // From a mixed-input initial, every successor decides a value =>
        // univalent, so the initial is critical.
        let report = ValenceEngine::new(&FirstMover).analyze();
        let mixed: Vec<_> = report
            .bivalent_initials
            .iter()
            .cloned()
            .collect();
        for m in mixed {
            assert!(report.critical.contains(&m));
        }
    }

    #[test]
    fn decider_exists_for_first_mover() {
        // Either process can, alone, decide either value from a mixed initial
        // — wait: moving decides own input only; p0 solo from (0,1) reaches
        // only decision 0. So p alone reaches ONE valence; no decider.
        let d = ValenceEngine::new(&FirstMover).find_decider();
        assert!(d.is_none());
    }

    /// A deliberately *non-deciding* protocol: two processes pass a token
    /// around forever and never decide. Valence is empty-set everywhere;
    /// no decisions reachable at all.
    struct TokenLoop;
    impl System for TokenLoop {
        type State = u8; // who holds the token
        type Action = u8; // holder passes
        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn enabled(&self, s: &u8) -> Vec<u8> {
            vec![*s]
        }
        fn step(&self, s: &u8, _a: &u8) -> u8 {
            1 - *s
        }
        fn owner(&self, a: &u8) -> Option<ProcessId> {
            Some(ProcessId(*a as usize))
        }
        fn num_processes(&self) -> Option<usize> {
            Some(2)
        }
    }
    impl DecisionSystem for TokenLoop {
        fn decisions(&self, _s: &u8) -> Vec<(ProcessId, u64)> {
            Vec::new()
        }
    }

    #[test]
    fn token_loop_has_empty_valence() {
        let report = ValenceEngine::new(&TokenLoop).analyze();
        assert_eq!(report.num_states, 2);
        // Valence sets are empty (no decision reachable): not bivalent.
        assert!(report.bivalent_initials.is_empty());
    }
}
