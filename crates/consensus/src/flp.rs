//! Asynchronous consensus candidates under the bivalence engine — the
//! executable FLP theorem \[55\] (Figures 2 and 3 of the survey).
//!
//! FLP says every 1-resilient asynchronous consensus protocol fails
//! somewhere: *decide eagerly and you break agreement; wait and a single
//! crash stops you forever*. [`AsyncCandidate`] expresses message-driven
//! protocols (with null steps, as in FLP's model); [`FlpSystem`] compiles a
//! candidate into a finite transition system; [`check_candidate`] then
//! checks agreement and validity as safety properties and termination as
//! a fair liveness one, and reports which horn of the dilemma kills it,
//! with the run that does; [`analyze`] classifies valences (Figures 2–3).
//!
//! The [`Arbiter`] candidate is the pedagogical centerpiece: it is
//! agreement-safe but schedule-dependent, so the engine exhibits a
//! **bivalent initial configuration**, a **critical configuration** whose
//! every successor is univalent (Figure 3), a **decider process**
//! (Figure 2), and the admissible non-deciding execution when the arbiter
//! crashes.

use impossible_core::cert::{verify, Counterexample, Lasso, Spec};
use impossible_core::exec::Execution;
use impossible_core::ids::ProcessId;
use impossible_core::system::{DecisionSystem, System};
use impossible_core::valence::ValenceReport;
use impossible_explore::property::{eventually, never, Checker, PropertyReport};
use impossible_explore::Search;
use impossible_obs::{NoopTracer, Tracer};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;

/// An asynchronous message-driven protocol with null steps.
pub trait AsyncCandidate {
    /// Per-process local state.
    type Local: Clone + Eq + Hash + Ord + Debug;
    /// Message payload.
    type M: Clone + Eq + Hash + Ord + Debug;

    /// Number of processes.
    fn n(&self) -> usize;

    /// Initial local state (no messages sent yet; the first step sends).
    fn init(&self, i: usize, input: u64) -> Self::Local;

    /// One atomic step of process `i`: `incoming` is `Some((from, msg))`
    /// for a delivery, `None` for a null step. Returns the new local state
    /// and outgoing messages.
    fn on_step(
        &self,
        i: usize,
        local: &Self::Local,
        incoming: Option<(usize, &Self::M)>,
    ) -> (Self::Local, Vec<(usize, Self::M)>);

    /// The decision recorded in `local`, if any.
    fn decision(&self, local: &Self::Local) -> Option<u64>;
}

/// Global configuration: locals plus the multiset of in-flight messages
/// (kept sorted for canonical ordering).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlpState<L, M> {
    /// Per-process local states.
    pub locals: Vec<L>,
    /// In-flight messages `(from, to, payload)`, sorted.
    pub pending: Vec<(usize, usize, M)>,
}

impossible_explore::impl_encode_struct!(FlpState<L, M> { locals, pending });

/// Scheduler choices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FlpAction {
    /// Process takes a null step (includes the start step).
    Null(usize),
    /// Deliver the `index`-th pending message (in sorted order) addressed
    /// to `to`.
    Deliver {
        /// Recipient.
        to: usize,
        /// Index among the pending messages addressed to `to`.
        index: usize,
    },
}

/// A candidate compiled to a transition system over all binary inputs.
pub struct FlpSystem<'a, C: AsyncCandidate> {
    candidate: &'a C,
    /// The initial input vectors to consider.
    inputs: Vec<Vec<u64>>,
}

impl<'a, C: AsyncCandidate> FlpSystem<'a, C> {
    /// System over every binary input vector.
    pub fn all_binary(candidate: &'a C) -> Self {
        let n = candidate.n();
        let inputs = (0..(1u64 << n))
            .map(|mask| (0..n).map(|i| (mask >> i) & 1).collect())
            .collect();
        FlpSystem { candidate, inputs }
    }

    /// System over the given input vectors only.
    pub fn with_inputs(candidate: &'a C, inputs: Vec<Vec<u64>>) -> Self {
        FlpSystem { candidate, inputs }
    }

    fn pending_for(state: &FlpState<C::Local, C::M>, to: usize) -> Vec<usize> {
        state
            .pending
            .iter()
            .enumerate()
            .filter(|(_, (_, t, _))| *t == to)
            .map(|(k, _)| k)
            .collect()
    }
}

impl<'a, C: AsyncCandidate> System for FlpSystem<'a, C> {
    type State = FlpState<C::Local, C::M>;
    type Action = FlpAction;

    fn initial_states(&self) -> Vec<Self::State> {
        self.inputs
            .iter()
            .map(|input| FlpState {
                locals: (0..self.candidate.n())
                    .map(|i| self.candidate.init(i, input[i]))
                    .collect(),
                pending: Vec::new(),
            })
            .collect()
    }

    fn enabled(&self, state: &Self::State) -> Vec<FlpAction> {
        let n = self.candidate.n();
        let mut acts: Vec<FlpAction> = (0..n).map(FlpAction::Null).collect();
        for to in 0..n {
            for index in 0..Self::pending_for(state, to).len() {
                acts.push(FlpAction::Deliver { to, index });
            }
        }
        acts
    }

    fn step(&self, state: &Self::State, action: &FlpAction) -> Self::State {
        let mut next = state.clone();
        let (p, incoming) = match action {
            FlpAction::Null(p) => (*p, None),
            FlpAction::Deliver { to, index } => {
                let k = Self::pending_for(state, *to)[*index];
                let (from, _, msg) = next.pending.remove(k);
                (*to, Some((from, msg)))
            }
        };
        let (local, outgoing) = self.candidate.on_step(
            p,
            &state.locals[p],
            incoming.as_ref().map(|(f, m)| (*f, m)),
        );
        next.locals[p] = local;
        for (to, m) in outgoing {
            next.pending.push((p, to, m));
        }
        next.pending.sort();
        next
    }

    fn owner(&self, action: &FlpAction) -> Option<ProcessId> {
        Some(ProcessId(match action {
            FlpAction::Null(p) => *p,
            FlpAction::Deliver { to, .. } => *to,
        }))
    }

    fn num_processes(&self) -> Option<usize> {
        Some(self.candidate.n())
    }
}

impl<'a, C: AsyncCandidate> DecisionSystem for FlpSystem<'a, C> {
    fn decisions(&self, state: &Self::State) -> Vec<(ProcessId, u64)> {
        state
            .locals
            .iter()
            .enumerate()
            .filter_map(|(i, l)| self.candidate.decision(l).map(|v| (ProcessId(i), v)))
            .collect()
    }
}

/// The crash-liveness check behind [`check_candidate`] and
/// `quorum::exhibit_flp_lasso`, as one instantiation of the
/// temporal-property layer (`explore::property`): build the reachable graph
/// with the failed process's actions dropped (it crashes at time zero),
/// then check `eventually(every live process decides)` under FLP's
/// admissibility — loop states must leave no message to a live process
/// pending (else the loop starves a delivery), and the cycle must contain a
/// step of every live process (weak fairness, one class per live process).
/// A violating lasso *is* the admissible non-deciding run; it is
/// [`verify`]d through the compiled system before it is returned. The
/// checker's `scope: "property"` events go to `tracer`.
pub(crate) fn check_live_processes_decide<C: AsyncCandidate>(
    sys: &FlpSystem<'_, C>,
    failed: usize,
    max_states: usize,
    tracer: &mut dyn Tracer,
) -> PropertyReport<FlpState<C::Local, C::M>, FlpAction> {
    let n = sys.candidate.n();
    let alive = |a: &FlpAction| sys.owner(a) != Some(ProcessId(failed));
    let g = Search::new(sys).max_states(max_states).graph_filtered(alive);
    let live: Vec<usize> = (0..n).filter(|&p| p != failed).collect();
    let class: BTreeMap<usize, usize> = live.iter().enumerate().map(|(k, &p)| (p, k)).collect();

    let prop = eventually("live-processes-decide", |s: &FlpState<C::Local, C::M>| {
        live.iter()
            .all(|&p| sys.candidate.decision(&s.locals[p]).is_some())
    });
    let checker = Checker::new(&g)
        .admissible(|s: &FlpState<C::Local, C::M>| {
            s.pending.iter().all(|(_, to, _)| *to == failed)
        })
        .fairness(live.len(), |a: &FlpAction| {
            sys.owner(a).and_then(|p| class.get(&p.index()).copied())
        })
        .tracer(tracer);
    let report = checker.check(&prop);
    if let Some(ce) = &report.counterexample {
        let spec = Spec { allowed: Some(&alive), ..checker.spec(&prop) };
        verify(sys, &spec, ce).unwrap_or_else(|e| panic!("{e}"));
    }
    report
}

/// The verdict of the FLP dilemma on a candidate; every run in it is
/// [`verify`]d through the compiled system.
#[derive(Debug)]
pub enum FlpVerdict<S> {
    /// Two processes decide differently: a run to such a configuration.
    AgreementViolation(Execution<S, FlpAction>),
    /// A unanimous-input instance can reach a decision other than the input.
    ValidityViolation {
        /// The unanimous input value.
        input: u64,
        /// A decision value reachable from it.
        decided: u64,
        /// A run from the unanimous input to a decision of `decided`.
        run: Execution<S, FlpAction>,
    },
    /// A single crash admits an admissible non-deciding execution: with
    /// `failed` taking no step, the lasso's cycle repeats forever, every
    /// live process steps around it, no message to a live process stays
    /// pending, and some live process never decides.
    NonTerminating {
        /// The crashed process.
        failed: usize,
        /// The run, verified against the compiled system.
        lasso: Lasso<S, FlpAction>,
    },
    /// Nothing found within bounds — impossible for a real candidate, per
    /// FLP; indicates the exploration bound was too small.
    CleanWithinBounds,
}

/// Run the full dilemma check: agreement as `never(disagrees)` over every
/// binary input and validity as `never(decided ≠ v)` on each unanimous
/// input `v` ([`Search::check_property`]), then 1-resilient termination.
pub fn check_candidate<C: AsyncCandidate>(
    candidate: &C,
    max_states: usize,
) -> FlpVerdict<FlpState<C::Local, C::M>> {
    let sys = FlpSystem::all_binary(candidate);
    let agreement = never("agreement", |s| sys.disagrees(s));
    let report = Search::new(&sys).max_states(max_states).check_property(&agreement);
    if let Some(Counterexample::BadState(run)) = report.counterexample {
        return FlpVerdict::AgreementViolation(run);
    }
    for v in [0u64, 1] {
        let unanimous = FlpSystem::with_inputs(candidate, vec![vec![v; candidate.n()]]);
        let other = |s: &FlpState<C::Local, C::M>| {
            unanimous.decisions(s).into_iter().map(|(_, d)| d).find(|&d| d != v)
        };
        let validity = never("validity", |s| other(s).is_some());
        let report = Search::new(&unanimous).max_states(max_states).check_property(&validity);
        if let Some(Counterexample::BadState(run)) = report.counterexample {
            let decided = other(run.last()).expect("the run ends in a bad state");
            return FlpVerdict::ValidityViolation { input: v, decided, run };
        }
    }
    for failed in 0..candidate.n() {
        let report = check_live_processes_decide(&sys, failed, max_states, &mut NoopTracer);
        if let Some(Counterexample::Lasso(lasso)) = report.counterexample {
            return FlpVerdict::NonTerminating { failed, lasso };
        }
    }
    FlpVerdict::CleanWithinBounds
}

/// Run the bivalence analysis on a candidate (for the Figure 2–3 artifacts).
pub fn analyze<C: AsyncCandidate>(
    candidate: &C,
    max_states: usize,
) -> ValenceReport<FlpState<C::Local, C::M>> {
    let sys = FlpSystem::all_binary(candidate);
    Search::new(&sys).max_states(max_states).valence()
}

// ---------------------------------------------------------------------
// Candidates
// ---------------------------------------------------------------------

/// The arbiter protocol: clients send claims to process 0, which decides the
/// first claim delivered and broadcasts the verdict. Agreement-safe and
/// schedule-dependent (bivalent!), but the arbiter is a single point of
/// failure — exactly FLP's "decider" structure.
#[derive(Debug, Clone)]
pub struct Arbiter {
    n: usize,
}

impl Arbiter {
    /// An arbiter system with `n ≥ 2` processes (process 0 arbitrates).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        Arbiter { n }
    }
}

/// Local state for [`Arbiter`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArbiterLocal {
    input: u64,
    started: bool,
    decided: Option<u64>,
}

/// Messages for [`Arbiter`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArbiterMsg {
    /// A client's claim carrying its input.
    Claim(u64),
    /// The arbiter's verdict.
    Verdict(u64),
}

impossible_explore::impl_encode_struct!(ArbiterLocal { input, started, decided });

impossible_explore::impl_encode_enum!(ArbiterMsg {
    0: Claim(v),
    1: Verdict(v),
});

impl AsyncCandidate for Arbiter {
    type Local = ArbiterLocal;
    type M = ArbiterMsg;

    fn n(&self) -> usize {
        self.n
    }

    fn init(&self, _i: usize, input: u64) -> ArbiterLocal {
        ArbiterLocal {
            input,
            started: false,
            decided: None,
        }
    }

    fn on_step(
        &self,
        i: usize,
        local: &ArbiterLocal,
        incoming: Option<(usize, &ArbiterMsg)>,
    ) -> (ArbiterLocal, Vec<(usize, ArbiterMsg)>) {
        let mut l = local.clone();
        let mut out = Vec::new();
        match incoming {
            None => {
                if !l.started {
                    l.started = true;
                    if i != 0 {
                        out.push((0, ArbiterMsg::Claim(l.input)));
                    }
                }
            }
            Some((_, ArbiterMsg::Claim(v))) => {
                if i == 0 && l.decided.is_none() {
                    l.decided = Some(*v);
                    for j in 1..self.n {
                        out.push((j, ArbiterMsg::Verdict(*v)));
                    }
                }
            }
            Some((_, ArbiterMsg::Verdict(v))) => {
                if l.decided.is_none() {
                    l.decided = Some(*v);
                }
            }
        }
        (l, out)
    }

    fn decision(&self, local: &ArbiterLocal) -> Option<u64> {
        local.decided
    }
}

/// The eager protocol: every process broadcasts its input and decides the
/// first value it hears. Terminates wait-free — and breaks agreement.
#[derive(Debug, Clone)]
pub struct FirstWins {
    n: usize,
}

impl FirstWins {
    /// A `FirstWins` instance on `n ≥ 2` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        FirstWins { n }
    }
}

impl AsyncCandidate for FirstWins {
    type Local = ArbiterLocal;
    type M = u64;

    fn n(&self) -> usize {
        self.n
    }

    fn init(&self, _i: usize, input: u64) -> ArbiterLocal {
        ArbiterLocal {
            input,
            started: false,
            decided: None,
        }
    }

    fn on_step(
        &self,
        i: usize,
        local: &ArbiterLocal,
        incoming: Option<(usize, &u64)>,
    ) -> (ArbiterLocal, Vec<(usize, u64)>) {
        let mut l = local.clone();
        let mut out = Vec::new();
        match incoming {
            None => {
                if !l.started {
                    l.started = true;
                    for j in 0..self.n {
                        if j != i {
                            out.push((j, l.input));
                        }
                    }
                }
            }
            Some((_, v)) => {
                if l.decided.is_none() {
                    l.decided = Some(*v);
                }
            }
        }
        (l, out)
    }

    fn decision(&self, local: &ArbiterLocal) -> Option<u64> {
        local.decided
    }
}

/// The patient protocol: broadcast, wait to hear from **everyone**, decide
/// the minimum. Agreement-safe and valid — and a single crash stalls it
/// forever.
#[derive(Debug, Clone)]
pub struct WaitForAll {
    n: usize,
}

impl WaitForAll {
    /// A `WaitForAll` instance on `n ≥ 2` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        WaitForAll { n }
    }
}

/// Local state for [`WaitForAll`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WaitLocal {
    input: u64,
    started: bool,
    heard: Vec<Option<u64>>,
    decided: Option<u64>,
}

impossible_explore::impl_encode_struct!(WaitLocal { input, started, heard, decided });

impl AsyncCandidate for WaitForAll {
    type Local = WaitLocal;
    type M = u64;

    fn n(&self) -> usize {
        self.n
    }

    fn init(&self, i: usize, input: u64) -> WaitLocal {
        let mut heard = vec![None; self.n];
        heard[i] = Some(input);
        WaitLocal {
            input,
            started: false,
            heard,
            decided: None,
        }
    }

    fn on_step(
        &self,
        i: usize,
        local: &WaitLocal,
        incoming: Option<(usize, &u64)>,
    ) -> (WaitLocal, Vec<(usize, u64)>) {
        let mut l = local.clone();
        let mut out = Vec::new();
        match incoming {
            None => {
                if !l.started {
                    l.started = true;
                    for j in 0..self.n {
                        if j != i {
                            out.push((j, l.input));
                        }
                    }
                }
            }
            Some((from, v)) => {
                l.heard[from] = Some(*v);
            }
        }
        if l.decided.is_none() && l.heard.iter().all(|h| h.is_some()) {
            l.decided = Some(l.heard.iter().flatten().min().copied().expect("nonempty"));
        }
        (l, out)
    }

    fn decision(&self, local: &WaitLocal) -> Option<u64> {
        local.decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_core::cert::verified_bad_state;

    #[test]
    fn arbiter_has_bivalent_initial_configurations() {
        // Mixed client inputs: the schedule (which claim reaches the
        // arbiter first) picks the outcome — FLP Lemma 2's structure.
        let arb = Arbiter::new(3);
        let sys = FlpSystem::all_binary(&arb);
        let agreement = never("agreement", |s| sys.disagrees(s));
        assert!(Search::new(&sys).max_states(500_000).check_property(&agreement).holds);
        let report = analyze(&arb, 500_000);
        assert!(
            !report.bivalent_initials.is_empty(),
            "mixed-input initials must be bivalent"
        );
        assert!(!report.univalent_initials.is_empty()); // unanimous ones
    }

    #[test]
    fn a_cut_leaves_initials_undecided_not_univalent() {
        // Uncut, each of the 8 initials reaches a decision: 4 bivalent
        // (mixed client inputs), 4 univalent.
        let whole = analyze(&Arbiter::new(3), 500_000);
        let sizes = |r: &ValenceReport<_>| {
            let buckets = [&r.bivalent_initials, &r.univalent_initials, &r.undecided_initials];
            buckets.map(Vec::len)
        };
        assert_eq!((sizes(&whole), whole.truncated), ([4, 4, 0], false));
        // Cut at 64 of its 416 configurations, two initials keep no decision
        // inside the graph: undecided, not univalent.
        let cut = analyze(&Arbiter::new(3), 64);
        assert_eq!((sizes(&cut), cut.truncated), ([4, 2, 2], true));
    }

    #[test]
    fn arbiter_has_critical_configuration_figure_3() {
        let report = analyze(&Arbiter::new(3), 500_000);
        assert!(
            !report.critical.is_empty(),
            "a configuration with both claims pending at the arbiter is \
             bivalent with all successors univalent"
        );
    }

    #[test]
    fn arbiter_has_a_decider_figure_2() {
        let arb = Arbiter::new(3);
        let sys = FlpSystem::all_binary(&arb);
        let decider = Search::new(&sys)
            .max_states(500_000)
            .find_decider()
            .expect("the arbiter is a decider");
        assert_eq!(decider.process, ProcessId(0));
    }

    #[test]
    fn arbiter_crash_yields_admissible_nondeciding_run() {
        let arb = Arbiter::new(3);
        let sys = FlpSystem::all_binary(&arb);
        let report = check_live_processes_decide(&sys, 0, 500_000, &mut NoopTracer);
        let Some(Counterexample::Lasso(lasso)) = report.counterexample else {
            panic!("killing the arbiter must stall the clients");
        };
        // The cycle is pure null steps of the live clients.
        assert!(lasso
            .cycle
            .iter()
            .all(|(a, _)| matches!(a, FlpAction::Null(p) if *p != 0)));
    }

    #[test]
    fn first_wins_breaks_agreement() {
        let fw = FirstWins::new(2);
        match check_candidate(&fw, 500_000) {
            FlpVerdict::AgreementViolation(run) => {
                let d: Vec<_> = run.last().locals.iter().map(|l| l.decided).collect();
                assert!(d.contains(&Some(0)) && d.contains(&Some(1)));
                // Replays through the system, through `cert::verify`.
                let sys = FlpSystem::all_binary(&fw);
                verified_bad_state(&sys, &|s| sys.disagrees(s), run);
            }
            other => panic!("expected agreement violation, got {other:?}"),
        }
    }

    /// Decides 1 on its start step, whatever its input.
    struct AlwaysOne;

    impl AsyncCandidate for AlwaysOne {
        type Local = Option<u64>;
        type M = ();

        fn n(&self) -> usize {
            2
        }

        fn init(&self, _i: usize, _input: u64) -> Option<u64> {
            None
        }

        fn on_step(
            &self,
            _i: usize,
            _local: &Option<u64>,
            _incoming: Option<(usize, &())>,
        ) -> (Option<u64>, Vec<(usize, ())>) {
            (Some(1), Vec::new())
        }

        fn decision(&self, local: &Option<u64>) -> Option<u64> {
            *local
        }
    }

    #[test]
    fn a_constant_decision_breaks_validity_with_a_replayable_run() {
        // Agreement holds (everyone decides 1), so the validity horn is
        // the one that fires, on the all-0 input.
        match check_candidate(&AlwaysOne, 500_000) {
            FlpVerdict::ValidityViolation { input, decided, run } => {
                assert_eq!((input, decided), (0, 1));
                assert_eq!(run.len(), 1, "the start step decides");
                let sys = FlpSystem::with_inputs(&AlwaysOne, vec![vec![0; 2]]);
                let decided_other = |s: &_| sys.decisions(s).iter().any(|&(_, d)| d != 0);
                verified_bad_state(&sys, &decided_other, run);
            }
            other => panic!("expected a validity violation, got {other:?}"),
        }
    }

    #[test]
    fn wait_for_all_stalls_on_one_crash() {
        match check_candidate(&WaitForAll::new(2), 500_000) {
            FlpVerdict::NonTerminating { lasso, .. } => {
                assert!(lasso.cycle.iter().all(|(a, _)| matches!(a, FlpAction::Null(_))));
            }
            other => panic!("expected non-termination, got {other:?}"),
        }
    }

    #[test]
    fn wait_for_all_n3_also_stalls() {
        match check_candidate(&WaitForAll::new(3), 800_000) {
            FlpVerdict::NonTerminating { .. } => {}
            other => panic!("expected non-termination, got {other:?}"),
        }
    }

    #[test]
    fn arbiter_is_caught_by_the_dilemma_too() {
        // Safe but not 1-resilient: the checker lands on the termination horn.
        match check_candidate(&Arbiter::new(3), 500_000) {
            FlpVerdict::NonTerminating { failed, .. } => assert_eq!(failed, 0),
            other => panic!("expected non-termination via arbiter crash, got {other:?}"),
        }
    }

    #[test]
    fn no_candidate_is_clean() {
        // The FLP theorem, empirically: every candidate fails some horn.
        assert!(!matches!(
            check_candidate(&FirstWins::new(3), 500_000),
            FlpVerdict::CleanWithinBounds
        ));
        assert!(!matches!(
            check_candidate(&WaitForAll::new(2), 500_000),
            FlpVerdict::CleanWithinBounds
        ));
        assert!(!matches!(
            check_candidate(&Arbiter::new(2), 500_000),
            FlpVerdict::CleanWithinBounds
        ));
    }
}
