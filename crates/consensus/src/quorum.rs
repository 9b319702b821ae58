//! Quorum-vote consensus (PBFT-flavoured) and its mechanized FLP lasso.
//!
//! Each process broadcasts a `Vote` carrying its input, decides once it
//! holds a **majority quorum** (`⌊n/2⌋ + 1`) of matching votes, and then
//! broadcasts a `Commit` certificate that lets late processes adopt the
//! decision without their own quorum. Quorum intersection gives agreement
//! for free — two quorums share a voter, and a voter votes its input
//! exactly once — and every decided value is some process's input, so
//! validity holds too. What a quorum protocol *cannot* buy is
//! 1-resilient termination: that is FLP \[55\]. Crash one voter and a
//! mixed-input instance leaves the survivors holding split votes forever
//! short of quorum, spinning on null steps in an admissible non-deciding
//! execution.
//!
//! This module is the `explore::property` layer's consensus workload:
//! [`exhibit_flp_lasso`] builds the crash-filtered reachable graph and
//! checks `eventually(every live process decides)` under FLP
//! admissibility (no message to a live process pending around the loop)
//! and per-live-process fairness — the violating **lasso** it returns is
//! the non-deciding run, mechanically derived rather than hand-built
//! (experiment E22; see `EXPERIMENTS.md` and `docs/PROPERTIES.md`).
//!
//! # Example: one safety check and one liveness check
//!
//! ```
//! use impossible_consensus::flp::FlpSystem;
//! use impossible_consensus::quorum::{exhibit_flp_lasso, QuorumVote};
//! use impossible_core::system::DecisionSystem;
//! use impossible_explore::property::{never, Counterexample};
//! use impossible_explore::Search;
//!
//! // Safety: no two processes ever decide differently (quorum
//! // intersection), over every binary input vector.
//! let q = QuorumVote::new(2);
//! let sys = FlpSystem::all_binary(&q);
//! let agreement = never("agreement", |s| sys.disagrees(s));
//! let safe = Search::new(&sys).max_states(100_000).check_property(&agreement);
//! assert!(safe.holds && !safe.truncated);
//!
//! // Liveness: crash one voter and the survivor can never assemble a
//! // quorum — the checker exhibits the non-deciding lasso mechanically.
//! let report = exhibit_flp_lasso(2, 0, 100_000);
//! assert!(!report.holds);
//! assert!(matches!(report.counterexample, Some(Counterexample::Lasso(_))));
//! ```

use crate::flp::{check_live_processes_decide, AsyncCandidate, FlpAction, FlpState, FlpSystem};
use impossible_explore::property::PropertyReport;
use impossible_obs::{NoopTracer, Tracer};
use std::collections::BTreeMap;

/// The quorum-vote protocol on `n` processes: broadcast your vote, decide
/// on a majority of matching votes, certify with a `Commit` broadcast.
#[derive(Debug, Clone)]
pub struct QuorumVote {
    n: usize,
}

impl QuorumVote {
    /// A quorum-vote instance on `n ≥ 2` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        QuorumVote { n }
    }

    /// The decision threshold: a strict majority, `⌊n/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }
}

/// Local state for [`QuorumVote`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuorumLocal {
    input: u64,
    started: bool,
    /// Votes recorded so far, indexed by voter (own vote at `init`).
    votes: Vec<Option<u64>>,
    decided: Option<u64>,
}

/// Messages for [`QuorumVote`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QuorumMsg {
    /// A process's one vote: its input.
    Vote(u64),
    /// A decision certificate: the sender held a quorum for this value.
    Commit(u64),
}

impossible_explore::impl_encode_struct!(QuorumLocal { input, started, votes, decided });

impossible_explore::impl_encode_enum!(QuorumMsg {
    0: Vote(v),
    1: Commit(v),
});

impl QuorumVote {
    /// Decide if some value holds a quorum of the recorded votes; returns
    /// the `Commit` broadcast when `i` newly decides.
    fn try_decide(&self, i: usize, l: &mut QuorumLocal) -> Vec<(usize, QuorumMsg)> {
        if l.decided.is_some() {
            return Vec::new();
        }
        // Deterministic scan: smallest value with a quorum wins (a
        // majority quorum admits at most one value anyway).
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for v in l.votes.iter().flatten() {
            *counts.entry(*v).or_insert(0) += 1;
        }
        for (v, c) in counts {
            if c >= self.quorum() {
                l.decided = Some(v);
                return (0..self.n)
                    .filter(|&j| j != i)
                    .map(|j| (j, QuorumMsg::Commit(v)))
                    .collect();
            }
        }
        Vec::new()
    }
}

impl AsyncCandidate for QuorumVote {
    type Local = QuorumLocal;
    type M = QuorumMsg;

    fn n(&self) -> usize {
        self.n
    }

    fn init(&self, i: usize, input: u64) -> QuorumLocal {
        let mut votes = vec![None; self.n];
        votes[i] = Some(input);
        QuorumLocal {
            input,
            started: false,
            votes,
            decided: None,
        }
    }

    fn on_step(
        &self,
        i: usize,
        local: &QuorumLocal,
        incoming: Option<(usize, &QuorumMsg)>,
    ) -> (QuorumLocal, Vec<(usize, QuorumMsg)>) {
        let mut l = local.clone();
        let mut out = Vec::new();
        match incoming {
            None => {
                if !l.started {
                    l.started = true;
                    for j in 0..self.n {
                        if j != i {
                            out.push((j, QuorumMsg::Vote(l.input)));
                        }
                    }
                }
            }
            Some((from, QuorumMsg::Vote(v))) => {
                l.votes[from] = Some(*v);
                out.extend(self.try_decide(i, &mut l));
            }
            Some((_, QuorumMsg::Commit(v))) => {
                if l.decided.is_none() {
                    l.decided = Some(*v);
                }
            }
        }
        (l, out)
    }

    fn decision(&self, local: &QuorumLocal) -> Option<u64> {
        local.decided
    }
}

/// Canonicalization hook for [`QuorumVote`] over **binary inputs**
/// ([`FlpSystem::all_binary`]): flipping the value bit `0 ↔ 1` everywhere
/// it appears — inputs, recorded votes, decisions, and `Vote`/`Commit`
/// payloads in flight — is a system automorphism. The protocol is
/// value-oblivious: `try_decide` compares counts against the quorum
/// threshold (at most one value can reach a majority), and `Commit`
/// adoption copies whatever value arrives, so flipping commutes with every
/// step; the all-binary initial set is flip-closed. The hook canonicalises
/// in place ([`impossible_explore::Search::canon_in_place`]): it flips a
/// copy of the state, re-sorts the copy's pending (to keep the multiset
/// representation canonical), and swaps the copy in when it is the
/// `Ord`-smaller of the two, returning whether it did — idempotent because
/// flipping is an involution, and one clone per call. No reachable state
/// is flip-fixed
/// (`locals[0].input` always flips), so every orbit has size exactly two
/// and the quotient halves the explored space.
// LINT-ALLOW: dead-pub -- FLP [55]: the non-termination lasso survives the 0/1 flip quotient; tests quotient_preserves_agreement_and_the_flp_stall, value_swap_canon_halves_the_binary_input_space
pub fn value_swap_canon(s: &mut FlpState<QuorumLocal, QuorumMsg>) -> bool {
    let flip = |v: u64| v ^ 1;
    let mut t = s.clone();
    for l in &mut t.locals {
        l.input = flip(l.input);
        for v in l.votes.iter_mut().flatten() {
            *v = flip(*v);
        }
        if let Some(d) = &mut l.decided {
            *d = flip(*d);
        }
    }
    for (_, _, m) in &mut t.pending {
        match m {
            QuorumMsg::Vote(v) | QuorumMsg::Commit(v) => *v = flip(*v),
        }
    }
    t.pending.sort();
    let moved = t < *s;
    if moved {
        *s = t;
    }
    moved
}

/// Mechanically exhibit the quorum protocol's FLP lasso: crash `failed`,
/// drop its actions from the reachable graph (over every binary input
/// vector), and check `eventually(every live process decides)` under FLP
/// admissibility and per-live-process fairness (`flp`'s crash-liveness
/// check, the one `flp::check_candidate` runs). The report's
/// counterexample is the admissible non-deciding run, verified against the
/// compiled system: a stem into a mixed-vote configuration plus a cycle of
/// live null steps the adversary repeats forever.
pub fn exhibit_flp_lasso(
    n: usize,
    failed: usize,
    max_states: usize,
) -> PropertyReport<FlpState<QuorumLocal, QuorumMsg>, FlpAction> {
    exhibit_flp_lasso_traced(n, failed, max_states, &mut NoopTracer)
}

/// [`exhibit_flp_lasso`] with `scope: "property"` trace events (the
/// `trace` binary's `property` target dumps exactly this).
pub fn exhibit_flp_lasso_traced(
    n: usize,
    failed: usize,
    max_states: usize,
    tracer: &mut dyn Tracer,
) -> PropertyReport<FlpState<QuorumLocal, QuorumMsg>, FlpAction> {
    let cand = QuorumVote::new(n);
    impossible_obs::trace_event!(tracer, "property", "workload",
        "protocol": "quorum-vote",
        "n": n,
        "quorum": cand.quorum(),
        "failed": failed);
    check_live_processes_decide(&FlpSystem::all_binary(&cand), failed, max_states, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flp::{check_candidate, FlpVerdict};
    use impossible_core::cert::{verify, Goal, Spec};
    use impossible_core::ids::ProcessId;
    use impossible_core::system::{DecisionSystem, System};
    use impossible_explore::property::{eventually, never, Checker, Counterexample};
    use impossible_explore::Search;
    use impossible_obs::RingTracer;

    const CAP: usize = 400_000;

    #[test]
    fn quorum_is_agreement_safe() {
        // Safety through the property layer: no reachable configuration
        // holds two different decisions, over all binary inputs.
        let q = QuorumVote::new(3);
        let sys = FlpSystem::all_binary(&q);
        let agreement = never("agreement", |s| sys.disagrees(s));
        let r = Search::new(&sys).max_states(CAP).check_property(&agreement);
        assert!(r.holds, "quorum intersection forbids split decisions");
        assert!(!r.truncated, "the n=3 space must fit the cap");
    }

    #[test]
    fn quorum_is_valid_on_unanimous_inputs() {
        let q = QuorumVote::new(3);
        for v in [0u64, 1] {
            let sys = FlpSystem::with_inputs(&q, vec![vec![v; 3]]);
            let qr = &q;
            let r = Search::new(&sys).max_states(CAP).check_property(&never(
                "decides-non-input",
                move |s: &FlpState<QuorumLocal, QuorumMsg>| {
                    s.locals.iter().any(|l| qr.decision(l).is_some_and(|d| d != v))
                },
            ));
            assert!(r.holds, "a quorum only certifies a voted input");
        }
    }

    #[test]
    fn crashing_one_voter_stalls_mixed_inputs() {
        let r = exhibit_flp_lasso(3, 0, CAP);
        assert!(!r.holds, "a crashed voter leaves mixed instances undecided");
        assert!(!r.truncated);
        // The claim restated here, independently of the engine: with voter
        // 0 crashed, a fair admissible run on which the live voters never
        // both decide.
        let q = QuorumVote::new(3);
        let sys = FlpSystem::all_binary(&q);
        let alive = |a: &FlpAction| sys.owner(a) != Some(ProcessId(0));
        let owed = |s: &FlpState<QuorumLocal, QuorumMsg>| s.pending.iter().all(|m| m.1 == 0);
        let class = |a: &FlpAction| sys.owner(a).and_then(|p| p.index().checked_sub(1));
        let decided = |s: &FlpState<QuorumLocal, QuorumMsg>| {
            s.locals[1..].iter().all(|l| q.decision(l).is_some())
        };
        let spec = Spec {
            allowed: Some(&alive),
            admissible: Some(&owed),
            fairness: Some((2, &class)),
            ..Spec::new(Goal::Eventually(&decided))
        };
        let ce = r.counterexample.expect("violated");
        assert_eq!(verify(&sys, &spec, &ce), Ok(()));
        match ce {
            Counterexample::Lasso(l) => {
                assert!(!l.cycle.is_empty());
                // The cycle is live null steps: every message to a live
                // process was already delivered, yet no quorum exists.
                assert!(l
                    .cycle
                    .iter()
                    .all(|(a, _)| matches!(a, FlpAction::Null(p) if *p != 0)));
                // The head really is stuck: both live processes undecided
                // with split votes.
                let head = l.stem.last();
                assert!(head.locals[1..].iter().all(|loc| q.decision(loc).is_none()));
            }
            other => panic!("expected lasso, got {other:?}"),
        }
    }

    #[test]
    fn value_swap_canon_halves_the_binary_input_space() {
        // Every reachable state's orbit under the 0 ↔ 1 flip has size
        // exactly two (the input bit of process 0 always flips), so the
        // quotient is exactly half the resident space.
        let q = QuorumVote::new(2);
        let sys = FlpSystem::all_binary(&q);
        let resident = Search::new(&sys).max_states(CAP).explore();
        let quotient = Search::new(&sys)
            .max_states(CAP)
            .canon_in_place(value_swap_canon)
            .explore();
        assert!(!resident.truncated() && !quotient.truncated());
        assert_eq!(2 * quotient.num_states, resident.num_states);
        assert!(quotient.stats.canon_hits > 0);

        // Every terminal representative is a fixed point.
        for s in &quotient.terminal_states {
            let mut again = s.clone();
            assert!(!value_swap_canon(&mut again));
            assert_eq!(again, *s);
        }
    }

    #[test]
    fn value_swap_canon_passes_the_audit_on_every_reachable_state() {
        use impossible_explore::canon::{audit, Canon};
        let q = QuorumVote::new(3);
        let sys = FlpSystem::all_binary(&q);
        let states = Search::new(&sys).max_states(CAP).reachable_states();
        let agree = |s: &FlpState<QuorumLocal, QuorumMsg>| {
            let d: Vec<u64> = s.locals.iter().filter_map(|l| q.decision(l)).collect();
            d.windows(2).all(|w| w[0] == w[1])
        };
        let all_decided = |s: &FlpState<QuorumLocal, QuorumMsg>| {
            s.locals.iter().all(|l| q.decision(l).is_some())
        };
        let preds: [(&str, &dyn Fn(&FlpState<QuorumLocal, QuorumMsg>) -> bool); 2] =
            [("agreement", &agree), ("all-decided", &all_decided)];
        assert_eq!(audit(&sys, Canon::InPlace(value_swap_canon), &states, &preds), Ok(()));
    }

    #[test]
    fn quotient_preserves_agreement_and_the_flp_stall() {
        // Safety survives the quotient: the flip maps split decisions to
        // split decisions, so checking representatives suffices.
        let q = QuorumVote::new(3);
        let sys = FlpSystem::all_binary(&q);
        let agreement = never("agreement", |s| sys.disagrees(s));
        let safe = Search::new(&sys)
            .max_states(CAP)
            .canon_in_place(value_swap_canon)
            .check_property(&agreement);
        assert!(safe.holds && !safe.truncated);

        // Liveness violation survives too: the crash-filtered quotient
        // graph still contains an admissible fair non-deciding lasso.
        let g = Search::new(&sys)
            .max_states(CAP)
            .canon_in_place(value_swap_canon)
            .graph_filtered(|a| sys.owner(a) != Some(ProcessId(0)));
        let live = [1usize, 2];
        let prop = eventually(
            "live-processes-decide",
            |s: &FlpState<QuorumLocal, QuorumMsg>| {
                live.iter().all(|&p| q.decision(&s.locals[p]).is_some())
            },
        );
        let r = Checker::new(&g)
            .admissible(|s: &FlpState<QuorumLocal, QuorumMsg>| {
                s.pending.iter().all(|(_, to, _)| *to == 0)
            })
            .fairness(2, |a: &FlpAction| {
                sys.owner(a).and_then(|p| live.iter().position(|&x| x == p.index()))
            })
            .check(&prop);
        assert!(!r.holds, "the FLP stall is value-symmetric");
        assert!(matches!(r.counterexample, Some(Counterexample::Lasso(_))));
    }

    #[test]
    fn lasso_is_invariant_across_seeds() {
        // The whole pipeline — graph build, SCC pass, stem and cycle — is
        // a pure function of the system; the fingerprint seed must not
        // change a byte of the report.
        let baseline = exhibit_flp_lasso(3, 0, CAP).to_json();
        for seed in [7u64, 99] {
            let cand = QuorumVote::new(3);
            let sys = FlpSystem::all_binary(&cand);
            let g = Search::new(&sys)
                .max_states(CAP)
                .seed(seed)
                .graph_filtered(|a| sys.owner(a) != Some(ProcessId(0)));
            let live = [1usize, 2];
            let prop = eventually(
                "live-processes-decide",
                |s: &FlpState<QuorumLocal, QuorumMsg>| {
                    live.iter().all(|&p| cand.decision(&s.locals[p]).is_some())
                },
            );
            let r = Checker::new(&g)
                .admissible(|s: &FlpState<QuorumLocal, QuorumMsg>| {
                    s.pending.iter().all(|(_, to, _)| *to == 0)
                })
                .fairness(2, |a: &FlpAction| {
                    sys.owner(a).and_then(|p| live.iter().position(|&q| q == p.index()))
                })
                .check(&prop);
            assert_eq!(r.to_json(), baseline, "seed={seed} changed the report");
        }
    }

    #[test]
    fn check_candidate_lands_on_the_termination_horn() {
        match check_candidate(&QuorumVote::new(3), 800_000) {
            FlpVerdict::NonTerminating { failed, lasso } => {
                assert!(lasso
                    .cycle
                    .iter()
                    .all(|(a, _)| matches!(a, FlpAction::Null(p) if *p != failed)));
            }
            other => panic!("expected non-termination, got {other:?}"),
        }
    }

    #[test]
    fn traced_exhibit_emits_the_property_vocabulary() {
        let mut tracer = RingTracer::new(64);
        let r = exhibit_flp_lasso_traced(3, 0, CAP, &mut tracer);
        assert!(!r.holds);
        let kinds: Vec<&str> = tracer.events().iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["workload", "check.start", "scc", "verdict"]);
        assert!(tracer.events().iter().all(|e| e.scope == "property"));
        // The untraced twin returns the identical report.
        assert_eq!(r.to_json(), exhibit_flp_lasso(3, 0, CAP).to_json());
    }
}
