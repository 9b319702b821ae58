//! Integration: the core proof engines applied across substrate crates.
//!
//! The survey's thesis is that a handful of techniques cover a hundred
//! results; these tests apply *one* engine to *several* domains each.

use impossible::consensus::eig::Eig;
use impossible::consensus::flp::{self, Arbiter, FirstWins, FlpSystem, WaitForAll};
use impossible::core::exec::Admissibility;
use impossible::core::scenario::{ScenarioRing, ScenarioVerdict};
use impossible::core::system::DecisionSystem;
use impossible::core::task::Task;
use impossible::explore::property::never;
use impossible::explore::Search;
use impossible::registers::herlihy::{
    CasConsensus, ObjectSystem, QueueConsensus2, RegisterMin2, RegisterWait2, TasConsensus2,
    TasConsensus3,
};

/// Agreement as a safety check: no reachable configuration of `sys` holds
/// two decided values.
fn agrees<Sys: DecisionSystem>(sys: &Sys, max_states: usize) -> bool {
    let agreement = never("agreement", |s| sys.disagrees(s));
    Search::new(sys).max_states(max_states).check_property(&agreement).holds
}

#[test]
fn valence_engine_spans_message_passing_and_shared_objects() {
    // One engine, two worlds: the FLP message system and the Herlihy
    // object system both expose bivalent initial configurations to the
    // same analyzer (the Loui–Abu-Amara transfer), and both agree.
    let arb = Arbiter::new(3);
    let msg_sys = FlpSystem::all_binary(&arb);
    let msg_report = Search::new(&msg_sys).max_states(500_000).valence();
    assert!(!msg_report.bivalent_initials.is_empty());
    assert!(agrees(&msg_sys, 500_000));

    let obj_sys = ObjectSystem::all_binary(&TasConsensus2);
    let obj_report = Search::new(&obj_sys).max_states(500_000).valence();
    assert!(!obj_report.bivalent_initials.is_empty());
    assert!(agrees(&obj_sys, 500_000));
}

/// Every edge of `sys`'s reachable graph keeps the source's decisions:
/// the irrevocability the valence classification assumes.
fn decisions_are_irrevocable<Sys: DecisionSystem>(sys: &Sys, max_states: usize) -> bool {
    let g = Search::new(sys).max_states(max_states).shape();
    let kept = g.succ.iter().enumerate().all(|(i, row)| {
        let before = sys.decisions(&g.order[i]);
        row.iter().all(|&((), t)| {
            let after = sys.decisions(&g.order[t as usize]);
            before.iter().all(|d| after.contains(d))
        })
    });
    kept
}

#[test]
fn decisions_are_irrevocable_on_every_edge() {
    // The FLP candidates of F2 and the Herlihy protocols of E12, at the
    // caps those experiments use.
    assert!(decisions_are_irrevocable(&FlpSystem::all_binary(&FirstWins::new(2)), 500_000));
    assert!(decisions_are_irrevocable(&FlpSystem::all_binary(&WaitForAll::new(2)), 500_000));
    assert!(decisions_are_irrevocable(&FlpSystem::all_binary(&Arbiter::new(3)), 500_000));
    assert!(decisions_are_irrevocable(&ObjectSystem::all_binary(&RegisterMin2), 500_000));
    assert!(decisions_are_irrevocable(&ObjectSystem::all_binary(&RegisterWait2), 500_000));
    assert!(decisions_are_irrevocable(&ObjectSystem::all_binary(&TasConsensus2), 500_000));
    assert!(decisions_are_irrevocable(&ObjectSystem::all_binary(&TasConsensus3), 2_000_000));
    assert!(decisions_are_irrevocable(&ObjectSystem::all_binary(&QueueConsensus2), 500_000));
    assert!(decisions_are_irrevocable(&ObjectSystem::all_binary(&CasConsensus::new(3)), 500_000));
    assert!(decisions_are_irrevocable(
        &ObjectSystem::all_binary(&CasConsensus::new(4)),
        2_000_000
    ));
}

#[test]
fn scenario_engine_refutes_eig_at_every_multiple_of_3t() {
    for t in 1..=2usize {
        let candidate = Eig::new(3 * t, t);
        let verdict = ScenarioRing::classic(&candidate, t).check();
        assert!(
            verdict.is_contradiction(),
            "n = 3t = {} must contradict",
            3 * t
        );
    }
}

#[test]
fn scenario_contradiction_carries_consistent_ring_data() {
    if let ScenarioVerdict::Contradiction(c) = ScenarioRing::classic(&Eig::new(3, 1), 1).check() {
        assert_eq!(c.nodes.len(), 6);
        assert_eq!(c.decisions.len(), 6);
        // Copy 0 nodes carry input 0; copy 1 carries input 1 (Figure 1).
        for node in &c.nodes {
            assert_eq!(node.input, node.copy as u64);
        }
    } else {
        panic!("must contradict");
    }
}

#[test]
fn task_criterion_agrees_with_the_operational_engines() {
    // Consensus satisfies the Moran–Wolfstahl 1-fault-impossibility
    // condition, and indeed the operational FLP checker kills every
    // candidate: the declarative and operational layers agree.
    assert!(Task::consensus(2).moran_wolfstahl().is_some());
    let verdict = flp::check_candidate(&flp::WaitForAll::new(2), 300_000);
    assert!(!matches!(verdict, flp::FlpVerdict::CleanWithinBounds));
}

#[test]
fn refuters_return_the_horn_their_argument_found() {
    use impossible::consensus::round_lb::{refute_one_round, MinRule, RoundHorn};
    use impossible::consensus::scenario3t::refute_3t;
    use impossible::core::scenario::Obligation;
    use impossible::core::symmetry::SymmetryVerdict;
    use impossible::datalink::stealing::refute_bounded_header;
    use impossible::datalink::two_generals::{refute, AttackHorn, Threshold};
    use impossible::election::anonymous::{refute_deterministic, HashChain};
    use impossible::registers::constructions::inversion_without_reader_writes;
    use impossible::registers::spec::check_linearizable;
    use std::collections::BTreeSet;

    // Scenario: copy 1's window of input-1 nodes decides 0.
    let c = refute_3t(&Eig::new(3, 1), 1).expect("n = 3t contradicts");
    let Obligation::Validity { window, value: 1 } = &c.obligation else {
        panic!("{:?}", c.obligation);
    };
    assert!(window
        .iter()
        .all(|&i| c.nodes[i].input == 1 && c.decisions[i] == Some(0)));

    // Chain (t + 1 rounds): some execution's live processes disagree.
    let (horn, chain) = refute_one_round(&MinRule, 4);
    let RoundHorn::Disagreement(k) = horn else {
        panic!("{horn:?}")
    };
    let decided: BTreeSet<_> = chain.executions()[k].decisions.iter().flatten().collect();
    assert_eq!(decided.len(), 2);

    // Chain (Two Generals): the attack is carried to e_0, which heard nothing.
    let (horn, chain) = refute(&Threshold(0), 3);
    let AttackHorn::AttackOnNothing(cert) = horn else {
        panic!("{horn:?}")
    };
    assert_eq!((cert.tail_value, cert.links), (1, 6));
    assert_eq!(chain.executions()[6].received, [0, 0]);

    // Message stealing: message 0's payload is delivered a second time.
    let (before, after) = refute_bounded_header(4);
    assert_eq!(after, [&before[..], &before[..1]].concat());

    // Symmetry: all five claim at once, or none does.
    let verdict = refute_deterministic(&HashChain, 5, 100);
    let SymmetryVerdict::SymmetricForever {
        period: 1, leaders, ..
    } = verdict
    else {
        panic!("{verdict:?}");
    };
    assert!(leaders == 0 || leaders == 5);

    // Lamport's inversion: the linearizability checker rejects the history.
    assert!(check_linearizable(&inversion_without_reader_writes()).is_none());
}

#[test]
fn wait_free_admissibility_is_weaker_than_resilient() {
    // Wait-free lassos need only some process stepping; 1-resilient lassos
    // need everyone-but-one. So wait-free non-deciding runs are easier to
    // find — the simplification Herlihy's proofs exploit.
    let wf = Admissibility::wait_free(3);
    let res = Admissibility::resilient(1);
    assert!(wf.max_failures > res.max_failures);
    assert!(!wf.weak_fairness && res.weak_fairness);
}

#[test]
fn flp_nontermination_cycle_replays_in_the_compiled_system() {
    use impossible::consensus::flp::{AsyncCandidate, FlpAction, FlpVerdict};
    use impossible::core::cert::{verify, Counterexample, Goal, Spec};
    use impossible::core::ids::ProcessId;
    use impossible::core::system::System;
    let arb = Arbiter::new(3);
    let sys = FlpSystem::all_binary(&arb);
    let FlpVerdict::NonTerminating { failed, lasso } = flp::check_candidate(&arb, 500_000) else {
        panic!("arbiter crash stalls");
    };
    assert_eq!(failed, 0, "the arbiter is the process whose crash stalls everyone");
    // The claim restated here, independently of the engine, and checked
    // against the compiled system: with the arbiter crashed, a run on
    // which both clients keep stepping, nothing owed to a client stays
    // pending forever, and the clients never both decide.
    let alive = |a: &FlpAction| sys.owner(a) != Some(ProcessId(0));
    let owed = |s: &<FlpSystem<'_, Arbiter> as System>::State| {
        s.pending.iter().all(|&(_, to, _)| to == 0)
    };
    let class = |a: &FlpAction| sys.owner(a).and_then(|p| p.index().checked_sub(1));
    let decided = |s: &<FlpSystem<'_, Arbiter> as System>::State| {
        s.locals[1..].iter().all(|l| arb.decision(l).is_some())
    };
    let spec = Spec {
        allowed: Some(&alive),
        admissible: Some(&owed),
        fairness: Some((2, &class)),
        ..Spec::new(Goal::Eventually(&decided))
    };
    // No client decides anywhere around the loop.
    for (_, s) in &lasso.cycle {
        assert!(s.locals[1..].iter().all(|l| arb.decision(l).is_none()));
    }
    assert_eq!(verify(&sys, &spec, &Counterexample::Lasso(lasso)), Ok(()));
}
