//! Cross-engine equivalence: the new search subsystem
//! (`impossible_explore::Search`) against the legacy reference explorer
//! (`impossible::core::explore::Explorer`), on one real system from every
//! model crate.
//!
//! Discovery *order* legitimately differs (the legacy engine pops a global
//! FIFO; the new one merges fingerprint partitions level by level), so the
//! suite pins the order-independent facts the engines must agree on:
//! state count, transition count, the terminal set (sorted), the truncation
//! verdict, and — for predicate searches — the *length* of the shortest
//! witness.

use impossible::core::explore::Explorer;
use impossible::core::system::System;
use impossible::explore::{BatchScratch, Encode, Fingerprint, Search, DEFAULT_SEED};
use std::collections::BTreeSet;

/// Explore `sys` with both engines and pin the order-independent facts.
fn assert_full_equivalence<Sys>(sys: &Sys, max_states: usize)
where
    Sys: System,
    Sys::State: Encode,
{
    let legacy = Explorer::new(sys).max_states(max_states).explore();
    let new = Search::new(sys).max_states(max_states).explore();
    assert_eq!(new.num_states, legacy.num_states);
    assert_eq!(new.num_transitions, legacy.num_transitions);
    assert_eq!(new.truncated(), legacy.truncated);
    let mut lt = legacy.terminal_states.clone();
    let mut nt = new.terminal_states.clone();
    lt.sort();
    nt.sort();
    assert_eq!(nt, lt, "terminal sets differ");
    // Every engine fingerprints through `BatchScratch`: on this model's
    // real states it must equal the scalar reference item for item, and
    // distinct states must get distinct fingerprints.
    let states = Search::new(sys).max_states(max_states).graph().order;
    for seed in [DEFAULT_SEED, 7] {
        let scalar: Vec<u64> = states.iter().map(|s| s.fingerprint(seed)).collect();
        let mut batch = BatchScratch::new(seed);
        assert_eq!(batch.fingerprints(states.iter()), &scalar[..], "seed={seed}");
        let distinct: BTreeSet<u64> = scalar.into_iter().collect();
        assert_eq!(distinct.len(), states.len(), "collision under seed={seed}");
    }
}

/// Search both engines for `pred`; shortest-witness lengths must agree.
fn assert_search_equivalence<Sys, F>(sys: &Sys, max_states: usize, pred: F)
where
    Sys: System,
    Sys::State: Encode,
    F: Fn(&Sys::State) -> bool + Copy,
{
    let legacy = Explorer::new(sys).max_states(max_states).search(pred);
    let new = Search::new(sys).max_states(max_states).search(pred);
    assert_eq!(
        new.witness.as_ref().map(|w| w.len()),
        legacy.witness.as_ref().map(|w| w.len()),
        "shortest-witness length differs"
    );
}

#[test]
fn sharedmem_tas_lock_agrees() {
    use impossible::sharedmem::algorithms::tas_lock::TasLock;
    use impossible::sharedmem::mutex::MutexSystem;
    let alg = TasLock::new(2);
    let sys = MutexSystem::new(&alg);
    assert_full_equivalence(&sys, 100_000);
    assert_search_equivalence(&sys, 100_000, |s| {
        s.locals
            .iter()
            .filter(|l| format!("{l:?}").contains("Crit"))
            .count()
            >= 1
    });
}

#[test]
fn msgpass_flood_agrees() {
    use impossible::msgpass::flood::FloodSystem;
    use impossible::msgpass::topology::Topology;
    let sys = FloodSystem::new(Topology::mesh(2, 3), 0);
    assert_full_equivalence(&sys, 100_000);
    assert_search_equivalence(&sys, 100_000, |s| s.iter().all(|&b| b));
}

#[test]
fn consensus_flp_arbiter_agrees() {
    use impossible::consensus::flp::{Arbiter, FlpSystem};
    let candidate = Arbiter::new(2);
    let sys = FlpSystem::all_binary(&candidate);
    assert_full_equivalence(&sys, 200_000);
    assert_search_equivalence(&sys, 200_000, |s| {
        s.locals.iter().all(|l| format!("{l:?}").contains("Some"))
    });
}

#[test]
fn election_token_ring_agrees() {
    use impossible::election::ring_search::TokenRing;
    let sys = TokenRing { n: 5 };
    assert_full_equivalence(&sys, 100_000);
    assert_search_equivalence(&sys, 100_000, |s| {
        s.iter().filter(|&&b| b == 1).count() == 1
    });
}

#[test]
fn datalink_abp_agrees() {
    use impossible::datalink::abp_search::AbpSearchSystem;
    let sys = AbpSearchSystem::new(2, 2);
    assert_full_equivalence(&sys, 200_000);
    assert_search_equivalence(&sys, 200_000, |s| s.delivered == 2);
}

#[test]
fn truncated_explorations_agree_on_the_cap() {
    // Both engines land exactly on the cap and say so.
    use impossible::election::ring_search::TokenRing;
    let sys = TokenRing { n: 6 };
    let legacy = Explorer::new(&sys).max_states(40).explore();
    let new = Search::new(&sys).max_states(40).explore();
    assert!(legacy.truncated && new.truncated());
    assert_eq!(legacy.num_states, 40);
    assert_eq!(new.num_states, 40);
}
