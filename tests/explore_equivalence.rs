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
//!
//! The same walk pins the *encodings*: every state type that implements
//! `Encode` through `impl_encode_enum!` / `impl_encode_struct!` is reached
//! by one of the systems below (the table is in `CHANGES.md`, PR 18), and
//! the `DEFAULT_SEED` fingerprints of `graph().order` — sequential BFS
//! discovery order, which does not depend on fingerprints — are folded into
//! one checksum per system. A change to either macro's expansion, or to a
//! listing's field order, that moves a single word of a single state's
//! encoding fails here without a parent build to diff against. The pinned
//! values were computed at the commit before the macros were rewritten.
//!
//! Last, the `System::step_into` and `System::enabled_into` contracts: every
//! model that overrides them is checked against its own `step` / `enabled`
//! over its reachable space, from junk of every shape and length
//! ([`assert_step_into_agrees`], [`assert_enabled_into_agrees`]), and every
//! search route is checked to return the same bytes whether or not the model
//! reuses storage ([`NoReuse`], [`assert_reuse_is_invisible`]) — and, on
//! the rotation quotient, whether the canon hook is installed in place or
//! owned ([`owned_and_in_place_hooks_agree_on_every_route`]).

use impossible::core::explore::Explorer;
use impossible::core::ids::ProcessId;
use impossible::core::symmetry::Canon;
use impossible::core::system::System;
use impossible::explore::property::eventually;
use impossible::explore::{
    BatchScratch, Encode, Fingerprint, FpHasher, PauseBudget, Persist, ReachableGraph, Resumable,
    Search, SearchCheckpoint, SearchReport, SpillPolicy, Succ, Truncation, DEFAULT_SEED,
};
use impossible::obs::RingTracer;
use std::collections::BTreeSet;

/// Pin `sys`'s encodings: batch == scalar fingerprints on the first
/// `max_states` states in BFS order, no two states share one under either
/// seed, and their `DEFAULT_SEED` fingerprints fold to `pinned`. The
/// distinctness sweep is the collision policy's check on real state types
/// (`docs/EXPLORE.md`, "Fingerprint dedup and the collision policy"): the
/// exact graph builder produced `states`, so a repeat among their
/// fingerprints is a genuine collision, not a dedup.
fn assert_encoding_pinned<Sys>(sys: &Sys, max_states: usize, pinned: u64)
where
    Sys: System,
    Sys::State: Encode,
{
    // Every engine fingerprints through `BatchScratch`: on this model's
    // real states it must equal the scalar reference item for item, and
    // distinct states must get distinct fingerprints.
    let states = graph_ignoring_the_seed(sys, max_states);
    for seed in [DEFAULT_SEED, 7] {
        let scalar: Vec<u64> = states.iter().map(|s| s.fingerprint(seed)).collect();
        let mut batch = BatchScratch::new(seed);
        assert_eq!(batch.fingerprints(states.iter()), &scalar[..], "seed={seed}");
        if seed == DEFAULT_SEED {
            let mut sum = FpHasher::new(0);
            scalar.iter().for_each(|&fp| sum.write_u64(fp));
            let sum = sum.finish();
            let n = states.len();
            assert_eq!(sum, pinned, "encoding moved: {n} states fold to {sum:#018x}");
        }
        let distinct: BTreeSet<u64> = scalar.into_iter().collect();
        assert_eq!(distinct.len(), states.len(), "collision under seed={seed}");
    }
}

/// Build `sys`'s exact graph under `DEFAULT_SEED` and under 7, uncapped and
/// capped at half its states, and return the uncapped `DEFAULT_SEED` build's
/// states. The seed keys only the builder's intern index, on which no output
/// may depend (`docs/EXPLORE.md`, "Fingerprint dedup and the collision
/// policy"): each pair must agree on `order`, the rows' `{:?}`, `initials`
/// and `truncated_by`, so the capped pair is cut at the same index.
fn graph_ignoring_the_seed<Sys: System>(sys: &Sys, max_states: usize) -> Vec<Sys::State> {
    let build = |cap: usize, seed: u64| Search::new(sys).max_states(cap).seed(seed).graph();
    let full = build(max_states, DEFAULT_SEED);
    let cut = full.len() / 2;
    for (g, cap) in [(&full, max_states), (&build(cut, DEFAULT_SEED), cut)] {
        let h = build(cap, 7);
        assert_eq!(h.order, g.order, "order moved with the seed (cap {cap})");
        let rows = |g: &ReachableGraph<_, _>| format!("{:?}", g.succ);
        assert_eq!(rows(&h), rows(g), "rows moved with the seed (cap {cap})");
        assert_eq!((h.initials, h.truncated_by), (g.initials, g.truncated_by), "cap {cap}");
    }
    full.order
}

/// Explore `sys` with both engines and pin the order-independent facts,
/// then the encodings ([`assert_encoding_pinned`]).
fn assert_full_equivalence<Sys>(sys: &Sys, max_states: usize, pinned: u64)
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
    assert_encoding_pinned(sys, max_states, pinned);
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

/// [`assert_full_equivalence`] on `alg`'s (bounded) `MutexSystem`.
fn assert_mutex_equivalence<A>(alg: &A, pinned: u64)
where
    A: impossible::sharedmem::mutex::MutexAlgorithm,
    A::Local: Encode,
{
    use impossible::sharedmem::mutex::MutexSystem;
    assert_full_equivalence(&MutexSystem::new(alg), 100_000, pinned);
}

#[test]
fn sharedmem_tas_lock_agrees() {
    use impossible::sharedmem::algorithms::tas_lock::TasLock;
    use impossible::sharedmem::mutex::MutexSystem;
    let alg = TasLock::new(2);
    let sys = MutexSystem::new(&alg);
    assert_full_equivalence(&sys, 100_000, 0xd069_8ca7_2e99_a858);
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
    assert_full_equivalence(&sys, 100_000, 0x051a_24d0_8205_3a62);
    assert_search_equivalence(&sys, 100_000, |s| s.iter().all(|&b| b));
}

#[test]
fn consensus_flp_arbiter_agrees() {
    use impossible::consensus::flp::{Arbiter, FlpSystem};
    let candidate = Arbiter::new(2);
    let sys = FlpSystem::all_binary(&candidate);
    assert_full_equivalence(&sys, 200_000, 0x27a0_096d_19e6_3e84);
    assert_search_equivalence(&sys, 200_000, |s| {
        s.locals.iter().all(|l| format!("{l:?}").contains("Some"))
    });
}

#[test]
fn election_token_ring_agrees() {
    use impossible::election::ring_search::TokenRing;
    let sys = TokenRing { n: 5 };
    assert_full_equivalence(&sys, 100_000, 0x7d6b_8e8c_19cc_61ca);
    assert_search_equivalence(&sys, 100_000, |s| {
        s.iter().filter(|&&b| b == 1).count() == 1
    });
}

#[test]
fn datalink_abp_agrees() {
    use impossible::datalink::abp_search::AbpSearchSystem;
    let sys = AbpSearchSystem::new(2, 2);
    assert_full_equivalence(&sys, 200_000, 0xc2ec_0118_65f3_f11d);
    assert_search_equivalence(&sys, 200_000, |s| s.delivered == 2);
}

#[test]
fn sharedmem_every_algorithm_module_is_pinned() {
    // One `MutexSystem` per module of `sharedmem::algorithms` (TAS is
    // above): eight `*Local` enums through `impl_encode_enum!`, each under
    // `MutexState<L>`. Bakery's tickets are unbounded, so it is capped and
    // only its encodings are pinned.
    use impossible::sharedmem::algorithms::{
        bakery::Bakery,
        broken::{OwnerOverwrite, SingleFlag},
        dijkstra::Dijkstra,
        handoff::HandoffLock,
        one_bit::OneBit,
        peterson::Peterson2,
    };
    use impossible::sharedmem::mutex::MutexSystem;
    assert_mutex_equivalence(&Peterson2::new(), 0x5a08_e778_02b1_ab1e);
    assert_mutex_equivalence(&OwnerOverwrite::new(2), 0x8966_69d0_508a_588e);
    assert_mutex_equivalence(&SingleFlag::new(2), 0xbddb_53f2_cb16_2dc1);
    assert_mutex_equivalence(&HandoffLock::new(), 0x9b93_03c3_f1f0_d86d);
    assert_mutex_equivalence(&Dijkstra::new(2), 0x2eb1_577e_c2de_8a17);
    assert_mutex_equivalence(&OneBit::new(3), 0xb432_287b_9e6b_3a7a);
    let bakery = Bakery::new(2);
    assert_encoding_pinned(&MutexSystem::new(&bakery), 5_000, 0xaace_0557_5888_b818);
}

#[test]
fn sharedmem_remaining_state_types_are_pinned() {
    // The `MutexAlgorithm`s outside `algorithms/` and the one sharedmem
    // `System` that is not a `MutexSystem`.
    use impossible::sharedmem::choice::ChoiceSystem;
    use impossible::sharedmem::kexclusion::CounterSemaphore;
    use impossible::sharedmem::rw_lowerbound::TwoVarThree;
    use impossible::sharedmem::synthesis::SynthProtocol;
    assert_mutex_equivalence(&CounterSemaphore::new(3, 2), 0xcc1c_a665_1a89_a8cf);
    assert_mutex_equivalence(&TwoVarThree, 0x9e01_3ac8_8fdb_ac6a);
    // Spin on a held lock, exit frees it: walks all four `SynthLocal`s.
    let spin = SynthProtocol {
        k: 1,
        v: 2,
        table: vec![(1, 1), (0, 1)],
        exit_write: vec![0, 0],
        init_value: 0,
    };
    assert_mutex_equivalence(&spin, 0xb982_8f4c_a41d_30ed);
    // Board counts grow without bound: capped, encodings only.
    assert_encoding_pinned(&ChoiceSystem::new(vec![0, 1, 0]), 5_000, 0x2fe8_ad7d_6825_4fb1);
}

#[test]
fn consensus_quorum_and_wait_for_all_are_pinned() {
    use impossible::consensus::flp::{FlpSystem, WaitForAll};
    use impossible::consensus::quorum::QuorumVote;
    let quorum = QuorumVote::new(3);
    assert_full_equivalence(&FlpSystem::all_binary(&quorum), 100_000, 0x89a4_fe82_8e0b_1509);
    let wait = WaitForAll::new(2);
    assert_full_equivalence(&FlpSystem::all_binary(&wait), 100_000, 0x72e6_b585_6c03_11ee);
}

#[test]
fn registers_object_systems_agree() {
    // `registers` is the one model crate whose `System` this suite used to
    // skip: `ObjState<L>` over each of Herlihy's three local-state enums.
    use impossible::registers::herlihy::{
        CasConsensus, ObjectSystem, TasConsensus2, TasConsensus3,
    };
    let cas = CasConsensus::new(2);
    let sys = ObjectSystem::all_binary(&cas);
    assert_full_equivalence(&sys, 100_000, 0x453d_048e_4dcb_0677);
    assert_search_equivalence(&sys, 100_000, |s| {
        s.locals.iter().all(|l| format!("{l:?}").contains("Done"))
    });
    let tas2 = ObjectSystem::all_binary(&TasConsensus2);
    assert_full_equivalence(&tas2, 100_000, 0xfbde_f721_49a3_0805);
    let tas3 = ObjectSystem::all_binary(&TasConsensus3);
    assert_full_equivalence(&tas3, 100_000, 0xb831_6b2a_a2bf_c768);
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

/// The [`System::step_into`] contract on a model that overrides it: for
/// every `(s, a)` over the first `cap` reachable states, `step_into` leaves
/// `step(s, a)` in `out` whatever `out` held — the previous child, a copy of
/// `s`, an initial state, or one of `other_shapes` (states of the same type
/// from an instance of another size, so shorter and longer `Vec`s). A body
/// that forgets to overwrite a field, or trusts `out`'s length, fails here.
/// Every state visited is also put through [`assert_enabled_into_agrees`].
fn assert_step_into_agrees<Sys>(sys: &Sys, cap: usize, other_shapes: &[Sys::State])
where
    Sys: System,
    Sys::State: Encode,
{
    let states = Search::new(sys).max_states(cap).graph().order;
    let init = sys.initial_states().swap_remove(0);
    let mut previous_child = init.clone();
    let mut pairs = 0usize;
    let junk_actions = sys.enabled(&init);
    for s in &states {
        assert_enabled_into_agrees(sys, s, &junk_actions);
        for a in sys.enabled(s) {
            let want = sys.step(s, &a);
            let junks = [&previous_child, s, &init].into_iter().chain(other_shapes);
            for (kind, junk) in junks.enumerate() {
                let mut out = junk.clone();
                sys.step_into(s, &a, &mut out);
                assert_eq!(out, want, "step_into({s:?}, {a:?}) over junk #{kind} {junk:?}");
            }
            previous_child = want;
            pairs += 1;
        }
    }
    assert!(pairs >= states.len() / 2, "only {pairs} transitions checked");
}

/// The [`System::enabled_into`] contract at `s`: whatever `out` held —
/// nothing, or `junk` cycled to every length up to past the answer's — it
/// is `enabled(s)` afterwards. A body that appends without clearing, or an
/// [`ActionEdit`](impossible::ckpt::ActionEdit) that filters what was
/// already there, fails here.
fn assert_enabled_into_agrees<Sys: System>(sys: &Sys, s: &Sys::State, junk: &[Sys::Action]) {
    let want = sys.enabled(s);
    for len in 0..=want.len() + 2 {
        let mut out: Vec<Sys::Action> = junk.iter().cycle().take(len).cloned().collect();
        sys.enabled_into(s, &mut out);
        assert_eq!(out, want, "enabled_into({s:?}) over {len} junk actions");
    }
}

#[test]
fn every_overriding_model_keeps_the_step_into_contract() {
    use impossible::election::ring_search::{GreedyMergeRing, TokenRing};
    use impossible::explore::Grid;
    use impossible::sharedmem::algorithms::{dijkstra::Dijkstra, tas_lock::TasLock};
    use impossible::sharedmem::mutex::MutexSystem;

    let grid = Grid { n: 3, max: 4 };
    assert_step_into_agrees(&grid, 1_000, &[vec![0], vec![9; 7]]);
    // `ActionEdit` forwards both methods and filters the list in place.
    let edited = impossible::ckpt::ActionEdit::new(&grid, |s: &Vec<u8>, a: &usize| s[*a] != 2);
    assert_step_into_agrees(&edited, 1_000, &[vec![0], vec![9; 7]]);
    let ring_shapes = [vec![1; 2], vec![0, 1, 0, 1, 1, 0, 1, 1, 1]];
    assert_step_into_agrees(&TokenRing { n: 6 }, 1_000, &ring_shapes);
    assert_step_into_agrees(&GreedyMergeRing { n: 6 }, 1_000, &ring_shapes);

    // `MutexState`: both `Vec`s change length with `n` under Dijkstra
    // (2n + 1 variables), `locals` alone under the one-variable TAS lock.
    let initial_of = |n| MutexSystem::new(&Dijkstra::new(n)).initial_states().swap_remove(0);
    let dijkstra_shapes = [initial_of(1), initial_of(5)];
    let dijkstra = Dijkstra::new(3);
    assert_step_into_agrees(&MutexSystem::new(&dijkstra), 10_000, &dijkstra_shapes);
    let two_of_three = MutexSystem::with_participants(&dijkstra, vec![true, false, true]);
    assert_step_into_agrees(&two_of_three, 10_000, &dijkstra_shapes);
    let initial_of = |n| MutexSystem::new(&TasLock::new(n)).initial_states().swap_remove(0);
    let tas = TasLock::new(2);
    assert_step_into_agrees(&MutexSystem::new(&tas), 1_000, &[initial_of(1), initial_of(4)]);
}

/// `S` with [`System::step_into`] and [`System::enabled_into`] put back to
/// the trait's defaults: forwards everything else, so any difference between
/// a search over `S` and one over `NoReuse<S>` is storage reuse showing
/// through.
struct NoReuse<'a, S>(&'a S);

impl<S: System> System for NoReuse<'_, S> {
    type State = S::State;
    type Action = S::Action;

    fn initial_states(&self) -> Vec<S::State> {
        self.0.initial_states()
    }

    fn enabled(&self, s: &S::State) -> Vec<S::Action> {
        self.0.enabled(s)
    }

    fn step(&self, s: &S::State, a: &S::Action) -> S::State {
        self.0.step(s, a)
    }

    fn owner(&self, a: &S::Action) -> Option<ProcessId> {
        self.0.owner(a)
    }

    fn num_processes(&self) -> Option<usize> {
        self.0.num_processes()
    }
}

/// A [`ReachableGraph`]'s fields (it has no `PartialEq` of its own).
type GraphParts<S, A, T = usize> = (Vec<S>, Succ<A, T>, usize, Option<Truncation>);

/// What [`route_outputs`] collects, route by route.
type RouteOutputs<S, A> = (
    (SearchReport<S, A>, SearchReport<S, A>),
    (GraphParts<S, A>, GraphParts<S, A>, GraphParts<S, (), u32>),
    (SearchReport<S, A>, String),
    (SearchCheckpoint<S, A>, Resumable<S, A>),
    (String, SearchReport<S, A>),
);

/// A `max_states`-capped builder over `sys`, with `canon` if given.
fn builder<S: System>(sys: &S, canon: Option<Canon<S::State>>, max_states: usize) -> Search<'_, S> {
    let search = Search::new(sys).max_states(max_states);
    match canon {
        Some(Canon::InPlace(c)) => search.canon_in_place(c),
        Some(Canon::Owned(c)) => search.canon(c),
        None => search,
    }
}

/// Everything the routes return for one [`builder`]: `explore`,
/// `search(pred)`, `graph`, `graph_filtered(keep)`, `shape`, a traced
/// `explore` with its JSONL, a run paused after two levels with its
/// resumption, `check_property(eventually(pred))`'s JSON, and a spilled
/// `explore_extmem` with its `peak_bytes` zeroed (the one field spilling
/// is meant to move).
fn route_outputs<Sys>(
    sys: &Sys,
    canon: Option<Canon<Sys::State>>,
    max_states: usize,
    pred: impl Fn(&Sys::State) -> bool + Copy,
    keep: impl Fn(&Sys::Action) -> bool + Copy,
) -> RouteOutputs<Sys::State, Sys::Action>
where
    Sys: System,
    Sys::State: Encode + Persist,
    Sys::Action: Persist,
{
    fn parts<S, A, T>(g: ReachableGraph<S, A, T>) -> GraphParts<S, A, T> {
        (g.order, g.succ, g.initials, g.truncated_by)
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SPILLS: AtomicUsize = AtomicUsize::new(0);
    let mut tracer = RingTracer::new(1 << 16);
    let traced = builder(sys, canon, max_states).tracer(&mut tracer).explore();
    let search = builder(sys, canon, max_states);
    let ckpt = search.run_resumable(PauseBudget::levels(2)).paused();
    let ckpt = ckpt.expect("every space here is deeper than two levels");
    let resumed = (ckpt.clone(), search.resume(ckpt, PauseBudget::never()));
    let spill = SPILLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("explore-equivalence-{spill}"));
    let policy = SpillPolicy::new(&dir).ram_keys(16).spill_frontier(true);
    let mut spilled = search.explore_extmem(&policy);
    spilled.stats.peak_bytes = 0;
    let _ = std::fs::remove_dir_all(&dir);
    (
        (search.explore(), search.search(pred)),
        (parts(search.graph()), parts(search.graph_filtered(keep)), parts(search.shape())),
        (traced, tracer.to_jsonl()),
        resumed,
        (search.check_property(&eventually("pred", pred)).to_json(), spilled),
    )
}

/// `S` and [`NoReuse<S>`] agree on every route of [`route_outputs`],
/// whole and at a `max_states` that cuts.
fn assert_reuse_is_invisible<Sys>(
    sys: &Sys,
    canon: Option<Canon<Sys::State>>,
    cut: usize,
    pred: impl Fn(&Sys::State) -> bool + Copy,
    keep: impl Fn(&Sys::Action) -> bool + Copy,
) where
    Sys: System,
    Sys::State: Encode + Persist,
    Sys::Action: Persist,
{
    let plain = NoReuse(sys);
    for max_states in [1_000_000, cut] {
        let reusing = route_outputs(sys, canon, max_states, pred, keep);
        let dropping = route_outputs(&plain, canon, max_states, pred, keep);
        assert_eq!(reusing, dropping, "max_states={max_states}");
    }
    assert!(Search::new(sys).max_states(cut).explore().truncated(), "cut={cut} must cut");
}

#[test]
fn storage_reuse_changes_no_byte_on_any_route() {
    use impossible::election::ring_search::{rotation_canon_in_place, TokenRing};
    use impossible::explore::Grid;
    use impossible::sharedmem::algorithms::dijkstra::Dijkstra;
    use impossible::sharedmem::mutex::{MutexState, MutexSystem, Region};

    let grid = Grid { n: 3, max: 4 };
    assert_reuse_is_invisible(&grid, None, 60, |s| s.iter().all(|&c| c == 4), |a| *a != 1);

    // The rotation quotient: the canon hook rewrites each child in the
    // spare it was stepped into.
    let ring = TokenRing { n: 8 };
    let one_token = |s: &Vec<u8>| s.iter().filter(|&&b| b == 1).count() == 1;
    let canon = Some(Canon::InPlace(rotation_canon_in_place));
    assert_reuse_is_invisible(&ring, canon, 20, one_token, |a| *a != 0);

    let dijkstra = Dijkstra::new(3);
    let mutex = MutexSystem::new(&dijkstra);
    let last_is_critical =
        |s: &MutexState<_>| mutex.processes_in(s, Region::Critical).any(|i| i == 2);
    assert_reuse_is_invisible(&mutex, None, 2_000, last_is_critical, |a| a.process() != 1);
}

/// The rotation hook installed in place and owned (the owned spelling goes
/// through `Canon::apply`'s adapter, which compares the new state with the
/// old) returns the same bytes on every route of [`route_outputs`], whole
/// and cut, on both ring systems for n = 4..=12 — `canon_hits` included, so
/// an in-place kernel whose flag is not "the state changed" (inverted, or
/// set by a kernel that writes its input word back instead of the least
/// rotation) fails here.
#[test]
fn owned_and_in_place_hooks_agree_on_every_route() {
    use impossible::election::ring_search::{
        rotation_canon, rotation_canon_in_place, GreedyMergeRing, TokenRing,
    };
    fn assert_forms_agree<Sys: System<State = Vec<u8>, Action = usize>>(sys: &Sys, n: usize) {
        let two_tokens = |s: &Vec<u8>| s.iter().filter(|&&b| b == 1).count() == 2;
        let keep = |a: &usize| *a != 1;
        let in_place = Some(Canon::InPlace(rotation_canon_in_place));
        let owned = Some(Canon::Owned(rotation_canon));
        for max_states in [1_000_000, n + 3] {
            let a = route_outputs(sys, in_place, max_states, two_tokens, keep);
            let b = route_outputs(sys, owned, max_states, two_tokens, keep);
            assert!(a.0 .0.stats.canon_hits > 0, "n={n}: the hook moved some child");
            assert_eq!(a, b, "n={n} max_states={max_states}");
        }
    }
    for n in 4..=12 {
        assert_forms_agree(&TokenRing { n }, n);
        assert_forms_agree(&GreedyMergeRing { n }, n);
    }
}
