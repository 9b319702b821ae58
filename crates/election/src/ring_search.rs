//! Symmetry-quotiented search over anonymous token rings.
//!
//! The Angluin-style symmetry arguments of [`crate::anonymous`] reason
//! about *rotations*: in an anonymous uniform ring every rotation of a
//! configuration is another reachable configuration, indistinguishable to
//! the processes. That is exactly the precondition for exploring the
//! quotient space instead of the full one — plug [`rotation_canon_in_place`]
//! in as the
//! [`Search::canon_in_place`](impossible_explore::Search::canon_in_place)
//! hook and the visited set keeps one representative per rotation orbit (a
//! *necklace*), shrinking the space without changing any verdict on
//! rotation-invariant predicates.
//!
//! [`TokenRing`] is the workhorse: every process starts with a token
//! (the uniform, fully symmetric start), and a step passes a token one hop
//! clockwise, merging with any token already there. Electing a leader is
//! reaching a single-token configuration — possible here only because
//! token *merging* breaks symmetry, the loophole the deterministic
//! message-passing candidates of [`crate::anonymous`] don't have.

use impossible_core::symmetry::{canonicalize_binary_rotation, canonicalize_rotation};
use impossible_core::system::System;
use impossible_explore::property::{eventually, leads_to};
use impossible_explore::{PropertyReport, Search, SearchReport};

/// An anonymous unidirectional token ring: `state[i] == 1` iff slot `i`
/// holds a token; action `i` moves that token to slot `i+1 (mod n)`,
/// merging if the target slot is already occupied.
#[derive(Debug, Clone, Copy)]
pub struct TokenRing {
    /// Ring size (number of slots / processes).
    pub n: usize,
}

impl System for TokenRing {
    type State = Vec<u8>;
    type Action = usize;

    fn initial_states(&self) -> Vec<Vec<u8>> {
        vec![vec![1; self.n]] // uniform start: everyone holds a token
    }

    fn enabled(&self, s: &Vec<u8>) -> Vec<usize> {
        let mut acts = Vec::new();
        self.enabled_into(s, &mut acts);
        acts
    }

    fn enabled_into(&self, s: &Vec<u8>, out: &mut Vec<usize>) {
        // A lone token still circulates, so the system never terminates;
        // searches are for *reaching* configurations, not terminals.
        out.clear();
        out.extend((0..self.n).filter(|&i| s[i] == 1));
    }

    fn step(&self, s: &Vec<u8>, &i: &usize) -> Vec<u8> {
        let mut t = s.clone();
        self.apply(i, &mut t);
        t
    }

    fn step_into(&self, s: &Vec<u8>, &i: &usize, out: &mut Vec<u8>) {
        out.clone_from(s);
        self.apply(i, out);
    }
}

impl TokenRing {
    /// The transition body, on `next ==` the pre-state.
    fn apply(&self, i: usize, next: &mut [u8]) {
        next[i] = 0;
        next[(i + 1) % self.n] = 1; // merge: target may already hold one
    }
}

/// The rotation-canonicalization hook: rotate `s` to its lexicographically
/// least rotation, in place, and return whether it moved. Idempotent,
/// orbit-respecting (rotations commute with token passing) and honest
/// about moving, as the
/// [`Search::canon_in_place`](impossible_explore::Search::canon_in_place)
/// contract requires. Token-ring states are 0/1 words, so up to 64 slots
/// the one-word kernel [`canonicalize_binary_rotation`] answers; any other
/// state falls back to [`canonicalize_rotation`], which rotates it the same
/// way. What each costs per successor: `docs/EXPLORE.md`, "What a hook
/// costs".
#[allow(clippy::ptr_arg)] // the hook type is `fn(&mut S) -> bool`, `S = Vec<u8>`
pub fn rotation_canon_in_place(s: &mut Vec<u8>) -> bool {
    canonicalize_binary_rotation(s).unwrap_or_else(|| canonicalize_rotation(s))
}

/// [`rotation_canon_in_place`] on a copy: the owned hook spelling,
/// `fn(&S) -> S`, for [`Search::canon`](impossible_explore::Search::canon).
/// Kept only because the ledger installs and replays it; ROADMAP item 1
/// retires it.
#[allow(clippy::ptr_arg)] // the hook type is `fn(&S) -> S`, `S = Vec<u8>`
pub fn rotation_canon(s: &Vec<u8>) -> Vec<u8> {
    let mut c = s.clone();
    rotation_canon_in_place(&mut c);
    c
}

/// Explore the rotation quotient: one representative per necklace of
/// tokens. Same truncation/verdict semantics, far fewer states.
pub fn explore_quotient(n: usize, max_states: usize) -> SearchReport<Vec<u8>, usize> {
    let sys = TokenRing { n };
    Search::new(&sys)
        .max_states(max_states)
        .canon_in_place(rotation_canon_in_place)
        .explore()
}

/// [`TokenRing`] under a *greedy-merge scheduler*: whenever some token can
/// merge into an occupied slot, only merging moves are enabled; otherwise
/// every move is. This is a scheduler restriction, not a protocol change —
/// the same transition function with fewer enabled actions — and it is the
/// benign end of the adversary spectrum the free scheduler anchors the
/// other end of.
#[derive(Debug, Clone, Copy)]
pub struct GreedyMergeRing {
    /// Ring size (number of slots / processes).
    pub n: usize,
}

impl System for GreedyMergeRing {
    type State = Vec<u8>;
    type Action = usize;

    fn initial_states(&self) -> Vec<Vec<u8>> {
        TokenRing { n: self.n }.initial_states()
    }

    fn enabled(&self, s: &Vec<u8>) -> Vec<usize> {
        let mut acts = Vec::new();
        self.enabled_into(s, &mut acts);
        acts
    }

    fn enabled_into(&self, s: &Vec<u8>, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.n).filter(|&i| s[i] == 1 && s[(i + 1) % self.n] == 1));
        if out.is_empty() {
            TokenRing { n: self.n }.enabled_into(s, out);
        }
    }

    fn step(&self, s: &Vec<u8>, i: &usize) -> Vec<u8> {
        TokenRing { n: self.n }.step(s, i)
    }

    fn step_into(&self, s: &Vec<u8>, i: &usize, out: &mut Vec<u8>) {
        TokenRing { n: self.n }.step_into(s, i, out)
    }
}

/// Number of tokens in a configuration.
fn tokens(s: &[u8]) -> usize {
    s.iter().filter(|&&b| b == 1).count()
}

/// The liveness face of the election claim: under a *free* scheduler,
/// `◇(one token)` **fails** — the adversary can circulate tokens in
/// lockstep forever, never letting two collide. The counterexample is a
/// lasso in the rotation quotient (for `n = 4`: the alternating necklace
/// `0101` and the adjacent pair `0011` feed each other without merging).
/// This is the model-checking rendition of the survey's scheduler-adversary
/// arguments: reachability (of a one-token state) says a leader *can*
/// emerge; this lasso says no free schedule *must* produce one. Like every
/// [`Search::check_property`] lasso, it is verified as a run of the
/// quotient system before it is returned.
pub fn election_evades_free_schedulers(
    n: usize,
    max_states: usize,
) -> PropertyReport<Vec<u8>, usize> {
    Search::new(&TokenRing { n })
        .max_states(max_states)
        .canon_in_place(rotation_canon_in_place)
        .check_property(&eventually("one-token", |s: &Vec<u8>| tokens(s) == 1))
}

/// The matching positive claim — with a sharp edge. Under the greedy-merge
/// scheduler, `multi-token ⤳ one-token` **holds for `n ≤ 4`**: any move
/// from an isolated-token configuration creates an adjacency, the next step
/// is then a forced merge, and the token count drains to one (the
/// goal-avoiding region of the quotient graph is acyclic). For `n ≥ 5` the
/// guarantee **breaks**: two tokens at gaps `(2, n-2)` can keep stepping
/// without ever becoming adjacent (the move to gaps `(n-2, 2)` is the same
/// necklace), so even the merge-greedy scheduler admits an election-free
/// lasso. Local greed is not fairness — exactly the gap between "a good
/// schedule exists" and "every schedule of this kind succeeds" that the
/// survey's adversary arguments turn on.
pub fn election_under_greedy_merges(
    n: usize,
    max_states: usize,
) -> PropertyReport<Vec<u8>, usize> {
    Search::new(&GreedyMergeRing { n })
        .max_states(max_states)
        .canon_in_place(rotation_canon_in_place)
        .check_property(&leads_to(
            "merges-elect",
            |s: &Vec<u8>| tokens(s) >= 2,
            |s: &Vec<u8>| tokens(s) == 1,
        ))
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_is_all_nonempty_placements() {
        // From all-ones every nonempty subset of slots is reachable:
        // 2^6 - 1 = 63 configurations.
        let r = Search::new(&TokenRing { n: 6 }).max_states(100_000).explore();
        assert_eq!(r.num_states, 63);
        assert!(!r.truncated());
    }

    #[test]
    fn quotient_counts_nonempty_necklaces() {
        // Binary necklaces of length 6 number 14; dropping the all-zero
        // one leaves 13 rotation orbits.
        let r = explore_quotient(6, 100_000);
        assert_eq!(r.num_states, 13);
        assert!(r.stats.canon_hits > 0);
    }

    #[test]
    fn quotient_counts_match_the_necklace_closed_form() {
        // Binary necklaces of length n: (1/n) Σ_{d | n} φ(d) 2^{n/d}; the
        // all-zero one is unreachable (a token never disappears). A canon
        // hook that split or merged any orbit would miss this count.
        fn phi(d: usize) -> usize {
            (1..=d).filter(|k| gcd(*k, d) == 1).count()
        }
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        for n in 1..=12usize {
            let necklaces = (1..=n)
                .filter(|d| n % d == 0)
                .map(|d| phi(d) << (n / d))
                .sum::<usize>()
                / n;
            let r = explore_quotient(n, 100_000);
            assert!(!r.truncated());
            assert_eq!(r.num_states, necklaces - 1, "n={n}");
        }
    }

    #[test]
    fn quotient_never_changes_the_election_verdict() {
        // Merging one token per step is optimal: n - 1 passes.
        for n in 2..=6 {
            let w = Search::new(&TokenRing { n })
                .canon_in_place(rotation_canon_in_place)
                .search(|s| tokens(s) == 1)
                .witness;
            assert_eq!(w.map(|w| w.len()), Some(n - 1));
        }
    }

    #[test]
    fn rotation_canon_passes_the_audit_on_every_reachable_ring_state() {
        // Both spellings: the in-place hook, and the owned one through
        // `Canon::apply`'s adapter.
        use impossible_explore::canon::{audit, Canon};
        let one = |s: &Vec<u8>| tokens(s) == 1;
        let many = |s: &Vec<u8>| tokens(s) >= 2;
        let preds: [(&str, &dyn Fn(&Vec<u8>) -> bool); 2] =
            [("one-token", &one), ("multi-token", &many)];
        for n in 1..=8 {
            let (free, greedy) = (TokenRing { n }, GreedyMergeRing { n });
            let free_states = Search::new(&free).reachable_states();
            let greedy_states = Search::new(&greedy).reachable_states();
            for canon in [Canon::InPlace(rotation_canon_in_place), Canon::Owned(rotation_canon)] {
                assert_eq!(audit(&free, canon, &free_states, &preds), Ok(()), "n={n}");
                assert_eq!(audit(&greedy, canon, &greedy_states, &preds), Ok(()), "n={n}");
            }
        }
    }

    #[test]
    fn a_hook_that_always_claims_a_move_fails_the_audit() {
        // The rotation itself is right; only the flag lies, on the
        // representatives (where nothing moves). `canon_hits` would count
        // every call.
        use impossible_explore::canon::{audit, Canon, CanonFault};
        fn always_moved(s: &mut Vec<u8>) -> bool {
            rotation_canon_in_place(s);
            true
        }
        let sys = TokenRing { n: 4 };
        let states = Search::new(&sys).reachable_states();
        let got = audit(&sys, Canon::InPlace(always_moved), &states, &[]);
        assert_eq!(got.map_err(|(_, fault)| fault), Err(CanonFault::MovedFlag));
    }

    #[test]
    fn canon_hook_is_idempotent_on_reachable_states() {
        let sys = TokenRing { n: 5 };
        let states = Search::new(&sys)
            .canon_in_place(rotation_canon_in_place)
            .reachable_states();
        assert!(!states.is_empty());
        for s in &states {
            // The quotient keeps canonical forms, which the hook leaves be.
            let mut again = s.clone();
            assert!(!rotation_canon_in_place(&mut again));
            assert_eq!(&again, s);
            assert_eq!(&rotation_canon(s), s);
        }
        // And the quotient really is smaller than the full space.
        assert!(Search::new(&sys).explore().num_states > states.len());
    }
}


#[cfg(test)]
mod liveness_tests {
    use super::*;
    use impossible_explore::Counterexample;

    #[test]
    fn free_scheduler_evades_election_with_a_rotation_lasso() {
        let r = election_evades_free_schedulers(4, 100_000);
        assert!(!r.holds, "a free scheduler never has to let tokens merge");
        match r.counterexample.as_ref().expect("violated") {
            Counterexample::Lasso(l) => {
                // The cheapest evasion: rotate the 3-token necklace forever
                // (a quotient self-loop; in the full space, an infinite run
                // through its rotations).
                assert_eq!(l.stem.last(), &vec![0, 1, 1, 1]);
                assert!(!l.cycle.is_empty(), "the run must be infinite");
                for (_, s) in &l.cycle {
                    assert!(tokens(s) >= 2, "the cycle avoids election");
                }
            }
            other => panic!("expected lasso, got {other:?}"),
        }
        // And it is not a size-4 artifact.
        assert!(!election_evades_free_schedulers(5, 100_000).holds);
        assert!(!election_evades_free_schedulers(6, 100_000).holds);
    }

    #[test]
    fn greedy_merges_force_election_only_up_to_four() {
        for n in 2..=4 {
            let r = election_under_greedy_merges(n, 100_000);
            assert!(r.holds, "n={n}: merging drains the token count to 1");
            assert_eq!(r.candidate_sccs, 0, "n={n}: multi-token region is acyclic");
        }
        // n ≥ 5: two tokens at gaps (2, n-2) sidestep each other forever —
        // the move to gaps (n-2, 2) is the same necklace, no adjacency ever
        // forms, and greed never gets a merge to be greedy about.
        for n in 5..=6 {
            let r = election_under_greedy_merges(n, 100_000);
            assert!(!r.holds, "n={n}: isolated tokens can evade the greedy scheduler");
            match r.counterexample.as_ref().expect("violated") {
                Counterexample::Lasso(l) => {
                    for (_, s) in &l.cycle {
                        assert!(tokens(s) >= 2, "n={n}: the cycle avoids election");
                    }
                }
                other => panic!("expected lasso, got {other:?}"),
            }
        }
    }

    #[test]
    fn liveness_reports_are_pinned_json() {
        // Byte-for-byte regressions of the two n = 4 verdicts; any engine
        // or model drift must show up here as a reviewed diff.
        assert_eq!(
            election_evades_free_schedulers(4, 100_000).to_json(),
            "{\"name\":\"one-token\",\"kind\":\"eventually\",\"holds\":false,\
             \"states\":5,\"edges\":12,\"region\":4,\"sccs\":3,\"candidate_sccs\":2,\
             \"truncated\":false,\"counterexample\":{\"type\":\"lasso\",\"pivot\":null,\
             \"stem_states\":[\"[1, 1, 1, 1]\",\"[0, 1, 1, 1]\"],\"stem_actions\":[\"0\"],\
             \"cycle_actions\":[\"3\"],\"cycle_states\":[\"[0, 1, 1, 1]\"]}}"
        );
        assert_eq!(
            election_under_greedy_merges(4, 100_000).to_json(),
            "{\"name\":\"merges-elect\",\"kind\":\"leads-to\",\"holds\":true,\
             \"states\":5,\"edges\":10,\"region\":4,\"sccs\":4,\"candidate_sccs\":0,\
             \"truncated\":false,\"counterexample\":null}"
        );
    }
}
