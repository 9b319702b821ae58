//! Symmetry canonicalization hooks.
//!
//! Most of the paper's models are symmetric: anonymous ring configurations
//! are indistinguishable under rotation, two-process protocols running the
//! same code are indistinguishable under a process swap, and in general any
//! automorphism of the system maps reachable states to reachable states.
//! Exploring one representative per orbit shrinks the search by up to the
//! orbit size — the search-side counterpart of the Angluin/fixed-point
//! symmetry arguments in [`impossible_core::symmetry`].
//!
//! A canonicalization hook is a plain function pointer
//! `fn(&mut S) -> bool` installed with [`crate::Search::canon_in_place`]:
//! it rewrites the state it is given into its orbit's representative and
//! returns `true` exactly when that changed the state. The search runs it
//! on every successor in the successor's own storage, so a hook costs no
//! allocation, and it counts the `true`s as
//! [`canon_hits`](crate::SearchStats::canon_hits). The value the search
//! holds is [`Canon`] (from `impossible_core::symmetry`, because
//! `impossible_core::cert::Spec` carries it to the witness check), and
//! every route applies it through the one [`Canon::apply`]. Its second
//! form, an owned `fn(&S) -> S` ([`crate::Search::canon`]), survives only
//! because the ledger installs the owned `rotation_canon`; `apply` adapts
//! it by comparing the new state with the old.
//!
//! Fn *pointers* rather than closures on purpose: they are `Copy + Sync`,
//! trivially shareable with the worker pool, and cannot smuggle in ambient
//! state — the hook must be a pure function of the state, or determinism
//! and soundness both die. Writing `c(s)` for the state the hook leaves,
//! the hook must be
//!
//! * **idempotent**: `c(c(s)) == c(s)`,
//! * **orbit-respecting**: `c(s) == c(t)` exactly when `s` and `t` are
//!   related by a system automorphism (equivariance: the enabled actions
//!   and successors of `c(s)` mirror those of `s`), and
//! * **honest about moving**: its `bool` is `c(s) != s`.
//!
//! Under the first two the quotient search preserves reachability and
//! violation-existence, and every witness it returns is a genuine execution
//! of the quotient system (each step is `step` followed by `c`); the third
//! keeps `canon_hits` a count of the calls that moved a state. [`audit`]
//! checks the contract state by state — idempotence, the flag, and
//! equivariance as equal enabled counts, equal canonized successor
//! multisets and invariant predicates — so a hook's tests can run it over
//! a whole reachable space.
//!
//! **Cost.** The hook runs on every successor the search generates, so it
//! should be the *closed form* of its group's minimum, not an enumeration
//! of the group. `docs/EXPLORE.md`, "What a hook costs", states the rule
//! once, with what the ring and mutex hooks cost.
//!
//! The functions below are the executable *definition* of the contract —
//! enumerate the group, keep the `Ord`-minimum — and cost `|G|` candidate
//! states per call (`n` for [`rotations`], `n!` for [`all_permutations`]).
//! They are the oracle every closed-form hook is tested against, and the
//! fallback for a group that has no closed form; build the permutation
//! list once, outside the hook, never per call.

pub use impossible_core::symmetry::Canon;
use impossible_core::system::System;

/// The clause of the hook contract a state breaks, as [`audit`] names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonFault {
    /// `c(c(s)) != c(s)`.
    NotIdempotent,
    /// The hook's `bool` is not "the state changed", on `s` or on `c(s)`.
    MovedFlag,
    /// `enabled(s)` and `enabled(c(s))` differ in size.
    EnabledSize,
    /// The successors of `s` and of `c(s)`, each canonized, differ as
    /// multisets.
    Successors,
    /// The named predicate tells `s` and `c(s)` apart.
    Predicate(String),
}

/// One of [`audit`]'s predicates: its name and the predicate.
type NamedPred<'p, S> = (&'p str, &'p dyn Fn(&S) -> bool);

/// Check the hook contract, clause by clause in [`CanonFault`]'s order,
/// for `canon` on each of `states` (typically a whole reachable space of
/// the unquotiented system) and the named predicates `preds`. Returns the
/// index of the first state that breaks a clause, with the clause.
pub fn audit<Sys: System>(
    sys: &Sys,
    canon: Canon<Sys::State>,
    states: &[Sys::State],
    preds: &[NamedPred<'_, Sys::State>],
) -> Result<(), (usize, CanonFault)> {
    // `(c(s), the hook's flag, whether s changed)`.
    let applied = |s: &Sys::State| {
        let mut c = s.clone();
        let moved = canon.apply(&mut c);
        let changed = c != *s;
        (c, moved, changed)
    };
    let successors = |s: &Sys::State, acts: &[Sys::Action]| {
        let mut out: Vec<Sys::State> = acts.iter().map(|a| applied(&sys.step(s, a)).0).collect();
        out.sort();
        out
    };
    for (i, s) in states.iter().enumerate() {
        let (c, moved, changed) = applied(s);
        let (cc, again, changed_again) = applied(&c);
        if cc != c {
            return Err((i, CanonFault::NotIdempotent));
        }
        if moved != changed || again != changed_again {
            return Err((i, CanonFault::MovedFlag));
        }
        let (from_s, from_c) = (sys.enabled(s), sys.enabled(&c));
        if from_s.len() != from_c.len() {
            return Err((i, CanonFault::EnabledSize));
        }
        if successors(s, &from_s) != successors(&c, &from_c) {
            return Err((i, CanonFault::Successors));
        }
        if let Some((name, _)) = preds.iter().find(|(_, p)| p(s) != p(&c)) {
            return Err((i, CanonFault::Predicate(name.to_string())));
        }
    }
    Ok(())
}

/// The canonical representative of `state`'s orbit under an explicit set of
/// process permutations.
///
/// `apply(state, perm)` must implement the group action: permute every
/// process-indexed component of the state by `perm` (where `perm[i]` is the
/// new index of process `i`). The representative is the `Ord`-minimum over
/// all listed permutations, so the caller controls the group (full symmetric
/// group, rotations only, a single swap, ...). Identity need not be listed;
/// `state` itself is always a candidate. One `apply` (a fresh state) and one
/// comparison per listed permutation.
pub fn min_under_permutations<S, F>(state: &S, perms: &[Vec<usize>], apply: F) -> S
where
    S: Clone + Ord,
    F: Fn(&S, &[usize]) -> S,
{
    let mut best = state.clone();
    for p in perms {
        let cand = apply(state, p);
        if cand < best {
            best = cand;
        }
    }
    best
}

/// All `n!` permutations of `0..n`, in lexicographic order — the full
/// symmetric group for [`min_under_permutations`]. Deterministic order;
/// intended for small `n` (the finite instances the engines check).
pub fn all_permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..n).collect();
    let mut used = vec![false; n];
    fn rec(n: usize, cur: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(n, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    cur.clear();
    rec(n, &mut cur, &mut used, &mut out);
    out
}

/// The `n` cyclic rotations of `0..n` (including identity) — the rotation
/// group of an anonymous ring.
pub fn rotations(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|r| (0..n).map(|i| (i + r) % n).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_generators() {
        assert_eq!(all_permutations(3).len(), 6);
        assert_eq!(all_permutations(0), vec![Vec::<usize>::new()]);
        assert_eq!(rotations(3), vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]]);
    }

    #[test]
    fn min_under_swap_canonicalizes_pairs() {
        // State = per-process values; action of a permutation moves value at
        // i to position perm[i].
        let apply = |s: &Vec<u8>, p: &[usize]| {
            let mut t = vec![0u8; s.len()];
            for (i, &v) in s.iter().enumerate() {
                t[p[i]] = v;
            }
            t
        };
        let perms = all_permutations(2);
        assert_eq!(min_under_permutations(&vec![9u8, 1], &perms, apply), vec![1, 9]);
        assert_eq!(min_under_permutations(&vec![1u8, 9], &perms, apply), vec![1, 9]);
        // Idempotent.
        let c = min_under_permutations(&vec![9u8, 1], &perms, apply);
        assert_eq!(min_under_permutations(&c, &perms, apply), c);
    }
}
