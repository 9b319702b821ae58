//! The `t + 1`-round lower bound \[56\], executable as a chain adversary.
//!
//! For `t = 1` the theorem says one round cannot suffice. Given **any**
//! one-round decision rule, [`refute_one_round`] builds the Fischer–Lynch
//! chain of executions — flip one input at a time, threading through crash
//! faults with ever-longer *partial send prefixes* so each adjacent pair of
//! executions is indistinguishable to some witness process — and returns
//! the chain with the [`RoundHorn`] the candidate falls on:
//!
//! * some execution of the chain already violates agreement under a
//!   single crash ([`RoundHorn::Disagreement`]); or
//! * every execution agrees, so the chain transports one decision from the
//!   all-zeros run to the all-ones run, and validity fails at one of the
//!   two ends ([`RoundHorn::Validity`]).
//!
//! FloodSet with `t + 1 = 2` rounds survives every crash pattern the chain
//! uses (asserted in the tests), matching the bound from above.

use impossible_core::chain::{Chain, ChainError};
use impossible_core::ids::ProcessId;
use std::collections::BTreeMap;

/// A one-round consensus rule: after broadcasting inputs, each process
/// decides from its own input and the messages that arrived.
pub trait OneRoundRule {
    /// Decide from `(own input, received map from → value)`.
    fn decide(&self, me: usize, input: u64, received: &BTreeMap<usize, u64>) -> u64;
}

/// "Decide the minimum value seen."
#[derive(Debug, Clone, Default)]
pub struct MinRule;

impl OneRoundRule for MinRule {
    fn decide(&self, _me: usize, input: u64, received: &BTreeMap<usize, u64>) -> u64 {
        received.values().copied().chain([input]).min().expect("nonempty")
    }
}

/// "Decide the majority value seen (ties → own input)."
#[derive(Debug, Clone, Default)]
pub struct MajorityRule;

impl OneRoundRule for MajorityRule {
    fn decide(&self, _me: usize, input: u64, received: &BTreeMap<usize, u64>) -> u64 {
        let vals: Vec<u64> = received.values().copied().chain([input]).collect();
        let ones = vals.iter().filter(|&&v| v == 1).count();
        match (2 * ones).cmp(&vals.len()) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => 0,
            std::cmp::Ordering::Equal => input,
        }
    }
}

/// One execution of the one-round protocol: inputs plus an optional crash
/// `(process, send prefix)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneRoundExec {
    /// Input vector.
    pub inputs: Vec<u64>,
    /// `Some((p, k))`: `p` crashes having sent to only its first `k`
    /// destinations (ascending order, skipping itself).
    crash: Option<(usize, usize)>,
    /// Per-process received maps (crashed process receives nothing).
    pub received: Vec<BTreeMap<usize, u64>>,
    /// Per-process decisions (`None` for the crashed process).
    pub decisions: Vec<Option<u64>>,
}

/// Simulate the single round with the given crash pattern and decision rule.
pub fn execute<R: OneRoundRule>(rule: &R, inputs: &[u64], crash: Option<(usize, usize)>) -> OneRoundExec {
    let n = inputs.len();
    let mut received: Vec<BTreeMap<usize, u64>> = vec![BTreeMap::new(); n];
    for (from, &input) in inputs.iter().enumerate() {
        let dests: Vec<usize> = (0..n).filter(|&j| j != from).collect();
        let limit = match crash {
            Some((p, k)) if p == from => k,
            _ => dests.len(),
        };
        for &to in dests.iter().take(limit) {
            received[to].insert(from, input);
        }
    }
    let decisions = (0..n)
        .map(|i| match crash {
            Some((p, _)) if p == i => None,
            _ => Some(rule.decide(i, inputs[i], &received[i])),
        })
        .collect();
    OneRoundExec {
        inputs: inputs.to_vec(),
        crash,
        received,
        decisions,
    }
}

fn view(e: &OneRoundExec, p: ProcessId) -> Option<(u64, BTreeMap<usize, u64>)> {
    let i = p.index();
    if matches!(e.crash, Some((c, _)) if c == i) {
        return None; // a crashed process has no obligations; views compare equal
    }
    Some((e.inputs[i], e.received[i].clone()))
}

fn all_agree(e: &OneRoundExec) -> Option<u64> {
    let mut vals = e.decisions.iter().flatten();
    let first = *vals.next()?;
    e.decisions
        .iter()
        .flatten()
        .all(|v| *v == first)
        .then_some(first)
}

/// Build the full flip-every-input chain for `n ≥ 3` processes.
///
/// Returns the executions in order with the witness process of each link.
fn build_chain<R: OneRoundRule>(rule: &R, n: usize) -> Chain<OneRoundExec> {
    assert!(n >= 3, "need n ≥ 3 so a witness always exists");
    let mut inputs = vec![0u64; n];
    let mut chain = Chain::start(execute(rule, &inputs, None));

    for flip in 0..n {
        let dests: Vec<usize> = (0..n).filter(|&j| j != flip).collect();
        // Witness: any process other than `flip` and other than the message
        // recipient being added/removed.
        let witness_avoiding = |avoid: Option<usize>| -> ProcessId {
            ProcessId(
                (0..n)
                    .find(|&w| w != flip && Some(w) != avoid)
                    .expect("n >= 3"),
            )
        };
        // Walk the prefix down: full send (no crash) -> crash with prefix
        // n-1 -> ... -> prefix 0.
        chain.link(
            witness_avoiding(None),
            execute(rule, &inputs, Some((flip, dests.len()))),
        );
        for k in (0..dests.len()).rev() {
            // Removing the message to dests[k]: every other process keeps
            // its exact view.
            chain.link(
                witness_avoiding(Some(dests[k])),
                execute(rule, &inputs, Some((flip, k))),
            );
        }
        // Flip the input: nobody hears from `flip`, so all views equal.
        inputs[flip] = 1;
        chain.link(witness_avoiding(None), execute(rule, &inputs, Some((flip, 0))));
        // Walk the prefix back up and un-crash.
        for k in 1..=dests.len() {
            chain.link(
                witness_avoiding(Some(dests[k - 1])),
                execute(rule, &inputs, Some((flip, k))),
            );
        }
        chain.link(witness_avoiding(None), execute(rule, &inputs, None));
    }
    chain
}

/// Which correctness condition a one-round rule loses on the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundHorn {
    /// Execution `k` of the chain violates agreement under one crash: its
    /// live processes decide different values.
    Disagreement(usize),
    /// Every execution agrees, yet the all-zeros run decides `zeros` or the
    /// all-ones run decides `ones` against validity.
    Validity {
        /// The decision of the chain's first execution (all inputs 0).
        zeros: u64,
        /// The decision of its last (all inputs 1).
        ones: u64,
    },
    /// The chain failed to carry a decision from end to end — a rule whose
    /// decision is not a function of the deciding process's view.
    Broken(ChainError),
}

/// Refute a one-round rule as a 1-crash-resilient consensus protocol:
/// the horn it falls on, and the chain that shows it.
///
/// Always refutes for `n ≥ 3` — that is the theorem. For a rule that
/// decides from its view alone, [`RoundHorn::Broken`] never fires: if every
/// execution agrees, the indistinguishable links carry the all-zeros run's
/// decision to the all-ones run, so the two ends cannot decide 0 and 1.
pub fn refute_one_round<R: OneRoundRule>(rule: &R, n: usize) -> (RoundHorn, Chain<OneRoundExec>) {
    let chain = build_chain(rule, n);
    let execs = chain.executions();
    if let Some(k) = execs.iter().position(|e| all_agree(e).is_none()) {
        return (RoundHorn::Disagreement(k), chain);
    }
    let decided = |e: &OneRoundExec| all_agree(e).expect("every execution agrees");
    let (zeros, ones) = (decided(&execs[0]), decided(&execs[execs.len() - 1]));
    if zeros != 0 || ones != 1 {
        return (RoundHorn::Validity { zeros, ones }, chain);
    }
    let err = chain
        .transport(
            view,
            |e, p| view(e, p).and(e.decisions[p.index()]),
            all_agree,
        )
        .expect_err("the chain cannot carry decision 0 to a run deciding 1");
    (RoundHorn::Broken(err), chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floodset::run_floodset;
    use impossible_det::{det_assert, det_assert_eq, det_prop, DetRng};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    #[test]
    fn chain_links_are_indistinguishable_until_violation() {
        let chain = build_chain(&MinRule, 4);
        // Every link's witness has identical views on both sides — the
        // structural heart of the argument.
        assert!(chain.verify(view).is_ok());
        assert!(chain.len() > 8);
    }

    /// `horn` re-checked on the chain's executions alone, without the rule.
    fn rechecks(horn: &RoundHorn, chain: &Chain<OneRoundExec>) -> bool {
        let execs = chain.executions();
        let decided =
            |e: &OneRoundExec| -> BTreeSet<u64> { e.decisions.iter().flatten().copied().collect() };
        let all = |e: &OneRoundExec, v: u64| e.inputs.iter().all(|&x| x == v);
        match *horn {
            RoundHorn::Disagreement(k) => decided(&execs[k]).len() > 1,
            RoundHorn::Validity { zeros, ones } => {
                let (first, last) = (&execs[0], &execs[execs.len() - 1]);
                execs.iter().all(|e| decided(e).len() == 1)
                    && all(first, 0)
                    && all(last, 1)
                    && decided(first) == BTreeSet::from([zeros])
                    && decided(last) == BTreeSet::from([ones])
                    && (zeros, ones) != (0, 1)
            }
            RoundHorn::Broken(_) => false,
        }
    }

    #[test]
    fn min_rule_is_refuted() {
        // Min rule breaks agreement somewhere in the chain (a partial crash
        // splits who heard the lone 0).
        let (horn, chain) = refute_one_round(&MinRule, 4);
        assert!(matches!(horn, RoundHorn::Disagreement(_)), "{horn:?}");
        assert!(rechecks(&horn, &chain));
        assert_eq!(chain.verify(view), Ok(()));
    }

    #[test]
    fn majority_rule_is_refuted() {
        let (horn, chain) = refute_one_round(&MajorityRule, 4);
        assert!(matches!(horn, RoundHorn::Disagreement(_)), "{horn:?}");
        assert!(rechecks(&horn, &chain));
    }

    #[test]
    fn every_one_round_rule_in_a_family_is_refuted() {
        // Threshold rules: decide 1 iff (#ones seen) ≥ θ. θ = 0 decides 1
        // everywhere and θ = 5 (past n) 0: both agree on every run and
        // fail validity at an end.
        struct Threshold(usize);
        impl OneRoundRule for Threshold {
            fn decide(&self, _m: usize, input: u64, r: &BTreeMap<usize, u64>) -> u64 {
                let ones = r.values().chain([&input]).filter(|&&v| v == 1).count();
                (ones >= self.0) as u64
            }
        }
        for theta in 0..=5 {
            let (horn, chain) = refute_one_round(&Threshold(theta), 4);
            assert!(rechecks(&horn, &chain), "θ = {theta}: {horn:?}");
            let ends = matches!(horn, RoundHorn::Validity { .. });
            assert_eq!(ends, theta == 0 || theta == 5, "θ = {theta}: {horn:?}");
        }
    }

    #[test]
    fn rules_that_read_more_than_their_view_are_caught_at_the_ends_or_the_links() {
        // Decides `1 - last` until the chain's last execution (all ones, no
        // crash: the last 3 of n + n·(2n·(n − 1) + n) = 48 calls at n = 3),
        // then `last`: every run agrees internally.
        struct Clocked {
            calls: Cell<usize>,
            last: u64,
        }
        impl OneRoundRule for Clocked {
            fn decide(&self, _m: usize, _i: u64, _r: &BTreeMap<usize, u64>) -> u64 {
                self.calls.set(self.calls.get() + 1);
                if self.calls.get() > 45 {
                    self.last
                } else {
                    1 - self.last
                }
            }
        }
        let clocked = |last| Clocked {
            calls: Cell::new(0),
            last,
        };
        // Both ends are wrong: validity is broken at each.
        let (horn, chain) = refute_one_round(&clocked(0), 3);
        assert_eq!(horn, RoundHorn::Validity { zeros: 1, ones: 0 });
        assert!(rechecks(&horn, &chain));
        // Both ends are right, so only the transport can catch it: the last
        // link's witness decides differently on a view that did not change.
        let (horn, chain) = refute_one_round(&clocked(1), 3);
        let last = chain.len() - 1;
        let RoundHorn::Broken(ChainError::Distinguishable { link, .. }) = horn else {
            panic!("{horn:?}");
        };
        assert_eq!(link, last);
    }

    /// A rule drawn from a seed: the decision is a pseudo-random bit of the
    /// deciding process's whole view.
    #[derive(Debug, Clone)]
    struct Seeded(u64);
    impl OneRoundRule for Seeded {
        fn decide(&self, me: usize, input: u64, received: &BTreeMap<usize, u64>) -> u64 {
            let view = received
                .iter()
                .fold(me as u64 * 2 + input, |h, (&from, &v)| {
                    h * 16 + 1 + from as u64 * 2 + v
                });
            DetRng::seed_from_u64(self.0 ^ view).next_u64() & 1
        }
    }

    det_prop! {
        fn every_generated_rule_falls_on_a_horn_its_chain_shows(
            cases = 256,
            n in 3usize..=5,
            seed in 0u64..u64::MAX
        ) {
            let (horn, chain) = refute_one_round(&Seeded(seed), n);
            det_assert!(!matches!(horn, RoundHorn::Broken(_)), "{horn:?}");
            det_assert!(rechecks(&horn, &chain), "{horn:?}");
            det_assert_eq!(chain.verify(view), Ok(()));
        }
    }

    #[test]
    fn floodset_with_two_rounds_survives_the_same_crash_patterns() {
        // The bound is tight: t + 1 = 2 rounds handle every crash pattern
        // the chain threw at the one-round candidates.
        let n = 4;
        for flip in 0..n {
            for prefix in 0..n {
                for ones in 0..=n {
                    let inputs: Vec<u64> =
                        (0..n).map(|i| (i < ones) as u64).collect();
                    let run = run_floodset(&inputs, 1, false, &[(flip, 1, prefix)]);
                    assert!(
                        run.agreement(),
                        "floodset broke: inputs {inputs:?} crash ({flip},{prefix})"
                    );
                }
            }
        }
    }

    #[test]
    fn execute_partial_prefix_delivers_in_destination_order() {
        let e = execute(&MinRule, &[0, 1, 1, 1], Some((0, 2)));
        // p0's destinations are 1, 2, 3; prefix 2 reaches 1 and 2.
        assert!(e.received[1].contains_key(&0));
        assert!(e.received[2].contains_key(&0));
        assert!(!e.received[3].contains_key(&0));
        assert_eq!(e.decisions[0], None);
    }
}
