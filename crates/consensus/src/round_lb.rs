//! The `t + 1`-round lower bound \[56\], executable as a chain adversary.
//!
//! For `t = 1` the theorem says one round cannot suffice. Given **any**
//! one-round decision rule, [`refute_one_round`] builds the Fischer–Lynch
//! chain of executions — flip one input at a time, threading through crash
//! faults with ever-longer *partial send prefixes* so each adjacent pair of
//! executions is indistinguishable to some witness process — and reports
//! which correctness condition the candidate loses:
//!
//! * if every execution in the chain agrees internally and decides, the
//!   chain transports decision 0 from the all-zeros run to the all-ones run,
//!   contradicting validity (the certificate);
//! * otherwise some execution in the chain already violates agreement,
//!   validity or termination under a single crash — also a certificate.
//!
//! FloodSet with `t + 1 = 2` rounds survives every crash pattern the chain
//! uses (asserted in the tests), matching the bound from above.

use impossible_core::cert::{Certificate, Technique};
use impossible_core::chain::Chain;
use impossible_core::ids::ProcessId;
use std::collections::BTreeMap;

/// A one-round consensus rule: after broadcasting inputs, each process
/// decides from its own input and the messages that arrived.
pub trait OneRoundRule {
    /// Decide from `(own input, received map from → value)`.
    fn decide(&self, me: usize, input: u64, received: &BTreeMap<usize, u64>) -> u64;

    /// Display name for certificates.
    fn name(&self) -> &'static str;
}

/// "Decide the minimum value seen."
#[derive(Debug, Clone, Default)]
pub struct MinRule;

impl OneRoundRule for MinRule {
    fn decide(&self, _me: usize, input: u64, received: &BTreeMap<usize, u64>) -> u64 {
        received.values().copied().chain([input]).min().expect("nonempty")
    }
    fn name(&self) -> &'static str {
        "min-of-seen"
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
    fn name(&self) -> &'static str {
        "majority-of-seen"
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
    for from in 0..n {
        let dests: Vec<usize> = (0..n).filter(|&j| j != from).collect();
        let limit = match crash {
            Some((p, k)) if p == from => k,
            _ => dests.len(),
        };
        for &to in dests.iter().take(limit) {
            received[to].insert(from, inputs[from]);
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

/// Refute a one-round rule as a 1-crash-resilient consensus protocol.
///
/// Always returns a certificate for `n ≥ 3` — that is the theorem.
pub fn refute_one_round<R: OneRoundRule>(rule: &R, n: usize) -> Certificate {
    let chain = build_chain(rule, n);
    let claim = format!(
        "one-round rule '{}' solves 1-crash-resilient consensus for n = {n}",
        rule.name()
    );

    // First look for a direct violation inside some execution of the chain.
    for (idx, e) in chain.executions().iter().enumerate() {
        if all_agree(e).is_none() {
            return Certificate::new(
                Technique::Chain,
                claim,
                format!(
                    "execution {idx} of the chain (inputs {:?}, crash {:?}) decides {:?} — \
                     agreement already fails under one crash",
                    e.inputs, e.crash, e.decisions
                ),
            );
        }
    }
    // Validity endpoints.
    let head = all_agree(&chain.executions()[0]).expect("checked above");
    let tail = all_agree(chain.executions().last().expect("nonempty")).expect("checked above");
    if head != 0 || tail != 1 {
        return Certificate::new(
            Technique::Chain,
            claim,
            format!(
                "validity fails at an endpoint: all-zeros run decides {head}, \
                 all-ones run decides {tail}"
            ),
        );
    }
    // All executions agree internally and endpoints satisfy validity: the
    // chain transport forces head == tail, contradiction.
    match chain.transport(view, |e, p| view(e, p).and(e.decisions[p.index()]), all_agree) {
        Ok(cert) => {
            debug_assert!(cert.values_equal(), "transport forces equality");
            Certificate::new(
                Technique::Chain,
                claim,
                format!(
                    "chain of {} indistinguishable links transports decision {} from the \
                     all-zeros run to the all-ones run, which validity requires to decide 1 — \
                     contradiction ({cert})",
                    cert.links, cert.head_value
                ),
            )
        }
        Err(err) => Certificate::new(
            Technique::Chain,
            claim,
            format!("chain exposed a direct violation: {err}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floodset::run_floodset;

    #[test]
    fn chain_links_are_indistinguishable_until_violation() {
        let chain = build_chain(&MinRule, 4);
        // Every link's witness has identical views on both sides — the
        // structural heart of the argument.
        assert!(chain.verify(view).is_ok());
        assert!(chain.len() > 8);
    }

    #[test]
    fn min_rule_is_refuted() {
        let cert = refute_one_round(&MinRule, 4);
        assert_eq!(cert.technique, Technique::Chain);
        // Min rule breaks agreement somewhere in the chain (a partial crash
        // splits who heard the lone 0).
        assert!(cert.witness.contains("agreement") || cert.witness.contains("contradiction"));
    }

    #[test]
    fn majority_rule_is_refuted() {
        let cert = refute_one_round(&MajorityRule, 4);
        assert_eq!(cert.technique, Technique::Chain);
    }

    #[test]
    fn every_one_round_rule_in_a_family_is_refuted() {
        // Threshold rules: decide 1 iff (#ones seen) ≥ θ.
        struct Threshold(usize);
        impl OneRoundRule for Threshold {
            fn decide(&self, _m: usize, input: u64, r: &BTreeMap<usize, u64>) -> u64 {
                let ones = r.values().chain([&input]).filter(|&&v| v == 1).count();
                (ones >= self.0) as u64
            }
            fn name(&self) -> &'static str {
                "threshold"
            }
        }
        for theta in 0..=5 {
            let cert = refute_one_round(&Threshold(theta), 4);
            assert_eq!(cert.technique, Technique::Chain, "θ = {theta}");
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
