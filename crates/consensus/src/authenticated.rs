//! Authenticated Byzantine agreement — Dolev–Strong with simulated
//! signatures.
//!
//! The survey notes the `t + 1`-round lower bound "was extended to the case
//! where the processes ... are permitted to authenticate messages, in \[43\]
//! and \[37\]" — authentication does not buy rounds, but it *does* dissolve
//! the `n > 3t` process bound: signed agreement works for **any** `n > t`.
//! This module implements the classic Dolev–Strong broadcast: a value is
//! accepted only with a chain of distinct signatures, one per round, so a
//! two-faced general cannot manufacture late surprises without forging.
//!
//! Signatures are simulated (unforgeable by construction: a signature chain
//! is a list of signer ids the runtime refuses to fabricate for honest
//! processes); "there is also some difficulty in defining what it means for
//! a system to permit authentication" — our definition is exactly this
//! runtime discipline, documented here rather than axiomatized.

use impossible_msgpass::sync::{Fault, SyncNet, SyncProcess};
use impossible_msgpass::topology::Topology;
use std::collections::BTreeSet;

/// A signed relay: the value plus the chain of signers (dealer first).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SignedValue {
    /// The value being broadcast.
    pub value: u64,
    /// Signature chain; `signers[0]` must be the dealer.
    signers: Vec<usize>,
}

impl SignedValue {
    /// Chain validity for round `r` with dealer `d`: starts at the dealer,
    /// has `r` *distinct* signers.
    fn valid(&self, dealer: usize, round: usize) -> bool {
        if self.signers.first() != Some(&dealer) || self.signers.len() != round {
            return false;
        }
        let set: BTreeSet<usize> = self.signers.iter().copied().collect();
        set.len() == self.signers.len()
    }
}

/// A Dolev–Strong process (dealer = process 0).
#[derive(Debug, Clone)]
pub struct DolevStrong {
    me: usize,
    n: usize,
    t: usize,
    /// Dealer's input (ignored elsewhere).
    input: u64,
    /// Values extracted with valid signature chains.
    extracted: BTreeSet<u64>,
    /// Values newly extracted this round (to relay next round).
    fresh: Vec<SignedValue>,
    round_done: usize,
}

impl DolevStrong {
    /// A participant; process 0 is the dealer with `input`.
    pub fn new(me: usize, n: usize, t: usize, input: u64) -> Self {
        DolevStrong {
            me,
            n,
            t,
            input,
            extracted: BTreeSet::new(),
            fresh: Vec::new(),
            round_done: 0,
        }
    }

    /// The decision after `t + 1` rounds: the single extracted value, or the
    /// default 0 if the dealer equivocated (|extracted| ≠ 1).
    pub fn decision(&self) -> u64 {
        if self.extracted.len() == 1 {
            *self.extracted.iter().next().expect("len 1")
        } else {
            0
        }
    }
}

impl SyncProcess for DolevStrong {
    type Msg = Vec<SignedValue>;

    fn send(&self, round: usize) -> Vec<(usize, Vec<SignedValue>)> {
        if round > self.t + 1 {
            return Vec::new();
        }
        let payload: Vec<SignedValue> = if round == 1 {
            if self.me == 0 {
                vec![SignedValue {
                    value: self.input,
                    signers: vec![0],
                }]
            } else {
                Vec::new()
            }
        } else {
            // Relay freshly extracted values, countersigned. An honest
            // process signs exactly what it extracted — the unforgeability
            // discipline.
            self.fresh
                .iter()
                .filter(|sv| !sv.signers.contains(&self.me))
                .map(|sv| {
                    let mut signers = sv.signers.clone();
                    signers.push(self.me);
                    SignedValue {
                        value: sv.value,
                        signers,
                    }
                })
                .collect()
        };
        if payload.is_empty() {
            return Vec::new();
        }
        (0..self.n)
            .filter(|&j| j != self.me)
            .map(|j| (j, payload.clone()))
            .collect()
    }

    fn receive(&mut self, round: usize, inbox: Vec<(usize, Vec<SignedValue>)>) {
        self.fresh.clear();
        if round == 1 && self.me == 0 {
            self.extracted.insert(self.input);
        }
        for (from, batch) in inbox {
            for sv in batch {
                // Verify: valid chain for this round, last signer = sender.
                if !sv.valid(0, round) || sv.signers.last() != Some(&from) {
                    continue; // forged / malformed: rejected
                }
                if self.extracted.insert(sv.value) {
                    self.fresh.push(sv);
                }
            }
        }
        self.round_done = round;
    }

    fn halted(&self) -> bool {
        self.round_done > self.t
    }
}

/// A Byzantine dealer strategy: equivocates, sending value `to % 2` to each
/// process with its own (legitimate — it owns its key) signature.
fn equivocating_dealer(t: usize) -> Box<dyn FnMut(usize, usize) -> Option<Vec<SignedValue>>> {
    let _ = t;
    Box::new(move |round: usize, to: usize| {
        (round == 1).then(|| {
            vec![SignedValue {
                value: (to % 2) as u64,
                signers: vec![0],
            }]
        })
    })
}

/// Outcome of a Dolev–Strong run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsRun {
    /// Honest decisions (None at Byzantine positions).
    pub decisions: Vec<Option<u64>>,
    /// Messages delivered.
    pub messages: usize,
}

impl DsRun {
    /// Agreement among honest processes.
    pub fn agreement(&self) -> bool {
        let mut vals = self.decisions.iter().flatten();
        match vals.next() {
            None => true,
            Some(v) => vals.all(|w| w == v),
        }
    }
}

/// Run Dolev–Strong broadcast: dealer 0 with `input`; `byzantine_dealer`
/// replaces it with the equivocator; other Byzantine positions stay silent
/// (silence is the strongest attack available to non-dealers without keys).
pub fn run_dolev_strong(n: usize, t: usize, input: u64, byzantine_dealer: bool) -> DsRun {
    let procs: Vec<DolevStrong> = (0..n).map(|i| DolevStrong::new(i, n, t, input)).collect();
    let mut net = SyncNet::new(Topology::complete(n), procs);
    if byzantine_dealer {
        net = net.with_fault(0, Fault::Byzantine(Box::new(equivocating_dealer(t))));
    }
    net.run(t + 1);
    let decisions = (0..n)
        .map(|i| {
            if byzantine_dealer && i == 0 {
                None
            } else {
                Some(net.processes()[i].decision())
            }
        })
        .collect();
    DsRun {
        decisions,
        messages: net.metrics().messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_dealer_delivers_its_value() {
        for v in [0u64, 1, 7] {
            let run = run_dolev_strong(4, 1, v, false);
            assert!(run.agreement());
            assert_eq!(run.decisions[1], Some(v));
        }
    }

    #[test]
    fn works_even_when_n_equals_t_plus_two() {
        // Signatures dissolve the 3t+1 bound: n = 4, t = 2 works (n > 3t
        // would demand 7).
        let run = run_dolev_strong(4, 2, 5, false);
        assert!(run.agreement());
        assert_eq!(run.decisions[2], Some(5));
    }

    #[test]
    fn equivocating_dealer_cannot_split_the_honest() {
        for (n, t) in [(4usize, 1usize), (5, 2), (4, 2)] {
            let run = run_dolev_strong(n, t, 9, true);
            assert!(
                run.agreement(),
                "n={n} t={t}: honest split {:?}",
                run.decisions
            );
        }
    }

    #[test]
    fn equivocation_with_one_round_only_would_split() {
        // Why t+1 rounds: with t = 0 (a single round) and an equivocating
        // dealer, the honest extract different values and disagree — the
        // relay round is what catches the lie.
        let run = run_dolev_strong(4, 0, 9, true);
        assert!(
            !run.agreement(),
            "one round must be splittable: {:?}",
            run.decisions
        );
    }

    #[test]
    fn signature_chains_validate_strictly() {
        let good = SignedValue {
            value: 1,
            signers: vec![0, 2],
        };
        assert!(good.valid(0, 2));
        assert!(!good.valid(0, 1)); // wrong round
        assert!(!good.valid(1, 2)); // wrong dealer
        let dup = SignedValue {
            value: 1,
            signers: vec![0, 0],
        };
        assert!(!dup.valid(0, 2)); // duplicate signer
    }

    #[test]
    fn forged_chains_are_rejected_by_receivers() {
        let mut p = DolevStrong::new(1, 4, 1, 0);
        // A chain whose last signer isn't the actual sender: rejected.
        p.receive(
            2,
            vec![(
                3,
                vec![SignedValue {
                    value: 4,
                    signers: vec![0, 2], // claims p2 signed, but p3 sent it
                }],
            )],
        );
        assert!(p.extracted.is_empty());
    }
}
