//! FloodSet — crash-tolerant consensus in `t + 1` rounds.
//!
//! Every process repeatedly broadcasts the set of values it has seen; after
//! `t + 1` rounds there must have been a *clean round* with no new crash, at
//! which point all views coincide, and everyone decides the minimum value
//! seen. The matching lower bound — `t + 1` rounds are *necessary* — is the
//! chain argument in [`crate::round_lb`].
//!
//! The early-stopping variant decides as soon as its view is stable across
//! two consecutive rounds, achieving `min(f + 2, t + 1)` rounds when only
//! `f ≤ t` crashes actually occur (the Dwork–Moses refinement the survey
//! describes).

use impossible_msgpass::sync::{Fault, SyncNet, SyncProcess};
use impossible_msgpass::topology::Topology;
use std::collections::BTreeSet;

/// A FloodSet process.
#[derive(Debug, Clone)]
pub struct FloodSet {
    me: usize,
    n: usize,
    rounds: usize,
    early_stopping: bool,
    seen: BTreeSet<u64>,
    prev_seen: Option<BTreeSet<u64>>,
    decision: Option<u64>,
    /// Round in which the decision was made (for round-count experiments).
    decided_at: Option<usize>,
}

impl FloodSet {
    /// A process with the given input, running `t + 1` rounds.
    pub fn new(me: usize, n: usize, t: usize, input: u64) -> Self {
        FloodSet {
            me,
            n,
            rounds: t + 1,
            early_stopping: false,
            seen: BTreeSet::from([input]),
            prev_seen: None,
            decision: None,
            decided_at: None,
        }
    }

    /// Early-stopping variant: decide once the view is stable.
    fn early_stopping(mut self) -> Self {
        self.early_stopping = true;
        self
    }

    /// The decision, if made.
    pub fn decision(&self) -> Option<u64> {
        self.decision
    }

    fn maybe_decide(&mut self, round: usize) {
        if self.decision.is_some() {
            return;
        }
        let stable = self.prev_seen.as_ref() == Some(&self.seen);
        if round >= self.rounds || (self.early_stopping && stable) {
            self.decision = Some(*self.seen.iter().next().expect("nonempty"));
            self.decided_at = Some(round);
        }
    }
}

impl SyncProcess for FloodSet {
    type Msg = BTreeSet<u64>;

    fn send(&self, _round: usize) -> Vec<(usize, BTreeSet<u64>)> {
        if self.decision.is_some() {
            return Vec::new();
        }
        (0..self.n)
            .filter(|&j| j != self.me)
            .map(|j| (j, self.seen.clone()))
            .collect()
    }

    fn receive(&mut self, round: usize, inbox: Vec<(usize, BTreeSet<u64>)>) {
        self.prev_seen = Some(self.seen.clone());
        for (_, set) in inbox {
            self.seen.extend(set);
        }
        self.maybe_decide(round);
    }

    fn halted(&self) -> bool {
        self.decision.is_some()
    }
}

/// Outcome of one FloodSet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodSetRun {
    /// Decisions of the non-crashed processes, indexed by process.
    pub decisions: Vec<Option<u64>>,
    /// Rounds each non-crashed process took to decide.
    pub rounds_to_decide: Vec<Option<usize>>,
    /// Messages delivered.
    pub messages: usize,
}

impl FloodSetRun {
    /// True if all present decisions are equal.
    pub fn agreement(&self) -> bool {
        let mut vals = self.decisions.iter().flatten();
        match vals.next() {
            None => true,
            Some(v) => vals.all(|w| w == v),
        }
    }
}

/// Run FloodSet with the given inputs and crash faults.
///
/// `crashes` = `(process, round, deliver_prefix)` triples; there should be
/// at most `t` of them for the guarantees to hold (the tests deliberately
/// exceed `t` to watch the guarantees fail).
pub fn run_floodset(
    inputs: &[u64],
    t: usize,
    early_stopping: bool,
    crashes: &[(usize, usize, usize)],
) -> FloodSetRun {
    let n = inputs.len();
    let procs: Vec<FloodSet> = inputs
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let p = FloodSet::new(i, n, t, v);
            if early_stopping {
                p.early_stopping()
            } else {
                p
            }
        })
        .collect();
    let mut net = SyncNet::new(Topology::complete(n), procs);
    for &(p, round, prefix) in crashes {
        net = net.with_fault(
            p,
            Fault::Crash {
                round,
                deliver_prefix: prefix,
            },
        );
    }
    net.run_until_halted(t + 2);
    let decisions = net
        .processes()
        .iter()
        .enumerate()
        .map(|(i, p)| if net.is_crashed(i) { None } else { p.decision() })
        .collect();
    let rounds_to_decide = net
        .processes()
        .iter()
        .enumerate()
        .map(|(i, p)| if net.is_crashed(i) { None } else { p.decided_at })
        .collect();
    FloodSetRun {
        decisions,
        rounds_to_decide,
        messages: net.metrics().messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_agreement_and_validity() {
        let run = run_floodset(&[3, 1, 2, 5], 1, false, &[]);
        assert!(run.agreement());
        assert_eq!(run.decisions[0], Some(1)); // min of all inputs
    }

    #[test]
    fn tolerates_t_crashes_with_partial_sends() {
        // t = 2: two crashes with adversarial prefixes.
        let run = run_floodset(&[1, 0, 1, 1, 1], 2, false, &[(0, 1, 1), (1, 2, 2)]);
        assert!(run.agreement(), "decisions {:?}", run.decisions);
        // Validity: decided value is someone's input.
        let v = run.decisions.iter().flatten().next().unwrap();
        assert!([0u64, 1].contains(v));
    }

    #[test]
    fn decides_exactly_at_t_plus_one_without_early_stopping() {
        let run = run_floodset(&[0, 1, 0], 2, false, &[]);
        for r in run.rounds_to_decide.iter().flatten() {
            assert_eq!(*r, 3); // t + 1
        }
    }

    #[test]
    fn early_stopping_beats_t_plus_one_in_clean_runs() {
        // t = 3 but no actual crash: early stopping decides after 2 stable
        // rounds instead of 4.
        let run = run_floodset(&[0, 1, 1, 0, 1], 3, true, &[]);
        assert!(run.agreement());
        for r in run.rounds_to_decide.iter().flatten() {
            assert!(*r <= 2, "early stop took {r} rounds");
        }
    }

    #[test]
    fn early_stopping_scales_with_actual_faults() {
        // f = 1 actual crash, t = 3: decide within f + 2 = 3 rounds.
        let run = run_floodset(&[0, 1, 1, 0, 1], 3, true, &[(0, 1, 2)]);
        assert!(run.agreement());
        for r in run.rounds_to_decide.iter().flatten() {
            assert!(*r <= 3, "early stop with 1 fault took {r}");
        }
    }

    #[test]
    fn exceeding_t_crashes_can_break_agreement() {
        // The guarantee is conditional on ≤ t crashes: with t = 0 (protocol
        // runs 1 round) and one adversarial partial crash, views diverge.
        let run = run_floodset(&[0, 1, 1], 0, false, &[(0, 1, 1)]);
        // p1 heard p0's 0; p2 did not; both decide after round 1.
        assert!(
            !run.agreement(),
            "0 tolerated crashes + 1 actual crash must be able to split: {:?}",
            run.decisions
        );
    }

    #[test]
    fn message_count_is_quadratic_per_round() {
        let n = 6;
        let run = run_floodset(&vec![1; n], 1, false, &[]);
        // 2 rounds, n(n-1) messages each.
        assert_eq!(run.messages, 2 * n * (n - 1));
    }
}
