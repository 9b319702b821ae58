//! Consensus under partial synchrony — Dwork–Lynch–Stockmeyer \[46\].
//!
//! FLP forbids asynchronous consensus; DLS showed that *eventual* synchrony
//! is enough: if message delays are unbounded only until some unknown
//! Global Stabilization Time (GST), consensus with `t < n/2` crash/omission
//! faults is solvable — "consensus algorithms for the case where the
//! problem definition is weakened to allow nontermination if certain nice
//! timing conditions fail".
//!
//! The algorithm is the rotating-coordinator / quorum-lock pattern:
//! each phase, processes report their `(estimate, lock timestamp)` to the
//! phase's coordinator; a coordinator that hears a **majority** proposes
//! the highest-timestamped value; majority acks lock it; a majority of
//! locks decides. Quorum intersection makes decisions stable across
//! coordinators; before GST the omission adversary can only stall, never
//! split. The survey's open question 2 (exact time bounds) shows up as the
//! measured decide-phase-after-GST.

use impossible_msgpass::sync::{SyncNet, SyncProcess};
use impossible_msgpass::topology::Topology;

/// Wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlsMsg {
    /// Report to the coordinator: `(estimate, lock timestamp)`.
    Report {
        /// Current estimate.
        estimate: u64,
        /// Phase in which it was locked (0 = never locked).
        lock_ts: usize,
    },
    /// Coordinator's proposal for this phase.
    Propose(u64),
    /// Ack: the sender locked the proposal.
    Ack(u64),
    /// Decision announcement.
    Decide(u64),
}

/// A DLS process.
#[derive(Debug, Clone)]
pub struct Dls {
    me: usize,
    n: usize,
    estimate: u64,
    lock_ts: usize,
    phase: usize,
    reports: Vec<(u64, usize)>,
    acks: usize,
    proposal: Option<u64>,
    decision: Option<u64>,
    /// Phase at which this process decided.
    pub decided_phase: Option<usize>,
}

impl Dls {
    /// A process with binary-ish input (any u64 works).
    pub fn new(me: usize, n: usize, input: u64) -> Self {
        Dls {
            me,
            n,
            estimate: input,
            lock_ts: 0,
            phase: 1,
            reports: Vec::new(),
            acks: 0,
            proposal: None,
            decision: None,
            decided_phase: None,
        }
    }

    /// The decision, if made.
    pub fn decision(&self) -> Option<u64> {
        self.decision
    }

    fn coordinator(&self) -> usize {
        (self.phase - 1) % self.n
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }
}

/// Four rounds per phase: report, propose, ack, decide/advance.
const ROUNDS_PER_PHASE: usize = 4;

impl SyncProcess for Dls {
    type Msg = DlsMsg;

    fn send(&self, round: usize) -> Vec<(usize, DlsMsg)> {
        let sub = (round - 1) % ROUNDS_PER_PHASE;
        let coord = self.coordinator();
        match sub {
            0 => {
                // Everyone reports to the coordinator (self included,
                // handled locally).
                if self.me == coord {
                    Vec::new()
                } else {
                    vec![(
                        coord,
                        DlsMsg::Report {
                            estimate: self.estimate,
                            lock_ts: self.lock_ts,
                        },
                    )]
                }
            }
            1 => {
                // Coordinator proposes if it heard a majority.
                if self.me == coord {
                    if let Some(v) = self.proposal {
                        return (0..self.n)
                            .filter(|&j| j != self.me)
                            .map(|j| (j, DlsMsg::Propose(v)))
                            .collect();
                    }
                }
                Vec::new()
            }
            2 => {
                // Ack a proposal we locked.
                if self.me != coord {
                    if let Some(v) = self.proposal {
                        return vec![(coord, DlsMsg::Ack(v))];
                    }
                }
                Vec::new()
            }
            _ => {
                // Coordinator announces a decision backed by a majority.
                if self.me == coord && self.acks + 1 >= self.majority() {
                    if let Some(v) = self.proposal {
                        return (0..self.n)
                            .filter(|&j| j != self.me)
                            .map(|j| (j, DlsMsg::Decide(v)))
                            .collect();
                    }
                }
                Vec::new()
            }
        }
    }

    fn receive(&mut self, round: usize, inbox: Vec<(usize, DlsMsg)>) {
        let sub = (round - 1) % ROUNDS_PER_PHASE;
        let coord = self.coordinator();
        for (_, m) in &inbox {
            if let DlsMsg::Decide(v) = m {
                if self.decision.is_none() {
                    self.decision = Some(*v);
                    self.decided_phase = Some(self.phase);
                    self.estimate = *v;
                }
            }
        }
        match sub {
            0 => {
                if self.me == coord {
                    self.reports = vec![(self.estimate, self.lock_ts)];
                    for (_, m) in inbox {
                        if let DlsMsg::Report { estimate, lock_ts } = m {
                            self.reports.push((estimate, lock_ts));
                        }
                    }
                    self.proposal = if self.reports.len() >= self.majority() {
                        // Highest-timestamped lock wins; ties → coordinator's
                        // own estimate ordering (max by (ts, value)).
                        self.reports
                            .iter()
                            .max_by_key(|(v, ts)| (*ts, *v))
                            .map(|(v, _)| *v)
                    } else {
                        None
                    };
                    self.acks = 0;
                }
            }
            1 => {
                if self.me != coord {
                    self.proposal = None;
                    for (from, m) in inbox {
                        if from == coord {
                            if let DlsMsg::Propose(v) = m {
                                self.proposal = Some(v);
                                self.estimate = v;
                                self.lock_ts = self.phase;
                            }
                        }
                    }
                }
            }
            2 => {
                if self.me == coord {
                    self.acks = inbox
                        .iter()
                        .filter(|(_, m)| matches!(m, DlsMsg::Ack(_)))
                        .count();
                    if let Some(v) = self.proposal.filter(|_| self.acks + 1 >= self.majority()) {
                        // The coordinator itself decides now.
                        if self.decision.is_none() {
                            self.decision = Some(v);
                            self.decided_phase = Some(self.phase);
                        }
                    }
                }
            }
            _ => {
                self.phase += 1;
                self.proposal = None;
            }
        }
    }

    fn halted(&self) -> bool {
        self.decision.is_some()
    }
}

/// Outcome of a DLS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlsRun {
    /// Decisions.
    pub decisions: Vec<Option<u64>>,
    /// Phase of the latest decider.
    pub last_decide_phase: Option<usize>,
    /// True if every process decided within the budget.
    pub complete: bool,
}

impl DlsRun {
    /// Agreement among the decided.
    pub fn agreement(&self) -> bool {
        let mut vals = self.decisions.iter().flatten();
        match vals.next() {
            None => true,
            Some(v) => vals.all(|w| w == v),
        }
    }
}

/// Run DLS with an omission adversary that drops **every** message until
/// round `gst` (the pre-GST chaos), then delivers everything.
pub fn run_dls(inputs: &[u64], gst: usize, max_phases: usize) -> DlsRun {
    let n = inputs.len();
    let procs: Vec<Dls> = inputs
        .iter()
        .enumerate()
        .map(|(i, &v)| Dls::new(i, n, v))
        .collect();
    let mut net = SyncNet::new(Topology::complete(n), procs)
        .with_omission(move |round, _from, _to| round < gst);
    let complete = net.run_until_halted(gst + max_phases * ROUNDS_PER_PHASE);
    let decisions: Vec<Option<u64>> = net.processes().iter().map(|p| p.decision()).collect();
    let last_decide_phase = net
        .processes()
        .iter()
        .filter_map(|p| p.decided_phase)
        .max();
    DlsRun {
        decisions,
        last_decide_phase,
        complete,
    }
}

/// Run DLS with a *selective* pre-GST adversary (drops per a seeded mask)
/// to exercise safety under partial, asymmetric omission.
pub fn run_dls_selective(inputs: &[u64], gst: usize, seed: u64, max_phases: usize) -> DlsRun {
    use impossible_det::DetRng;
    let n = inputs.len();
    let procs: Vec<Dls> = inputs
        .iter()
        .enumerate()
        .map(|(i, &v)| Dls::new(i, n, v))
        .collect();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut net = SyncNet::new(Topology::complete(n), procs)
        .with_omission(move |round, _from, _to| round < gst && rng.gen_bool(0.6));
    let complete = net.run_until_halted(gst + max_phases * ROUNDS_PER_PHASE);
    let decisions: Vec<Option<u64>> = net.processes().iter().map(|p| p.decision()).collect();
    let last_decide_phase = net
        .processes()
        .iter()
        .filter_map(|p| p.decided_phase)
        .max();
    DlsRun {
        decisions,
        last_decide_phase,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decides_immediately_when_synchronous_from_the_start() {
        let run = run_dls(&[1, 0, 1, 1, 0], 0, 10);
        assert!(run.complete);
        assert!(run.agreement());
        assert_eq!(run.last_decide_phase, Some(1));
    }

    #[test]
    fn validity_unanimous_inputs() {
        for v in [0u64, 1] {
            let run = run_dls(&[v; 5], 0, 10);
            assert!(run.agreement());
            assert_eq!(run.decisions[0], Some(v));
        }
    }

    #[test]
    fn stalls_before_gst_then_decides_quickly_after() {
        // Total omission until round 9: no decision can exist before GST;
        // after GST, decide within ~2 phases.
        let gst = 9;
        let run = run_dls(&[0, 1, 1, 0, 1], gst, 10);
        assert!(run.complete);
        assert!(run.agreement());
        let phase = run.last_decide_phase.unwrap();
        let gst_phase = gst / 4 + 1;
        assert!(
            phase <= gst_phase + 2,
            "decided at phase {phase}, GST at phase {gst_phase}"
        );
    }

    #[test]
    fn safety_under_selective_asymmetric_omission() {
        for seed in 0..20 {
            let run = run_dls_selective(&[0, 1, 0, 1, 1], 17, seed, 12);
            assert!(run.agreement(), "seed {seed}: {:?}", run.decisions);
            if run.complete {
                let v = run.decisions.iter().flatten().next().unwrap();
                assert!([0u64, 1].contains(v), "seed {seed}");
            }
        }
    }

    #[test]
    fn quorum_locks_keep_late_coordinators_consistent() {
        // Force several phases by dropping messages through phase 2, then
        // confirm the eventual decision agrees even though coordinators
        // rotated.
        let run = run_dls(&[1, 1, 0, 0, 1], 12, 12);
        assert!(run.complete);
        assert!(run.agreement());
    }
}
