//! Ben-Or's randomized consensus \[19\] — circumventing FLP.
//!
//! "Ben-Or and later Rabin devised interesting randomized algorithms that
//! circumvent the impossibility result; these algorithms eventually decide
//! with probability one, and never violate safety properties." This is the
//! crash-fault Ben-Or for `n > 2t`: each phase has a *report* round and a
//! *proposal* round; a process decides when `t + 1` proposals back one
//! value, and otherwise adopts a proposal or flips a local coin.
//!
//! Safety (agreement + validity) is deterministic; termination holds with
//! probability 1, and [`phase_distribution`] measures the empirical phase
//! count that the experiments plot.

use impossible_msgpass::sync::{Fault, SyncNet, SyncProcess};
use impossible_msgpass::topology::Topology;
use impossible_det::DetRng;
use impossible_obs::{trace_event, NoopTracer, Tracer};

/// Ben-Or wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenOrMsg {
    /// Phase-`r` report of the current estimate.
    Report {
        /// Phase number.
        phase: usize,
        /// Current estimate.
        value: u64,
    },
    /// Phase-`r` proposal (`None` = "no strong majority seen").
    Proposal {
        /// Phase number.
        phase: usize,
        /// Proposed value if any.
        value: Option<u64>,
    },
}

/// A Ben-Or process (binary values).
#[derive(Debug, Clone)]
pub struct BenOr {
    me: usize,
    n: usize,
    t: usize,
    estimate: u64,
    phase: usize,
    reports: Vec<u64>,
    proposals: Vec<Option<u64>>,
    decision: Option<u64>,
    /// Phase at which the decision was made.
    pub decided_phase: Option<usize>,
    rng: DetRng,
}

impl BenOr {
    /// A process with the given binary input.
    pub fn new(me: usize, n: usize, t: usize, input: u64, seed: u64) -> Self {
        assert!(input <= 1, "Ben-Or is binary");
        assert!(n > 2 * t, "requires n > 2t");
        BenOr {
            me,
            n,
            t,
            estimate: input,
            phase: 1,
            reports: Vec::new(),
            proposals: Vec::new(),
            decision: None,
            decided_phase: None,
            rng: DetRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// The decision, if made.
    pub fn decision(&self) -> Option<u64> {
        self.decision
    }

    /// The current estimate (what the process would report next phase).
    pub fn estimate(&self) -> u64 {
        self.estimate
    }

    /// The phase the process is currently in (1-based).
    pub fn phase(&self) -> usize {
        self.phase
    }
}

impl SyncProcess for BenOr {
    type Msg = BenOrMsg;

    fn send(&self, round: usize) -> Vec<(usize, BenOrMsg)> {
        // Rounds alternate: odd = report, even = proposal, two per phase.
        let msg = if round % 2 == 1 {
            BenOrMsg::Report {
                phase: self.phase,
                value: self.estimate,
            }
        } else {
            let strong = self
                .reports
                .iter()
                .filter(|&&v| v == self.majority_candidate())
                .count();
            let value = (2 * strong > self.n).then(|| self.majority_candidate());
            BenOrMsg::Proposal {
                phase: self.phase,
                value,
            }
        };
        (0..self.n)
            .filter(|&j| j != self.me)
            .map(|j| (j, msg.clone()))
            .collect()
    }

    fn receive(&mut self, round: usize, inbox: Vec<(usize, BenOrMsg)>) {
        if round % 2 == 1 {
            // Collect reports (own included).
            self.reports = vec![self.estimate];
            for (_, m) in inbox {
                if let BenOrMsg::Report { phase, value } = m {
                    if phase == self.phase {
                        self.reports.push(value);
                    }
                }
            }
        } else {
            // Collect proposals (own included).
            let own_strong = self
                .reports
                .iter()
                .filter(|&&v| v == self.majority_candidate())
                .count();
            let own = (2 * own_strong > self.n).then(|| self.majority_candidate());
            self.proposals = vec![own];
            for (_, m) in inbox {
                if let BenOrMsg::Proposal { phase, value } = m {
                    if phase == self.phase {
                        self.proposals.push(value);
                    }
                }
            }
            // Decision rule.
            for v in [0u64, 1] {
                let backing = self
                    .proposals
                    .iter()
                    .filter(|p| **p == Some(v))
                    .count();
                if backing > self.t && self.decision.is_none() {
                    self.decision = Some(v);
                    self.decided_phase = Some(self.phase);
                }
            }
            // Adoption / coin.
            if let Some(v) = self.proposals.iter().flatten().next() {
                self.estimate = *v;
            } else if self.decision.is_none() {
                self.estimate = self.rng.gen_range(0..=1);
            }
            if let Some(d) = self.decision {
                self.estimate = d;
            }
            self.phase += 1;
        }
    }

    fn halted(&self) -> bool {
        self.decision.is_some()
    }
}

impl BenOr {
    /// The value that would win a majority among this phase's reports.
    fn majority_candidate(&self) -> u64 {
        let ones = self.reports.iter().filter(|&&v| v == 1).count();
        (2 * ones > self.reports.len()) as u64
    }
}

/// Outcome of one Ben-Or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenOrRun {
    /// Decisions (crashed positions `None`).
    pub decisions: Vec<Option<u64>>,
    /// Phases needed by the slowest decider.
    pub phases: usize,
    /// Whether everyone (non-crashed) decided within the budget.
    pub complete: bool,
}

impl BenOrRun {
    /// Agreement among the decided.
    pub fn agreement(&self) -> bool {
        let mut vals = self.decisions.iter().flatten();
        match vals.next() {
            None => true,
            Some(v) => vals.all(|w| w == v),
        }
    }
}

/// One-character-per-process snapshot used by Ben-Or trace fields:
/// `x` = crashed, `-` = no value, otherwise the (binary) value.
fn census(net: &SyncNet<BenOr>, value_of: impl Fn(&BenOr) -> Option<u64>) -> String {
    net.processes()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if net.is_crashed(i) {
                'x'
            } else {
                match value_of(p) {
                    None => '-',
                    Some(0) => '0',
                    Some(_) => '1',
                }
            }
        })
        .collect()
}

/// Run Ben-Or with crash faults until everyone decides (or `max_phases`),
/// recording a round transcript into `tracer` (scope `"benor"`): one
/// `phase` event per completed report+proposal exchange (with the estimate
/// census), one `decide` event per process the moment it decides, then
/// `end`. Emission is sequential with the lock-step round loop, so the
/// trace is a pure function of `(inputs, t, seed, crashes, max_phases)`.
pub fn run_benor(
    inputs: &[u64],
    t: usize,
    seed: u64,
    crashes: &[(usize, usize, usize)],
    max_phases: usize,
    tracer: &mut dyn Tracer,
) -> BenOrRun {
    let n = inputs.len();
    let procs: Vec<BenOr> = inputs
        .iter()
        .enumerate()
        .map(|(i, &v)| BenOr::new(i, n, t, v, seed))
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
    trace_event!(tracer, "benor", "start",
        "n": n,
        "t": t,
        "seed": seed,
        "max_phases": max_phases,
        "inputs": census(&net, |p| Some(p.estimate())),
    );

    // Step rounds manually (same halt rule as `SyncNet::run_until_halted`)
    // so the transcript can record each phase as it completes.
    let all_halted = |net: &SyncNet<BenOr>| {
        (0..n).all(|i| net.is_crashed(i) || net.processes()[i].halted())
    };
    let mut decided = vec![false; n];
    let mut complete = false;
    for _ in 0..2 * max_phases {
        if all_halted(&net) {
            complete = true;
            break;
        }
        let round = net.step_round();
        for (i, done) in decided.iter_mut().enumerate() {
            let p = &net.processes()[i];
            if !*done && !net.is_crashed(i) {
                if let (Some(v), Some(ph)) = (p.decision(), p.decided_phase) {
                    *done = true;
                    trace_event!(tracer, "benor", "decide",
                        "process": i,
                        "phase": ph,
                        "value": v,
                    );
                }
            }
        }
        if round.is_multiple_of(2) {
            trace_event!(tracer, "benor", "phase",
                "phase": round / 2,
                "estimates": census(&net, |p| Some(p.estimate())),
                "decided": census(&net, |p| p.decision()),
            );
        }
    }
    if !complete {
        complete = all_halted(&net);
    }

    let decisions: Vec<Option<u64>> = (0..n)
        .map(|i| {
            if net.is_crashed(i) {
                None
            } else {
                net.processes()[i].decision()
            }
        })
        .collect();
    let phases = net
        .processes()
        .iter()
        .flat_map(|p| p.decided_phase)
        .max()
        .unwrap_or(max_phases);
    trace_event!(tracer, "benor", "end",
        "complete": complete,
        "phases": phases,
        "decisions": census(&net, |p| p.decision()),
    );
    BenOrRun {
        decisions,
        phases,
        complete,
    }
}

/// Empirical distribution of phases-to-decide over `samples` seeds.
pub fn phase_distribution(
    inputs: &[u64],
    t: usize,
    samples: u64,
    max_phases: usize,
) -> Vec<usize> {
    (0..samples)
        .map(|seed| run_benor(inputs, t, seed, &[], max_phases, &mut NoopTracer).phases)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_inputs_decide_in_one_phase() {
        for v in [0u64, 1] {
            let run = run_benor(&[v; 5], 2, 7, &[], 50, &mut NoopTracer);
            assert!(run.complete);
            assert!(run.agreement());
            assert_eq!(run.decisions[0], Some(v)); // validity
            assert_eq!(run.phases, 1);
        }
    }

    #[test]
    fn mixed_inputs_terminate_with_agreement_across_seeds() {
        for seed in 0..25 {
            let run = run_benor(&[0, 1, 0, 1, 1], 2, seed, &[], 200, &mut NoopTracer);
            assert!(run.complete, "seed {seed} did not terminate");
            assert!(run.agreement(), "seed {seed}: {:?}", run.decisions);
            let v = run.decisions.iter().flatten().next().unwrap();
            assert!([0u64, 1].contains(v));
        }
    }

    #[test]
    fn tolerates_crashes_without_violating_safety() {
        for seed in 0..10 {
            let crashes = [(0, 1, 2), (3, 4, 1)];
            let run = run_benor(&[0, 1, 1, 0, 1], 2, seed, &crashes, 300, &mut NoopTracer);
            assert!(run.agreement(), "seed {seed}: {:?}", run.decisions);
        }
    }

    #[test]
    fn phase_counts_form_a_distribution() {
        // A perfectly balanced split (n = 4, inputs 0,1,0,1) gives no
        // majority in phase 1: everyone proposes ⊥ and flips a coin, so the
        // phase count is genuinely random.
        let dist = phase_distribution(&[0, 1, 0, 1], 1, 30, 300);
        assert_eq!(dist.len(), 30);
        // Termination w.p. 1: all samples finished within the budget.
        assert!(dist.iter().all(|&p| p < 300));
        // And the balanced split always needs more than one phase.
        assert!(dist.iter().all(|&p| p > 1));
        // The distribution is not constant (coins genuinely matter).
        assert!(dist.iter().any(|&p| p != dist[0]) || dist[0] == 2);
    }

    #[test]
    #[should_panic(expected = "n > 2t")]
    fn rejects_too_many_faults() {
        let _ = BenOr::new(0, 4, 2, 0, 1);
    }
}
