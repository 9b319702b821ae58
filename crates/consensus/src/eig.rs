//! Exponential-information-gathering (EIG) Byzantine agreement — the
//! Pease–Shostak–Lamport algorithm \[89, 73\] for `n > 3t`.
//!
//! Each process maintains a tree of "who said that who said ...": round 1
//! broadcasts inputs, round `r` relays every level-`(r−1)` entry, and after
//! `t + 1` rounds values are resolved bottom-up by majority. Correct for
//! `n ≥ 3t + 1`; for `n ≤ 3t` the Figure 1 scenario engine refutes it
//! mechanically (see [`crate::scenario3t`]) — the algorithm also implements
//! [`impossible_core::scenario::RoundProtocol`] precisely so it can be fed
//! to its own impossibility proof.

use impossible_core::scenario::RoundProtocol;
use impossible_msgpass::sync::{ByzantineStrategy, Fault, SyncNet, SyncProcess};
use impossible_msgpass::topology::Topology;
use std::collections::BTreeMap;

/// Default value used for missing/malformed entries.
const DEFAULT: u64 = 0;

/// A label in the EIG tree: a sequence of distinct process ids.
pub type Label = Vec<usize>;

/// Wire format: a batch of `(label, value)` relays.
pub type EigMsg = Vec<(Label, u64)>;

/// The EIG tree and resolution logic, shared by the synchronous-network
/// process and the scenario-engine adapter.
#[derive(Debug, Clone, PartialEq, Eq, std::hash::Hash)]
pub struct EigState {
    me: usize,
    input: u64,
    /// Stored values by label.
    tree: BTreeMap<Label, u64>,
}

impl EigState {
    fn new(me: usize, input: u64) -> Self {
        EigState {
            me,
            input,
            tree: BTreeMap::new(),
        }
    }

    /// The messages process `me` sends in `round` (1-based): its input, or
    /// all level-`(round−1)` entries whose label does not contain `me`.
    fn outgoing(&self, round: usize) -> EigMsg {
        if round == 1 {
            vec![(Vec::new(), self.input)]
        } else {
            self.tree
                .iter()
                .filter(|(label, _)| label.len() == round - 1 && !label.contains(&self.me))
                .map(|(label, v)| (label.clone(), *v))
                .collect()
        }
    }

    /// Ingest a relay batch from `from` during `round`, validating shape.
    fn ingest(&mut self, round: usize, from: usize, msg: &EigMsg, max_depth: usize) {
        for (label, v) in msg {
            // The sender relays level-(round-1) labels not containing it.
            if label.len() != round - 1 || label.contains(&from) {
                continue; // malformed: ignore (Byzantine garbage)
            }
            if !distinct(label) {
                continue;
            }
            let mut stored = label.clone();
            stored.push(from);
            if stored.len() > max_depth {
                continue;
            }
            self.tree.entry(stored).or_insert(*v);
        }
    }

    /// A process also "relays to itself": its own outgoing batch is stored
    /// in its own tree, so labels ending in `me` resolve correctly.
    fn self_relay(&mut self, round: usize, max_depth: usize) {
        let msgs = self.outgoing(round);
        let me = self.me;
        self.ingest(round, me, &msgs, max_depth);
    }

    /// Bottom-up majority resolution; `n` and `depth = t + 1` parameterize
    /// the tree shape.
    fn resolve(&self, label: &Label, n: usize, depth: usize) -> u64 {
        if label.len() == depth {
            return *self.tree.get(label).unwrap_or(&DEFAULT);
        }
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        let mut children = 0usize;
        for k in 0..n {
            if label.contains(&k) {
                continue;
            }
            let mut child = label.clone();
            child.push(k);
            let v = self.resolve(&child, n, depth);
            *counts.entry(v).or_insert(0) += 1;
            children += 1;
        }
        counts
            .into_iter()
            .find(|(_, c)| 2 * c > children)
            .map(|(v, _)| v)
            .unwrap_or(DEFAULT)
    }

    /// The decision after all rounds.
    fn decide(&self, n: usize, depth: usize) -> u64 {
        self.resolve(&Vec::new(), n, depth)
    }
}

fn distinct(label: &Label) -> bool {
    let mut sorted = label.clone();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// The EIG algorithm as a synchronous-network process.
#[derive(Debug, Clone)]
pub struct EigProcess {
    n: usize,
    t: usize,
    state: EigState,
    round_done: usize,
}

impl EigProcess {
    /// A process with the given input.
    pub fn new(me: usize, n: usize, t: usize, input: u64) -> Self {
        EigProcess {
            n,
            t,
            state: EigState::new(me, input),
            round_done: 0,
        }
    }

    /// The decision (meaningful after `t + 1` rounds).
    pub fn decision(&self) -> u64 {
        self.state.decide(self.n, self.t + 1)
    }

    /// Number of entries in the information-gathering tree — the quantity
    /// that grows exponentially with `t`.
    // LINT-ALLOW: dead-pub -- EIG's information tree grows like n^t while the message count stays linear; test information_grows_exponentially_with_t
    pub fn tree_size(&self) -> usize {
        self.state.tree.len()
    }
}

impl SyncProcess for EigProcess {
    type Msg = EigMsg;

    fn send(&self, round: usize) -> Vec<(usize, EigMsg)> {
        if round > self.t + 1 {
            return Vec::new();
        }
        let payload = self.state.outgoing(round);
        (0..self.n)
            .filter(|&j| j != self.state.me)
            .map(|j| (j, payload.clone()))
            .collect()
    }

    fn receive(&mut self, round: usize, inbox: Vec<(usize, EigMsg)>) {
        // Self-relay first (computed from the pre-round tree, like the
        // messages everyone else received from us).
        self.state.self_relay(round, self.t + 1);
        for (from, msg) in inbox {
            self.state.ingest(round, from, &msg, self.t + 1);
        }
        self.round_done = round;
    }

    fn halted(&self) -> bool {
        self.round_done > self.t
    }
}

/// A two-faced Byzantine strategy: sends syntactically valid EIG traffic
/// with destination-dependent values.
pub struct TwoFaced {
    /// This faulty process's id.
    pub me: usize,
    /// Population size.
    pub n: usize,
    /// Fault budget (tree depth = t + 1).
    pub t: usize,
}

impl ByzantineStrategy<EigMsg> for TwoFaced {
    fn fabricate(&mut self, round: usize, to: usize) -> Option<EigMsg> {
        if round > self.t + 1 {
            return None;
        }
        let value = |salt: usize| ((to + round + salt) % 2) as u64;
        if round == 1 {
            return Some(vec![(Vec::new(), value(0))]);
        }
        // All labels of length round-1 over ids != me, distinct.
        let mut labels = vec![Vec::new()];
        for _ in 0..round - 1 {
            let mut next = Vec::new();
            for l in &labels {
                for k in 0..self.n {
                    if k != self.me && !l.contains(&k) {
                        let mut e = l.clone();
                        e.push(k);
                        next.push(e);
                    }
                }
            }
            labels = next;
        }
        Some(
            labels
                .into_iter()
                .enumerate()
                .map(|(i, l)| (l, value(i)))
                .collect(),
        )
    }
}

/// Result of an EIG run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EigRun {
    /// Decisions of the honest processes (`None` at Byzantine positions).
    pub decisions: Vec<Option<u64>>,
    /// Messages delivered.
    pub messages: usize,
    /// Rounds executed (`t + 1`).
    pub rounds: usize,
}

impl EigRun {
    /// Agreement among honest processes.
    pub fn agreement(&self) -> bool {
        let mut vals = self.decisions.iter().flatten();
        match vals.next() {
            None => true,
            Some(v) => vals.all(|w| w == v),
        }
    }
}

/// Run EIG with the given inputs; processes listed in `byzantine` are
/// replaced by [`TwoFaced`] strategies.
pub fn run_eig(inputs: &[u64], t: usize, byzantine: &[usize]) -> EigRun {
    let n = inputs.len();
    let procs: Vec<EigProcess> = inputs
        .iter()
        .enumerate()
        .map(|(i, &v)| EigProcess::new(i, n, t, v))
        .collect();
    let mut net = SyncNet::new(Topology::complete(n), procs);
    for &b in byzantine {
        net = net.with_fault(b, Fault::Byzantine(Box::new(TwoFaced { me: b, n, t })));
    }
    net.run(t + 1);
    let decisions = (0..n)
        .map(|i| {
            if byzantine.contains(&i) {
                None
            } else {
                Some(net.processes()[i].decision())
            }
        })
        .collect();
    EigRun {
        decisions,
        messages: net.metrics().messages,
        rounds: t + 1,
    }
}

/// The EIG algorithm as a [`RoundProtocol`] for the Figure 1 scenario
/// engine: pretend it works for `(n, t)` and let the composition refute it
/// when `n ≤ 3t`.
#[derive(Debug, Clone)]
pub struct Eig {
    n: usize,
    t: usize,
}

impl Eig {
    /// An EIG instance claiming to solve `(n, t)` Byzantine agreement.
    pub fn new(n: usize, t: usize) -> Self {
        Eig { n, t }
    }
}

impl RoundProtocol for Eig {
    type State = EigState;
    type Msg = EigMsg;

    fn n(&self) -> usize {
        self.n
    }

    fn rounds(&self) -> usize {
        self.t + 1
    }

    fn init(&self, position: usize, input: u64) -> EigState {
        EigState::new(position, input)
    }

    fn send(&self, position: usize, state: &EigState, round: usize) -> Vec<(usize, EigMsg)> {
        let payload = state.outgoing(round);
        (0..self.n)
            .filter(|&j| j != position)
            .map(|j| (j, payload.clone()))
            .collect()
    }

    fn recv(
        &self,
        _position: usize,
        mut state: EigState,
        round: usize,
        msgs: &[(usize, EigMsg)],
    ) -> EigState {
        state.self_relay(round, self.t + 1);
        for (from, msg) in msgs {
            state.ingest(round, *from, msg, self.t + 1);
        }
        state
    }

    fn decide(&self, _position: usize, state: &EigState) -> Option<u64> {
        Some(state.decide(self.n, self.t + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_agreement_and_validity() {
        let run = run_eig(&[1, 1, 0, 1], 1, &[]);
        assert!(run.agreement());
        // With no faults, majority resolution yields an actual input value.
        let v = run.decisions[0].unwrap();
        assert!([0u64, 1].contains(&v));
    }

    #[test]
    fn n4_t1_tolerates_two_faced_byzantine() {
        for victim in 0..4 {
            let mut inputs = vec![1, 1, 1, 1];
            inputs[victim] = 0; // the traitor's "input" is irrelevant anyway
            let run = run_eig(&inputs, 1, &[victim]);
            assert!(run.agreement(), "byz at {victim}: {:?}", run.decisions);
            // Validity: all honest inputs are 1 ⇒ decision must be 1.
            if inputs
                .iter()
                .enumerate()
                .all(|(i, &v)| i == victim || v == 1)
            {
                assert_eq!(run.decisions.iter().flatten().next(), Some(&1));
            }
        }
    }

    #[test]
    fn n7_t2_tolerates_two_byzantine() {
        let inputs = vec![1, 0, 1, 1, 0, 1, 1];
        let run = run_eig(&inputs, 2, &[2, 5]);
        assert!(run.agreement(), "{:?}", run.decisions);
    }

    #[test]
    fn unanimous_honest_inputs_are_decided() {
        // Validity under Byzantine pressure: all honest say 0.
        let run = run_eig(&[0, 0, 0, 0, 0, 0, 0], 2, &[3, 6]);
        assert!(run.agreement());
        assert_eq!(run.decisions.iter().flatten().next(), Some(&0));
    }

    #[test]
    fn information_grows_exponentially_with_t() {
        // Message *count* grows linearly with rounds, but the information
        // each message carries — the EIG tree — grows like n^t.
        let n = 7;
        let tree_for = |t: usize| {
            let procs: Vec<EigProcess> =
                (0..n).map(|i| EigProcess::new(i, n, t, 1)).collect();
            let mut net = SyncNet::new(Topology::complete(n), procs);
            net.run(t + 1);
            net.processes()[0].tree_size()
        };
        let (s1, s2, s3) = (tree_for(1), tree_for(2), tree_for(3));
        assert!(s2 > 4 * s1, "s1={s1} s2={s2}");
        assert!(s3 > 3 * s2, "s2={s2} s3={s3}");
    }

    #[test]
    fn scenario_adapter_matches_sync_run_when_honest() {
        // The RoundProtocol adapter and the SyncNet process compute the same
        // decision on a genuine failure-free instance.
        let eig = Eig::new(4, 1);
        let inputs = [1u64, 0, 1, 1];
        // Simulate the adapter by hand over a complete graph.
        let mut states: Vec<EigState> = (0..4)
            .map(|i| RoundProtocol::init(&eig, i, inputs[i]))
            .collect();
        for round in 1..=eig.rounds() {
            let sends: Vec<Vec<(usize, EigMsg)>> = (0..4)
                .map(|i| eig.send(i, &states[i], round))
                .collect();
            let mut inboxes: Vec<Vec<(usize, EigMsg)>> = vec![Vec::new(); 4];
            for (from, msgs) in sends.into_iter().enumerate() {
                for (to, m) in msgs {
                    inboxes[to].push((from, m));
                }
            }
            for i in 0..4 {
                states[i] = eig.recv(i, states[i].clone(), round, &inboxes[i]);
            }
        }
        let adapter_decisions: Vec<u64> = (0..4)
            .map(|i| eig.decide(i, &states[i]).unwrap())
            .collect();
        let sync_run = run_eig(&inputs, 1, &[]);
        for i in 0..4 {
            assert_eq!(Some(adapter_decisions[i]), sync_run.decisions[i]);
        }
    }

    #[test]
    fn malformed_byzantine_labels_are_ignored() {
        let mut st = EigState::new(0, 1);
        // Label contains the sender: malformed.
        st.ingest(2, 3, &vec![(vec![3], 9)], 2);
        assert!(st.tree.is_empty());
        // Label with duplicate ids: malformed.
        st.ingest(3, 4, &vec![(vec![1, 1], 9)], 3);
        assert!(st.tree.is_empty());
        // Correct shape is stored.
        st.ingest(2, 3, &vec![(vec![1], 9)], 2);
        assert_eq!(st.tree.get(&vec![1, 3]), Some(&9));
    }
}
