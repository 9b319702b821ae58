//! The scenario argument — Figure 1 of the paper, made executable.
//!
//! Fischer, Lynch and Merritt's "easy impossibility proofs" \[54\] establish
//! that Byzantine agreement is impossible for `n = 3, t = 1` (and generally
//! `n ≤ 3t`) by *composing copies of the alleged protocol with itself*: two
//! copies of a 3-process solution `p, q, r` are joined into a six-ring
//! `p0 q0 r0 p1 q1 r1`. Every adjacent *window* of two processes observes a
//! view identical to its view in some genuine 3-process execution in which
//! the remaining process is Byzantine — so the problem statement imposes
//! obligations (agreement, validity) on each window. Around the ring these
//! obligations contradict one another.
//!
//! [`ScenarioRing`] performs the composition for any [`RoundProtocol`], runs
//! it, and checks the window obligations, returning the broken obligation
//! with the ring's decisions as a [`ScenarioContradiction`] when
//! (necessarily, for any candidate protocol) they cannot all hold.
//!
//! ```
//! use impossible_core::scenario::{RoundProtocol, ScenarioRing};
//!
//! // "Decide your own input" — the hexagon refutes it mechanically.
//! struct OwnInput;
//! impl RoundProtocol for OwnInput {
//!     type State = u64;
//!     type Msg = ();
//!     fn n(&self) -> usize { 3 }
//!     fn rounds(&self) -> usize { 1 }
//!     fn init(&self, _pos: usize, input: u64) -> u64 { input }
//!     fn send(&self, _pos: usize, _s: &u64, _r: usize) -> Vec<(usize, ())> {
//!         Vec::new()
//!     }
//!     fn recv(&self, _pos: usize, s: u64, _r: usize, _m: &[(usize, ())]) -> u64 {
//!         s
//!     }
//!     fn decide(&self, _pos: usize, s: &u64) -> Option<u64> { Some(*s) }
//! }
//!
//! let verdict = ScenarioRing::classic(&OwnInput, 1).check();
//! assert!(verdict.is_contradiction());
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Debug;
use std::hash::Hash;

/// A deterministic synchronous full-information protocol for `n` processes on
/// a complete graph, the unit the scenario argument composes.
///
/// Positions are indices `0..n`; process at position `i` may send one message
/// per round to each other position and decides (irrevocably) some round.
pub trait RoundProtocol {
    /// Per-process local state.
    type State: Clone + Eq + Hash + Debug;
    /// Message payload.
    type Msg: Clone + Eq + Hash + Debug;

    /// Number of processes the protocol is written for (3 in Figure 1).
    fn n(&self) -> usize;

    /// Number of rounds after which every process must have decided.
    fn rounds(&self) -> usize;

    /// Initial state of the process at `position` with `input`.
    fn init(&self, position: usize, input: u64) -> Self::State;

    /// Messages sent in `round` (1-based): `(destination position, payload)`.
    fn send(&self, position: usize, state: &Self::State, round: usize) -> Vec<(usize, Self::Msg)>;

    /// State update on receiving `msgs` = `(source position, payload)` pairs
    /// in `round`.
    fn recv(
        &self,
        position: usize,
        state: Self::State,
        round: usize,
        msgs: &[(usize, Self::Msg)],
    ) -> Self::State;

    /// The decision of the process at `position`, if made.
    fn decide(&self, position: usize, state: &Self::State) -> Option<u64>;
}

/// One node of the composed ring: which protocol position it plays, which
/// copy it belongs to, and its assigned input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingNode {
    /// Protocol position (`0..n`) this node plays.
    pub position: usize,
    /// Copy index (subscript in the paper's `p0, q0, r0, p1, q1, r1`).
    pub copy: usize,
    /// Input value given to this node.
    pub input: u64,
}

/// An obligation on a window of adjacent ring nodes, inherited from the
/// genuine-execution correctness conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Obligation {
    /// All window members must decide (termination with ≤ t faults).
    Termination {
        /// Ring indices of the window.
        window: Vec<usize>,
    },
    /// All window members must decide the same value (agreement).
    Agreement {
        /// Ring indices of the window.
        window: Vec<usize>,
    },
    /// All window members share input `v`, so must decide `v` (validity).
    Validity {
        /// Ring indices of the window.
        window: Vec<usize>,
        /// The common input value.
        value: u64,
    },
}

/// The obligation as the paper's Figure 1 argues it: why the window must
/// meet it, and that the ring run does not.
impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Obligation::Termination { window } => write!(
                f,
                "window {window:?} corresponds to a genuine execution with ≤t faults, \
                 so all its members must decide; some did not"
            ),
            Obligation::Validity { window, value } => write!(
                f,
                "window {window:?} has uniform input {value}; validity in the \
                 corresponding genuine execution forces decision {value}"
            ),
            Obligation::Agreement { window } => write!(
                f,
                "window {window:?} corresponds to a genuine execution with ≤t faults, \
                 so agreement forces equal decisions; they differ"
            ),
        }
    }
}

/// The ring run's evidence that it violates a window obligation — the
/// executable content of the Figure 1 contradiction. A reader re-checks it
/// by evaluating `obligation` over `decisions` and `nodes`, without the
/// candidate.
#[derive(Debug, Clone)]
pub struct ScenarioContradiction {
    /// The violated obligation.
    pub obligation: Obligation,
    /// Decisions of every ring node (`None` = undecided after all rounds).
    pub decisions: Vec<Option<u64>>,
    /// The ring layout.
    pub nodes: Vec<RingNode>,
}

impl fmt::Display for ScenarioContradiction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario contradiction: {}", self.obligation)?;
        for (i, (n, d)) in self.nodes.iter().zip(&self.decisions).enumerate() {
            writeln!(
                f,
                "  ring[{i}] = position {} copy {} input {} -> decided {:?}",
                n.position, n.copy, n.input, d
            )?;
        }
        Ok(())
    }
}

/// Outcome of running the scenario composition against a candidate protocol.
#[derive(Debug, Clone)]
pub enum ScenarioVerdict {
    /// A window obligation is violated: the candidate cannot be a correct
    /// `n ≤ 3t` solution (here, the concrete witness).
    Contradiction(ScenarioContradiction),
    /// All obligations hold on this ring — impossible for a genuinely
    /// correct candidate by the FLM theorem, so this means the composition
    /// parameters were too weak (e.g. not enough copies) or the candidate is
    /// not a real protocol for the claimed task.
    ObligationsHold,
}

impl ScenarioVerdict {
    /// True if a contradiction was found.
    pub fn is_contradiction(&self) -> bool {
        matches!(self, ScenarioVerdict::Contradiction(_))
    }
}

/// The Figure 1 composition: `copies` copies of an `n`-process protocol
/// joined into a ring of `copies * n` nodes, with per-copy inputs.
pub struct ScenarioRing<'a, P: RoundProtocol> {
    protocol: &'a P,
    copies: usize,
    /// Input value given to every node of copy `c`.
    copy_inputs: Vec<u64>,
    /// Window size = `n - t`; obligations apply to each window of adjacent
    /// ring nodes, since the rest of the ring can be folded into `t`
    /// Byzantine processes of a genuine execution.
    window: usize,
}

impl<'a, P: RoundProtocol> ScenarioRing<'a, P> {
    /// The classic Figure 1 instance: two copies, copy 0 gets input 0 and
    /// copy 1 gets input 1, windows of size `n - t`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or `t >= n`.
    pub fn classic(protocol: &'a P, t: usize) -> Self {
        let n = protocol.n();
        assert!(t > 0 && t < n, "need 0 < t < n");
        ScenarioRing {
            protocol,
            copies: 2,
            copy_inputs: vec![0, 1],
            window: n - t,
        }
    }

    /// Custom composition.
    ///
    /// # Panics
    ///
    /// Panics unless `copy_inputs.len() == copies`, `copies >= 2` and
    /// `1 <= window < copies * protocol.n()`.
    pub fn new(protocol: &'a P, copies: usize, copy_inputs: Vec<u64>, window: usize) -> Self {
        assert_eq!(copy_inputs.len(), copies);
        assert!(copies >= 2);
        assert!(window >= 1 && window < copies * protocol.n());
        ScenarioRing {
            protocol,
            copies,
            copy_inputs,
            window,
        }
    }

    /// The ring layout.
    pub fn nodes(&self) -> Vec<RingNode> {
        let n = self.protocol.n();
        (0..self.copies * n)
            .map(|i| RingNode {
                position: i % n,
                copy: i / n,
                input: self.copy_inputs[i / n],
            })
            .collect()
    }

    /// Run the composed ring for the protocol's round count and return each
    /// node's decision.
    ///
    /// Message routing: in the genuine protocol, position `x` exchanges
    /// messages with every other position; on the ring each node has exactly
    /// `n - 1` nearest "representatives" of the other positions (its
    /// neighbors within distance `n-1` on either side, taking the closest
    /// representative of each position). For the classic `n = 3` hexagon this
    /// is exactly the paper's wiring: each node's two ring neighbors play the
    /// two other positions.
    pub fn run(&self) -> Vec<Option<u64>> {
        let n = self.protocol.n();
        let ring = self.nodes();
        let len = ring.len();
        let mut states: Vec<P::State> = ring
            .iter()
            .map(|nd| self.protocol.init(nd.position, nd.input))
            .collect();

        // For each ring node, its representative ring-index for each foreign
        // position: the nearest node of that position (ties broken clockwise).
        let repr: Vec<BTreeMap<usize, usize>> = (0..len)
            .map(|i| {
                let mut m = BTreeMap::new();
                for d in 1..len {
                    for &j in &[(i + d) % len, (i + len - d) % len] {
                        let pos = ring[j].position;
                        if pos != ring[i].position {
                            m.entry(pos).or_insert(j);
                        }
                    }
                    if m.len() == n - 1 {
                        break;
                    }
                }
                m
            })
            .collect();

        for round in 1..=self.protocol.rounds() {
            // Collect outgoing messages: (from_ring, to_ring, payload, as_position).
            let mut inboxes: Vec<Vec<(usize, P::Msg)>> = vec![Vec::new(); len];
            for i in 0..len {
                for (dest_pos, payload) in
                    self.protocol.send(ring[i].position, &states[i], round)
                {
                    if let Some(&j) = repr[i].get(&dest_pos) {
                        // Delivered to j as if from position ring[i].position.
                        inboxes[j].push((ring[i].position, payload));
                    }
                }
            }
            for i in 0..len {
                let inbox = std::mem::take(&mut inboxes[i]);
                states[i] = self.protocol.recv(
                    ring[i].position,
                    states[i].clone(),
                    round,
                    &inbox,
                );
            }
        }

        ring.iter()
            .enumerate()
            .map(|(i, nd)| self.protocol.decide(nd.position, &states[i]))
            .collect()
    }

    /// Run the composition and check every window obligation, in the order
    /// termination, validity, agreement.
    pub fn check(&self) -> ScenarioVerdict {
        let decisions = self.run();
        let nodes = self.nodes();
        let len = nodes.len();
        let windows: Vec<Vec<usize>> = (0..len)
            .map(|start| (0..self.window).map(|k| (start + k) % len).collect())
            .collect();

        let at = |w: &[usize]| -> Vec<Option<u64>> { w.iter().map(|&i| decisions[i]).collect() };
        let termination = windows
            .iter()
            .find(|w| at(w).contains(&None))
            .map(|w| Obligation::Termination { window: w.clone() });
        let validity = || {
            windows.iter().find_map(|w| {
                let value = nodes[w[0]].input;
                let uniform = w.iter().all(|&i| nodes[i].input == value);
                (uniform && at(w).iter().any(|&d| d != Some(value))).then(|| Obligation::Validity {
                    window: w.clone(),
                    value,
                })
            })
        };
        let agreement = || {
            windows
                .iter()
                .find(|w| at(w).windows(2).any(|p| p[0] != p[1]))
                .map(|w| Obligation::Agreement { window: w.clone() })
        };
        match termination.or_else(validity).or_else(agreement) {
            Some(obligation) => ScenarioVerdict::Contradiction(ScenarioContradiction {
                obligation,
                decisions,
                nodes,
            }),
            None => ScenarioVerdict::ObligationsHold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "Decide your own input" — trivially wrong; the scenario engine must
    /// catch it through an agreement window.
    struct OwnInput;
    impl RoundProtocol for OwnInput {
        type State = u64;
        type Msg = ();
        fn n(&self) -> usize {
            3
        }
        fn rounds(&self) -> usize {
            1
        }
        fn init(&self, _pos: usize, input: u64) -> u64 {
            input
        }
        fn send(&self, _pos: usize, _s: &u64, _r: usize) -> Vec<(usize, ())> {
            Vec::new()
        }
        fn recv(&self, _pos: usize, s: u64, _r: usize, _m: &[(usize, ())]) -> u64 {
            s
        }
        fn decide(&self, _pos: usize, s: &u64) -> Option<u64> {
            Some(*s)
        }
    }

    #[test]
    fn own_input_violates_agreement() {
        let verdict = ScenarioRing::classic(&OwnInput, 1).check();
        match verdict {
            ScenarioVerdict::Contradiction(c) => {
                assert!(matches!(c.obligation, Obligation::Agreement { .. }));
                // Decisions around the hexagon: copy 0 decides 0, copy 1
                // decides 1, and some window straddles the boundary.
                assert_eq!(c.decisions.len(), 6);
            }
            ScenarioVerdict::ObligationsHold => panic!("must contradict"),
        }
    }

    /// "Always decide 0" — violates validity on the all-ones window.
    struct AlwaysZero;
    impl RoundProtocol for AlwaysZero {
        type State = ();
        type Msg = ();
        fn n(&self) -> usize {
            3
        }
        fn rounds(&self) -> usize {
            1
        }
        fn init(&self, _p: usize, _i: u64) {}
        fn send(&self, _p: usize, _s: &(), _r: usize) -> Vec<(usize, ())> {
            Vec::new()
        }
        fn recv(&self, _p: usize, _s: (), _r: usize, _m: &[(usize, ())]) {}
        fn decide(&self, _p: usize, _s: &()) -> Option<u64> {
            Some(0)
        }
    }

    #[test]
    fn always_zero_violates_validity() {
        let verdict = ScenarioRing::classic(&AlwaysZero, 1).check();
        match verdict {
            ScenarioVerdict::Contradiction(c) => {
                assert!(matches!(
                    c.obligation,
                    Obligation::Validity { value: 1, .. }
                ));
            }
            ScenarioVerdict::ObligationsHold => panic!("must contradict"),
        }
    }

    /// "Never decide" — violates termination.
    struct NeverDecide;
    impl RoundProtocol for NeverDecide {
        type State = ();
        type Msg = ();
        fn n(&self) -> usize {
            3
        }
        fn rounds(&self) -> usize {
            2
        }
        fn init(&self, _p: usize, _i: u64) {}
        fn send(&self, _p: usize, _s: &(), _r: usize) -> Vec<(usize, ())> {
            Vec::new()
        }
        fn recv(&self, _p: usize, _s: (), _r: usize, _m: &[(usize, ())]) {}
        fn decide(&self, _p: usize, _s: &()) -> Option<u64> {
            None
        }
    }

    #[test]
    fn never_decide_violates_termination() {
        let verdict = ScenarioRing::classic(&NeverDecide, 1).check();
        assert!(matches!(
            verdict,
            ScenarioVerdict::Contradiction(ScenarioContradiction {
                obligation: Obligation::Termination { .. },
                ..
            })
        ));
    }

    #[test]
    fn ring_layout_matches_figure_1() {
        let ring = ScenarioRing::classic(&OwnInput, 1).nodes();
        // p0 q0 r0 p1 q1 r1
        let expect: Vec<(usize, usize, u64)> =
            vec![(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 1), (1, 1, 1), (2, 1, 1)];
        for (node, (pos, copy, input)) in ring.iter().zip(expect) {
            assert_eq!((node.position, node.copy, node.input), (pos, copy, input));
        }
    }

    /// An "echo majority" toy protocol: processes exchange inputs for one
    /// round, decide the majority (of 3 values, own + 2 received; missing
    /// treated as own). This is a plausible-looking candidate that the
    /// scenario engine must also refute.
    struct EchoMajority;
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct EchoState {
        input: u64,
        seen: Vec<u64>,
    }
    impl RoundProtocol for EchoMajority {
        type State = EchoState;
        type Msg = u64;
        fn n(&self) -> usize {
            3
        }
        fn rounds(&self) -> usize {
            1
        }
        fn init(&self, _p: usize, input: u64) -> EchoState {
            EchoState {
                input,
                seen: Vec::new(),
            }
        }
        fn send(&self, pos: usize, s: &EchoState, _r: usize) -> Vec<(usize, u64)> {
            (0..3).filter(|&d| d != pos).map(|d| (d, s.input)).collect()
        }
        fn recv(&self, _p: usize, mut s: EchoState, _r: usize, m: &[(usize, u64)]) -> EchoState {
            s.seen = m.iter().map(|(_, v)| *v).collect();
            s
        }
        fn decide(&self, _p: usize, s: &EchoState) -> Option<u64> {
            let mut vals = s.seen.clone();
            vals.push(s.input);
            while vals.len() < 3 {
                vals.push(s.input);
            }
            let ones = vals.iter().filter(|&&v| v == 1).count();
            Some(if ones * 2 > vals.len() { 1 } else { 0 })
        }
    }

    #[test]
    fn echo_majority_refuted() {
        let verdict = ScenarioRing::classic(&EchoMajority, 1).check();
        assert!(verdict.is_contradiction());
    }

    #[test]
    fn contradiction_displays() {
        if let ScenarioVerdict::Contradiction(c) = ScenarioRing::classic(&OwnInput, 1).check() {
            let text = c.to_string();
            assert!(text.contains("scenario contradiction"));
            assert!(text.contains("ring[0]"));
        } else {
            panic!();
        }
    }
}
