//! The α-synchronizer — "a program designed to adapt synchronous algorithms
//! for use in (reliable) asynchronous networks" (Awerbuch \[16\]).
//!
//! Each simulated round, every process sends its round payload — or an
//! explicit `Null` — to **every** neighbour, and advances when it has heard
//! from all of them. Awerbuch proved an inherent time/communication
//! tradeoff for synchronizers; the α point of the curve spends `2·E`
//! messages per round to keep simulated time equal to real rounds. The
//! executable claim here: the overhead factor (messages per simulated round
//! ÷ algorithm's own messages) is measured and compared to the `2E` curve.

use crate::asyncnet::{AsyncProcess, DelayModel, Time, TimedNet};
use crate::topology::Topology;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// A synchronous algorithm to be simulated on an asynchronous network.
pub trait SimpleSync {
    /// Payload type.
    type Msg: Clone + Debug;

    /// Messages to send in `round` (1-based), to **neighbours only**.
    fn send(&mut self, round: usize) -> Vec<(usize, Self::Msg)>;

    /// Receive the round's messages.
    fn receive(&mut self, round: usize, msgs: Vec<(usize, Self::Msg)>);

    /// The algorithm has produced its output.
    fn done(&self) -> bool;
}

/// Synchronizer wire format.
#[derive(Debug, Clone)]
pub enum SyncWrap<M> {
    /// A real payload for `round`.
    Payload {
        /// Simulated round.
        round: usize,
        /// The algorithm's message.
        msg: M,
    },
    /// "I have nothing for you this round" — the synchronization beat.
    Null {
        /// Simulated round.
        round: usize,
    },
}

/// A process of the α-synchronizer wrapping a [`SimpleSync`] instance.
pub struct AlphaProcess<A: SimpleSync> {
    neighbors: Vec<usize>,
    alg: A,
    round: usize,
    heard: BTreeMap<usize, Vec<(usize, A::Msg)>>, // round -> received payloads
    beats: BTreeMap<usize, usize>,                // round -> neighbours heard
    max_rounds: usize,
    /// Simulated rounds completed.
    rounds_done: usize,
}

impl<A: SimpleSync> AlphaProcess<A> {
    /// Wrap `alg` at position `me` of `topology`, simulating up to
    /// `max_rounds` rounds.
    pub fn new(me: usize, topology: &Topology, alg: A, max_rounds: usize) -> Self {
        let _ = me;
        AlphaProcess {
            neighbors: topology.neighbors(me).to_vec(),
            alg,
            round: 0,
            heard: BTreeMap::new(),
            beats: BTreeMap::new(),
            max_rounds,
            rounds_done: 0,
        }
    }

    /// The wrapped algorithm (for reading its output).
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    fn start_round(&mut self) -> Vec<(usize, SyncWrap<A::Msg>)> {
        self.round += 1;
        let round = self.round;
        if round > self.max_rounds {
            return Vec::new();
        }
        let payloads = self.alg.send(round);
        let mut out: Vec<(usize, SyncWrap<A::Msg>)> = Vec::new();
        for &nbr in &self.neighbors.clone() {
            let mine: Vec<&(usize, A::Msg)> =
                payloads.iter().filter(|(to, _)| *to == nbr).collect();
            if mine.is_empty() {
                out.push((nbr, SyncWrap::Null { round }));
            } else {
                for (to, msg) in mine {
                    out.push((*to, SyncWrap::Payload {
                        round,
                        msg: msg.clone(),
                    }));
                }
            }
        }
        out
    }

    fn maybe_advance(&mut self) -> Vec<(usize, SyncWrap<A::Msg>)> {
        let round = self.round;
        if round == 0 || round > self.max_rounds {
            return Vec::new();
        }
        if self.beats.get(&round).copied().unwrap_or(0) < self.neighbors.len() {
            return Vec::new();
        }
        // Round complete: deliver and move on.
        let msgs = self.heard.remove(&round).unwrap_or_default();
        self.alg.receive(round, msgs);
        self.rounds_done = round;
        if self.alg.done() || round >= self.max_rounds {
            return Vec::new();
        }
        self.start_round()
    }
}

impl<A: SimpleSync> AsyncProcess for AlphaProcess<A> {
    type Msg = SyncWrap<A::Msg>;

    fn on_start(&mut self, _now: Time) -> Vec<(usize, SyncWrap<A::Msg>)> {
        self.start_round()
    }

    fn on_message(
        &mut self,
        _now: Time,
        from: usize,
        msg: SyncWrap<A::Msg>,
    ) -> Vec<(usize, SyncWrap<A::Msg>)> {
        let round = match &msg {
            SyncWrap::Payload { round, .. } | SyncWrap::Null { round } => *round,
        };
        *self.beats.entry(round).or_insert(0) += 1;
        if let SyncWrap::Payload { msg, .. } = msg {
            self.heard.entry(round).or_default().push((from, msg));
        }
        self.maybe_advance()
    }
}

/// Report of a synchronized run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynchronizerReport {
    /// Total wire messages (payloads + nulls).
    pub wire_messages: usize,
    /// Simulated rounds completed by the slowest process.
    pub rounds: usize,
    /// The α overhead curve: `2 · E · rounds` (every edge carries one beat
    /// each way each round).
    pub overhead_curve: usize,
    /// Virtual finish time.
    pub finish_time: Time,
}

/// Run `algs` (one per node) under the α-synchronizer on `topology` and
/// extract a per-node output with `extract`.
pub fn run_alpha_with<A: SimpleSync, T, F>(
    topology: &Topology,
    algs: Vec<A>,
    max_rounds: usize,
    delay: DelayModel,
    extract: F,
) -> (SynchronizerReport, Vec<T>)
where
    F: Fn(&A) -> T,
{
    let procs: Vec<AlphaProcess<A>> = algs
        .into_iter()
        .enumerate()
        .map(|(i, a)| AlphaProcess::new(i, topology, a, max_rounds))
        .collect();
    let mut net = TimedNet::new(topology.clone(), procs, delay);
    let metrics = net.run(5_000_000);
    let rounds = net
        .processes()
        .iter()
        .map(|p| p.rounds_done)
        .min()
        .unwrap_or(0);
    let outputs = net
        .processes()
        .iter()
        .map(|p| extract(p.algorithm()))
        .collect();
    (
        SynchronizerReport {
            wire_messages: metrics.messages,
            rounds,
            overhead_curve: 2 * topology.num_edges() * rounds,
            finish_time: metrics.finish_time,
        },
        outputs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synchronous flooding of the maximum input: after `diam` rounds every
    /// node knows the global max. Correct ONLY if rounds are simulated
    /// faithfully.
    struct FloodMax {
        neighbors: Vec<usize>,
        best: u64,
        rounds_needed: usize,
        rounds_run: usize,
    }

    impl FloodMax {
        fn new(topology: &Topology, me: usize, input: u64) -> Self {
            FloodMax {
                neighbors: topology.neighbors(me).to_vec(),
                best: input,
                rounds_needed: topology.diameter(),
                rounds_run: 0,
            }
        }
    }

    impl SimpleSync for FloodMax {
        type Msg = u64;
        fn send(&mut self, _round: usize) -> Vec<(usize, u64)> {
            self.neighbors.iter().map(|&n| (n, self.best)).collect()
        }
        fn receive(&mut self, _round: usize, msgs: Vec<(usize, u64)>) {
            for (_, v) in msgs {
                self.best = self.best.max(v);
            }
            self.rounds_run += 1;
        }
        fn done(&self) -> bool {
            self.rounds_run >= self.rounds_needed
        }
    }

    #[test]
    fn synchronized_floodmax_computes_the_max_despite_async_delays() {
        let topo = Topology::ring(8);
        let inputs: Vec<u64> = vec![3, 9, 1, 7, 2, 8, 5, 6];
        let algs: Vec<FloodMax> = inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| FloodMax::new(&topo, i, v))
            .collect();
        let diam = topo.diameter();
        let (report, outputs) = run_alpha_with(
            &topo,
            algs,
            diam,
            DelayModel::Uniform {
                lo: 100,
                hi: 3000,
                seed: 5,
            },
            |a| a.best,
        );
        assert_eq!(report.rounds, diam);
        assert!(outputs.iter().all(|&v| v == 9), "{outputs:?}");
    }

    #[test]
    fn alpha_overhead_matches_the_2e_per_round_curve() {
        let topo = Topology::ring(6);
        let algs: Vec<FloodMax> = (0..6)
            .map(|i| FloodMax::new(&topo, i, i as u64))
            .collect();
        let (report, _) = run_alpha_with(&topo, algs, 3, DelayModel::Unit, |a| a.best);
        // Every node beats every neighbour every round: exactly 2E per round.
        assert_eq!(report.wire_messages, report.overhead_curve);
    }

    #[test]
    fn without_synchronization_rounds_would_skew() {
        // Control experiment: the synchronizer's whole job is that rounds
        // complete in lockstep; verify rounds_done is uniform at the end.
        let topo = Topology::line(5);
        let algs: Vec<FloodMax> = (0..5)
            .map(|i| FloodMax::new(&topo, i, 10 - i as u64))
            .collect();
        let (report, outputs) = run_alpha_with(
            &topo,
            algs,
            topo.diameter(),
            DelayModel::Uniform {
                lo: 10,
                hi: 5000,
                seed: 11,
            },
            |a| (a.best, a.rounds_run),
        );
        assert!(outputs.iter().all(|(v, _)| *v == 10));
        assert!(outputs.iter().all(|(_, r)| *r == report.rounds));
    }
}
