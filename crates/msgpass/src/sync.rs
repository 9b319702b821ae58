//! The synchronous round model with fault injection.
//!
//! Computation proceeds in lock-step rounds: every process sends, the
//! adversary applies faults, every process receives. This is the model of
//! the Byzantine-agreement process bounds (§2.2.1), the `t+1`-round chain
//! arguments (§2.2.2), and the synchronous ring election results (§2.4.2).
//!
//! The adversary owns three knobs:
//!
//! * **Crash faults** — a process dies in a chosen round after its message
//!   to only a *prefix* of its destinations was delivered (the partial-send
//!   subtlety that makes the `t+1`-round chains work).
//! * **Byzantine faults** — a process is replaced by an arbitrary
//!   message-fabricating strategy.
//! * **Omission filter** — a global channel adversary may drop individual
//!   messages.

use crate::topology::Topology;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// A deterministic synchronous process.
pub trait SyncProcess {
    /// Message payload.
    type Msg: Clone + Debug;

    /// Messages to send at the beginning of `round` (1-based), as
    /// `(destination, payload)` pairs. Destinations must be neighbors in the
    /// network topology.
    fn send(&self, round: usize) -> Vec<(usize, Self::Msg)>;

    /// Deliver the round's inbox: `(source, payload)` pairs, in source
    /// order.
    fn receive(&mut self, round: usize, inbox: Vec<(usize, Self::Msg)>);

    /// True once the process has produced its final output (metrics only;
    /// halted processes keep participating unless crashed).
    fn halted(&self) -> bool {
        false
    }
}

/// A Byzantine replacement strategy: fully fabricates the faulty process's
/// traffic.
pub trait ByzantineStrategy<M> {
    /// The message the faulty process sends to `to` in `round` (`None` =
    /// silence).
    fn fabricate(&mut self, round: usize, to: usize) -> Option<M>;
}

impl<M, F: FnMut(usize, usize) -> Option<M>> ByzantineStrategy<M> for F {
    fn fabricate(&mut self, round: usize, to: usize) -> Option<M> {
        self(round, to)
    }
}

/// Fault assignment for one process.
pub enum Fault<M> {
    /// Dies in `round`: only the first `deliver_prefix` of that round's
    /// messages (in the order the process emitted them) are delivered;
    /// silent ever after.
    Crash {
        /// The fatal round (1-based).
        round: usize,
        /// How many of that round's messages still go out.
        deliver_prefix: usize,
    },
    /// Replaced by an arbitrary strategy from round 1.
    Byzantine(Box<dyn ByzantineStrategy<M>>),
}

impl<M> Debug for Fault<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Crash {
                round,
                deliver_prefix,
            } => write!(f, "Crash(round {round}, prefix {deliver_prefix})"),
            Fault::Byzantine(_) => write!(f, "Byzantine"),
        }
    }
}

/// Cumulative run metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncMetrics {
    /// Messages actually delivered.
    pub messages: usize,
    /// Rounds executed.
    pub rounds: usize,
}

/// A channel omission adversary, `drop(round, from, to)`
/// ([`SyncNet::with_omission`]).
type OmissionRule = Box<dyn FnMut(usize, usize, usize) -> bool>;

/// The synchronous network runner.
pub struct SyncNet<P: SyncProcess> {
    topology: Topology,
    procs: Vec<P>,
    faults: BTreeMap<usize, Fault<P::Msg>>,
    omission: Option<OmissionRule>,
    crashed: Vec<bool>,
    round: usize,
    metrics: SyncMetrics,
}

impl<P: SyncProcess> SyncNet<P> {
    /// A network of `procs` on `topology`.
    ///
    /// # Panics
    ///
    /// Panics unless `procs.len() == topology.len()`.
    pub fn new(topology: Topology, procs: Vec<P>) -> Self {
        assert_eq!(procs.len(), topology.len());
        let n = procs.len();
        SyncNet {
            topology,
            procs,
            faults: BTreeMap::new(),
            omission: None,
            crashed: vec![false; n],
            round: 0,
            metrics: SyncMetrics::default(),
        }
    }

    /// Assign a fault to process `i`.
    pub fn with_fault(mut self, i: usize, fault: Fault<P::Msg>) -> Self {
        self.faults.insert(i, fault);
        self
    }

    /// Install a channel omission adversary: `drop(round, from, to)` returns
    /// true to lose that message.
    pub fn with_omission<F>(mut self, drop: F) -> Self
    where
        F: FnMut(usize, usize, usize) -> bool + 'static,
    {
        self.omission = Some(Box::new(drop));
        self
    }

    /// The processes (for reading outputs).
    pub fn processes(&self) -> &[P] {
        &self.procs
    }

    /// Mutable access (for injecting inputs before the run).
    pub fn processes_mut(&mut self) -> &mut [P] {
        &mut self.procs
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> SyncMetrics {
        self.metrics
    }

    /// Whether process `i` has crashed (so far).
    pub fn is_crashed(&self, i: usize) -> bool {
        self.crashed[i]
    }

    /// Execute one synchronous round. Returns the round number executed.
    pub fn step_round(&mut self) -> usize {
        self.round += 1;
        let round = self.round;
        let n = self.procs.len();
        let mut inboxes: Vec<Vec<(usize, P::Msg)>> = vec![Vec::new(); n];

        for i in 0..n {
            if self.crashed[i] {
                continue;
            }
            // Determine outgoing traffic, fault-adjusted.
            let outgoing: Vec<(usize, P::Msg)> = match self.faults.get_mut(&i) {
                Some(Fault::Byzantine(strategy)) => self
                    .topology
                    .neighbors(i)
                    .iter()
                    .filter_map(|&to| strategy.fabricate(round, to).map(|m| (to, m)))
                    .collect(),
                Some(Fault::Crash {
                    round: r,
                    deliver_prefix,
                }) if *r == round => {
                    let mut msgs = self.procs[i].send(round);
                    msgs.truncate(*deliver_prefix);
                    self.crashed[i] = true;
                    msgs
                }
                Some(Fault::Crash { round: r, .. }) if *r < round => Vec::new(),
                _ => self.procs[i].send(round),
            };
            for (to, msg) in outgoing {
                assert!(
                    self.topology.neighbors(i).contains(&to),
                    "p{i} sent to non-neighbor {to}"
                );
                if self.crashed[to] {
                    continue;
                }
                if let Some(drop) = self.omission.as_mut() {
                    if drop(round, i, to) {
                        continue;
                    }
                }
                inboxes[to].push((i, msg));
                self.metrics.messages += 1;
            }
        }

        for (i, inbox) in inboxes.into_iter().enumerate() {
            if self.crashed[i] || matches!(self.faults.get(&i), Some(Fault::Byzantine(_))) {
                continue;
            }
            let mut inbox = inbox;
            inbox.sort_by_key(|(from, _)| *from);
            self.procs[i].receive(round, inbox);
        }
        self.metrics.rounds = round;
        round
    }

    /// Run `rounds` rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step_round();
        }
    }

    /// Run until every non-crashed, non-Byzantine process reports
    /// [`SyncProcess::halted`], or `max_rounds` elapse. Returns true if all
    /// halted.
    pub fn run_until_halted(&mut self, max_rounds: usize) -> bool {
        for _ in 0..max_rounds {
            if self.all_halted() {
                return true;
            }
            self.step_round();
        }
        self.all_halted()
    }

    fn all_halted(&self) -> bool {
        self.procs.iter().enumerate().all(|(i, p)| {
            self.crashed[i]
                || matches!(self.faults.get(&i), Some(Fault::Byzantine(_)))
                || p.halted()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each process floods its id once and collects everything it hears.
    struct Gossip {
        heard: Vec<usize>,
        relayed: bool,
    }

    impl Gossip {
        fn new(me: usize) -> Self {
            Gossip {
                heard: vec![me],
                relayed: false,
            }
        }
    }

    impl SyncProcess for Gossip {
        type Msg = Vec<usize>;

        fn send(&self, _round: usize) -> Vec<(usize, Vec<usize>)> {
            if self.relayed {
                return Vec::new();
            }
            // Destination list built over the me-adjacent ring below.
            vec![] // replaced in the ring test by Flood, kept minimal here
        }

        fn receive(&mut self, _round: usize, inbox: Vec<(usize, Vec<usize>)>) {
            for (_, ids) in inbox {
                for id in ids {
                    if !self.heard.contains(&id) {
                        self.heard.push(id);
                    }
                }
            }
        }
    }

    /// Broadcast-on-complete-graph process used by most tests.
    struct Flood {
        me: usize,
        n: usize,
        heard: Vec<usize>,
    }

    impl Flood {
        fn new(me: usize, n: usize) -> Self {
            Flood {
                me,
                n,
                heard: vec![me],
            }
        }
    }

    impl SyncProcess for Flood {
        type Msg = usize;

        fn send(&self, round: usize) -> Vec<(usize, usize)> {
            if round == 1 {
                (0..self.n).filter(|&j| j != self.me).map(|j| (j, self.me)).collect()
            } else {
                Vec::new()
            }
        }

        fn receive(&mut self, _round: usize, inbox: Vec<(usize, usize)>) {
            for (_, id) in inbox {
                if !self.heard.contains(&id) {
                    self.heard.push(id);
                }
            }
        }
    }

    #[test]
    fn flood_on_complete_graph_delivers_everything() {
        let n = 4;
        let procs: Vec<Flood> = (0..n).map(|i| Flood::new(i, n)).collect();
        let mut net = SyncNet::new(Topology::complete(n), procs);
        net.run(1);
        assert_eq!(net.metrics().messages, n * (n - 1));
        for p in net.processes() {
            assert_eq!(p.heard.len(), n);
        }
    }

    #[test]
    fn crash_with_partial_prefix_splits_the_view() {
        let n = 4;
        let procs: Vec<Flood> = (0..n).map(|i| Flood::new(i, n)).collect();
        // p0 crashes in round 1 after reaching only its first destination.
        let mut net = SyncNet::new(Topology::complete(n), procs)
            .with_fault(0, Fault::Crash { round: 1, deliver_prefix: 1 });
        net.run(1);
        let views: Vec<usize> = net.processes().iter().map(|p| p.heard.len()).collect();
        // p1 heard p0; p2 and p3 did not — the partial-send asymmetry.
        assert_eq!(views[1], n);
        assert_eq!(views[2], n - 1);
        assert_eq!(views[3], n - 1);
        assert!(net.is_crashed(0));
    }

    #[test]
    fn byzantine_strategy_fabricates() {
        let n = 3;
        let procs: Vec<Flood> = (0..n).map(|i| Flood::new(i, n)).collect();
        // p0 tells p1 "I'm 7" and tells p2 nothing.
        let strategy = |round: usize, to: usize| -> Option<usize> {
            (round == 1 && to == 1).then_some(7)
        };
        let mut net = SyncNet::new(Topology::complete(n), procs)
            .with_fault(0, Fault::Byzantine(Box::new(strategy)));
        net.run(1);
        assert!(net.processes()[1].heard.contains(&7));
        assert!(!net.processes()[2].heard.contains(&7));
        assert!(!net.processes()[2].heard.contains(&0));
    }

    #[test]
    fn omission_adversary_drops_selected_messages() {
        let n = 3;
        let procs: Vec<Flood> = (0..n).map(|i| Flood::new(i, n)).collect();
        let mut net = SyncNet::new(Topology::complete(n), procs)
            .with_omission(|_round, from, to| from == 1 && to == 2);
        net.run(1);
        assert!(!net.processes()[2].heard.contains(&1));
        assert!(net.processes()[0].heard.contains(&1));
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_off_topology_panics() {
        let procs: Vec<Flood> = (0..3).map(|i| Flood::new(i, 3)).collect();
        // Ring of 3 is complete-equivalent... use a line to break it.
        let mut net = SyncNet::new(Topology::line(3), procs);
        net.run(1); // p0 tries to send to p2 (non-neighbor on the line)
    }

    #[test]
    fn gossip_type_compiles_and_receives() {
        let mut g = Gossip::new(1);
        g.receive(1, vec![(0, vec![0, 2])]);
        assert_eq!(g.heard, vec![1, 0, 2]);
    }
}
