//! The asynchronous message-passing model.
//!
//! Two executors share one process interface:
//!
//! * [`AdversarialNet`] — untimed: a *scheduler adversary* picks which
//!   in-flight message is delivered next. Admissibility ("all messages
//!   eventually delivered") is guaranteed structurally by random and FIFO
//!   schedulers and is the caller's obligation for custom ones.
//! * [`TimedNet`] — the virtual-time measure of \[8\] and \[77\]: each message
//!   takes a delay chosen from `[lo, hi]` (fixed, seeded-uniform, or
//!   adversarial), local processing is instantaneous, and the executor
//!   reports the real-time cost of the run. "Appropriate ways of measuring
//!   time are available for asynchronous systems ... proving such lower
//!   bounds is a good area for future research" — this is that measure.

use crate::topology::Topology;
use impossible_det::DetRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::fmt::Debug;

/// Fixed-point virtual time (µ-units; 1000 = one delay unit).
pub type Time = u64;

/// One virtual delay unit.
pub const UNIT: Time = 1000;

/// An asynchronous, message-driven process.
pub trait AsyncProcess {
    /// Message payload.
    type Msg: Clone + Debug;

    /// Called once at time 0; returns initial messages `(dest, payload)`.
    fn on_start(&mut self, now: Time) -> Vec<(usize, Self::Msg)>;

    /// Deliver one message; returns follow-up messages.
    fn on_message(&mut self, now: Time, from: usize, msg: Self::Msg)
        -> Vec<(usize, Self::Msg)>;
}

/// How the network assigns per-message delays.
#[derive(Debug, Clone)]
pub enum DelayModel {
    /// Every message takes exactly `UNIT`.
    Unit,
    /// Every message takes exactly this delay.
    Fixed(Time),
    /// Uniform in `[lo, hi]`, drawn from a seeded PRNG.
    Uniform {
        /// Minimum delay.
        lo: Time,
        /// Maximum delay.
        hi: Time,
        /// PRNG seed (determinism).
        seed: u64,
    },
}

impl DelayModel {
    fn bounds(&self) -> (Time, Time) {
        match self {
            DelayModel::Unit => (UNIT, UNIT),
            DelayModel::Fixed(d) => (*d, *d),
            DelayModel::Uniform { lo, hi, .. } => (*lo, *hi),
        }
    }
}

/// Metrics from a timed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimedMetrics {
    /// Messages delivered.
    pub messages: usize,
    /// Virtual time of the last delivery.
    pub finish_time: Time,
}

/// The timed asynchronous executor.
pub struct TimedNet<P: AsyncProcess> {
    topology: Topology,
    procs: Vec<P>,
    delay: DelayModel,
    rng: DetRng,
    heap: BinaryHeap<Reverse<Delivery<P::Msg>>>,
    seq: u64,
    metrics: TimedMetrics,
}

/// Wrapper so the heap can order without requiring `Ord` on messages.
#[derive(Debug, Clone)]
struct PayloadSlot<M>(M);

/// A queued message, `(delivery_time, seq, from, to, msg)`: wrapped in
/// `Reverse`, the heap pops the earliest delivery first.
type Delivery<M> = (Time, u64, usize, usize, PayloadSlot<M>);

impl<M> PartialEq for PayloadSlot<M> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<M> Eq for PayloadSlot<M> {}
impl<M> PartialOrd for PayloadSlot<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for PayloadSlot<M> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<P: AsyncProcess> TimedNet<P> {
    /// A timed network on `topology` with the given delay model.
    pub fn new(topology: Topology, procs: Vec<P>, delay: DelayModel) -> Self {
        assert_eq!(procs.len(), topology.len());
        let seed = match &delay {
            DelayModel::Uniform { seed, .. } => *seed,
            _ => 0,
        };
        TimedNet {
            topology,
            procs,
            delay,
            rng: DetRng::seed_from_u64(seed),
            heap: BinaryHeap::new(),
            seq: 0,
            metrics: TimedMetrics::default(),
        }
    }

    fn draw_delay(&mut self) -> Time {
        match self.delay {
            DelayModel::Unit => UNIT,
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { lo, hi, .. } => {
                if lo == hi {
                    lo
                } else {
                    self.rng.gen_range(lo..=hi)
                }
            }
        }
    }

    fn enqueue(&mut self, now: Time, from: usize, msgs: Vec<(usize, P::Msg)>) {
        for (to, msg) in msgs {
            assert!(
                self.topology.neighbors(from).contains(&to),
                "p{from} sent to non-neighbor {to}"
            );
            let d = self.draw_delay();
            self.seq += 1;
            self.heap
                .push(Reverse((now + d, self.seq, from, to, PayloadSlot(msg))));
        }
    }

    /// Run to quiescence or `max_events`; returns the metrics.
    pub fn run(&mut self, max_events: usize) -> TimedMetrics {
        let n = self.procs.len();
        for i in 0..n {
            let out = self.procs[i].on_start(0);
            self.enqueue(0, i, out);
        }
        for _ in 0..max_events {
            let Some(Reverse((t, _, from, to, PayloadSlot(msg)))) = self.heap.pop() else {
                break;
            };
            self.metrics.messages += 1;
            self.metrics.finish_time = t;
            let out = self.procs[to].on_message(t, from, msg);
            self.enqueue(t, to, out);
        }
        self.metrics
    }

    /// The processes (for reading outputs after a run).
    pub fn processes(&self) -> &[P] {
        &self.procs
    }

    /// The configured delay bounds `[lo, hi]`.
    pub fn delay_bounds(&self) -> (Time, Time) {
        self.delay.bounds()
    }
}

/// The untimed adversarial executor: the scheduler picks the next delivery.
pub struct AdversarialNet<P: AsyncProcess> {
    topology: Topology,
    procs: Vec<P>,
    in_flight: VecDeque<(usize, usize, P::Msg)>,
    started: bool,
}

/// Scheduling policies for [`AdversarialNet`].
pub enum Scheduler {
    /// Deliver in send order.
    Fifo,
    /// Deliver a uniformly random in-flight message (seeded).
    Random(DetRng),
}

impl Scheduler {
    /// A seeded random scheduler.
    pub fn random(seed: u64) -> Self {
        Scheduler::Random(DetRng::seed_from_u64(seed))
    }

    fn pick(&mut self, pending: usize) -> usize {
        match self {
            Scheduler::Fifo => 0,
            Scheduler::Random(rng) => rng.gen_range(0..pending),
        }
    }
}

impl<P: AsyncProcess> AdversarialNet<P> {
    /// A network on `topology`.
    pub fn new(topology: Topology, procs: Vec<P>) -> Self {
        assert_eq!(procs.len(), topology.len());
        AdversarialNet {
            topology,
            procs,
            in_flight: VecDeque::new(),
            started: false,
        }
    }

    fn enqueue(&mut self, from: usize, msgs: Vec<(usize, P::Msg)>) {
        for (to, msg) in msgs {
            assert!(
                self.topology.neighbors(from).contains(&to),
                "p{from} sent to non-neighbor {to}"
            );
            self.in_flight.push_back((from, to, msg));
        }
    }

    /// Deliver up to `max_events` messages under `scheduler`; returns the
    /// number of messages delivered. Terminates early at quiescence.
    pub fn run(&mut self, scheduler: &mut Scheduler, max_events: usize) -> usize {
        if !self.started {
            self.started = true;
            for i in 0..self.procs.len() {
                let out = self.procs[i].on_start(0);
                self.enqueue(i, out);
            }
        }
        let mut delivered = 0;
        while delivered < max_events {
            if self.in_flight.is_empty() {
                break;
            }
            let k = scheduler.pick(self.in_flight.len());
            let (from, to, msg) = self.in_flight.remove(k).expect("k < len");
            let out = self.procs[to].on_message(0, from, msg);
            self.enqueue(to, out);
            delivered += 1;
        }
        delivered
    }

    /// The processes.
    pub fn processes(&self) -> &[P] {
        &self.procs
    }

    /// Mutable process access (for input injection).
    pub fn processes_mut(&mut self) -> &mut [P] {
        &mut self.procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong: p0 sends k balls to p1, each bounced back once.
    struct Pong {
        me: usize,
        bounces: usize,
        received: usize,
        last_time: Time,
    }

    impl AsyncProcess for Pong {
        type Msg = u32;

        fn on_start(&mut self, _now: Time) -> Vec<(usize, u32)> {
            if self.me == 0 {
                (0..self.bounces as u32).map(|b| (1, b)).collect()
            } else {
                Vec::new()
            }
        }

        fn on_message(&mut self, now: Time, from: usize, msg: u32) -> Vec<(usize, u32)> {
            self.received += 1;
            self.last_time = now;
            if self.me == 1 {
                vec![(from, msg)]
            } else {
                Vec::new()
            }
        }
    }

    fn pong_pair(bounces: usize) -> Vec<Pong> {
        (0..2)
            .map(|me| Pong {
                me,
                bounces,
                received: 0,
                last_time: 0,
            })
            .collect()
    }

    #[test]
    fn timed_unit_delays_accumulate() {
        let mut net = TimedNet::new(Topology::line(2), pong_pair(1), DelayModel::Unit);
        let m = net.run(100);
        assert_eq!(m.messages, 2); // out and back
        assert_eq!(m.finish_time, 2 * UNIT);
    }

    #[test]
    fn timed_uniform_delays_within_bounds() {
        let mut net = TimedNet::new(
            Topology::line(2),
            pong_pair(10),
            DelayModel::Uniform {
                lo: UNIT / 2,
                hi: 2 * UNIT,
                seed: 9,
            },
        );
        let m = net.run(1000);
        assert_eq!(m.messages, 20);
        assert!(m.finish_time >= UNIT); // at least one round trip of minimum delay
        assert!(m.finish_time <= 4 * UNIT);
    }

    #[test]
    fn adversarial_fifo_and_random_deliver_everything() {
        for mut sched in [Scheduler::Fifo, Scheduler::random(3)] {
            let mut net = AdversarialNet::new(Topology::line(2), pong_pair(5));
            assert_eq!(net.run(&mut sched, 1000), 10);
            assert_eq!(net.run(&mut sched, 1000), 0, "quiescent after the first run");
            assert_eq!(net.processes()[0].received, 5);
        }
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let run = |seed| {
            let mut net = AdversarialNet::new(Topology::line(2), pong_pair(5));
            net.run(&mut Scheduler::random(seed), 7);
            net.processes()[1].received
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn off_topology_send_panics() {
        struct Bad;
        impl AsyncProcess for Bad {
            type Msg = ();
            fn on_start(&mut self, _n: Time) -> Vec<(usize, ())> {
                vec![(2, ())]
            }
            fn on_message(&mut self, _n: Time, _f: usize, _m: ()) -> Vec<(usize, ())> {
                Vec::new()
            }
        }
        let mut net = TimedNet::new(
            Topology::line(3),
            vec![Bad, Bad, Bad],
            DelayModel::Unit,
        );
        net.run(10);
    }
}
