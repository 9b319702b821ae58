//! Ring executors with message accounting.
//!
//! The §2.4 bounds are about *message complexity*, so the runners here count
//! every hop. [`RingRunner`] drives asynchronous message-driven ring
//! processes (FIFO links, seeded-random or round-robin scheduling);
//! [`SyncRingRunner`] drives synchronous ones and also counts *rounds* —
//! the resource the TimeSlice counterexample algorithm trades away.

use impossible_det::DetRng;
use impossible_obs::{trace_event, Tracer};
use std::collections::VecDeque;
use std::fmt::Debug;

/// Direction on the ring, from the process's own point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Towards the lower-index neighbour (counter-clockwise).
    Left,
    /// Towards the higher-index neighbour (clockwise).
    Right,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Left => Dir::Right,
            Dir::Right => Dir::Left,
        }
    }
}

/// Election status of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Still deciding.
    Unknown,
    /// Declared itself the leader.
    Leader,
    /// Learned it is not the leader.
    NonLeader,
}

/// An asynchronous message-driven ring process.
pub trait RingProcess {
    /// Message payload.
    type Msg: Clone + Debug;

    /// Initial sends.
    fn start(&mut self) -> Vec<(Dir, Self::Msg)>;

    /// A message arrived *from* direction `from`.
    fn on_msg(&mut self, from: Dir, msg: Self::Msg) -> Vec<(Dir, Self::Msg)>;

    /// Current status.
    fn status(&self) -> Status;
}

/// How the asynchronous runner picks the next delivery.
#[derive(Debug, Clone)]
pub enum RingSchedule {
    /// Rotate over the nonempty links.
    RoundRobin,
    /// Uniform random nonempty link (seeded).
    Random(u64),
}

/// Outcome of an election run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionOutcome {
    /// Messages delivered in total.
    pub messages: usize,
    /// Index of the elected leader, if exactly one emerged.
    pub leader: Option<usize>,
    /// Rounds executed (synchronous runner only; 0 for asynchronous).
    pub rounds: usize,
    /// True if the run reached quiescence / termination.
    pub complete: bool,
}

/// The asynchronous ring executor.
pub struct RingRunner<P: RingProcess> {
    procs: Vec<P>,
    // links[i][0]: messages travelling right-to-left INTO i from its right
    // neighbour; links[i][1]: into i from its left neighbour.
    inboxes: Vec<[VecDeque<P::Msg>; 2]>,
    messages: usize,
}

impl<P: RingProcess> RingRunner<P> {
    /// A ring of the given processes (index order = ring order).
    pub fn new(procs: Vec<P>) -> Self {
        assert!(procs.len() >= 2);
        let n = procs.len();
        RingRunner {
            procs,
            inboxes: (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect(),
            messages: 0,
        }
    }

    fn route(&mut self, from: usize, dir: Dir, msg: P::Msg) {
        let n = self.procs.len();
        match dir {
            // Sending right: arrives at (from+1) from its Left side.
            Dir::Right => self.inboxes[(from + 1) % n][1].push_back(msg),
            // Sending left: arrives at (from-1) from its Right side.
            Dir::Left => self.inboxes[(from + n - 1) % n][0].push_back(msg),
        }
    }

    /// Run to quiescence (or `max_events`); returns the outcome. Records
    /// `scope: "election"` events into `tracer`: one `deliver` event per
    /// message delivery (the scheduler's full decision sequence), plus
    /// `elected` the moment a process declares leadership, then `end`. The
    /// runner is sequential, so the trace is a pure function of
    /// `(processes, schedule, max_events)`.
    pub fn run(
        &mut self,
        schedule: RingSchedule,
        max_events: usize,
        tracer: &mut dyn Tracer,
    ) -> ElectionOutcome {
        let n = self.procs.len();
        match &schedule {
            RingSchedule::RoundRobin => trace_event!(tracer, "election", "start",
                "mode": "async",
                "n": n,
                "schedule": "round-robin",
            ),
            RingSchedule::Random(seed) => trace_event!(tracer, "election", "start",
                "mode": "async",
                "n": n,
                "schedule": "random",
                "seed": *seed,
            ),
        }
        for i in 0..n {
            for (dir, msg) in self.procs[i].start() {
                self.route(i, dir, msg);
            }
        }
        let mut rng = match schedule {
            RingSchedule::Random(seed) => Some(DetRng::seed_from_u64(seed)),
            RingSchedule::RoundRobin => None,
        };
        let mut rr_cursor = 0usize;
        let mut delivered = 0usize;
        while delivered < max_events {
            // Gather nonempty (process, side) slots.
            let slots: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| [(i, 0usize), (i, 1usize)])
                .filter(|&(i, s)| !self.inboxes[i][s].is_empty())
                .collect();
            if slots.is_empty() {
                break;
            }
            let (i, side) = match rng.as_mut() {
                Some(r) => slots[r.gen_range(0..slots.len())],
                None => {
                    let pick = slots[rr_cursor % slots.len()];
                    rr_cursor += 1;
                    pick
                }
            };
            let msg = self.inboxes[i][side].pop_front().expect("nonempty");
            let from = if side == 0 { Dir::Right } else { Dir::Left };
            let was_leader = self.procs[i].status() == Status::Leader;
            let sent = {
                let outs = self.procs[i].on_msg(from, msg);
                let k = outs.len();
                for (dir, out) in outs {
                    self.route(i, dir, out);
                }
                k
            };
            trace_event!(tracer, "election", "deliver",
                "event": delivered,
                "process": i,
                "from": if side == 0 { "right" } else { "left" },
                "sent": sent,
            );
            if !was_leader && self.procs[i].status() == Status::Leader {
                trace_event!(tracer, "election", "elected",
                    "process": i,
                    "event": delivered,
                );
            }
            delivered += 1;
            self.messages += 1;
        }
        let complete = delivered < max_events;
        let out = self.outcome(0, complete);
        trace_event!(tracer, "election", "end",
            "messages": out.messages,
            "leader": out.leader.map_or(-1i64, |l| l as i64),
            "complete": out.complete,
        );
        out
    }

    fn outcome(&self, rounds: usize, complete: bool) -> ElectionOutcome {
        let leaders: Vec<usize> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.status() == Status::Leader)
            .map(|(i, _)| i)
            .collect();
        ElectionOutcome {
            messages: self.messages,
            leader: (leaders.len() == 1).then(|| leaders[0]),
            rounds,
            complete,
        }
    }

    /// The processes (for inspecting final state).
    pub fn processes(&self) -> &[P] {
        &self.procs
    }
}

/// A synchronous ring process: one send/receive exchange per round.
pub trait SyncRingProcess {
    /// Message payload.
    type Msg: Clone + Debug;

    /// Messages to emit in `round` (1-based).
    fn send(&mut self, round: usize) -> Vec<(Dir, Self::Msg)>;

    /// Receive this round's arrivals (at most one per direction).
    fn receive(&mut self, round: usize, from_left: Option<Self::Msg>, from_right: Option<Self::Msg>);

    /// Current status.
    fn status(&self) -> Status;
}

/// The synchronous ring executor (counts messages *and* rounds).
pub struct SyncRingRunner<P: SyncRingProcess> {
    procs: Vec<P>,
    messages: usize,
}

impl<P: SyncRingProcess> SyncRingRunner<P> {
    /// A ring of the given processes.
    pub fn new(procs: Vec<P>) -> Self {
        assert!(procs.len() >= 2);
        SyncRingRunner { procs, messages: 0 }
    }

    /// Run until some process declares leadership and everyone else has
    /// resolved, or `max_rounds` pass. Records `scope: "election"` events
    /// into `tracer`: one `round` event per synchronous round with
    /// cumulative message and resolution counts, then `end`.
    pub fn run(&mut self, max_rounds: usize, tracer: &mut dyn Tracer) -> ElectionOutcome {
        let n = self.procs.len();
        trace_event!(tracer, "election", "start",
            "mode": "sync",
            "n": n,
            "max_rounds": max_rounds,
        );
        for round in 1..=max_rounds {
            let mut to_left: Vec<Option<P::Msg>> = vec![None; n]; // arriving from the right
            let mut to_right: Vec<Option<P::Msg>> = vec![None; n]; // arriving from the left
            for i in 0..n {
                for (dir, msg) in self.procs[i].send(round) {
                    self.messages += 1;
                    match dir {
                        Dir::Right => to_right[(i + 1) % n] = Some(msg),
                        Dir::Left => to_left[(i + n - 1) % n] = Some(msg),
                    }
                }
            }
            for i in 0..n {
                let from_left = to_right[i].take();
                let from_right = to_left[i].take();
                self.procs[i].receive(round, from_left, from_right);
            }
            let resolved = self
                .procs
                .iter()
                .filter(|p| p.status() != Status::Unknown)
                .count();
            trace_event!(tracer, "election", "round",
                "round": round,
                "messages": self.messages,
                "resolved": resolved,
            );
            if resolved == n {
                let out = self.outcome(round, true);
                trace_event!(tracer, "election", "end",
                    "messages": out.messages,
                    "rounds": out.rounds,
                    "leader": out.leader.map_or(-1i64, |l| l as i64),
                    "complete": out.complete,
                );
                return out;
            }
        }
        let out = self.outcome(max_rounds, false);
        trace_event!(tracer, "election", "end",
            "messages": out.messages,
            "rounds": out.rounds,
            "leader": out.leader.map_or(-1i64, |l| l as i64),
            "complete": out.complete,
        );
        out
    }

    fn outcome(&self, rounds: usize, complete: bool) -> ElectionOutcome {
        let leaders: Vec<usize> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.status() == Status::Leader)
            .map(|(i, _)| i)
            .collect();
        ElectionOutcome {
            messages: self.messages,
            leader: (leaders.len() == 1).then(|| leaders[0]),
            rounds,
            complete,
        }
    }

    /// The processes.
    pub fn processes(&self) -> &[P] {
        &self.procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_obs::NoopTracer;

    /// A trivial token-forwarding process: forward anything right; the
    /// process with id 0 absorbs.
    struct Forwarder {
        id: u64,
        seen: Vec<u64>,
    }

    impl RingProcess for Forwarder {
        type Msg = u64;
        fn start(&mut self) -> Vec<(Dir, u64)> {
            vec![(Dir::Right, self.id)]
        }
        fn on_msg(&mut self, _from: Dir, msg: u64) -> Vec<(Dir, u64)> {
            self.seen.push(msg);
            if self.id == 0 {
                Vec::new()
            } else {
                vec![(Dir::Right, msg)]
            }
        }
        fn status(&self) -> Status {
            Status::Unknown
        }
    }

    #[test]
    fn tokens_travel_clockwise_to_the_sink() {
        let procs: Vec<Forwarder> = (0..4)
            .map(|id| Forwarder {
                id,
                seen: Vec::new(),
            })
            .collect();
        let mut ring = RingRunner::new(procs);
        let out = ring.run(RingSchedule::RoundRobin, 10_000, &mut NoopTracer);
        assert!(out.complete);
        // Sink 0 hears tokens 1, 2, 3 plus its own after a full lap.
        let sink = &ring.processes()[0];
        let mut seen = sink.seen.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // Hop counts: token 3 takes 1 hop, 2 takes 2, 1 takes 3, and token
        // 0 circles all 4. Total 1+2+3+4 = 10.
        assert_eq!(out.messages, 10);
    }

    #[test]
    fn random_schedule_is_deterministic_per_seed() {
        let build = || {
            RingRunner::new(
                (0..5)
                    .map(|id| Forwarder {
                        id,
                        seen: Vec::new(),
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let a = build().run(RingSchedule::Random(4), 10_000, &mut NoopTracer);
        let b = build().run(RingSchedule::Random(4), 10_000, &mut NoopTracer);
        assert_eq!(a, b);
    }
}
