//! Peterson's unidirectional O(n log n) election.
//!
//! Proof that O(n log n) needs neither bidirectional links nor knowledge of
//! `n`: in each phase an active process compares the temporary IDs of the
//! two nearest active processes counter-clockwise; only local maxima stay
//! active (halving the candidates), and everyone else becomes a relay.

use crate::ring::{Dir, ElectionOutcome, RingProcess, RingRunner, RingSchedule, Status};
use impossible_obs::NoopTracer;

/// Peterson wire format (everything travels clockwise / `Right`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PetersonMsg {
    /// First message of a phase: the sender's temporary ID.
    One(u64),
    /// Second message: the forwarded first-hop ID.
    Two(u64),
    /// The winner's announcement.
    Elected(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Competing; waiting for the phase's first or second message.
    Active {
        tid: u64,
        waiting_second: bool,
        t1: u64,
    },
    Relay,
    Won,
}

/// A Peterson election process.
#[derive(Debug, Clone)]
pub struct Peterson {
    id: u64,
    mode: Mode,
    status: Status,
}

impl Peterson {
    /// A process with unique `id`.
    pub fn new(id: u64) -> Self {
        Peterson {
            id,
            mode: Mode::Active {
                tid: id,
                waiting_second: false,
                t1: 0,
            },
            status: Status::Unknown,
        }
    }
}

impl RingProcess for Peterson {
    type Msg = PetersonMsg;

    fn start(&mut self) -> Vec<(Dir, PetersonMsg)> {
        let Mode::Active { tid, .. } = self.mode else {
            unreachable!("fresh process is active")
        };
        vec![(Dir::Right, PetersonMsg::One(tid))]
    }

    fn on_msg(&mut self, _from: Dir, msg: PetersonMsg) -> Vec<(Dir, PetersonMsg)> {
        match (&mut self.mode, msg) {
            (_, PetersonMsg::Elected(v)) => {
                if v == self.id {
                    Vec::new()
                } else {
                    self.status = Status::NonLeader;
                    vec![(Dir::Right, PetersonMsg::Elected(v))]
                }
            }
            (Mode::Relay, m) => vec![(Dir::Right, m)],
            (Mode::Won, _) => Vec::new(),
            (
                Mode::Active {
                    tid,
                    waiting_second,
                    t1,
                },
                PetersonMsg::One(v),
            ) => {
                debug_assert!(!*waiting_second, "FIFO keeps phases in order");
                if v == *tid {
                    // Our temporary ID circled: we are the only candidate.
                    self.mode = Mode::Won;
                    self.status = Status::Leader;
                    return vec![(Dir::Right, PetersonMsg::Elected(self.id))];
                }
                *t1 = v;
                *waiting_second = true;
                vec![(Dir::Right, PetersonMsg::Two(v))]
            }
            (
                Mode::Active {
                    tid,
                    waiting_second,
                    t1,
                },
                PetersonMsg::Two(t2),
            ) => {
                debug_assert!(*waiting_second);
                if *t1 > *tid && *t1 > t2 {
                    // Local maximum: adopt and continue.
                    *tid = *t1;
                    *waiting_second = false;
                    let tid = *tid;
                    vec![(Dir::Right, PetersonMsg::One(tid))]
                } else {
                    self.mode = Mode::Relay;
                    Vec::new()
                }
            }
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// Run Peterson election on a ring with the given IDs (ring order).
pub fn run_peterson(ids: &[u64], schedule: RingSchedule) -> ElectionOutcome {
    let procs: Vec<Peterson> = ids.iter().map(|&id| Peterson::new(id)).collect();
    RingRunner::new(procs).run(schedule, 50_000_000, &mut NoopTracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcr::worst_case_ids;

    #[test]
    fn elects_exactly_one_leader() {
        let out = run_peterson(&[3, 7, 1, 5, 2], RingSchedule::RoundRobin);
        assert!(out.complete);
        assert!(out.leader.is_some());
    }

    #[test]
    fn message_complexity_is_n_log_n() {
        for n in [8usize, 32, 128] {
            let out = run_peterson(&worst_case_ids(n), RingSchedule::RoundRobin);
            // Integer O(n log n) bound (ilog2 rounds down; +3 pads the +2).
            let bound = 4 * n * (n.ilog2() as usize + 3);
            assert!(
                out.messages <= bound,
                "n={n}: {} > {bound}",
                out.messages
            );
        }
    }

    #[test]
    fn single_winner_on_many_permutations() {
        for seed in 0..8 {
            let mut ids: Vec<u64> = (0..20).collect();
            impossible_det::DetRng::seed_from_u64(seed).shuffle(&mut ids);
            let out = run_peterson(&ids, RingSchedule::RoundRobin);
            assert!(out.complete, "seed {seed}");
            assert!(out.leader.is_some(), "seed {seed}");
        }
    }

    #[test]
    fn two_processes() {
        let out = run_peterson(&[9, 4], RingSchedule::RoundRobin);
        assert!(out.leader.is_some());
    }
}
