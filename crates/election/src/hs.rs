//! Hirschberg–Sinclair bidirectional election — O(n log n) worst case.
//!
//! Candidates probe outwards to distance `2^k` in phase `k`; probes are
//! swallowed by larger IDs and otherwise turn around at full depth. A
//! candidate that gets both replies doubles its radius; a probe that
//! returns to its origin at full strength has circled the ring — leader.
//! The worst case is Θ(n log n), matching the Frederickson–Lynch lower
//! bound (Figure 4) — the tightness half of experiment F3/E7.

use crate::ring::{Dir, ElectionOutcome, RingProcess, RingRunner, RingSchedule, Status};
use impossible_obs::NoopTracer;

/// HS wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsMsg {
    /// An outbound probe with remaining hop budget.
    Probe {
        /// The candidate's ID.
        id: u64,
        /// Hops still allowed before turning around.
        hops: usize,
    },
    /// A reply travelling back to the candidate.
    Reply {
        /// The candidate's ID.
        id: u64,
    },
    /// The winner's announcement.
    Elected(u64),
}

/// A Hirschberg–Sinclair process.
#[derive(Debug, Clone)]
pub struct Hs {
    id: u64,
    phase: u32,
    got_left: bool,
    got_right: bool,
    status: Status,
}

impl Hs {
    /// A process with unique `id`.
    pub fn new(id: u64) -> Self {
        Hs {
            id,
            phase: 0,
            got_left: false,
            got_right: false,
            status: Status::Unknown,
        }
    }

    fn probes(&self) -> Vec<(Dir, HsMsg)> {
        let hops = 1usize << self.phase;
        vec![
            (Dir::Left, HsMsg::Probe { id: self.id, hops }),
            (Dir::Right, HsMsg::Probe { id: self.id, hops }),
        ]
    }
}

impl RingProcess for Hs {
    type Msg = HsMsg;

    fn start(&mut self) -> Vec<(Dir, HsMsg)> {
        self.probes()
    }

    fn on_msg(&mut self, from: Dir, msg: HsMsg) -> Vec<(Dir, HsMsg)> {
        match msg {
            HsMsg::Probe { id, hops } => {
                if id == self.id {
                    // Our probe circled the whole ring.
                    self.status = Status::Leader;
                    return vec![(Dir::Right, HsMsg::Elected(self.id))];
                }
                if id < self.id {
                    return Vec::new(); // swallowed
                }
                if hops > 1 {
                    vec![(from.flip(), HsMsg::Probe { id, hops: hops - 1 })]
                } else {
                    // Turn around.
                    vec![(from, HsMsg::Reply { id })]
                }
            }
            HsMsg::Reply { id } => {
                if id != self.id {
                    return vec![(from.flip(), HsMsg::Reply { id })];
                }
                match from {
                    Dir::Left => self.got_left = true,
                    Dir::Right => self.got_right = true,
                }
                if self.got_left && self.got_right {
                    self.got_left = false;
                    self.got_right = false;
                    self.phase += 1;
                    self.probes()
                } else {
                    Vec::new()
                }
            }
            HsMsg::Elected(id) => {
                if id == self.id {
                    Vec::new()
                } else {
                    self.status = Status::NonLeader;
                    vec![(Dir::Right, HsMsg::Elected(id))]
                }
            }
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// Run HS on a ring with the given IDs (ring order).
pub fn run_hs(ids: &[u64], schedule: RingSchedule) -> ElectionOutcome {
    let procs: Vec<Hs> = ids.iter().map(|&id| Hs::new(id)).collect();
    RingRunner::new(procs).run(schedule, 50_000_000, &mut NoopTracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcr::{run_lcr, worst_case_ids};

    #[test]
    fn elects_the_maximum_id() {
        let out = run_hs(&[3, 7, 1, 5, 2], RingSchedule::RoundRobin);
        assert!(out.complete);
        assert_eq!(out.leader, Some(1));
    }

    #[test]
    fn message_complexity_is_n_log_n() {
        for n in [8usize, 16, 32, 64] {
            let out = run_hs(&worst_case_ids(n), RingSchedule::RoundRobin);
            // Integer bound: ilog2 rounds down, so pad the +1 to +2 — still
            // O(n log n), and float-free (the `det-float` lint).
            let bound = 10 * n * (n.ilog2() as usize + 2);
            assert!(
                out.messages <= bound,
                "n={n}: {} messages > {bound}",
                out.messages
            );
        }
    }

    #[test]
    fn beats_lcr_on_the_lcr_worst_case_at_scale() {
        let n = 128;
        let ids = worst_case_ids(n);
        let hs = run_hs(&ids, RingSchedule::RoundRobin).messages;
        let lcr = run_lcr(&ids, RingSchedule::RoundRobin).messages;
        assert!(hs < lcr, "hs {hs} vs lcr {lcr}");
    }

    #[test]
    fn works_under_random_scheduling() {
        for seed in 0..5 {
            let out = run_hs(&[10, 4, 99, 23, 57, 3], RingSchedule::Random(seed));
            assert!(out.complete, "seed {seed}");
            assert_eq!(out.leader, Some(2), "seed {seed}");
        }
    }

    #[test]
    fn two_process_ring() {
        let out = run_hs(&[1, 2], RingSchedule::RoundRobin);
        assert_eq!(out.leader, Some(1));
    }
}
