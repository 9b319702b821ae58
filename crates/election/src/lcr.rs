//! LeLann–Chang–Roberts (LCR) unidirectional election.
//!
//! Each process launches its ID clockwise; a process forwards IDs larger
//! than its own and swallows smaller ones; an ID returning home wins.
//! Worst case Θ(n²) messages (IDs arranged so each travels far), average
//! O(n log n) — the gap the Ω(n log n) lower bound \[25\] pins from below.

use crate::ring::{Dir, ElectionOutcome, RingProcess, RingRunner, RingSchedule, Status};
use impossible_obs::NoopTracer;

/// LCR wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LcrMsg {
    /// A candidate ID in flight.
    Candidate(u64),
    /// The winner's announcement.
    Elected(u64),
}

/// An LCR process.
#[derive(Debug, Clone)]
pub struct Lcr {
    id: u64,
    status: Status,
}

impl Lcr {
    /// A process with unique `id`.
    pub fn new(id: u64) -> Self {
        Lcr {
            id,
            status: Status::Unknown,
        }
    }
}

impl RingProcess for Lcr {
    type Msg = LcrMsg;

    fn start(&mut self) -> Vec<(Dir, LcrMsg)> {
        vec![(Dir::Right, LcrMsg::Candidate(self.id))]
    }

    fn on_msg(&mut self, _from: Dir, msg: LcrMsg) -> Vec<(Dir, LcrMsg)> {
        match msg {
            LcrMsg::Candidate(v) => {
                if v > self.id {
                    vec![(Dir::Right, LcrMsg::Candidate(v))]
                } else if v == self.id {
                    self.status = Status::Leader;
                    vec![(Dir::Right, LcrMsg::Elected(self.id))]
                } else {
                    Vec::new() // swallow smaller IDs
                }
            }
            LcrMsg::Elected(v) => {
                if v == self.id {
                    Vec::new() // announcement came home
                } else {
                    self.status = Status::NonLeader;
                    vec![(Dir::Right, LcrMsg::Elected(v))]
                }
            }
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// Run LCR on a ring with the given IDs (in ring order).
pub fn run_lcr(ids: &[u64], schedule: RingSchedule) -> ElectionOutcome {
    let procs: Vec<Lcr> = ids.iter().map(|&id| Lcr::new(id)).collect();
    RingRunner::new(procs).run(schedule, 10_000_000, &mut NoopTracer)
}

/// The LCR worst-case ring: IDs ascending in the direction of travel, so
/// ID `k` travels `k+1` hops before being swallowed — Θ(n²) total.
pub fn worst_case_ids(n: usize) -> Vec<u64> {
    // Travel is clockwise (Right, ascending index); descending IDs around
    // the ring make every candidate survive long.
    (0..n as u64).rev().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elects_the_maximum_id() {
        let out = run_lcr(&[3, 7, 1, 5, 2], RingSchedule::RoundRobin);
        assert!(out.complete);
        assert_eq!(out.leader, Some(1)); // position of ID 7
    }

    #[test]
    fn everyone_learns_the_outcome() {
        let ids = [4, 9, 2, 6];
        let procs: Vec<Lcr> = ids.iter().map(|&id| Lcr::new(id)).collect();
        let mut ring = RingRunner::new(procs);
        let out = ring.run(RingSchedule::RoundRobin, 100_000, &mut NoopTracer);
        assert!(out.complete);
        for (i, p) in ring.processes().iter().enumerate() {
            if ids[i] == 9 {
                assert_eq!(p.status(), Status::Leader);
            } else {
                assert_eq!(p.status(), Status::NonLeader);
            }
        }
    }

    #[test]
    fn worst_case_is_quadratic() {
        let n = 32;
        let out = run_lcr(&worst_case_ids(n), RingSchedule::RoundRobin);
        // Candidate messages alone: n(n+1)/2; announcements add n.
        assert!(
            out.messages >= n * (n + 1) / 2,
            "messages {} for n {n}",
            out.messages
        );
    }

    #[test]
    fn random_order_is_much_cheaper_than_worst_case() {
        let n = 64;
        let mut ids: Vec<u64> = (0..n as u64).collect();
        impossible_det::DetRng::seed_from_u64(1).shuffle(&mut ids);
        let random = run_lcr(&ids, RingSchedule::RoundRobin).messages;
        let worst = run_lcr(&worst_case_ids(n), RingSchedule::RoundRobin).messages;
        assert!(random * 2 < worst, "random {random} vs worst {worst}");
    }

    #[test]
    fn schedule_does_not_change_the_winner() {
        let ids = [11, 3, 8, 20, 5, 17];
        for sched in [RingSchedule::RoundRobin, RingSchedule::Random(9)] {
            let out = run_lcr(&ids, sched);
            assert_eq!(out.leader, Some(3));
        }
    }
}
