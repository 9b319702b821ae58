//! Franklin's bidirectional election — O(n log n) with the simplest
//! halving argument.
//!
//! Each phase, every *active* process sends its ID both ways; relays
//! forward. An active process survives iff its ID exceeds both nearest
//! active neighbours' IDs (a local maximum of the active cycle), so the
//! active population at least halves per phase; a process that receives its
//! own ID is alone and wins. Probes carry their phase number because, under
//! asynchronous scheduling, a fast survivor's phase-`k+1` probe can overtake
//! a slow neighbour still collecting phase `k` — the buffering below is the
//! price of asynchrony the synchronous textbook version never mentions.

use crate::ring::{Dir, ElectionOutcome, RingProcess, RingRunner, RingSchedule, Status};
use impossible_obs::NoopTracer;

/// Franklin wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FranklinMsg {
    /// An active process's ID, tagged with its phase.
    Probe {
        /// The competing ID.
        id: u64,
        /// The sender's phase.
        phase: u32,
    },
    /// The winner's announcement.
    Elected(u64),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    Active,
    Relay,
    Won,
}

/// A Franklin process.
#[derive(Debug, Clone)]
pub struct Franklin {
    id: u64,
    mode: Mode,
    phase: u32,
    /// Probes received but not yet consumed: `(from, id, phase)`.
    buffered: Vec<(Dir, u64, u32)>,
    status: Status,
}

impl Franklin {
    /// A process with unique `id`.
    pub fn new(id: u64) -> Self {
        Franklin {
            id,
            mode: Mode::Active,
            phase: 0,
            buffered: Vec::new(),
            status: Status::Unknown,
        }
    }

    fn probes(&self) -> Vec<(Dir, FranklinMsg)> {
        let msg = FranklinMsg::Probe {
            id: self.id,
            phase: self.phase,
        };
        vec![(Dir::Left, msg), (Dir::Right, msg)]
    }

    fn take_current(&mut self, dir: Dir) -> Option<u64> {
        let phase = self.phase;
        let pos = self
            .buffered
            .iter()
            .position(|&(d, _, p)| d == dir && p == phase)?;
        Some(self.buffered.remove(pos).1)
    }

    /// Evaluate as many complete phases as are buffered.
    fn evaluate(&mut self) -> Vec<(Dir, FranklinMsg)> {
        let mut out = Vec::new();
        while self.mode == Mode::Active {
            let Some(l) = self.take_current(Dir::Left) else { break };
            let Some(r) = self.take_current(Dir::Right) else {
                // Put the left probe back; wait for the right one.
                self.buffered.push((Dir::Left, l, self.phase));
                break;
            };
            if self.id > l && self.id > r {
                self.phase += 1;
                out.extend(self.probes());
            } else {
                self.mode = Mode::Relay;
                // Flush everything buffered onward — we are a wire now.
                for (from, id, phase) in std::mem::take(&mut self.buffered) {
                    out.push((from.flip(), FranklinMsg::Probe { id, phase }));
                }
            }
        }
        out
    }
}

impl RingProcess for Franklin {
    type Msg = FranklinMsg;

    fn start(&mut self) -> Vec<(Dir, FranklinMsg)> {
        self.probes()
    }

    fn on_msg(&mut self, from: Dir, msg: FranklinMsg) -> Vec<(Dir, FranklinMsg)> {
        match msg {
            FranklinMsg::Elected(v) => {
                if v == self.id {
                    Vec::new()
                } else {
                    self.status = Status::NonLeader;
                    vec![(Dir::Right, FranklinMsg::Elected(v))]
                }
            }
            FranklinMsg::Probe { id, phase } => match self.mode {
                Mode::Won => Vec::new(),
                Mode::Relay => vec![(from.flip(), FranklinMsg::Probe { id, phase })],
                Mode::Active => {
                    if id == self.id {
                        // Our probe circled: every other process relays.
                        self.mode = Mode::Won;
                        self.status = Status::Leader;
                        return vec![(Dir::Right, FranklinMsg::Elected(self.id))];
                    }
                    self.buffered.push((from, id, phase));
                    self.evaluate()
                }
            },
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// Run Franklin election on a ring with the given IDs (ring order).
pub fn run_franklin(ids: &[u64], schedule: RingSchedule) -> ElectionOutcome {
    let procs: Vec<Franklin> = ids.iter().map(|&id| Franklin::new(id)).collect();
    RingRunner::new(procs).run(schedule, 50_000_000, &mut NoopTracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcr::worst_case_ids;

    #[test]
    fn elects_the_maximum_id() {
        let out = run_franklin(&[3, 7, 1, 5, 2], RingSchedule::RoundRobin);
        assert!(out.complete);
        assert_eq!(out.leader, Some(1));
    }

    #[test]
    fn message_complexity_is_n_log_n() {
        for n in [8usize, 32, 128] {
            let out = run_franklin(&worst_case_ids(n), RingSchedule::RoundRobin);
            // Integer O(n log n) bound (ilog2 rounds down; +3 pads the +2).
            let bound = 5 * n * (n.ilog2() as usize + 3);
            assert!(out.messages <= bound, "n={n}: {} > {bound}", out.messages);
        }
    }

    #[test]
    fn agrees_with_other_algorithms_on_the_winner() {
        use crate::hs::run_hs;
        use crate::lcr::run_lcr;
        let ids = [14u64, 3, 99, 27, 56, 8, 71];
        let f = run_franklin(&ids, RingSchedule::RoundRobin).leader;
        let h = run_hs(&ids, RingSchedule::RoundRobin).leader;
        let l = run_lcr(&ids, RingSchedule::RoundRobin).leader;
        assert_eq!(f, h);
        assert_eq!(f, l);
        assert_eq!(f, Some(2));
    }

    #[test]
    fn survives_random_scheduling() {
        for seed in 0..6 {
            let out = run_franklin(&[10, 4, 99, 23, 57, 3], RingSchedule::Random(seed));
            assert_eq!(out.leader, Some(2), "seed {seed}");
        }
    }

    #[test]
    fn two_processes() {
        let out = run_franklin(&[2, 9], RingSchedule::RoundRobin);
        assert_eq!(out.leader, Some(1));
    }

    #[test]
    fn many_permutations_elect_exactly_one() {
        for seed in 0..8 {
            let mut ids: Vec<u64> = (0..15).collect();
            impossible_det::DetRng::seed_from_u64(seed).shuffle(&mut ids);
            let out = run_franklin(&ids, RingSchedule::Random(seed));
            assert!(out.complete, "seed {seed}");
            let max_pos = ids.iter().position(|&v| v == 14).unwrap();
            assert_eq!(out.leader, Some(max_pos), "seed {seed}");
        }
    }
}
