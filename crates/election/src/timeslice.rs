//! The counterexample algorithms of \[58\]: O(n) messages in a synchronous
//! ring, paying with time.
//!
//! The Ω(n log n) lower bound for synchronous rings needs its technical
//! assumptions (comparison-based, or bounded time relative to the ID
//! space). These two algorithms are the proof: drop the assumptions and
//! **n messages suffice**.
//!
//! * [`run_timeslice`] — ring size known: time is cut into slices of `n`
//!   rounds; slice `v` belongs to ID `v`. The minimum ID acts in its slice,
//!   circulates one token (n messages), everyone else stays silent. Time:
//!   `n·(min_id + 1)` rounds — "its time complexity depending exponentially
//!   [or worse] on the IDs actually in use".
//! * [`run_variable_speeds`] — ring size unknown: every process launches a
//!   token, but the token of ID `v` moves one hop per `2^v` rounds. Slower
//!   tokens are killed by travelling evidence of smaller IDs; the minimum
//!   token laps the ring having spent `n·2^min` rounds, while total
//!   messages stay ≤ 2n.

use crate::ring::{Dir, ElectionOutcome, Status, SyncRingProcess, SyncRingRunner};
use impossible_obs::NoopTracer;

/// A TimeSlice process (synchronous, ring size known).
#[derive(Debug, Clone)]
pub struct TimeSlice {
    id: u64,
    n: usize,
    status: Status,
    /// Token currently held and due for forwarding next round.
    forwarding: Option<u64>,
    /// Set once any token has been seen (suppresses our own slice).
    saw_token: bool,
}

impl TimeSlice {
    /// A process with unique `id` on a ring of known size `n`.
    pub fn new(id: u64, n: usize) -> Self {
        TimeSlice {
            id,
            n,
            status: Status::Unknown,
            forwarding: None,
            saw_token: false,
        }
    }
}

impl SyncRingProcess for TimeSlice {
    type Msg = u64;

    fn send(&mut self, round: usize) -> Vec<(Dir, u64)> {
        // Forward a held token.
        if let Some(v) = self.forwarding.take() {
            return vec![(Dir::Right, v)];
        }
        // Start our token at the first round of our slice.
        let slice_start = self.id as usize * self.n + 1;
        if round == slice_start && !self.saw_token && self.status == Status::Unknown {
            self.saw_token = true;
            return vec![(Dir::Right, self.id)];
        }
        Vec::new()
    }

    fn receive(&mut self, _round: usize, from_left: Option<u64>, _from_right: Option<u64>) {
        if let Some(v) = from_left {
            self.saw_token = true;
            if v == self.id {
                self.status = Status::Leader;
            } else {
                self.status = Status::NonLeader;
                self.forwarding = Some(v);
            }
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// Run TimeSlice on a ring with the given IDs.
pub fn run_timeslice(ids: &[u64]) -> ElectionOutcome {
    let n = ids.len();
    let max_id = *ids.iter().max().expect("nonempty") as usize;
    let procs: Vec<TimeSlice> = ids.iter().map(|&id| TimeSlice::new(id, n)).collect();
    SyncRingRunner::new(procs).run(n * (max_id + 2), &mut NoopTracer)
}

/// A VariableSpeeds process (synchronous, ring size unknown).
#[derive(Debug, Clone)]
pub struct VariableSpeeds {
    id: u64,
    status: Status,
    /// Tokens in transit at this node: `(token id, rounds until release)`.
    held: Vec<(u64, u64)>,
    /// Smallest token ID witnessed (kills larger tokens).
    min_seen: u64,
    started: bool,
}

impl VariableSpeeds {
    /// A process with unique `id`.
    pub fn new(id: u64) -> Self {
        VariableSpeeds {
            id,
            status: Status::Unknown,
            held: Vec::new(),
            min_seen: u64::MAX,
            started: false,
        }
    }
}

impl SyncRingProcess for VariableSpeeds {
    type Msg = u64;

    fn send(&mut self, _round: usize) -> Vec<(Dir, u64)> {
        if !self.started {
            self.started = true;
            self.min_seen = self.id;
            // Launch our token; it waits 2^id rounds per hop, counting from
            // now.
            self.held.push((self.id, 1u64 << self.id.min(62)));
        }
        let mut out = Vec::new();
        for (v, wait) in &mut self.held {
            *wait -= 1;
            if *wait == 0 {
                out.push((Dir::Right, *v));
            }
        }
        self.held.retain(|(_, wait)| *wait > 0);
        out
    }

    fn receive(&mut self, _round: usize, from_left: Option<u64>, _from_right: Option<u64>) {
        if let Some(v) = from_left {
            if v == self.id {
                self.status = Status::Leader;
            } else if v < self.min_seen {
                // Smaller token: it survives and kills everything we hold.
                self.min_seen = v;
                self.held.clear();
                self.status = Status::NonLeader;
                self.held.push((v, 1u64 << v.min(62)));
            }
            // Tokens ≥ min_seen are swallowed silently.
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// Run VariableSpeeds on a ring with the given IDs.
pub fn run_variable_speeds(ids: &[u64]) -> ElectionOutcome {
    let n = ids.len() as u64;
    let min_id = *ids.iter().min().expect("nonempty");
    let procs: Vec<VariableSpeeds> = ids.iter().map(|&id| VariableSpeeds::new(id)).collect();
    // The winner's token needs n · 2^min rounds to circle.
    let budget = (n * (1u64 << min_id.min(20)) + 4 * n) as usize;
    SyncRingRunner::new(procs).run(budget, &mut NoopTracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeslice_elects_minimum_with_n_messages() {
        let ids = [5, 2, 8, 3, 9, 6];
        let out = run_timeslice(&ids);
        assert_eq!(out.leader, Some(1)); // position of ID 2
        // Exactly one token circulates: n messages.
        assert_eq!(out.messages, ids.len());
    }

    #[test]
    fn timeslice_time_scales_with_the_minimum_id() {
        let cheap = run_timeslice(&[1, 4, 3, 2]); // min 1 → ~2n rounds
        let costly = run_timeslice(&[10, 14, 13, 12]); // min 10 → ~11n rounds
        assert!(costly.rounds > 4 * cheap.rounds);
        assert_eq!(cheap.messages, 4);
        assert_eq!(costly.messages, 4);
    }

    #[test]
    fn variable_speeds_elects_minimum_with_linear_messages() {
        let ids = [3, 1, 4, 2, 5];
        let out = run_variable_speeds(&ids);
        assert_eq!(out.leader, Some(1));
        // Total messages bounded by ~2n: the min token circles (n hops);
        // slower tokens die fast.
        assert!(
            out.messages <= 2 * ids.len() + 2,
            "messages {}",
            out.messages
        );
    }

    #[test]
    fn variable_speeds_time_blows_up_exponentially_with_min_id() {
        let fast = run_variable_speeds(&[1, 2, 3, 4]);
        let slow = run_variable_speeds(&[5, 6, 7, 8]);
        assert!(slow.rounds > 8 * fast.rounds, "{} vs {}", slow.rounds, fast.rounds);
    }

    #[test]
    fn message_counts_beat_the_comparison_lower_bound_curve() {
        // The whole point: n messages < n log n — possible only because
        // the algorithm is not comparison-based (it reads ID magnitudes).
        use impossible_core::pigeonhole::bounds::ring_election_messages;
        let n = 16usize;
        let ids: Vec<u64> = (0..n as u64).collect();
        let out = run_timeslice(&ids);
        assert!((out.messages as u64) < ring_election_messages(n as u64));
    }
}
