//! The Arjomandi–Fischer–Lynch *s-sessions* problem \[8\].
//!
//! A *session* is an interval in which every process performs at least one
//! output event. A synchronous system performs `s` sessions in time `s`
//! (everyone outputs every round); AFL proved an asynchronous system needs
//! time ≈ `(s−1)·d` where `d` is the network diameter — "a provable
//! difference in the time complexity of synchronous and asynchronous
//! systems".
//!
//! [`run_sessions`] runs a flooding-barrier algorithm on the timed executor
//! and reports measured time against the `(s−1)·d` lower-bound curve; the
//! *stretching* transformation justifying the bound lives in
//! [`crate::stretch`].

use crate::asyncnet::{AsyncProcess, DelayModel, Time, TimedNet, UNIT};
use crate::topology::Topology;
use std::collections::BTreeSet;

/// Flood message: "origin has completed its output for session k".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Done {
    /// Session index.
    session: usize,
    /// The process whose output this wave announces.
    pub origin: usize,
}

/// A process of the barrier algorithm: output, flood completion, wait for
/// everyone's wave, repeat.
#[derive(Debug)]
pub struct SessionProcess {
    me: usize,
    n: usize,
    neighbors: Vec<usize>,
    target_sessions: usize,
    current: usize,
    seen: BTreeSet<Done>,
    /// Times at which this process performed each session's output event.
    output_times: Vec<Time>,
}

impl SessionProcess {
    fn new(me: usize, topology: &Topology, target_sessions: usize) -> Self {
        SessionProcess {
            me,
            n: topology.len(),
            neighbors: topology.neighbors(me).to_vec(),
            target_sessions,
            current: 0,
            seen: BTreeSet::new(),
            output_times: Vec::new(),
        }
    }

    /// Perform the output for the current session and start its wave.
    fn output_and_announce(&mut self, now: Time) -> Vec<(usize, Done)> {
        self.output_times.push(now);
        let done = Done {
            session: self.current,
            origin: self.me,
        };
        self.seen.insert(done.clone());
        self.neighbors.iter().map(|&to| (to, done.clone())).collect()
    }

    fn session_complete(&self) -> bool {
        (0..self.n).all(|origin| {
            self.seen.contains(&Done {
                session: self.current,
                origin,
            })
        })
    }
}

impl AsyncProcess for SessionProcess {
    type Msg = Done;

    fn on_start(&mut self, now: Time) -> Vec<(usize, Done)> {
        if self.target_sessions == 0 {
            return Vec::new();
        }
        self.output_and_announce(now)
    }

    fn on_message(&mut self, now: Time, _from: usize, msg: Done) -> Vec<(usize, Done)> {
        if self.seen.contains(&msg) {
            return Vec::new();
        }
        self.seen.insert(msg.clone());
        // Forward the wave.
        let mut out: Vec<(usize, Done)> = self
            .neighbors
            .iter()
            .map(|&to| (to, msg.clone()))
            .collect();
        // Barrier check: advance to the next session once everyone's wave
        // for the current session has arrived.
        while self.session_complete() && self.current + 1 < self.target_sessions {
            self.current += 1;
            out.extend(self.output_and_announce(now));
        }
        out
    }
}

/// Result of a sessions run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Virtual time at which the last output of the last session occurred.
    pub total_time: Time,
    /// Messages delivered.
    pub messages: usize,
    /// The AFL lower-bound curve `(s−1) · d · lo` for these parameters.
    pub lower_bound: Time,
    /// The synchronous-cost contrast `s` rounds (in the same time units).
    pub synchronous_time: Time,
}

/// Run `s` sessions on `topology` with the given delay model and report
/// measured vs. bound.
pub fn run_sessions(topology: &Topology, s: usize, delay: DelayModel) -> SessionReport {
    let procs: Vec<SessionProcess> = (0..topology.len())
        .map(|i| SessionProcess::new(i, topology, s))
        .collect();
    let mut net = TimedNet::new(topology.clone(), procs, delay);
    let (lo, _) = net.delay_bounds();
    let metrics = net.run(4_000_000);

    let total_time = net
        .processes()
        .iter()
        .flat_map(|p| p.output_times.iter().copied())
        .max()
        .unwrap_or(0);
    let d = topology.diameter() as u64;
    SessionReport {
        total_time,
        messages: metrics.messages,
        lower_bound: (s as u64).saturating_sub(1) * d * lo,
        synchronous_time: s as u64 * UNIT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_processes_complete_all_sessions() {
        let topo = Topology::ring(6);
        let s = 4;
        let procs: Vec<SessionProcess> =
            (0..6).map(|i| SessionProcess::new(i, &topo, s)).collect();
        let mut net = TimedNet::new(topo, procs, DelayModel::Unit);
        net.run(1_000_000);
        for p in net.processes() {
            assert_eq!(p.output_times.len(), s, "p{} sessions", p.me);
        }
    }

    #[test]
    fn asynchronous_time_respects_afl_bound() {
        // Unit delays: the barrier costs ≥ (s-1)·d time.
        for (topo, s) in [
            (Topology::ring(8), 3usize),
            (Topology::line(6), 4),
            (Topology::ring(10), 5),
        ] {
            let report = run_sessions(&topo, s, DelayModel::Unit);
            assert!(
                report.total_time >= report.lower_bound,
                "measured {} < bound {} on diam {}",
                report.total_time,
                report.lower_bound,
                topo.diameter()
            );
        }
    }

    #[test]
    fn async_cost_exceeds_synchronous_cost_when_diameter_large() {
        let topo = Topology::line(10); // diameter 9
        let report = run_sessions(&topo, 5, DelayModel::Unit);
        // Synchronous: 5 time units. Asynchronous: ≥ 4·9 = 36.
        assert!(report.total_time >= 36 * UNIT);
        assert_eq!(report.synchronous_time, 5 * UNIT);
        assert!(report.total_time > report.synchronous_time);
    }

    #[test]
    fn single_session_is_cheap() {
        let topo = Topology::ring(5);
        let report = run_sessions(&topo, 1, DelayModel::Unit);
        assert_eq!(report.lower_bound, 0);
        // One output each at time 0; waves still flood but outputs are done.
        assert_eq!(report.total_time, 0);
    }

    #[test]
    fn message_count_scales_with_sessions_and_edges() {
        let topo = Topology::ring(6);
        let r2 = run_sessions(&topo, 2, DelayModel::Unit);
        let r5 = run_sessions(&topo, 5, DelayModel::Unit);
        assert!(r5.messages > r2.messages);
    }

    #[test]
    fn variable_delays_still_complete() {
        let topo = Topology::ring(6);
        let report = run_sessions(
            &topo,
            3,
            DelayModel::Uniform {
                lo: UNIT / 2,
                hi: UNIT,
                seed: 5,
            },
        );
        assert!(report.total_time >= report.lower_bound);
    }
}
