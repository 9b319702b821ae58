//! Computing functions on anonymous rings — the Ω(n²) message bound of
//! Attiya–Snir–Warmuth \[14\].
//!
//! With distinct IDs, nontrivial functions cost Θ(n log n) messages; strip
//! the IDs and the bound jumps to **Ω(n²)** for AND, MAX and every other
//! "non-local" function — each process must effectively hear the whole
//! input vector, and symmetry forbids electing a collector. The matching
//! algorithm is input rotation: every process circulates the input vector
//! one hop per round for `n` rounds, costing exactly `n²` messages.
//!
//! [`run_rotation`] implements it (computing any fold of the inputs) and
//! the tests compare its cost against the with-IDs `n log n` curve — the
//! anonymity premium, measured.

use crate::ring::{Dir, Status, SyncRingProcess, SyncRingRunner};
use impossible_obs::NoopTracer;

/// A rotation process: anonymous, knows `n`, accumulates the input vector.
#[derive(Debug, Clone)]
pub struct Rotation {
    n: usize,
    /// Inputs gathered so far, in ring order starting at this process.
    gathered: Vec<u64>,
    /// Value to forward this round.
    outgoing: Option<Vec<u64>>,
    done: bool,
}

impl Rotation {
    /// A process with its own `input` on a ring of known size `n`.
    pub fn new(n: usize, input: u64) -> Self {
        Rotation {
            n,
            gathered: vec![input],
            outgoing: None,
            done: false,
        }
    }
}

impl SyncRingProcess for Rotation {
    type Msg = Vec<u64>;

    fn send(&mut self, round: usize) -> Vec<(Dir, Vec<u64>)> {
        if self.done {
            return Vec::new();
        }
        let payload = if round == 1 {
            self.gathered.clone()
        } else {
            match self.outgoing.take() {
                Some(p) => p,
                None => return Vec::new(),
            }
        };
        vec![(Dir::Right, payload)]
    }

    fn receive(&mut self, _round: usize, from_left: Option<Vec<u64>>, _from_right: Option<Vec<u64>>) {
        if let Some(batch) = from_left {
            // The batch is the partial vector of our left neighbourhood:
            // extend our knowledge and forward it onward.
            if self.gathered.len() < self.n {
                // The newly learned input is the *first* element of the
                // arriving vector's tail relative to what we know.
                let fresh = batch[0];
                self.gathered.push(fresh);
            }
            if self.gathered.len() >= self.n {
                self.done = true;
            }
            self.outgoing = Some(batch);
        }
    }

    fn status(&self) -> Status {
        if self.done {
            Status::NonLeader // terminated; leadership is not the goal here
        } else {
            Status::Unknown
        }
    }
}

/// Result of an anonymous computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeOutcome {
    /// Each process's fold result (all must agree for symmetric folds).
    pub results: Vec<u64>,
    /// Messages used.
    pub messages: usize,
    /// The n² matching-algorithm curve.
    quadratic_curve: usize,
}

/// Rotate inputs for `n` rounds and fold each process's gathered vector
/// with `fold` (must be rotation-invariant for agreement, e.g. AND/MAX/SUM).
pub fn run_rotation<F>(inputs: &[u64], fold: F) -> ComputeOutcome
where
    F: Fn(&[u64]) -> u64,
{
    let n = inputs.len();
    let procs: Vec<Rotation> = inputs.iter().map(|&v| Rotation::new(n, v)).collect();
    let mut runner = SyncRingRunner::new(procs);
    let out = runner.run(n + 1, &mut NoopTracer);
    let results = runner
        .processes()
        .iter()
        .map(|p| fold(&p.gathered))
        .collect();
    ComputeOutcome {
        results,
        messages: out.messages,
        quadratic_curve: n * n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_core::pigeonhole::bounds::ring_election_messages;

    #[test]
    fn computes_and_max_sum_correctly() {
        let inputs = [3u64, 1, 4, 1, 5, 9];
        let max = run_rotation(&inputs, |v| *v.iter().max().unwrap());
        assert!(max.results.iter().all(|&r| r == 9));
        let sum = run_rotation(&inputs, |v| v.iter().sum());
        assert!(sum.results.iter().all(|&r| r == 23));
        let and = run_rotation(&[1, 1, 1, 1], |v| v.iter().all(|&x| x == 1) as u64);
        assert!(and.results.iter().all(|&r| r == 1));
        let and0 = run_rotation(&[1, 0, 1, 1], |v| v.iter().all(|&x| x == 1) as u64);
        assert!(and0.results.iter().all(|&r| r == 0));
    }

    #[test]
    fn every_process_gathers_the_full_vector() {
        let inputs = [7u64, 8, 9, 10];
        let out = run_rotation(&inputs, |v| v.len() as u64);
        assert!(out.results.iter().all(|&r| r == 4));
    }

    #[test]
    fn message_cost_is_quadratic() {
        for n in [4usize, 8, 16] {
            let inputs: Vec<u64> = (0..n as u64).collect();
            let out = run_rotation(&inputs, |v| *v.iter().max().unwrap());
            // n processes forwarding for n−1 rounds: exactly n(n−1).
            assert!(
                out.messages >= n * (n - 1) && out.messages <= n * n,
                "n={n}: {} messages",
                out.messages
            );
        }
    }

    #[test]
    fn anonymity_premium_vs_with_ids_curve() {
        // Ω(n²) anonymous vs O(n log n) with IDs: the gap widens with n.
        for n in [16u64, 64] {
            let inputs: Vec<u64> = (0..n).collect();
            let anon = run_rotation(&inputs, |v| *v.iter().max().unwrap()).messages as u64;
            let with_ids = ring_election_messages(n);
            assert!(
                anon > 2 * with_ids,
                "n={n}: anonymous {anon} vs with-IDs curve {with_ids}"
            );
        }
    }

    #[test]
    fn works_on_uniform_inputs_where_symmetry_is_total() {
        // Symmetry never blocks *computation* (unlike election): every
        // process ends with the same (uniform) vector and the same result.
        let out = run_rotation(&[5, 5, 5, 5, 5], |v| v.iter().sum());
        assert!(out.results.iter().all(|&r| r == 25));
    }
}
