//! Itai–Rodeh randomized election in anonymous rings \[66\].
//!
//! Angluin's theorem (see [`crate::anonymous`]) forbids *deterministic*
//! election without IDs; Itai and Rodeh circumvent it with coins: each
//! phase, every surviving candidate draws a random value and sends a token
//! around the ring; tokens record whether a strictly greater or an equal
//! drawn value was seen. A candidate whose token returns clean is the
//! unique leader; ties survive to the next phase; dominated candidates
//! retire. Symmetry is broken with probability 1 — the paper's example of
//! "getting around the inherent limitation" with randomization.

use crate::ring::{Dir, ElectionOutcome, Status, SyncRingProcess, SyncRingRunner};
use impossible_det::DetRng;
use impossible_obs::NoopTracer;

/// A circulating token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The originator's drawn value this phase.
    pub value: u64,
    /// Hops travelled so far.
    pub hops: usize,
    /// Saw another candidate with an equal drawn value.
    saw_equal: bool,
    /// Saw a candidate with a strictly greater drawn value.
    saw_greater: bool,
}

/// Wire format: a batch of tokens plus an optional election announcement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IrMsg {
    /// Tokens moving one hop.
    pub tokens: Vec<Token>,
    /// Leader announcement in transit.
    elected: bool,
}

/// An Itai–Rodeh process: anonymous (no ID), knows the ring size, has coins.
#[derive(Debug, Clone)]
pub struct ItaiRodeh {
    n: usize,
    active: bool,
    drawn: u64,
    status: Status,
    outbox: IrMsg,
    rng: DetRng,
    /// Phases survived (for the experiment's distribution plots).
    pub phases: usize,
}

impl ItaiRodeh {
    /// An anonymous process on a ring of known size `n`. The `seed`
    /// parameterizes its *private* coin — positions get independent coins,
    /// not identities.
    pub fn new(n: usize, seed: u64) -> Self {
        ItaiRodeh {
            n,
            active: true,
            drawn: 0,
            status: Status::Unknown,
            outbox: IrMsg::default(),
            rng: DetRng::seed_from_u64(seed),
            phases: 0,
        }
    }

    fn phase_length(&self) -> usize {
        self.n
    }
}

impl SyncRingProcess for ItaiRodeh {
    type Msg = IrMsg;

    fn send(&mut self, round: usize) -> Vec<(Dir, IrMsg)> {
        if self.status != Status::Unknown && self.outbox == IrMsg::default() {
            return Vec::new();
        }
        let mut out = std::mem::take(&mut self.outbox);
        // Phase start: draw and launch a token.
        let phase_start = (round - 1).is_multiple_of(self.phase_length());
        if phase_start && self.active && self.status == Status::Unknown {
            self.drawn = self.rng.gen_range(0..self.n as u64);
            self.phases += 1;
            out.tokens.push(Token {
                value: self.drawn,
                hops: 0,
                saw_equal: false,
                saw_greater: false,
            });
        }
        if out == IrMsg::default() {
            return Vec::new();
        }
        vec![(Dir::Right, out)]
    }

    fn receive(&mut self, _round: usize, from_left: Option<IrMsg>, _from_right: Option<IrMsg>) {
        let Some(msg) = from_left else { return };
        if msg.elected {
            if self.status == Status::Unknown {
                self.status = Status::NonLeader;
                self.outbox.elected = true;
            }
            return;
        }
        for mut token in msg.tokens {
            token.hops += 1;
            if token.hops == self.n {
                // The token is home: this process is its originator.
                if !token.saw_greater && !token.saw_equal {
                    self.status = Status::Leader;
                    self.active = false;
                    self.outbox.elected = true;
                } else if token.saw_greater {
                    self.active = false; // dominated: retire
                }
                // Tie (saw_equal, no greater): stay active for next phase.
                continue;
            }
            if self.active && self.status == Status::Unknown {
                if self.drawn == token.value {
                    token.saw_equal = true;
                } else if self.drawn > token.value {
                    token.saw_greater = true;
                }
            }
            self.outbox.tokens.push(token);
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// Run Itai–Rodeh on an anonymous ring of size `n` with seeded coins.
///
/// Returns the outcome plus the number of phases the winner needed.
pub fn run_itai_rodeh(n: usize, seed: u64, max_rounds: usize) -> (ElectionOutcome, usize) {
    let procs: Vec<ItaiRodeh> = (0..n)
        .map(|i| ItaiRodeh::new(n, seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64)))
        .collect();
    let mut runner = SyncRingRunner::new(procs);
    let out = runner.run(max_rounds, &mut NoopTracer);
    let phases = runner.processes().iter().map(|p| p.phases).max().unwrap_or(0);
    (out, phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elects_exactly_one_leader_across_seeds() {
        for seed in 0..20 {
            let (out, _) = run_itai_rodeh(6, seed, 50_000);
            assert!(out.complete, "seed {seed} did not finish");
            assert!(out.leader.is_some(), "seed {seed}: {out:?}");
        }
    }

    #[test]
    fn works_on_various_ring_sizes() {
        for n in [2usize, 3, 5, 9, 16] {
            let (out, _) = run_itai_rodeh(n, 7, 100_000);
            assert!(out.leader.is_some(), "n={n}");
        }
    }

    #[test]
    fn phase_count_is_small_in_expectation() {
        let mut total_phases = 0;
        let samples = 20;
        for seed in 0..samples {
            let (out, phases) = run_itai_rodeh(8, seed, 100_000);
            assert!(out.complete);
            total_phases += phases;
        }
        // Expected phases is O(1) (≈ e/(e−1) for value range n); allow slack.
        assert!(
            total_phases <= samples as usize * 5,
            "total phases {total_phases} over {samples} runs"
        );
    }

    #[test]
    fn message_cost_scales_near_linearly_per_phase() {
        let (out8, p8) = run_itai_rodeh(8, 3, 100_000);
        assert!(out8.complete);
        // Per phase the cost is ≤ (actives)·n token-hops plus announcement.
        assert!(
            out8.messages <= (p8 + 1) * 8 * 8 + 2 * 8,
            "messages {} phases {p8}",
            out8.messages
        );
    }

    #[test]
    fn coins_differ_run_to_run() {
        let (a, _) = run_itai_rodeh(5, 1, 50_000);
        let (b, _) = run_itai_rodeh(5, 2, 50_000);
        // Different seeds may elect different positions — anonymity means
        // the winner is chosen by luck, not by name. (They may coincide;
        // check over several seeds that at least two winners occur.)
        let winners: std::collections::BTreeSet<_> = (0..10)
            .filter_map(|s| run_itai_rodeh(5, s, 50_000).0.leader)
            .collect();
        assert!(winners.len() > 1, "winners {winners:?}");
        let _ = (a, b);
    }
}
