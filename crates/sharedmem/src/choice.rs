//! Rabin's choice-coordination problem \[92\].
//!
//! Processes share two "boards" but have no agreed naming of them (each
//! process starts at an arbitrary board); they must mark **exactly one**
//! board. Rabin proved an Ω(n^(1/3)) lower bound on the value space of
//! test-and-set solutions; randomized protocols solve the problem with small
//! expected values.
//!
//! The protocol here is Rabin-style and randomized; its safety
//! ("never two marks") is *deterministic* — it holds for every coin outcome
//! and schedule, which [`ChoiceSystem`] model-checks by treating coin flips
//! as nondeterministic branching. Termination holds with probability 1 and
//! is measured by simulation.
//!
//! Safety invariant (the executable version of Rabin's argument): a process
//! marks its current board only when the board's value is *strictly below*
//! the process's count, and counts are only ever adopted from board values —
//! so two opposite marks would force `v_A < c_P ≤ v_B < c_Q ≤ v_A`, a cycle.

use impossible_core::ids::ProcessId;
use impossible_core::system::System;
use impossible_det::DetRng;
use impossible_explore::Search;

/// Sentinel for a marked board.
const MARK: u64 = u64::MAX;

/// Per-process protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChoiceLocal {
    /// Which board the process is currently at (0 or 1).
    board: usize,
    /// The largest board value adopted so far.
    pub count: u64,
    /// The board this process has committed to, if decided.
    pub decided: Option<usize>,
}

/// Global configuration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChoiceState {
    /// The two shared boards.
    boards: [u64; 2],
    /// Process states.
    pub locals: Vec<ChoiceLocal>,
}

impossible_explore::impl_encode_struct!(ChoiceLocal { board, count, decided });
impossible_explore::impl_encode_struct!(ChoiceState { boards, locals });

/// One step of a process; `coin` is meaningful only when the protocol
/// actually flips (the `v == c` case) — the scheduler-adversary chooses the
/// outcome, which is exactly the "for all coin outcomes" safety quantifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChoiceAction {
    /// The stepping process.
    pub process: usize,
    /// The coin outcome supplied to this step (ignored if no flip happens).
    coin: bool,
}

/// The choice-coordination system for `n` processes with given starting
/// boards.
#[derive(Debug, Clone)]
pub struct ChoiceSystem {
    /// Starting board of each process (models the lack of common naming).
    start_boards: Vec<usize>,
}

impl ChoiceSystem {
    /// System where process `i` starts at `start_boards[i]`.
    pub fn new(start_boards: Vec<usize>) -> Self {
        assert!(!start_boards.is_empty());
        assert!(start_boards.iter().all(|&b| b < 2));
        ChoiceSystem { start_boards }
    }

    /// Apply one protocol step for `p` with the given coin.
    fn advance(&self, s: &ChoiceState, p: usize, coin: bool) -> ChoiceState {
        let mut next = s.clone();
        let l = s.locals[p];
        let v = s.boards[l.board];
        let nl = &mut next.locals[p];
        if v == MARK {
            nl.decided = Some(l.board);
        } else if v > l.count {
            nl.count = v;
            nl.board = 1 - l.board;
        } else if v < l.count {
            next.boards[l.board] = MARK;
            nl.decided = Some(l.board);
        } else {
            // v == count: flip.
            if coin {
                next.boards[l.board] = v + 1;
                nl.count = v + 1;
            }
            nl.board = 1 - l.board;
        }
        next
    }
}

impl System for ChoiceSystem {
    type State = ChoiceState;
    type Action = ChoiceAction;

    fn initial_states(&self) -> Vec<ChoiceState> {
        vec![ChoiceState {
            boards: [0, 0],
            locals: self
                .start_boards
                .iter()
                .map(|&b| ChoiceLocal {
                    board: b,
                    count: 0,
                    decided: None,
                })
                .collect(),
        }]
    }

    fn enabled(&self, s: &ChoiceState) -> Vec<ChoiceAction> {
        let mut acts = Vec::new();
        for (p, l) in s.locals.iter().enumerate() {
            if l.decided.is_some() {
                continue;
            }
            let v = s.boards[l.board];
            if v != MARK && v == l.count {
                // A real flip: both outcomes are possible worlds.
                acts.push(ChoiceAction { process: p, coin: false });
                acts.push(ChoiceAction { process: p, coin: true });
            } else {
                acts.push(ChoiceAction { process: p, coin: false });
            }
        }
        acts
    }

    fn step(&self, s: &ChoiceState, a: &ChoiceAction) -> ChoiceState {
        self.advance(s, a.process, a.coin)
    }

    fn owner(&self, a: &ChoiceAction) -> Option<ProcessId> {
        Some(ProcessId(a.process))
    }

    fn num_processes(&self) -> Option<usize> {
        Some(self.start_boards.len())
    }
}

/// Model-check safety: no reachable state has both boards marked, and no two
/// processes decide different boards. Bounded (values grow); returns the
/// violating state if found within `max_states`.
pub fn find_safety_violation(sys: &ChoiceSystem, max_states: usize) -> Option<ChoiceState> {
    Search::new(sys)
        .max_states(max_states)
        .search(|s: &ChoiceState| {
            let double_mark = s.boards[0] == MARK && s.boards[1] == MARK;
            let mut decided_boards = s.locals.iter().filter_map(|l| l.decided);
            let split = match decided_boards.next() {
                Some(first) => s
                    .locals
                    .iter()
                    .filter_map(|l| l.decided)
                    .any(|b| b != first),
                None => false,
            };
            double_mark || split
        })
        .witness
        .map(|w| w.last().clone())
}

/// Outcome of a randomized run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceRun {
    /// Steps until every process decided.
    pub steps: usize,
    /// The chosen board (all processes agree, or the run is a bug).
    chosen: usize,
    /// Largest non-mark value ever written (Rabin's value-space measure).
    pub max_value: u64,
}

/// Simulate to completion under a random fair scheduler with seeded coins.
///
/// # Panics
///
/// Panics if the protocol violates agreement (it cannot, by the invariant).
pub fn simulate(sys: &ChoiceSystem, seed: u64, max_steps: usize) -> Option<ChoiceRun> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut state = sys.initial_states().remove(0);
    let mut max_value = 0u64;
    for step in 0..max_steps {
        let undecided: Vec<usize> = state
            .locals
            .iter()
            .enumerate()
            .filter(|(_, l)| l.decided.is_none())
            .map(|(p, _)| p)
            .collect();
        if undecided.is_empty() {
            let chosen = state.locals[0].decided.expect("all decided");
            assert!(
                state.locals.iter().all(|l| l.decided == Some(chosen)),
                "agreement violated"
            );
            return Some(ChoiceRun {
                steps: step,
                chosen,
                max_value,
            });
        }
        let p = undecided[rng.gen_range(0..undecided.len())];
        let coin = rng.gen_bool(0.5);
        state = sys.advance(&state, p, coin);
        for b in state.boards {
            if b != MARK {
                max_value = max_value.max(b);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_holds_for_all_coins_and_schedules_n2() {
        // Both same-board and opposite-board starts.
        for starts in [vec![0, 1], vec![0, 0], vec![1, 0]] {
            let sys = ChoiceSystem::new(starts.clone());
            assert!(
                find_safety_violation(&sys, 300_000).is_none(),
                "violation with starts {starts:?}"
            );
        }
    }

    #[test]
    fn safety_holds_n3() {
        let sys = ChoiceSystem::new(vec![0, 1, 0]);
        assert!(find_safety_violation(&sys, 300_000).is_none());
    }

    #[test]
    fn terminates_with_agreement_across_seeds() {
        let sys = ChoiceSystem::new(vec![0, 1]);
        for seed in 0..50 {
            let run = simulate(&sys, seed, 100_000).expect("must terminate");
            assert!(run.chosen < 2);
        }
    }

    #[test]
    fn values_stay_small_in_practice() {
        // Rabin's point: expected value space is tiny.
        let sys = ChoiceSystem::new(vec![0, 1, 1, 0]);
        let mut worst = 0;
        for seed in 0..30 {
            let run = simulate(&sys, seed, 200_000).expect("terminates");
            worst = worst.max(run.max_value);
        }
        assert!(worst <= 16, "max board value {worst}");
    }

    #[test]
    fn solo_process_decides() {
        let sys = ChoiceSystem::new(vec![1]);
        let run = simulate(&sys, 1, 10_000).expect("terminates");
        assert!(run.steps <= 16);
    }
}
