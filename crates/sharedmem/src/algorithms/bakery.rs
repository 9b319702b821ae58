//! Lamport's bakery algorithm — read/write mutual exclusion with FIFO
//! fairness and **unbounded** ticket values.
//!
//! The bakery algorithm is the classic contrast to the §2.1 value-counting
//! results: it achieves the strongest fairness (first-come-first-served) by
//! spending an *unbounded* value space, exactly the resource the
//! Cremers–Hibbard and Burns et al. bounds ration. Its reachable graph is
//! infinite, so the tests perform *bounded* model checking plus randomized
//! simulation (see [`crate::sched`]).

use crate::mutex::{MutexAlgorithm, Region};

/// The bakery algorithm for `n` processes.
///
/// Variable layout: `choosing[i] = i`, `number[i] = n + i`.
#[derive(Debug, Clone)]
pub struct Bakery {
    n: usize,
}

impl Bakery {
    /// Instance for `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Bakery { n }
    }

    fn choosing(&self, i: usize) -> usize {
        i
    }
    fn number(&self, i: usize) -> usize {
        self.n + i
    }

    fn skip_self(&self, i: usize, j: usize) -> usize {
        if j == i {
            j + 1
        } else {
            j
        }
    }
}

/// Program counter of a [`Bakery`] process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BakeryLocal {
    /// Remainder region.
    Rem,
    /// `choosing[i] := 1`.
    SetChoosing,
    /// Scan all `number[j]` computing the running maximum.
    ReadMax {
        /// Next ticket to read.
        j: usize,
        /// Maximum ticket seen so far.
        max: u64,
    },
    /// `number[i] := max + 1`.
    WriteNumber {
        /// The maximum just computed.
        max: u64,
    },
    /// `choosing[i] := 0`.
    ClearChoosing {
        /// Our ticket (kept for the wait phase comparisons).
        ticket: u64,
    },
    /// Wait until `choosing[j] == 0`.
    WaitChoosing {
        /// Process being waited on.
        j: usize,
        /// Our ticket.
        ticket: u64,
    },
    /// Wait until `number[j] == 0` or `(number[j], j) > (ticket, i)`.
    WaitNumber {
        /// Process being waited on.
        j: usize,
        /// Our ticket.
        ticket: u64,
    },
    /// Critical region.
    Crit,
    /// Exit: `number[i] := 0`.
    ClearNumber,
}

impl MutexAlgorithm for Bakery {
    type Local = BakeryLocal;
    type Register = u32;

    fn name(&self) -> &'static str {
        "bakery"
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn num_vars(&self) -> usize {
        2 * self.n
    }

    fn initial_var(&self, _var: usize) -> u64 {
        0
    }

    fn initial_local(&self, _i: usize) -> BakeryLocal {
        BakeryLocal::Rem
    }

    fn region(&self, local: &BakeryLocal) -> Region {
        match local {
            BakeryLocal::Rem => Region::Remainder,
            BakeryLocal::Crit => Region::Critical,
            BakeryLocal::ClearNumber => Region::Exit,
            _ => Region::Trying,
        }
    }

    fn on_try(&self, _i: usize, _local: &BakeryLocal) -> BakeryLocal {
        BakeryLocal::SetChoosing
    }

    fn on_exit(&self, _i: usize, _local: &BakeryLocal) -> BakeryLocal {
        BakeryLocal::ClearNumber
    }

    fn target(&self, i: usize, local: &BakeryLocal) -> usize {
        match local {
            BakeryLocal::SetChoosing | BakeryLocal::ClearChoosing { .. } => self.choosing(i),
            BakeryLocal::ReadMax { j, .. } => self.number(*j),
            BakeryLocal::WriteNumber { .. } | BakeryLocal::ClearNumber => self.number(i),
            BakeryLocal::WaitChoosing { j, .. } => self.choosing(*j),
            BakeryLocal::WaitNumber { j, .. } => self.number(*j),
            other => unreachable!("no access in {other:?}"),
        }
    }

    fn step(&self, i: usize, local: &BakeryLocal, value: u64) -> (BakeryLocal, u64) {
        match *local {
            BakeryLocal::SetChoosing => (BakeryLocal::ReadMax { j: 0, max: 0 }, 1),
            BakeryLocal::ReadMax { j, max } => {
                let max = max.max(value);
                let next = j + 1;
                if next >= self.n {
                    (BakeryLocal::WriteNumber { max }, value)
                } else {
                    (BakeryLocal::ReadMax { j: next, max }, value)
                }
            }
            BakeryLocal::WriteNumber { max } => {
                (BakeryLocal::ClearChoosing { ticket: max + 1 }, max + 1)
            }
            BakeryLocal::ClearChoosing { ticket } => {
                let j = self.skip_self(i, 0);
                if j >= self.n {
                    (BakeryLocal::Crit, 0)
                } else {
                    (BakeryLocal::WaitChoosing { j, ticket }, 0)
                }
            }
            BakeryLocal::WaitChoosing { j, ticket } => {
                if value == 0 {
                    (BakeryLocal::WaitNumber { j, ticket }, value)
                } else {
                    (BakeryLocal::WaitChoosing { j, ticket }, value)
                }
            }
            BakeryLocal::WaitNumber { j, ticket } => {
                let passes = value == 0 || (value, j) > (ticket, i);
                if passes {
                    let next = self.skip_self(i, j + 1);
                    if next >= self.n {
                        (BakeryLocal::Crit, value)
                    } else {
                        (BakeryLocal::WaitChoosing { j: next, ticket }, value)
                    }
                } else {
                    (BakeryLocal::WaitNumber { j, ticket }, value)
                }
            }
            BakeryLocal::ClearNumber => (BakeryLocal::Rem, 0),
            ref other => unreachable!("no step in {other:?}"),
        }
    }

    fn read_write_only(&self) -> bool {
        true
    }

    // Ticket values are unbounded: `value_space` stays `None`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::mutex::MutexSystem;

    #[test]
    fn bounded_check_finds_no_mutex_violation_n2() {
        let alg = Bakery::new(2);
        let sys = MutexSystem::new(&alg);
        // Infinite state space (tickets grow): bounded exploration.
        assert!(check::find_mutex_violation(&sys, 120_000).is_none());
    }

    #[test]
    fn bounded_check_finds_no_mutex_violation_n3() {
        let alg = Bakery::new(3);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_mutex_violation(&sys, 120_000).is_none());
    }

    #[test]
    fn ticket_values_grow_without_bound() {
        // The price of FIFO fairness: within even a modest exploration the
        // ticket variables take many distinct values — contrast with the
        // n+1-value bound world of E1.
        let alg = Bakery::new(2);
        let sys = MutexSystem::new(&alg);
        let spaces = check::observed_value_spaces(&sys, 50_000);
        let ticket_space = spaces[2].max(spaces[3]);
        assert!(
            ticket_space > 4,
            "tickets should exceed any small bound, got {ticket_space}"
        );
    }

    #[test]
    fn solo_progress() {
        let alg = Bakery::new(2);
        let sys = MutexSystem::with_participants(&alg, vec![true, false]);
        assert!(check::find_deadlock(&sys, 50_000).is_none());
    }
}

impossible_explore::impl_encode_enum!(BakeryLocal {
    0: Rem,
    1: SetChoosing,
    2: ReadMax { j, max },
    3: WriteNumber { max },
    4: ClearChoosing { ticket },
    5: WaitChoosing { j, ticket },
    6: WaitNumber { j, ticket },
    7: Crit,
    8: ClearNumber,
});
