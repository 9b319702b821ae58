//! The Burns–Lynch n-variable lower bound \[27\] — candidates with fewer than
//! `n` read/write variables, refuted.
//!
//! "n processes cannot achieve mutual exclusion with progress, with fewer
//! than n separate shared variables. The key ideas are that (1) a process
//! must write something in order to move to its critical region, and (2) a
//! writing process obliterates any information previously in the variable."
//!
//! [`first_write_before_critical`] verifies idea (1) mechanically on any
//! algorithm; the candidates here use 2 variables for 3 processes (one
//! short of the bound) and the safety checker finds the obliteration race
//! in each. [`OneBit`](crate::algorithms::OneBit) with its `n` variables is
//! the matching upper bound.

use crate::mutex::{MutexAction, MutexAlgorithm, MutexSystem, Region};
use impossible_core::system::System;
use impossible_explore::{Encode, Search};

/// Check idea (1): on every path from `Try` to the critical region, the
/// process performs at least one step that *changes* some shared variable
/// (a write). Returns a counterexample execution if some process can reach
/// the critical region silently — which would let it be invisible to the
/// others, an immediate mutex violation setup.
// LINT-ALLOW: dead-pub -- Burns–Lynch [27] idea (1): a process writes before it enters the critical region; tests correct_algorithms_always_write_before_entering, a_silent_entry_candidate_is_caught
pub fn first_write_before_critical<A>(
    alg: &A,
    max_states: usize,
) -> Result<(), Vec<MutexAction>>
where
    A: MutexAlgorithm,
    A::Local: Encode,
{
    // Explore the solo system for each process: if it can reach Critical
    // without any variable changing, report the silent path.
    for i in 0..alg.num_processes() {
        let participants = (0..alg.num_processes()).map(|p| p == i).collect();
        let sys = MutexSystem::with_participants(alg, participants);
        let initial_vars = sys.initial_states()[0].vars;
        let report = Search::new(&sys).max_states(max_states).search(|s| {
            s.locals
                .iter()
                .any(|l| alg.region(l) == Region::Critical)
                && s.vars == initial_vars
        });
        if let Some(w) = report.witness {
            return Err(w.actions().to_vec());
        }
    }
    Ok(())
}

/// A 3-process candidate with 2 RW variables: a "ticket board" (variable 0)
/// and an "owner board" (variable 1). Each process writes its claim to the
/// ticket board, copies it to the owner board, re-reads the ticket board to
/// confirm, and enters. One variable short of the bound: the checker finds
/// the obliteration race.
#[derive(Debug, Clone)]
pub struct TwoVarThree;

/// Program counter for [`TwoVarThree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TwoVarLocal {
    /// Remainder region.
    Rem,
    /// Wait until the ticket board reads 0, then claim it.
    ReadTicket,
    /// Write our id to the ticket board.
    WriteTicket,
    /// Copy our claim to the owner board.
    WriteOwner,
    /// Confirm the ticket board still shows us.
    Confirm,
    /// Critical region.
    Crit,
    /// Exit: clear the owner board.
    ClearOwner,
    /// Exit: clear the ticket board.
    ClearTicket,
}

impl MutexAlgorithm for TwoVarThree {
    type Local = TwoVarLocal;
    type Register = u8;

    fn name(&self) -> &'static str {
        "two-vars-three-procs(broken)"
    }

    fn num_processes(&self) -> usize {
        3
    }

    fn num_vars(&self) -> usize {
        2
    }

    fn initial_var(&self, _var: usize) -> u64 {
        0
    }

    fn initial_local(&self, _i: usize) -> TwoVarLocal {
        TwoVarLocal::Rem
    }

    fn region(&self, local: &TwoVarLocal) -> Region {
        match local {
            TwoVarLocal::Rem => Region::Remainder,
            TwoVarLocal::Crit => Region::Critical,
            TwoVarLocal::ClearOwner | TwoVarLocal::ClearTicket => Region::Exit,
            _ => Region::Trying,
        }
    }

    fn on_try(&self, _i: usize, _local: &TwoVarLocal) -> TwoVarLocal {
        TwoVarLocal::ReadTicket
    }

    fn on_exit(&self, _i: usize, _local: &TwoVarLocal) -> TwoVarLocal {
        TwoVarLocal::ClearOwner
    }

    fn target(&self, _i: usize, local: &TwoVarLocal) -> usize {
        match local {
            TwoVarLocal::ReadTicket
            | TwoVarLocal::WriteTicket
            | TwoVarLocal::Confirm
            | TwoVarLocal::ClearTicket => 0,
            TwoVarLocal::WriteOwner | TwoVarLocal::ClearOwner => 1,
            other => unreachable!("no access in {other:?}"),
        }
    }

    fn step(&self, i: usize, local: &TwoVarLocal, value: u64) -> (TwoVarLocal, u64) {
        let my_id = i as u64 + 1;
        match local {
            TwoVarLocal::ReadTicket => {
                if value == 0 {
                    (TwoVarLocal::WriteTicket, value)
                } else {
                    (TwoVarLocal::ReadTicket, value)
                }
            }
            TwoVarLocal::WriteTicket => (TwoVarLocal::WriteOwner, my_id),
            TwoVarLocal::WriteOwner => (TwoVarLocal::Confirm, my_id),
            TwoVarLocal::Confirm => {
                if value == my_id {
                    (TwoVarLocal::Crit, value)
                } else {
                    (TwoVarLocal::ReadTicket, value)
                }
            }
            TwoVarLocal::ClearOwner => (TwoVarLocal::ClearTicket, 0),
            TwoVarLocal::ClearTicket => (TwoVarLocal::Rem, 0),
            other => unreachable!("no step in {other:?}"),
        }
    }

    fn read_write_only(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{OneBit, Peterson2};
    use crate::check;

    #[test]
    fn two_vars_for_three_processes_violates_mutex() {
        let alg = TwoVarThree;
        let sys = MutexSystem::new(&alg);
        let witness = check::find_mutex_violation(&sys, 1_000_000)
            .expect("fewer than n variables must break");
        assert!(witness.len() >= 6);
    }

    #[test]
    fn correct_algorithms_always_write_before_entering() {
        // Idea (1) holds for the real algorithms: no silent entry.
        assert!(first_write_before_critical(&Peterson2::new(), 200_000).is_ok());
        assert!(first_write_before_critical(&OneBit::new(3), 200_000).is_ok());
    }

    #[test]
    fn a_silent_entry_candidate_is_caught() {
        // A degenerate candidate that enters without writing anything:
        // the precondition of the whole lower-bound argument.
        #[derive(Debug, Clone)]
        struct Silent;
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        enum L {
            Rem,
            Peek,
            Crit,
            Out,
        }
        impossible_explore::impl_encode_enum!(L {
            0: Rem,
            1: Peek,
            2: Crit,
            3: Out,
        });
        impl MutexAlgorithm for Silent {
            type Local = L;
            type Register = u8;
            fn name(&self) -> &'static str {
                "silent"
            }
            fn num_processes(&self) -> usize {
                2
            }
            fn num_vars(&self) -> usize {
                1
            }
            fn initial_var(&self, _v: usize) -> u64 {
                0
            }
            fn initial_local(&self, _i: usize) -> L {
                L::Rem
            }
            fn region(&self, l: &L) -> Region {
                match l {
                    L::Rem => Region::Remainder,
                    L::Peek => Region::Trying,
                    L::Crit => Region::Critical,
                    L::Out => Region::Exit,
                }
            }
            fn on_try(&self, _i: usize, _l: &L) -> L {
                L::Peek
            }
            fn on_exit(&self, _i: usize, _l: &L) -> L {
                L::Out
            }
            fn target(&self, _i: usize, _l: &L) -> usize {
                0
            }
            fn step(&self, _i: usize, l: &L, value: u64) -> (L, u64) {
                match l {
                    L::Peek => (L::Crit, value), // read-only entry!
                    L::Out => (L::Rem, value),
                    other => unreachable!("{other:?}"),
                }
            }
        }
        let err = first_write_before_critical(&Silent, 10_000).unwrap_err();
        assert!(!err.is_empty());
        // And of course it violates mutual exclusion outright.
        let sys = MutexSystem::new(&Silent);
        assert!(check::find_mutex_violation(&sys, 10_000).is_some());
    }

    #[test]
    fn one_bit_matches_the_bound_with_exactly_n_variables() {
        let alg = OneBit::new(3);
        assert_eq!(alg.num_vars(), 3);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_mutex_violation(&sys, 600_000).is_none());
    }
}

impossible_explore::impl_encode_enum!(TwoVarLocal {
    0: Rem,
    1: ReadTicket,
    2: WriteTicket,
    3: WriteOwner,
    4: Confirm,
    5: Crit,
    6: ClearOwner,
    7: ClearTicket,
});
