//! Peterson's two-process mutual-exclusion algorithm (read/write registers).
//!
//! Three single-writer-ish variables — `flag[0]`, `flag[1]` and `turn` —
//! give mutual exclusion, progress and lockout-freedom with 1-bounded
//! bypass. Peterson's algorithm uses `n`-ish variables, consistent with the
//! Burns–Lynch theorem \[27\] that read/write mutual exclusion needs `n`
//! separate shared variables (a single variable is refuted in
//! [`crate::algorithms::broken`]).

use crate::mutex::{MutexAlgorithm, Region};

const FLAG0: usize = 0;
const FLAG1: usize = 1;
const TURN: usize = 2;

/// Peterson's algorithm for exactly two processes.
#[derive(Debug, Clone, Default)]
pub struct Peterson2;

impl Peterson2 {
    /// A fresh instance (always 2 processes).
    pub fn new() -> Self {
        Peterson2
    }
}

/// Program counter of a [`Peterson2`] process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PetersonLocal {
    /// Remainder region.
    Rem,
    /// Write `flag[i] := 1`.
    SetFlag,
    /// Write `turn := j` (defer to the other process).
    SetTurn,
    /// Read `flag[j]`; if clear, enter.
    CheckFlag,
    /// Read `turn`; if it is our turn, enter, else re-check the flag.
    CheckTurn,
    /// Critical region.
    Crit,
    /// Write `flag[i] := 0`.
    ClearFlag,
}

impl MutexAlgorithm for Peterson2 {
    type Local = PetersonLocal;
    type Register = u8;

    fn name(&self) -> &'static str {
        "peterson(2)"
    }

    fn num_processes(&self) -> usize {
        2
    }

    fn num_vars(&self) -> usize {
        3
    }

    fn initial_var(&self, _var: usize) -> u64 {
        0
    }

    fn initial_local(&self, _i: usize) -> PetersonLocal {
        PetersonLocal::Rem
    }

    fn region(&self, local: &PetersonLocal) -> Region {
        match local {
            PetersonLocal::Rem => Region::Remainder,
            PetersonLocal::Crit => Region::Critical,
            PetersonLocal::ClearFlag => Region::Exit,
            _ => Region::Trying,
        }
    }

    fn on_try(&self, _i: usize, _local: &PetersonLocal) -> PetersonLocal {
        PetersonLocal::SetFlag
    }

    fn on_exit(&self, _i: usize, _local: &PetersonLocal) -> PetersonLocal {
        PetersonLocal::ClearFlag
    }

    fn target(&self, i: usize, local: &PetersonLocal) -> usize {
        let my_flag = if i == 0 { FLAG0 } else { FLAG1 };
        let other_flag = if i == 0 { FLAG1 } else { FLAG0 };
        match local {
            PetersonLocal::SetFlag | PetersonLocal::ClearFlag => my_flag,
            PetersonLocal::SetTurn | PetersonLocal::CheckTurn => TURN,
            PetersonLocal::CheckFlag => other_flag,
            other => unreachable!("no access in {other:?}"),
        }
    }

    fn step(&self, i: usize, local: &PetersonLocal, value: u64) -> (PetersonLocal, u64) {
        let j = (1 - i) as u64;
        match local {
            PetersonLocal::SetFlag => (PetersonLocal::SetTurn, 1),
            PetersonLocal::SetTurn => (PetersonLocal::CheckFlag, j),
            PetersonLocal::CheckFlag => {
                if value == 0 {
                    (PetersonLocal::Crit, value)
                } else {
                    (PetersonLocal::CheckTurn, value)
                }
            }
            PetersonLocal::CheckTurn => {
                if value == i as u64 {
                    (PetersonLocal::Crit, value)
                } else {
                    (PetersonLocal::CheckFlag, value)
                }
            }
            PetersonLocal::ClearFlag => (PetersonLocal::Rem, 0),
            other => unreachable!("no step in {other:?}"),
        }
    }

    fn read_write_only(&self) -> bool {
        true
    }

    fn value_space(&self, _var: usize) -> Option<u64> {
        Some(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::mutex::MutexSystem;

    #[test]
    fn satisfies_mutual_exclusion() {
        let alg = Peterson2::new();
        let sys = MutexSystem::new(&alg);
        assert!(check::find_mutex_violation(&sys, 200_000).is_none());
    }

    #[test]
    fn satisfies_progress() {
        let alg = Peterson2::new();
        let sys = MutexSystem::new(&alg);
        assert!(check::find_deadlock(&sys, 200_000).is_none());
    }

    #[test]
    fn satisfies_lockout_freedom() {
        let alg = Peterson2::new();
        let sys = MutexSystem::new(&alg);
        for victim in 0..2 {
            assert!(
                check::find_lockout(&sys, victim, 200_000).is_none(),
                "peterson must not lock out p{victim}"
            );
        }
    }

    #[test]
    fn is_read_write_only() {
        assert!(Peterson2::new().read_write_only());
    }

    #[test]
    fn solo_progress() {
        let alg = Peterson2::new();
        let sys = MutexSystem::with_participants(&alg, vec![false, true]);
        assert!(check::find_deadlock(&sys, 100_000).is_none());
    }
}

impossible_explore::impl_encode_enum!(PetersonLocal {
    0: Rem,
    1: SetFlag,
    2: SetTurn,
    3: CheckFlag,
    4: CheckTurn,
    5: Crit,
    6: ClearFlag,
});
