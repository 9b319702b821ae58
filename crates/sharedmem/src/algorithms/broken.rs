//! Single-variable read/write candidates — refuted mechanically.
//!
//! Burns–Lynch \[27\]: "mutual exclusion cannot be done at all using a single
//! [read/write] shared variable ... (1) a process must write something in
//! order to move to its critical region, and (2) a writing process
//! obliterates any information previously in the variable." These candidate
//! algorithms are the natural attempts; the safety checker finds the
//! obliteration race in each, which is the executable content of the
//! theorem's proof idea.

use crate::mutex::{MutexAlgorithm, Region};

/// Candidate 1: "write your id, then read back to confirm ownership".
///
/// The race: p0 confirms and enters; p1 (which read 0 concurrently) then
/// *overwrites* the variable with its own id — obliterating p0's claim — and
/// confirms successfully too. Both are critical.
#[derive(Debug, Clone, Default)]
pub struct OwnerOverwrite {
    n: usize,
}

impl OwnerOverwrite {
    /// Instance for `n` processes (the violation needs only 2).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        OwnerOverwrite { n }
    }
}

/// Program counter of an [`OwnerOverwrite`] process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OwnerLocal {
    /// Remainder region.
    Rem,
    /// Read the variable; proceed when it is 0 (free).
    ReadFree,
    /// Write our id (`i + 1`).
    WriteId,
    /// Read back; enter if we still own it.
    Confirm,
    /// Critical region.
    Crit,
    /// Exit: write 0.
    Release,
}

impl MutexAlgorithm for OwnerOverwrite {
    type Local = OwnerLocal;
    type Register = u8;

    fn name(&self) -> &'static str {
        "owner-overwrite(1 RW var, broken)"
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn num_vars(&self) -> usize {
        1
    }

    fn initial_var(&self, _var: usize) -> u64 {
        0
    }

    fn initial_local(&self, _i: usize) -> OwnerLocal {
        OwnerLocal::Rem
    }

    fn region(&self, local: &OwnerLocal) -> Region {
        match local {
            OwnerLocal::Rem => Region::Remainder,
            OwnerLocal::Crit => Region::Critical,
            OwnerLocal::Release => Region::Exit,
            _ => Region::Trying,
        }
    }

    fn on_try(&self, _i: usize, _local: &OwnerLocal) -> OwnerLocal {
        OwnerLocal::ReadFree
    }

    fn on_exit(&self, _i: usize, _local: &OwnerLocal) -> OwnerLocal {
        OwnerLocal::Release
    }

    fn target(&self, _i: usize, _local: &OwnerLocal) -> usize {
        0
    }

    fn step(&self, i: usize, local: &OwnerLocal, value: u64) -> (OwnerLocal, u64) {
        let my_id = i as u64 + 1;
        match local {
            OwnerLocal::ReadFree => {
                if value == 0 {
                    (OwnerLocal::WriteId, value)
                } else {
                    (OwnerLocal::ReadFree, value)
                }
            }
            OwnerLocal::WriteId => (OwnerLocal::Confirm, my_id),
            OwnerLocal::Confirm => {
                if value == my_id {
                    (OwnerLocal::Crit, value)
                } else {
                    (OwnerLocal::ReadFree, value)
                }
            }
            OwnerLocal::Release => (OwnerLocal::Rem, 0),
            other => unreachable!("no step in {other:?}"),
        }
    }

    fn read_write_only(&self) -> bool {
        true
    }
}

/// Candidate 2: the naive test-then-set flag ("check free, then set busy" as
/// two separate accesses). The classic race: both read free, both set.
#[derive(Debug, Clone, Default)]
pub struct SingleFlag {
    n: usize,
}

impl SingleFlag {
    /// Instance for `n` processes (the violation needs only 2).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        SingleFlag { n }
    }
}

/// Program counter of a [`SingleFlag`] process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlagLocal {
    /// Remainder region.
    Rem,
    /// Read the flag; proceed when 0.
    Check,
    /// Write 1 and enter.
    Set,
    /// Critical region.
    Crit,
    /// Exit: write 0.
    Clear,
}

impl MutexAlgorithm for SingleFlag {
    type Local = FlagLocal;
    type Register = u8;

    fn name(&self) -> &'static str {
        "single-flag(1 RW var, broken)"
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn num_vars(&self) -> usize {
        1
    }

    fn initial_var(&self, _var: usize) -> u64 {
        0
    }

    fn initial_local(&self, _i: usize) -> FlagLocal {
        FlagLocal::Rem
    }

    fn region(&self, local: &FlagLocal) -> Region {
        match local {
            FlagLocal::Rem => Region::Remainder,
            FlagLocal::Crit => Region::Critical,
            FlagLocal::Clear => Region::Exit,
            _ => Region::Trying,
        }
    }

    fn on_try(&self, _i: usize, _local: &FlagLocal) -> FlagLocal {
        FlagLocal::Check
    }

    fn on_exit(&self, _i: usize, _local: &FlagLocal) -> FlagLocal {
        FlagLocal::Clear
    }

    fn target(&self, _i: usize, _local: &FlagLocal) -> usize {
        0
    }

    fn step(&self, _i: usize, local: &FlagLocal, value: u64) -> (FlagLocal, u64) {
        match local {
            FlagLocal::Check => {
                if value == 0 {
                    (FlagLocal::Set, value)
                } else {
                    (FlagLocal::Check, value)
                }
            }
            FlagLocal::Set => (FlagLocal::Crit, 1),
            FlagLocal::Clear => (FlagLocal::Rem, 0),
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
    use crate::mutex::{MutexAction, MutexSystem};

    #[test]
    fn owner_overwrite_violates_mutex() {
        let alg = OwnerOverwrite::new(2);
        let sys = MutexSystem::new(&alg);
        let witness = check::find_mutex_violation(&sys, 200_000)
            .expect("single RW variable cannot give mutual exclusion");
        // Both processes appear in the violating execution.
        let procs: std::collections::BTreeSet<usize> = witness
            .actions()
            .iter()
            .map(MutexAction::process)
            .collect();
        assert_eq!(procs.len(), 2);
    }

    #[test]
    fn single_flag_violates_mutex() {
        let alg = SingleFlag::new(2);
        let sys = MutexSystem::new(&alg);
        let witness = check::find_mutex_violation(&sys, 100_000)
            .expect("test-then-set race must be found");
        // Shortest violation: both check (2 Try + 2 Check + 2 Set steps).
        assert!(witness.len() <= 8);
    }

    #[test]
    fn obliteration_is_the_mechanism() {
        // Replay the witness for OwnerOverwrite and confirm a write by one
        // process occurs while another is already past its confirm — the
        // "writing process obliterates information" mechanism of [27].
        let alg = OwnerOverwrite::new(2);
        let sys = MutexSystem::new(&alg);
        let witness = check::find_mutex_violation(&sys, 200_000).unwrap();
        let final_state = witness.last();
        assert_eq!(sys.critical_processes(final_state).len(), 2);
    }

    #[test]
    fn broken_candidates_still_have_progress() {
        // They fail safety, not liveness — the checker distinguishes.
        let alg = SingleFlag::new(2);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_deadlock(&sys, 100_000).is_none());
    }
}

impossible_explore::impl_encode_enum!(OwnerLocal {
    0: Rem,
    1: ReadFree,
    2: WriteId,
    3: Confirm,
    4: Crit,
    5: Release,
});

impossible_explore::impl_encode_enum!(FlagLocal {
    0: Rem,
    1: Check,
    2: Set,
    3: Crit,
    4: Clear,
});
