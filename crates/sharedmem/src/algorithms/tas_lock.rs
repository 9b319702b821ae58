//! The plain test-and-set lock: one variable, **two** values.
//!
//! "A 2-valued semaphore is plenty if there are no fairness requirements;
//! however, if fairness is included then 3 values were the best they could
//! do" — this is the 2-valued semaphore. It satisfies mutual exclusion and
//! progress, and the lockout checker mechanically exhibits the unfair
//! schedule in which one process starves (see `check::find_lockout`).

use crate::mutex::{MutexAlgorithm, Region};

/// Lock state values.
const FREE: u64 = 0;
const HELD: u64 = 1;

/// The 2-valued test-and-set lock for `n` processes.
#[derive(Debug, Clone)]
pub struct TasLock {
    n: usize,
}

impl TasLock {
    /// A lock shared by `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        TasLock { n }
    }
}

/// Program counter of a [`TasLock`] process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TasLocal {
    /// In the remainder region.
    Rem,
    /// Spinning on the lock variable.
    Spin,
    /// Holds the lock.
    Crit,
    /// About to release.
    Rel,
}

impl MutexAlgorithm for TasLock {
    type Local = TasLocal;
    type Register = u8;

    fn name(&self) -> &'static str {
        "tas-lock(2 values)"
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn num_vars(&self) -> usize {
        1
    }

    fn initial_var(&self, _var: usize) -> u64 {
        FREE
    }

    fn initial_local(&self, _i: usize) -> TasLocal {
        TasLocal::Rem
    }

    fn region(&self, local: &TasLocal) -> Region {
        match local {
            TasLocal::Rem => Region::Remainder,
            TasLocal::Spin => Region::Trying,
            TasLocal::Crit => Region::Critical,
            TasLocal::Rel => Region::Exit,
        }
    }

    fn on_try(&self, _i: usize, _local: &TasLocal) -> TasLocal {
        TasLocal::Spin
    }

    fn on_exit(&self, _i: usize, _local: &TasLocal) -> TasLocal {
        TasLocal::Rel
    }

    fn target(&self, _i: usize, _local: &TasLocal) -> usize {
        0
    }

    fn step(&self, _i: usize, local: &TasLocal, value: u64) -> (TasLocal, u64) {
        match local {
            TasLocal::Spin => {
                if value == FREE {
                    (TasLocal::Crit, HELD)
                } else {
                    (TasLocal::Spin, value)
                }
            }
            TasLocal::Rel => (TasLocal::Rem, FREE),
            other => unreachable!("no step in region {other:?}"),
        }
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
        for n in 1..=3 {
            let alg = TasLock::new(n);
            let sys = MutexSystem::new(&alg);
            assert!(
                check::find_mutex_violation(&sys, 200_000).is_none(),
                "TAS lock must be safe for n={n}"
            );
        }
    }

    #[test]
    fn satisfies_progress() {
        let alg = TasLock::new(3);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_deadlock(&sys, 200_000).is_none());
    }

    #[test]
    fn exhibits_lockout_with_two_values() {
        // The Cremers–Hibbard point: with 2 values there is no fairness.
        let alg = TasLock::new(2);
        let sys = MutexSystem::new(&alg);
        let witness = check::find_lockout(&sys, 1, 200_000)
            .expect("2-valued TAS lock must admit a lockout schedule");
        // The victim spins in the cycle while the other process cycles
        // through the critical region.
        assert!(witness.cycle.len() >= 2);
    }
}

impossible_explore::impl_encode_enum!(TasLocal {
    0: Rem,
    1: Spin,
    2: Crit,
    3: Rel,
});
