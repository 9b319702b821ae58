//! A fair 2-process test-and-set lock with one 4-valued variable.
//!
//! The possibility side of the §2.1 value-counting game: a waiting process
//! *announces* itself by mutating the lock word (`BUSY → BUSY_WAITER`), and
//! the releasing process, seeing the announcement, performs a direct
//! *handoff* (`BUSY_WAITER → GRANT`) that only the announcer may consume.
//! This yields mutual exclusion, progress, and bypass bounded by 1.
//!
//! Burns et al. \[26\] show `n + 1` values are necessary for bounded waiting
//! (3 for two processes) and Cremers–Hibbard built a delicate 3-valued
//! solution; this algorithm spends one extra value (4 = n + 2) to keep the
//! invariants simple enough to model-check at a glance. The 2-valued
//! impossibility half is mechanical — see [`crate::synthesis`].

use crate::mutex::{MutexAlgorithm, Region};

/// Lock free, no one waiting.
const FREE: u64 = 0;
/// Lock held, no announced waiter.
const BUSY: u64 = 1;
/// Lock held, the other process has announced it is waiting.
const BUSY_WAITER: u64 = 2;
/// Lock released *to the announced waiter*; only the announcer may take it.
const GRANT: u64 = 3;

/// The 4-valued handoff lock for exactly 2 processes.
#[derive(Debug, Clone, Default)]
pub struct HandoffLock;

impl HandoffLock {
    /// A fresh lock (always 2 processes).
    pub fn new() -> Self {
        HandoffLock
    }
}

/// Program counter of a [`HandoffLock`] process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HandoffLocal {
    /// Remainder region.
    Rem,
    /// Trying; `announced` records whether we wrote `BUSY_WAITER`.
    Try {
        /// Have we announced ourselves as the waiter?
        announced: bool,
    },
    /// Critical region.
    Crit,
    /// Exit protocol (single step).
    Rel,
}

impl MutexAlgorithm for HandoffLock {
    type Local = HandoffLocal;
    type Register = u8;

    fn name(&self) -> &'static str {
        "handoff-lock(4 values)"
    }

    fn num_processes(&self) -> usize {
        2
    }

    fn num_vars(&self) -> usize {
        1
    }

    fn initial_var(&self, _var: usize) -> u64 {
        FREE
    }

    fn initial_local(&self, _i: usize) -> HandoffLocal {
        HandoffLocal::Rem
    }

    fn region(&self, local: &HandoffLocal) -> Region {
        match local {
            HandoffLocal::Rem => Region::Remainder,
            HandoffLocal::Try { .. } => Region::Trying,
            HandoffLocal::Crit => Region::Critical,
            HandoffLocal::Rel => Region::Exit,
        }
    }

    fn on_try(&self, _i: usize, _local: &HandoffLocal) -> HandoffLocal {
        HandoffLocal::Try { announced: false }
    }

    fn on_exit(&self, _i: usize, _local: &HandoffLocal) -> HandoffLocal {
        HandoffLocal::Rel
    }

    fn target(&self, _i: usize, _local: &HandoffLocal) -> usize {
        0
    }

    fn step(&self, _i: usize, local: &HandoffLocal, value: u64) -> (HandoffLocal, u64) {
        match (local, value) {
            // --- trying, not yet announced ---
            (HandoffLocal::Try { announced: false }, FREE) => (HandoffLocal::Crit, BUSY),
            (HandoffLocal::Try { announced: false }, BUSY) => {
                // Announce: the holder will hand off to us on exit.
                (HandoffLocal::Try { announced: true }, BUSY_WAITER)
            }
            (HandoffLocal::Try { announced: false }, GRANT) => {
                // Grant addressed to the *other* process (the announcer);
                // we must not steal it. The announcer is obligated to keep
                // stepping, so this wait terminates.
                (HandoffLocal::Try { announced: false }, GRANT)
            }
            (HandoffLocal::Try { announced: false }, BUSY_WAITER) => {
                // With two processes this means the other is in the critical
                // region and *we* are recorded as waiter — can only happen if
                // our announcement flag was lost, which it never is; keep
                // waiting defensively.
                (HandoffLocal::Try { announced: false }, BUSY_WAITER)
            }
            // --- trying, announced ---
            (HandoffLocal::Try { announced: true }, GRANT) => (HandoffLocal::Crit, BUSY),
            (HandoffLocal::Try { announced: true }, BUSY_WAITER) => {
                (HandoffLocal::Try { announced: true }, BUSY_WAITER)
            }
            (HandoffLocal::Try { announced: true }, v) => {
                // FREE/BUSY while announced are unreachable; take FREE
                // defensively, otherwise keep waiting.
                if v == FREE {
                    (HandoffLocal::Crit, BUSY)
                } else {
                    (HandoffLocal::Try { announced: true }, v)
                }
            }
            // --- exit protocol ---
            (HandoffLocal::Rel, BUSY) => (HandoffLocal::Rem, FREE),
            (HandoffLocal::Rel, BUSY_WAITER) => (HandoffLocal::Rem, GRANT),
            (HandoffLocal::Rel, v) => {
                // Unreachable: the variable is BUSY or BUSY_WAITER while we
                // hold the lock.
                unreachable!("exit step observed {v}")
            }
            (other, v) => unreachable!("no step in {other:?} observing {v}"),
        }
    }

    fn value_space(&self, _var: usize) -> Option<u64> {
        Some(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::mutex::MutexSystem;

    #[test]
    fn satisfies_mutual_exclusion() {
        let alg = HandoffLock::new();
        let sys = MutexSystem::new(&alg);
        assert!(check::find_mutex_violation(&sys, 100_000).is_none());
    }

    #[test]
    fn satisfies_progress() {
        let alg = HandoffLock::new();
        let sys = MutexSystem::new(&alg);
        assert!(check::find_deadlock(&sys, 100_000).is_none());
    }

    #[test]
    fn satisfies_lockout_freedom_for_both_processes() {
        // The headline property the 2-valued lock lacks.
        let alg = HandoffLock::new();
        let sys = MutexSystem::new(&alg);
        for victim in 0..2 {
            assert!(
                check::find_lockout(&sys, victim, 100_000).is_none(),
                "handoff lock must not lock out p{victim}"
            );
        }
    }

    #[test]
    fn solo_process_makes_progress() {
        // Only p0 participates: it must still be able to enter repeatedly.
        let alg = HandoffLock::new();
        let sys = MutexSystem::with_participants(&alg, vec![true, false]);
        assert!(check::find_deadlock(&sys, 100_000).is_none());
        assert!(check::find_mutex_violation(&sys, 100_000).is_none());
    }
}

impossible_explore::impl_encode_enum!(HandoffLocal {
    0: Rem,
    1: Try { announced },
    2: Crit,
    3: Rel,
});
