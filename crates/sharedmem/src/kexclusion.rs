//! k-exclusion — the \[57, 53\] generalization of mutual exclusion to `k`
//! interchangeable resources.
//!
//! Fischer–Lynch–Burns–Borodin studied FIFO allocation of `k` identical
//! resources and proved Ω(n²) shared-memory values are needed for a strong
//! simulation of a shared queue. Here we provide the k-exclusion substrate:
//! a counting test-and-set semaphore ([`CounterSemaphore`]) that permits at
//! most `k` simultaneous holders, the [`find_kexclusion_violation`] checker,
//! and value-space accounting that the experiments compare against the
//! quadratic queue-simulation curve.

use crate::mutex::{MutexAction, MutexAlgorithm, MutexState, MutexSystem, Region};
use impossible_core::exec::Execution;
use impossible_explore::Search;

/// A counting semaphore over one (k+1)-valued test-and-set variable: the
/// variable holds the number of current holders.
#[derive(Debug, Clone)]
pub struct CounterSemaphore {
    n: usize,
    k: u64,
}

impl CounterSemaphore {
    /// Semaphore for `n` processes and `k` resources.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: u64) -> Self {
        assert!(k >= 1);
        CounterSemaphore { n, k }
    }

    /// The number of resources.
    pub fn k(&self) -> u64 {
        self.k
    }
}

/// Program counter of a [`CounterSemaphore`] process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SemLocal {
    /// Remainder region.
    Rem,
    /// Spinning on the counter.
    Spin,
    /// Holds a resource.
    Crit,
    /// Releasing.
    Rel,
}

impl MutexAlgorithm for CounterSemaphore {
    type Local = SemLocal;

    fn name(&self) -> &'static str {
        "counter-semaphore"
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

    fn initial_local(&self, _i: usize) -> SemLocal {
        SemLocal::Rem
    }

    fn region(&self, local: &SemLocal) -> Region {
        match local {
            SemLocal::Rem => Region::Remainder,
            SemLocal::Spin => Region::Trying,
            SemLocal::Crit => Region::Critical,
            SemLocal::Rel => Region::Exit,
        }
    }

    fn on_try(&self, _i: usize, _local: &SemLocal) -> SemLocal {
        SemLocal::Spin
    }

    fn on_exit(&self, _i: usize, _local: &SemLocal) -> SemLocal {
        SemLocal::Rel
    }

    fn target(&self, _i: usize, _local: &SemLocal) -> usize {
        0
    }

    fn step(&self, _i: usize, local: &SemLocal, value: u64) -> (SemLocal, u64) {
        match local {
            SemLocal::Spin => {
                if value < self.k {
                    (SemLocal::Crit, value + 1)
                } else {
                    (SemLocal::Spin, value)
                }
            }
            SemLocal::Rel => (SemLocal::Rem, value.saturating_sub(1)),
            other => unreachable!("no step in {other:?}"),
        }
    }

    fn value_space(&self, _var: usize) -> Option<u64> {
        Some(self.k + 1)
    }
}

/// Search for a k-exclusion violation: more than `k` processes
/// simultaneously critical.
// LINT-ALLOW: dead-pub -- k-exclusion [57, 53]: never more than k holders at once; test never_exceeds_k_holders
pub fn find_kexclusion_violation(
    alg: &CounterSemaphore,
    max_states: usize,
) -> Option<Execution<MutexState<SemLocal>, MutexAction>> {
    let k = alg.k() as usize;
    let sys = MutexSystem::new(alg);
    Search::new(&sys)
        .max_states(max_states)
        .search(|s| sys.processes_in(s, Region::Critical).count() > k)
        .witness
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    #[test]
    fn never_exceeds_k_holders() {
        for k in 1..=3u64 {
            let alg = CounterSemaphore::new(4, k);
            assert!(
                find_kexclusion_violation(&alg, 500_000).is_none(),
                "k={k} violated"
            );
        }
    }

    #[test]
    fn k_equal_one_is_mutex() {
        let alg = CounterSemaphore::new(3, 1);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_mutex_violation(&sys, 500_000).is_none());
        assert!(check::find_deadlock(&sys, 500_000).is_none());
    }

    #[test]
    fn all_k_slots_usable_simultaneously() {
        use impossible_core::system::System;
        let alg = CounterSemaphore::new(3, 2);
        let sys = MutexSystem::new(&alg);
        // Reach a state with exactly 2 concurrent holders.
        let hit = Search::new(&sys)
            .max_states(100_000)
            .search(|s| sys.processes_in(s, Region::Critical).count() == 2);
        assert!(hit.witness.is_some());
        let _ = sys.initial_states();
    }

    #[test]
    fn value_space_matches_k_plus_one() {
        let alg = CounterSemaphore::new(4, 3);
        let sys = MutexSystem::new(&alg);
        let spaces = check::observed_value_spaces(&sys, 200_000);
        assert_eq!(spaces, vec![4]); // values 0..=3
    }
}

impossible_explore::impl_encode_enum!(SemLocal {
    0: Rem,
    1: Spin,
    2: Crit,
    3: Rel,
});
