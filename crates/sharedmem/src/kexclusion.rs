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

use crate::check;
use crate::mutex::{MutexAction, MutexAlgorithm, MutexState, MutexSystem, Region};
use impossible_core::exec::Execution;

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
    type Register = u8;

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
/// simultaneously critical, verified against that claim before it is
/// returned.
// LINT-ALLOW: dead-pub -- k-exclusion [57, 53]: never more than k holders at once; test never_exceeds_k_holders
pub fn find_kexclusion_violation(
    alg: &CounterSemaphore,
    max_states: usize,
) -> Option<Execution<MutexState<SemLocal>, MutexAction>> {
    check::find_crowded_critical(&MutexSystem::new(alg), alg.k() as usize, max_states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_core::cert::{verify, Counterexample, Goal, Spec, WitnessError};
    use impossible_explore::Search;

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
    fn a_witness_cut_short_of_its_crowded_state_is_rejected() {
        // Two slots break 1-exclusion: the engine's witness ends with two
        // holders and passes `verify` against the claim restated here; the
        // same run without its last step ends with one (it is a shortest
        // witness) and is rejected as `NotBad`.
        let alg = CounterSemaphore::new(3, 2);
        let sys = MutexSystem::new(&alg);
        let w = check::find_crowded_critical(&sys, 1, 100_000).expect("two slots, two holders");
        let crowded = |s: &MutexState<SemLocal>| sys.processes_in(s, Region::Critical).count() > 1;
        let spec = Spec::new(Goal::Never(&crowded));
        assert_eq!(verify(&sys, &spec, &Counterexample::BadState(w.clone())), Ok(()));
        let steps = w.len() - 1;
        let (states, actions) = (w.states()[..=steps].to_vec(), w.actions()[..steps].to_vec());
        let cut = Execution::from_parts(states, actions);
        let rejected = verify(&sys, &spec, &Counterexample::BadState(cut));
        assert_eq!(rejected, Err(WitnessError::NotBad));
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
