//! Randomized adversarial scheduling for large instances.
//!
//! Model checking covers small `n` exhaustively; for larger populations the
//! survey's properties are monitored over long randomized runs. The
//! scheduler is the adversary: it picks which enabled action fires, with a
//! bias knob for how eagerly remainder processes re-request the resource.

use crate::mutex::{MutexAction, MutexAlgorithm, MutexSystem, Region};
use impossible_core::system::System;
use impossible_det::DetRng;

/// Statistics from a randomized run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Critical-section entries per process.
    pub entries: Vec<usize>,
    /// Maximum number of times any single waiting episode was bypassed:
    /// another process entered the critical region while this one waited,
    /// counted from the waiter's **first protocol step** of the episode (the
    /// scheduler may delay that first step arbitrarily, which would otherwise
    /// charge the algorithm for the adversary's stalling).
    pub max_bypass: usize,
    /// Scheduled actions in total.
    pub steps: usize,
    /// True if a mutual-exclusion violation was observed (algorithm bug).
    pub mutex_violated: bool,
}

/// Run `alg` for `steps` scheduled actions under a seeded random adversary.
///
/// `try_bias_pct` in `[0, 100]` is the percentage probability weight given
/// to `Try` actions relative to protocol steps — high bias means heavy
/// contention. An integer percentage (drawn via [`DetRng::gen_ratio`])
/// keeps the adversary float-free: the acceptance set is exact, never a
/// platform-rounded threshold.
pub fn simulate_random<A: MutexAlgorithm>(
    alg: &A,
    steps: usize,
    seed: u64,
    try_bias_pct: u32,
) -> SimStats {
    let sys = MutexSystem::new(alg);
    let mut rng = DetRng::seed_from_u64(seed);
    let n = alg.num_processes();
    let mut state = sys.initial_states().remove(0);

    let mut entries = vec![0usize; n];
    let mut max_bypass = 0usize;
    // waiting[i] = Some(count) once i has taken its first step of the
    // current trying episode.
    let mut waiting: Vec<Option<usize>> = vec![None; n];
    let mut mutex_violated = false;

    for _ in 0..steps {
        let acts = sys.enabled(&state);
        if acts.is_empty() {
            break;
        }
        // Split into try-actions and the rest; sample per the bias.
        let tries: Vec<&MutexAction> = acts
            .iter()
            .filter(|a| matches!(a, MutexAction::Try(_)))
            .collect();
        let others: Vec<&MutexAction> = acts
            .iter()
            .filter(|a| !matches!(a, MutexAction::Try(_)))
            .collect();
        let action = if !tries.is_empty() && (others.is_empty() || rng.gen_ratio(try_bias_pct, 100))
        {
            *tries[rng.gen_range(0..tries.len())]
        } else {
            *others[rng.gen_range(0..others.len())]
        };

        let before_regions: Vec<Region> =
            state.locals.iter().map(|l| alg.region(l)).collect();
        state = sys.step(&state, &action);
        let after_regions: Vec<Region> = state.locals.iter().map(|l| alg.region(l)).collect();

        for i in 0..n {
            if before_regions[i] != Region::Critical && after_regions[i] == Region::Critical {
                entries[i] += 1;
                // Everyone currently waiting got bypassed (except i itself).
                for (j, w) in waiting.iter_mut().enumerate() {
                    if j != i {
                        if let Some(c) = w {
                            *c += 1;
                        }
                    }
                }
                if let Some(c) = waiting[i].take() {
                    max_bypass = max_bypass.max(c);
                }
            }
        }
        // Start the bypass clock at the waiter's first protocol step (but
        // not if that very step entered the critical region).
        if let MutexAction::Step(_) = action {
            let i = action.process();
            if before_regions[i] == Region::Trying
                && after_regions[i] == Region::Trying
                && waiting[i].is_none()
            {
                waiting[i] = Some(0);
            }
        }
        if after_regions
            .iter()
            .filter(|r| **r == Region::Critical)
            .count()
            >= 2
        {
            mutex_violated = true;
        }
    }

    SimStats {
        entries,
        max_bypass,
        steps,
        mutex_violated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bakery, HandoffLock, OneBit, Peterson2, TasLock};

    #[test]
    fn peterson_fair_under_contention() {
        let stats = simulate_random(&Peterson2::new(), 60_000, 42, 90);
        assert!(!stats.mutex_violated);
        assert!(stats.entries.iter().all(|&e| e > 0));
        // Bounded bypass: the doorway (set-flag, set-turn) may admit the
        // rival a couple of times, never unboundedly.
        assert!(stats.max_bypass <= 3, "peterson bypass {}", stats.max_bypass);
    }

    #[test]
    fn bakery_never_violates_and_is_fair_n4() {
        let stats = simulate_random(&Bakery::new(4), 120_000, 7, 80);
        assert!(!stats.mutex_violated);
        assert!(stats.entries.iter().all(|&e| e > 0));
        // FIFO after the doorway: bypass bounded by roughly one round of the
        // other processes (each may slip past during ticket selection).
        assert!(stats.max_bypass <= 6, "bakery bypass {}", stats.max_bypass);
    }

    #[test]
    fn tas_lockout_witness_replays_to_real_starvation() {
        // The model checker's lockout witness for the 2-valued lock is a
        // genuine infinite starvation: `find_lockout` verified that its
        // cycle is a run of the system closing on its head, so it repeats
        // forever, and on every round of it the rival enters while the
        // victim never does. The handoff lock has no such witness
        // (asserted in its own tests).
        use crate::check;
        use crate::mutex::{MutexSystem, Region};

        let alg = TasLock::new(2);
        let sys = MutexSystem::new(&alg);
        let w = check::find_lockout(&sys, 1, 100_000).expect("tas lock is unfair");

        let regions = |s: &crate::mutex::MutexState<_>| -> Vec<Region> {
            s.locals.iter().map(|l| alg.region(l)).collect()
        };
        let mut entries = [0usize; 2];
        let mut before = regions(w.stem.last());
        for (_, s) in &w.cycle {
            let after = regions(s);
            for i in 0..2 {
                if before[i] != Region::Critical && after[i] == Region::Critical {
                    entries[i] += 1;
                }
            }
            before = after;
        }
        assert_eq!(entries[1], 0, "victim must starve");
        assert!(entries[0] >= 1, "rival enters on every round");
        let _ = HandoffLock::new(); // contrast documented in handoff tests
    }

    #[test]
    fn one_bit_safe_for_five_processes() {
        let stats = simulate_random(&OneBit::new(5), 150_000, 11, 70);
        assert!(!stats.mutex_violated);
        assert!(stats.entries.iter().sum::<usize>() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_random(&Peterson2::new(), 10_000, 5, 50);
        let b = simulate_random(&Peterson2::new(), 10_000, 5, 50);
        assert_eq!(a, b);
    }
}
