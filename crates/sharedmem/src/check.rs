//! Model checking the §2.1 correctness conditions.
//!
//! Cremers and Hibbard "needed a careful description of the correctness
//! conditions — mutual exclusion, progress and fairness". These checkers
//! make the three conditions mechanical over any [`MutexAlgorithm`], each
//! returning a concrete counterexample when the condition fails:
//!
//! * [`find_mutex_violation`] — a shortest execution reaching two processes
//!   in the critical region (safety).
//! * [`find_deadlock`] — a reachable configuration with a trying process
//!   from which no critical entry is reachable at all (progress).
//! * [`find_lockout`] — an admissible *lasso*: a run to a state where the
//!   victim is trying, then a cycle in which the victim keeps taking steps
//!   in its trying region, every other obligated process also steps, yet
//!   the victim never enters the critical region (fairness; "a
//!   demonstration of lockout requires an infinite admissible execution").
//!
//! Both counterexamples are re-checked with `core::cert::verify` before
//! they are returned.

use crate::mutex::{MutexAction, MutexAlgorithm, MutexStateOf, MutexSystem, Region};
use impossible_core::cert::{verified_bad_state, verify, Counterexample, Goal, Lasso, Spec};
use impossible_core::exec::Execution;
use impossible_core::system::System;
use impossible_explore::{Encode, Search};
use std::collections::BTreeSet;

/// A mutual-exclusion violation: a shortest execution ending with two or
/// more processes simultaneously critical.
pub fn find_mutex_violation<A>(
    sys: &MutexSystem<'_, A>,
    max_states: usize,
) -> Option<Execution<MutexStateOf<A>, MutexAction>>
where
    A: MutexAlgorithm,
    A::Local: Encode,
{
    find_crowded_critical(sys, 1, max_states)
}

/// A shortest execution ending with more than `k` processes critical at
/// once, re-checked by `verified_bad_state` before it is returned (a
/// rejection panics, naming the clause): mutual exclusion is `k = 1`,
/// `kexclusion`'s checker the semaphore's own `k`.
pub(crate) fn find_crowded_critical<A>(
    sys: &MutexSystem<'_, A>,
    k: usize,
    max_states: usize,
) -> Option<Execution<MutexStateOf<A>, MutexAction>>
where
    A: MutexAlgorithm,
    A::Local: Encode,
{
    let crowded = |s: &MutexStateOf<A>| sys.processes_in(s, Region::Critical).count() > k;
    let report = Search::new(sys).max_states(max_states).search(crowded);
    Some(verified_bad_state(sys, &crowded, report.witness?))
}

/// A progress (deadlock-freedom) violation: a reachable state in which some
/// process is trying, nobody is critical, and **no** continuation whatsoever
/// reaches a critical region.
///
/// Returns the offending state, the first in graph (BFS discovery) order.
/// `None` means progress holds on the explored (bounded) graph. When
/// `max_states` cut the graph, a state that lost a successor to the cap
/// might reach anything, so it counts as able to reach a critical region:
/// `Some` is a deadlock of the real system at any cap, and `None` under a
/// cut is "no deadlock among the states whose futures were fully explored".
pub fn find_deadlock<A: MutexAlgorithm>(
    sys: &MutexSystem<'_, A>,
    max_states: usize,
) -> Option<MutexStateOf<A>> {
    // Targets only: the check never reads an action label.
    let g = Search::new(sys).max_states(max_states).shape();
    let some_process_in =
        |s: &MutexStateOf<A>, region: Region| sys.processes_in(s, region).next().is_some();

    // On a cut graph, the states the cap took a successor from: a row
    // shorter than the enabled list (one reused action buffer; empty when
    // nothing was cut).
    let mut acts = Vec::new();
    let lost_successor: Vec<bool> = if g.truncated() {
        let lost = |(s, row): (_, &[_])| {
            sys.enabled_into(s, &mut acts);
            row.len() < acts.len()
        };
        g.order.iter().zip(g.succ.iter()).map(lost).collect()
    } else {
        Vec::new()
    };

    // Backward reachability from "some process critical" states — and, on a
    // cut graph, from every state that lost a successor.
    let can_reach_crit = g.succ.can_reach(
        |_| true,
        |i| some_process_in(&g.order[i], Region::Critical) || lost_successor.get(i) == Some(&true),
    );

    // Critical states seeded the pass, so an unreached state has nobody
    // critical; it is a deadlock iff somebody is trying.
    (0..g.len())
        .find(|&i| !can_reach_crit[i] && some_process_in(&g.order[i], Region::Trying))
        .map(|i| g.order[i].clone())
}

/// Search for a lockout of `victim`: a reachable cycle through states where
/// the victim is in its trying region and never critical, in which the
/// victim takes at least one protocol step and so does every process that is
/// obligated (non-remainder) at the cycle head. The lasso's stem is a
/// shortest run to that head, and its pivot is the head: the refuted claim
/// is "the victim trying leads to the victim critical", under fairness to
/// every process obligated at the head.
pub fn find_lockout<A: MutexAlgorithm>(
    sys: &MutexSystem<'_, A>,
    victim: usize,
    max_states: usize,
) -> Option<Lasso<MutexStateOf<A>, MutexAction>> {
    let g = Search::new(sys).max_states(max_states).graph();
    let n = sys.algorithm().num_processes();
    let region = |s: &MutexStateOf<A>| sys.algorithm().region(&s.locals[victim]);
    let trying = |s: &MutexStateOf<A>| region(s) == Region::Trying;
    let critical = |s: &MutexStateOf<A>| region(s) == Region::Critical;
    let victim_trying: Vec<bool> = g.order.iter().map(trying).collect();

    for (h, head) in g.order.iter().enumerate() {
        if !victim_trying[h] {
            continue;
        }
        // Obligated processes at the head: non-remainder ones. Each must take
        // at least one Step in the cycle (victim included). The k-th obligated
        // process gets class k, indexed by process (None: not obligated); a
        // `MutexState` holds at most 8 processes.
        let mut class = [None; 8];
        let obligated =
            (0..n).filter(|&i| sys.algorithm().region(&head.locals[i]) != Region::Remainder);
        let mut classes = 0;
        for (k, p) in obligated.enumerate() {
            class[p] = Some(k);
            classes = k + 1;
        }
        debug_assert!(class[victim].is_some());
        let class_of = |a: &MutexAction| match a {
            MutexAction::Step(_) => class[a.process()],
            _ => None,
        };
        let full = u32::MAX >> (32 - classes);

        // A cycle through victim-trying states only, covering a step of
        // every obligated process.
        let class_bits = |a: &MutexAction| class_of(a).map_or(0, |k| 1 << k);
        if let Some(edges) = g
            .succ
            .covering_cycle(h, |t| victim_trying[t], class_bits, full)
        {
            let mut tree = g.succ.bfs_tree();
            tree.search(0..g.initials, |_, _| true, |i| i == h)
                .expect("every graph state is reachable from the initials");
            let (path, stem) = tree.path(h);
            let states = path.iter().map(|&i| g.order[i].clone()).collect();
            let actions = path.iter().zip(stem).map(|(&i, e)| g.succ[i][e].0).collect();
            let ce = Counterexample::Lasso(Lasso {
                stem: Execution::from_parts(states, actions),
                cycle: edges
                    .into_iter()
                    .map(|(s, ei)| {
                        let (a, t) = g.succ[s][ei];
                        (a, g.order[t].clone())
                    })
                    .collect(),
                pivot: Some(path.len() - 1),
            });
            let spec = Spec {
                admissible: Some(&trying),
                fairness: Some((classes, &class_of)),
                ..Spec::new(Goal::LeadsTo(&trying, &critical))
            };
            verify(sys, &spec, &ce).unwrap_or_else(|e| panic!("{e}"));
            let Counterexample::Lasso(lasso) = ce else { unreachable!("built as a lasso") };
            return Some(lasso);
        }
    }
    None
}

/// Bound on the number of distinct values each shared variable takes over
/// the entire reachable space — the quantity the §2.1 pigeonhole arguments
/// count.
pub fn observed_value_spaces<A: MutexAlgorithm>(
    sys: &MutexSystem<'_, A>,
    max_states: usize,
) -> Vec<usize> {
    let states = Search::new(sys).max_states(max_states).reachable_states();
    let m = sys.algorithm().num_vars();
    let mut seen: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); m];
    for s in &states {
        for (v, val) in s.vars.iter().enumerate() {
            seen[v].insert((*val).into());
        }
    }
    seen.into_iter().map(|s| s.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::dijkstra::Dijkstra;
    use crate::algorithms::tas_lock::{TasLocal, TasLock};
    use crate::mutex::MutexState;

    #[test]
    fn tas_lock_value_space_is_two() {
        let alg = TasLock::new(2);
        let sys = MutexSystem::new(&alg);
        assert_eq!(observed_value_spaces(&sys, 100_000), vec![2]);
    }

    #[test]
    fn lockout_witness_cycle_replays() {
        let alg = TasLock::new(2);
        let sys = MutexSystem::new(&alg);
        let w = find_lockout(&sys, 1, 100_000).expect("tas lock is unfair");
        // The claim restated here, independently of the engine: a run on
        // which victim 1, once trying, is never critical, while it steps.
        let region = |s: &MutexState<TasLocal>| alg.region(&s.locals[1]);
        let trying = |s: &MutexState<TasLocal>| region(s) == Region::Trying;
        let critical = |s: &MutexState<TasLocal>| region(s) == Region::Critical;
        let victim_steps = |a: &MutexAction| (*a == MutexAction::Step(1)).then_some(0);
        let spec = Spec {
            fairness: Some((1, &victim_steps)),
            ..Spec::new(Goal::LeadsTo(&trying, &critical))
        };
        assert_eq!(verify(&sys, &spec, &Counterexample::Lasso(w.clone())), Ok(()));
        // The stem is a shortest run from the start to the loop head.
        assert_eq!(w.stem.first(), &sys.initial_states()[0]);
        assert_eq!(w.pivot, Some(w.stem.len()));
        // The victim is trying at every state of the cycle.
        assert!(w.cycle.iter().all(|(_, s)| trying(s)));
    }

    #[test]
    fn no_false_deadlock_for_tas() {
        let alg = TasLock::new(2);
        let sys = MutexSystem::new(&alg);
        assert!(find_deadlock(&sys, 100_000).is_none());
    }

    #[test]
    fn a_cut_graph_reports_no_false_deadlock() {
        // Dijkstra is deadlock-free, and any cap below its 8 423 states
        // leaves trying states whose successors were dropped; having no
        // explored way to a critical region is not a deadlock.
        let alg = Dijkstra::new(3);
        let sys = MutexSystem::new(&alg);
        for cap in [50, 200, 500, 2000] {
            assert!(Search::new(&sys).max_states(cap).graph().truncated());
            assert_eq!(find_deadlock(&sys, cap), None, "cap {cap}");
        }
        assert_eq!(find_deadlock(&sys, 1_000_000), None);
    }

    /// Two processes, one variable (0 free, 1 held, 2 poisoned). Locals: 0
    /// remainder, 1 entering, 2 stuck, 3 critical, 4 releasing, `10 + c`
    /// holding the lock with `c` of [`Poisoned::WAIT`] waiting steps done.
    /// A process that finds the lock held poisons it and spins forever; the
    /// holder sees the poison at its next step and spins too. So four steps
    /// from the start there is a deadlock whose whole future is two states,
    /// while the healthy runs go on for `WAIT` more levels.
    struct Poisoned;

    impl Poisoned {
        const WAIT: u8 = 40;
    }

    impl MutexAlgorithm for Poisoned {
        type Local = u8;
        type Register = u8;
        fn name(&self) -> &'static str {
            "poisoned(test)"
        }
        fn num_processes(&self) -> usize {
            2
        }
        fn num_vars(&self) -> usize {
            1
        }
        fn initial_var(&self, _var: usize) -> u64 {
            0
        }
        fn initial_local(&self, _i: usize) -> u8 {
            0
        }
        fn region(&self, local: &u8) -> Region {
            match local {
                0 => Region::Remainder,
                3 => Region::Critical,
                4 => Region::Exit,
                _ => Region::Trying,
            }
        }
        fn on_try(&self, _i: usize, _local: &u8) -> u8 {
            1
        }
        fn on_exit(&self, _i: usize, _local: &u8) -> u8 {
            4
        }
        fn target(&self, _i: usize, _local: &u8) -> usize {
            0
        }
        fn step(&self, _i: usize, local: &u8, value: u64) -> (u8, u64) {
            match (*local, value) {
                (1, 0) => (10, 1),
                (1, _) => (2, 2),
                (2, v) => (2, v),
                (4, v) => (0, if v == 2 { 2 } else { 0 }),
                (_, 2) => (2, 2),
                (c, v) if c - 10 + 1 < Self::WAIT => (c + 1, v),
                (_, v) => (3, v),
            }
        }
    }

    #[test]
    fn a_cut_graph_still_reports_a_real_deadlock() {
        let sys = MutexSystem::new(&Poisoned);
        let whole = find_deadlock(&sys, 1_000_000).expect("poisoning deadlocks");
        assert_eq!(whole.vars, vec![2]);
        // A cap past the deadlock's (tiny) future but short of the space:
        // same state, first in graph order.
        assert!(Search::new(&sys).max_states(64).graph().truncated());
        assert_eq!(find_deadlock(&sys, 64), Some(whole));
        // A cap that cuts every trying state's future proves nothing.
        assert_eq!(find_deadlock(&sys, 8), None);
    }
}
