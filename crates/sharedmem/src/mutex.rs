//! The mutual-exclusion framework of §2.1.
//!
//! A process cycles through four regions — *remainder* → *trying* →
//! *critical* → *exit* → *remainder*. The environment (not the algorithm!)
//! decides when a process requests the resource and when it releases it; the
//! algorithm controls only the trying and exit protocols. Cremers and Hibbard
//! "needed to capture the idea that each process might request the resource
//! at any time, i.e., that the requesting actions were not under the control
//! of the mutual exclusion algorithm" — here `Try` and `Exit` are
//! environment actions of the composed [`MutexSystem`], distinct from the
//! algorithm's `Step` actions.
//!
//! Every shared-variable access is one atomic read-modify-write: the process
//! names a variable, observes its value, and updates its local state and the
//! variable in one indivisible step (the general "test-and-set" primitive of
//! \[35\]). Plain read/write algorithms fit the same interface — a read writes
//! the observed value back, a write stores a value chosen independently of
//! the observation — and declare themselves via
//! [`MutexAlgorithm::read_write_only`].

use impossible_core::ids::ProcessId;
use impossible_core::row::Row;
use impossible_core::system::System;
use impossible_explore::Encode;
use std::fmt::Debug;
use std::hash::Hash;

/// The four regions of the mutual-exclusion life-cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// Not interested in the resource; takes no steps (and need not).
    Remainder,
    /// Running the trying protocol; obligated to keep stepping.
    Trying,
    /// Holds the resource. The algorithm performs no variable accesses here.
    Critical,
    /// Running the exit protocol; obligated to keep stepping.
    Exit,
}

/// A mutual-exclusion algorithm for a fixed number of processes over a fixed
/// set of shared variables.
pub trait MutexAlgorithm {
    /// Per-process local state (encodes the region and the program counter).
    /// `Copy`, so a [`MutexState`] is two inline arrays and copies as one.
    type Local: Copy + Eq + Ord + Hash + Debug;

    /// How a [`MutexState`] stores each shared variable: an unsigned
    /// integer wide enough for every value the algorithm stores. Every
    /// bounded algorithm in the tree declares `u8` (none stores a value
    /// past 255); [`Bakery`](crate::algorithms::bakery::Bakery) declares
    /// `u32`, because its tickets grow without bound. The algorithm itself
    /// still reads and writes `u64`: [`MutexSystem`] widens each read with
    /// `Into<u64>` and narrows each stored value through one checked
    /// `TryFrom<u64>` that panics, naming the width, rather than truncate.
    /// A register encodes, orders and prints as the `u64` it holds, so the
    /// width moves no fingerprint, order or output.
    type Register: Copy + Default + Ord + Hash + Debug + Encode + Into<u64> + TryFrom<u64>;

    /// Display name used in reports.
    fn name(&self) -> &'static str;

    /// Number of processes the algorithm is instantiated for.
    fn num_processes(&self) -> usize;

    /// Number of shared variables used.
    fn num_vars(&self) -> usize;

    /// Initial value of shared variable `var`.
    fn initial_var(&self, var: usize) -> u64;

    /// Initial local state of process `i` (must be in [`Region::Remainder`]).
    fn initial_local(&self, i: usize) -> Self::Local;

    /// The region encoded by `local`.
    fn region(&self, local: &Self::Local) -> Region;

    /// Environment moved process `i` from remainder into the trying protocol.
    fn on_try(&self, i: usize, local: &Self::Local) -> Self::Local;

    /// Environment moved process `i` from critical into the exit protocol.
    fn on_exit(&self, i: usize, local: &Self::Local) -> Self::Local;

    /// The variable process `i` will atomically access in its next step
    /// (meaningful only in the trying and exit regions).
    fn target(&self, i: usize, local: &Self::Local) -> usize;

    /// One atomic access: observe `value` of the target variable, return the
    /// new local state and the value to store back (store `value` itself to
    /// model a pure read).
    fn step(&self, i: usize, local: &Self::Local, value: u64) -> (Self::Local, u64);

    /// True if the algorithm only ever uses atomic *read* and *write*
    /// operations (never a value-dependent update) — the weaker primitive of
    /// Burns–Lynch \[27\]. Classification only; not enforced mechanically.
    fn read_write_only(&self) -> bool {
        false
    }

    /// The number of distinct values variable `var` may ever hold, if the
    /// algorithm knows it (used for the §2.1 value-counting experiments).
    fn value_space(&self, var: usize) -> Option<u64> {
        let _ = var;
        None
    }
}

/// Global configuration of a [`MutexSystem`]: two inline [`Row`]s, no heap
/// block. The caps — 8 processes, 12 variables — cover the largest instances
/// in the tree (`OneBit::new(5)`, `Dijkstra::new(5)`'s 11 variables);
/// [`System::initial_states`] panics, naming the cap, on an algorithm that
/// needs more. A `Row` compares, hashes, prints and encodes as the `Vec` of
/// its values, so no order, trace or fingerprint depends on the storage.
///
/// The registers are stored at the algorithm's declared width `R`
/// ([`MutexAlgorithm::Register`]; `u8` unless said otherwise):
/// `MutexState<DijkstraLocal>` is 30 bytes (a 17-byte locals row, a 13-byte
/// register row), not the 72 of a `u32` row or the 128 of a `u64` row.
/// [`MutexAlgorithm`] still reads and writes `u64`; the one narrowing step
/// is in [`MutexSystem`] (initial values and every stored value), a checked
/// conversion that panics naming the variable, the value and the width,
/// never a truncation, and [`MutexSystem::new`] refuses an algorithm whose
/// declared value space its width cannot hold. A register encodes as the
/// same `u64` word as the value it holds and orders and prints as that
/// `u64`, so the width moves no fingerprint, order or output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MutexState<L, R = u8> {
    /// Per-process local states.
    pub locals: Row<L, 8>,
    /// Shared variable values, narrowed from the algorithm's `u64`.
    pub vars: Row<R, 12>,
}

/// The state of algorithm `A`'s [`MutexSystem`]: its locals, its registers.
pub type MutexStateOf<A> =
    MutexState<<A as MutexAlgorithm>::Local, <A as MutexAlgorithm>::Register>;

impossible_explore::impl_encode_struct!(MutexState<L, R> { locals, vars });
impossible_explore::impl_persist_struct!(MutexState<L, R> { locals, vars }
    where L: Copy + Default, R: Copy + Default);

/// Canonicalization hook for **process-symmetric** algorithms: permuting
/// process indices is a system automorphism whenever every process runs
/// identical code — `on_try`/`on_exit`/`target`/`step` ignore `i` — and all
/// processes participate. Shared variables are global (not per-process), so
/// only `locals` is permuted; `vars` rides along unchanged. The hook returns
/// the `Ord`-minimum of `locals` over the full symmetric group, which is
/// idempotent because the minimum of an orbit is a fixed representative of
/// that orbit. The §2.1 counting arguments are themselves symmetric (mutual
/// exclusion, deadlock and value-space predicates are invariant under
/// relabeling), so checking representatives suffices — mirror of
/// `consensus::quorum::value_swap_canon` on the shared-memory side.
///
/// The hook canonicalises in place
/// ([`impossible_explore::Search::canon_in_place`]): it returns `true`
/// exactly when `locals` was not sorted already, the one case in which
/// sorting moves the state.
///
/// **Cost:** one sortedness scan, and an in-place sort, `O(n log n)`
/// comparisons, only when that finds `locals` unsorted; no copy. The orbit of
/// `locals` under the symmetric group is every arrangement of the same
/// multiset, and the lexicographically least arrangement is the sorted one,
/// so nothing is enumerated; equal locals are interchangeable, so sort
/// stability is immaterial. The definition —
/// [`min_under_permutations`](impossible_explore::canon::min_under_permutations)
/// over [`all_permutations`](impossible_explore::canon::all_permutations),
/// `n!` candidates per call — is the oracle the tests compare against.
///
/// **Not** sound for asymmetric algorithms (distinct roles, per-process
/// variable targets, or restricted participant sets); the caller owns that
/// precondition, exactly as with every
/// [`impossible_explore::Search::canon_in_place`] hook.
// LINT-ALLOW: dead-pub -- symmetry [7]: identical-code mutex algorithms explored one state per orbit; tests process_perm_canon_shrinks_the_symmetric_space, process_perm_canon_is_the_minimum_over_the_symmetric_group
pub fn process_perm_canon<L: Copy + Ord, R: Copy>(s: &mut MutexState<L, R>) -> bool {
    let moved = !s.locals.is_sorted();
    if moved {
        s.locals.sort_unstable();
    }
    moved
}

/// Actions of the composed system. `Try` and `Exit` belong to the
/// environment (but are attributed to the process for fairness accounting);
/// `Step` is one atomic variable access by the algorithm.
///
/// The process index is a `u32` (a [`MutexState`] holds at most 8
/// processes), so a reachable-graph edge `(MutexAction, usize)` is 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutexAction {
    /// Environment: process requests the resource.
    Try(u32),
    /// Algorithm: process performs its next atomic access.
    Step(u32),
    /// Environment: process releases the resource.
    Exit(u32),
}

impossible_explore::impl_persist_enum!(MutexAction {
    0: Try(p),
    1: Step(p),
    2: Exit(p),
});

impl MutexAction {
    /// The process this action concerns.
    pub fn process(&self) -> usize {
        match *self {
            MutexAction::Try(p) | MutexAction::Step(p) | MutexAction::Exit(p) => p as usize,
        }
    }
}

/// The composed transition system: `n` algorithm instances plus the
/// requesting/releasing environment. `participants` restricts which
/// processes ever try — the proofs of \[26\] repeatedly consider runs where
/// only a subset of processes are active.
pub struct MutexSystem<'a, A: MutexAlgorithm> {
    alg: &'a A,
    participants: Vec<bool>,
}

impl<'a, A: MutexAlgorithm> MutexSystem<'a, A> {
    /// System in which every process may request the resource.
    ///
    /// # Panics
    /// If a declared [`value_space`](MutexAlgorithm::value_space) holds
    /// more values than [`MutexAlgorithm::Register`] can; the message names
    /// the algorithm, the variable and the width.
    pub fn new(alg: &'a A) -> Self {
        Self::with_participants(alg, vec![true; alg.num_processes()])
    }

    /// System in which only the listed processes ever try.
    ///
    /// # Panics
    /// As [`MutexSystem::new`], and if `participants` is not one flag per
    /// process.
    pub fn with_participants(alg: &'a A, participants: Vec<bool>) -> Self {
        assert_eq!(participants.len(), alg.num_processes());
        // `values` values fit iff the largest, `values - 1`, does.
        for var in 0..alg.num_vars() {
            if let Some(values) = alg.value_space(var) {
                let top = values.saturating_sub(1);
                assert!(
                    A::Register::try_from(top).is_ok(),
                    "{} declares {values} values for shared variable {var}, \
                     more than its {} registers hold",
                    alg.name(),
                    std::any::type_name::<A::Register>()
                );
            }
        }
        MutexSystem { alg, participants }
    }

    /// The underlying algorithm.
    pub fn algorithm(&self) -> &A {
        self.alg
    }

    /// Processes currently in `region`, in index order — the one
    /// definition of "who is in region R"; the safety predicates count it
    /// per scanned state, so it allocates nothing.
    pub fn processes_in<'s>(
        &'s self,
        state: &'s MutexStateOf<A>,
        region: Region,
    ) -> impl Iterator<Item = usize> + 's {
        state
            .locals
            .iter()
            .enumerate()
            .filter(move |(_, l)| self.alg.region(l) == region)
            .map(|(i, _)| i)
    }

    /// Processes currently in the critical region.
    pub fn critical_processes(&self, state: &MutexStateOf<A>) -> Vec<usize> {
        self.processes_in(state, Region::Critical).collect()
    }

    /// The transition body, on `next ==` the pre-state `state`.
    fn apply(
        &self,
        state: &MutexStateOf<A>,
        action: &MutexAction,
        next: &mut MutexStateOf<A>,
    ) {
        let i = action.process();
        match action {
            MutexAction::Try(_) => {
                next.locals[i] = self.alg.on_try(i, &state.locals[i]);
            }
            MutexAction::Exit(_) => {
                next.locals[i] = self.alg.on_exit(i, &state.locals[i]);
            }
            MutexAction::Step(_) => {
                let var = self.alg.target(i, &state.locals[i]);
                let value: u64 = state.vars[var].into();
                let (local, stored) = self.alg.step(i, &state.locals[i], value);
                next.locals[i] = local;
                next.vars[var] = register(var, stored);
            }
        }
    }
}

/// The one narrowing step: `value` as stored in shared variable `var` of a
/// [`MutexState`] whose registers are `R`s.
///
/// # Panics
/// If `value` does not fit an `R`; the message names `var`, `value` and
/// the width.
fn register<R: TryFrom<u64>>(var: usize, value: u64) -> R {
    R::try_from(value).unwrap_or_else(|_| {
        panic!(
            "shared variable {var} cannot hold {value}: its register is a {}",
            std::any::type_name::<R>()
        )
    })
}

impl<'a, A: MutexAlgorithm> System for MutexSystem<'a, A> {
    type State = MutexStateOf<A>;
    type Action = MutexAction;

    fn initial_states(&self) -> Vec<Self::State> {
        let n = self.alg.num_processes();
        let mut locals = Row::filled(self.alg.initial_local(0), n);
        for (i, l) in locals.iter_mut().enumerate() {
            *l = self.alg.initial_local(i);
            assert_eq!(
                self.alg.region(l),
                Region::Remainder,
                "process {i} must start in the remainder region"
            );
        }
        let mut vars = Row::filled(A::Register::default(), self.alg.num_vars());
        for (v, x) in vars.iter_mut().enumerate() {
            *x = register(v, self.alg.initial_var(v));
        }
        vec![MutexState { locals, vars }]
    }

    fn enabled(&self, state: &Self::State) -> Vec<MutexAction> {
        let mut acts = Vec::new();
        self.enabled_into(state, &mut acts);
        acts
    }

    fn enabled_into(&self, state: &Self::State, acts: &mut Vec<MutexAction>) {
        acts.clear();
        for (p, (l, &may_try)) in (0u32..).zip(state.locals.iter().zip(&self.participants)) {
            match self.alg.region(l) {
                Region::Remainder => {
                    if may_try {
                        acts.push(MutexAction::Try(p));
                    }
                }
                Region::Trying | Region::Exit => acts.push(MutexAction::Step(p)),
                Region::Critical => acts.push(MutexAction::Exit(p)),
            }
        }
    }

    fn step(&self, state: &Self::State, action: &MutexAction) -> Self::State {
        let mut next = state.clone();
        self.apply(state, action, &mut next);
        next
    }

    fn step_into(&self, state: &Self::State, action: &MutexAction, out: &mut Self::State) {
        // One copy: both fields are inline rows, so nothing of `out` is
        // worth keeping and nothing is allocated.
        out.clone_from(state);
        self.apply(state, action, out);
    }

    fn owner(&self, action: &MutexAction) -> Option<ProcessId> {
        // Try/Exit are environment decisions, but attributing them to the
        // process keeps fairness accounting simple: a process that is given
        // Try/Exit turns is "scheduled".
        Some(ProcessId(action.process()))
    }

    fn num_processes(&self) -> Option<usize> {
        Some(self.alg.num_processes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::dijkstra::DijkstraLocal;
    use crate::algorithms::tas_lock::TasLock;
    use impossible_core::explore::Explorer;
    use impossible_det::{det_assert_eq, prop};
    use impossible_explore::{Fingerprint, Persist};
    use std::marker::PhantomData;

    #[test]
    fn initial_state_all_remainder() {
        let alg = TasLock::new(2);
        let sys = MutexSystem::new(&alg);
        let init = &sys.initial_states()[0];
        assert!(sys.critical_processes(init).is_empty());
        assert_eq!(sys.processes_in(init, Region::Trying).count(), 0);
        assert_eq!(init.vars, vec![0]);
    }

    #[test]
    fn try_step_enters_critical() {
        let alg = TasLock::new(2);
        let sys = MutexSystem::new(&alg);
        let init = sys.initial_states()[0].clone();
        let s1 = sys.step(&init, &MutexAction::Try(0));
        assert!(sys.processes_in(&s1, Region::Trying).eq([0]));
        let s2 = sys.step(&s1, &MutexAction::Step(0));
        assert_eq!(sys.critical_processes(&s2), vec![0]);
        // Now Exit is the only enabled action for p0.
        assert!(sys.enabled(&s2).contains(&MutexAction::Exit(0)));
    }

    #[test]
    fn participants_restrict_try() {
        let alg = TasLock::new(2);
        let sys = MutexSystem::with_participants(&alg, vec![true, false]);
        let init = sys.initial_states()[0].clone();
        let acts = sys.enabled(&init);
        assert!(acts.contains(&MutexAction::Try(0)));
        assert!(!acts.contains(&MutexAction::Try(1)));
    }

    #[test]
    fn full_cycle_returns_to_remainder() {
        let alg = TasLock::new(1);
        let sys = MutexSystem::new(&alg);
        let init = sys.initial_states()[0].clone();
        let end = [
            MutexAction::Try(0),
            MutexAction::Step(0), // acquire
            MutexAction::Exit(0),
            MutexAction::Step(0), // release
        ]
        .iter()
        .fold(init.clone(), |s, a| {
            assert!(sys.enabled(&s).contains(a), "{a:?} disabled at {s:?}");
            sys.step(&s, a)
        });
        assert_eq!(end, init);
    }

    #[test]
    fn state_space_of_two_process_tas_is_small() {
        let alg = TasLock::new(2);
        let sys = MutexSystem::new(&alg);
        let report = Explorer::new(&sys).explore();
        assert!(!report.truncated);
        assert!(report.num_states < 100, "{} states", report.num_states);
    }

    #[test]
    fn process_perm_canon_shrinks_the_symmetric_space() {
        // TasLock is process-oblivious, so the permutation quotient is
        // sound. Not every orbit has full size n! (states with equal locals
        // are permutation-fixed), so assert a strict shrink plus recorded
        // canon hits rather than an exact divisor.
        use impossible_explore::Search;
        for n in [2usize, 3] {
            let alg = TasLock::new(n);
            let sys = MutexSystem::new(&alg);
            let resident = Search::new(&sys).explore();
            let quotient = Search::new(&sys).canon_in_place(process_perm_canon).explore();
            assert!(!resident.truncated() && !quotient.truncated());
            assert!(
                quotient.num_states < resident.num_states,
                "n={n}: quotient {} must beat resident {}",
                quotient.num_states,
                resident.num_states
            );
            assert!(quotient.stats.canon_hits > 0, "n={n}: hook never fired");
            // Every representative the search kept is a fixed point.
            for s in &quotient.terminal_states {
                let mut again = s.clone();
                assert!(!process_perm_canon(&mut again), "n={n}: {s:?} moved");
                assert_eq!(again, *s);
            }
        }
    }

    #[test]
    fn process_perm_canon_is_the_minimum_over_the_symmetric_group() {
        // The sort against its definition, on every reachable state of the
        // unquotiented TAS space — which is full of equal locals (the
        // all-remainder start, several processes trying), where sort
        // stability must not matter.
        use impossible_explore::canon::{all_permutations, min_under_permutations};
        use impossible_explore::Search;
        for n in 1..=4usize {
            let alg = TasLock::new(n);
            let sys = MutexSystem::new(&alg);
            let perms = all_permutations(n);
            let states = Search::new(&sys).reachable_states();
            for s in &states {
                let by_definition =
                    min_under_permutations(&s.locals, &perms, |ls: &Row<_, 8>, p: &[usize]| {
                        let mut t = *ls;
                        for (i, l) in ls.iter().enumerate() {
                            t[p[i]] = *l;
                        }
                        t
                    });
                let mut canon = s.clone();
                let moved = process_perm_canon(&mut canon);
                assert_eq!(canon.locals, by_definition, "n={n}: {s:?}");
                assert_eq!(canon.vars, s.vars);
                assert_eq!(moved, canon != *s, "n={n}: {s:?}");
            }
        }
    }

    #[test]
    fn process_perm_canon_passes_the_audit_only_where_processes_are_symmetric() {
        // Over every reachable state of the unquotiented space. TAS runs
        // identical code on one global variable: the hook is sound.
        // Dijkstra's `b[i]`, `c[i]` and turn `k` are per-process, so
        // permuting `locals` alone is no automorphism there — the hook's
        // documented precondition — and the audit names the clause.
        use crate::algorithms::dijkstra::Dijkstra;
        use impossible_explore::canon::{audit, Canon, CanonFault};
        use impossible_explore::Search;
        fn audited<A: MutexAlgorithm>(alg: &A) -> Result<(), (usize, CanonFault)>
        where
            A::Local: Copy + Ord,
        {
            let sys = MutexSystem::new(alg);
            let count = |s: &MutexStateOf<A>, r| sys.processes_in(s, r).count();
            let two = |s: &MutexStateOf<A>| count(s, Region::Critical) >= 2;
            let trying = |s: &MutexStateOf<A>| count(s, Region::Trying) > 0;
            let states = Search::new(&sys).reachable_states();
            let preds: [(&str, &dyn Fn(&MutexStateOf<A>) -> bool); 2] =
                [("two-critical", &two), ("someone-trying", &trying)];
            audit(&sys, Canon::InPlace(process_perm_canon), &states, &preds)
        }
        assert_eq!(audited(&TasLock::new(3)), Ok(()));
        let fault = audited(&Dijkstra::new(3));
        assert_eq!(fault.clone().map_err(|(_, f)| f), Err(CanonFault::Successors), "{fault:?}");
    }

    #[test]
    fn quotient_preserves_mutex_safety_and_progress_verdicts() {
        // The §2.1 verdicts are permutation-invariant predicates, so the
        // quotient search must reproduce them: TAS is safe (no two
        // processes critical) and deadlock-free, and the shared variable
        // still takes exactly its two values across representatives.
        use impossible_explore::Search;
        let alg = TasLock::new(3);
        let sys = MutexSystem::new(&alg);
        let violation = Search::new(&sys)
            .canon_in_place(process_perm_canon)
            .search(|s: &MutexState<_>| sys.critical_processes(s).len() >= 2);
        assert!(violation.witness.is_none(), "TAS stays safe in the quotient");

        // Every representative with a trying process can still reach a
        // critical region — progress survives the quotient.
        let g = Search::new(&sys).canon_in_place(process_perm_canon).graph();
        let can_reach_crit = g.succ.can_reach(
            |_| true,
            |i| !sys.critical_processes(&g.order[i]).is_empty(),
        );
        for (i, s) in g.order.iter().enumerate() {
            if sys.processes_in(s, Region::Trying).next().is_some() {
                assert!(can_reach_crit[i], "quotient state {i} lost progress");
            }
        }

        // Value space is preserved: the lock variable still shows both
        // values across the representatives.
        let mut seen = std::collections::BTreeSet::new();
        for s in &g.order {
            seen.insert(s.vars[0]);
        }
        assert_eq!(seen.len(), 2, "quotient kept both lock values");
    }

    #[test]
    fn dijkstra_states_and_edges_keep_their_pinned_sizes() {
        // What `mutex_dijkstra4`'s reachable graph holds per state and per
        // edge: the interned `MutexState` (no heap block behind it: a
        // 17-byte locals row and a 13-byte `u8` register row), one local,
        // and one `Succ` edge. Bakery's `u32` registers keep the size they
        // had before the width was the algorithm's.
        use crate::algorithms::bakery::BakeryLocal;
        use std::mem::size_of;
        assert_eq!(size_of::<MutexState<DijkstraLocal>>(), 30);
        assert_eq!(
            size_of::<MutexState<BakeryLocal, u32>>(),
            BAKERY_STATE_BYTES
        );
        assert_eq!(size_of::<DijkstraLocal>(), 2);
        assert_eq!(size_of::<(MutexAction, usize)>(), 16);
    }

    #[test]
    #[should_panic(expected = "a Row holds at most 12 items, not 13")]
    fn an_instance_past_the_variable_cap_is_refused_naming_it() {
        use crate::algorithms::dijkstra::Dijkstra;
        MutexSystem::new(&Dijkstra::new(6)).initial_states();
    }

    /// The register widths the tests run at: what
    /// [`MutexAlgorithm::Register`] asks, and `Persist`.
    trait Width:
        Copy + Default + Ord + Hash + Debug + Encode + Persist + Into<u64> + TryFrom<u64>
    {
    }
    impl Width for u8 {}
    impl Width for u32 {}

    /// One process, three `R` registers, all starting at 0 but variable 1,
    /// which starts at `init_1`. The process's one trying step stores
    /// `stored` into variable 2 and enters the critical region. Every
    /// variable declares `declared` values, if that is `Some`.
    struct Stores<R> {
        init_1: u64,
        stored: u64,
        declared: Option<u64>,
        width: PhantomData<R>,
    }

    impl<R> Stores<R> {
        fn new(init_1: u64, stored: u64) -> Self {
            Stores {
                init_1,
                stored,
                declared: None,
                width: PhantomData,
            }
        }
    }

    impl<R: Width> MutexAlgorithm for Stores<R> {
        type Local = Region;
        type Register = R;
        fn name(&self) -> &'static str {
            "stores(test)"
        }
        fn num_processes(&self) -> usize {
            1
        }
        fn num_vars(&self) -> usize {
            3
        }
        fn initial_var(&self, var: usize) -> u64 {
            if var == 1 {
                self.init_1
            } else {
                0
            }
        }
        fn initial_local(&self, _i: usize) -> Region {
            Region::Remainder
        }
        fn region(&self, local: &Region) -> Region {
            *local
        }
        fn on_try(&self, _i: usize, _local: &Region) -> Region {
            Region::Trying
        }
        fn on_exit(&self, _i: usize, _local: &Region) -> Region {
            Region::Remainder
        }
        fn target(&self, _i: usize, _local: &Region) -> usize {
            2
        }
        fn step(&self, _i: usize, _local: &Region, _value: u64) -> (Region, u64) {
            (Region::Critical, self.stored)
        }
        fn value_space(&self, _var: usize) -> Option<u64> {
            self.declared
        }
    }

    /// The first value a `u32` register cannot hold.
    const PAST_U32: u64 = u32::MAX as u64 + 1;

    /// The first value a `u8` register cannot hold.
    const PAST_U8: u64 = u8::MAX as u64 + 1;

    /// `size_of::<MutexState<BakeryLocal, u32>>()`, as it was when every
    /// register was a `u32`.
    const BAKERY_STATE_BYTES: usize = 256;

    /// The state `Stores` reaches by trying and taking its one step.
    fn stored<R: Width>(alg: &Stores<R>) -> MutexState<Region, R> {
        let sys = MutexSystem::new(alg);
        let tried = sys.step(&sys.initial_states()[0], &MutexAction::Try(0));
        sys.step(&tried, &MutexAction::Step(0))
    }

    #[test]
    fn the_widest_register_value_round_trips() {
        let wide = u64::from(u32::MAX);
        assert_eq!(
            stored(&Stores::<u32>::new(wide, wide)).vars,
            vec![0, u32::MAX, u32::MAX]
        );
        let wide = u64::from(u8::MAX);
        assert_eq!(
            stored(&Stores::<u8>::new(wide, wide)).vars,
            vec![0, u8::MAX, u8::MAX]
        );
    }

    #[test]
    #[should_panic(expected = "shared variable 1 cannot hold 4294967296: its register is a u32")]
    fn an_initial_value_past_u32_is_refused_naming_it() {
        MutexSystem::new(&Stores::<u32>::new(PAST_U32, 0)).initial_states();
    }

    #[test]
    #[should_panic(expected = "shared variable 2 cannot hold 4294967296: its register is a u32")]
    fn a_stored_value_past_u32_is_refused_naming_it() {
        stored(&Stores::<u32>::new(0, PAST_U32));
    }

    #[test]
    #[should_panic(expected = "shared variable 1 cannot hold 256: its register is a u8")]
    fn an_initial_value_past_u8_is_refused_naming_it() {
        MutexSystem::new(&Stores::<u8>::new(PAST_U8, 0)).initial_states();
    }

    #[test]
    #[should_panic(expected = "shared variable 2 cannot hold 256: its register is a u8")]
    fn a_stored_value_past_u8_is_refused_naming_it() {
        stored(&Stores::<u8>::new(0, PAST_U8));
    }

    #[test]
    fn every_in_tree_algorithm_fits_its_declared_width() {
        // `MutexSystem::new` checks each declared value space against the
        // register width; every algorithm in the tree passes, at a size
        // where its widest variable is widest (Dijkstra's turn holds 5
        // values, the semaphore's counter 4), and a `u8` register holds
        // exactly 256 declared values.
        use crate::algorithms::{
            Bakery, Dijkstra, HandoffLock, OneBit, OwnerOverwrite, Peterson2, SingleFlag, TasLock,
        };
        use crate::kexclusion::CounterSemaphore;
        use crate::rw_lowerbound::TwoVarThree;
        use crate::synthesis::SynthProtocol;
        fn builds<A: MutexAlgorithm>(alg: &A) {
            let sys = MutexSystem::new(alg);
            assert_eq!(sys.initial_states().len(), 1, "{}", alg.name());
        }
        builds(&TasLock::new(2));
        builds(&HandoffLock::new());
        builds(&Peterson2::new());
        builds(&Dijkstra::new(5));
        builds(&OneBit::new(5));
        builds(&Bakery::new(4));
        builds(&OwnerOverwrite::new(2));
        builds(&SingleFlag::new(2));
        builds(&CounterSemaphore::new(4, 3));
        builds(&TwoVarThree);
        builds(&SynthProtocol {
            k: 1,
            v: 2,
            table: vec![(1, 1), (0, 1)],
            exit_write: vec![0, 0],
            init_value: 0,
        });
        builds(&Stores::<u8> {
            declared: Some(PAST_U8),
            ..Stores::new(0, 0)
        });
    }

    #[test]
    #[should_panic(
        expected = "stores(test) declares 300 values for shared variable 0, more than its u8 registers hold"
    )]
    fn a_value_space_past_the_register_width_is_refused_naming_it() {
        MutexSystem::new(&Stores::<u8> {
            declared: Some(300),
            ..Stores::new(0, 0)
        });
    }

    /// A [`MutexState`] as it was before the registers narrowed: the same
    /// fields, as `Vec`s of the algorithm's `u64`.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct WideState {
        locals: Vec<DijkstraLocal>,
        vars: Vec<u64>,
    }

    impossible_explore::impl_encode_struct!(WideState { locals, vars });

    /// Every `DijkstraLocal` with its `u8` fields below 3, by index.
    fn dijkstra_local(code: u8) -> DijkstraLocal {
        use DijkstraLocal::*;
        let k = code % 3;
        match code / 3 {
            0 => [Rem, SetB, ReadK][usize::from(k)],
            1 => SetCTrue { k },
            2 => ReadBk { k },
            3 => [WriteK, SetCFalse, Crit][usize::from(k)],
            4 => CheckC { j: k },
            _ => [ExitC, ExitB, ExitB][usize::from(k)],
        }
    }

    /// The largest value an `R` register holds.
    fn top<R>() -> u64 {
        u64::MAX >> (64 - 8 * std::mem::size_of::<R>())
    }

    /// A register value from a generated word below 2³²: even words give
    /// 0, 1 or 2 (so states tie on a register), odd words themselves up to
    /// `top` (so the high bits are exercised), wrapped past it.
    fn register_value(word: u64, top: u64) -> u64 {
        if word.is_multiple_of(2) {
            word % 6 / 2
        } else {
            word % (top + 1)
        }
    }

    /// The `R`-register state and its wide reference from generated codes;
    /// `spare` fills both rows' spare capacity.
    fn both<R: Width>(
        locals: &[u8],
        words: &[u64],
        spare: u8,
    ) -> (MutexState<DijkstraLocal, R>, WideState) {
        let narrowed = |v: u64| R::try_from(v).ok().expect("drawn below the width");
        let wide = WideState {
            locals: locals.iter().map(|&c| dijkstra_local(c)).collect(),
            vars: words
                .iter()
                .map(|&w| register_value(w, top::<R>()))
                .collect(),
        };
        let mut narrow = MutexState {
            locals: Row::filled(dijkstra_local(spare), wide.locals.len()),
            vars: Row::filled(narrowed(u64::from(spare)), wide.vars.len()),
        };
        narrow.locals.copy_from_slice(&wide.locals);
        for (x, &v) in narrow.vars.iter_mut().zip(&wide.vars) {
            *x = narrowed(v);
        }
        (narrow, wide)
    }

    /// `registers_encode_and_order_as_u64` at one register width.
    fn encodes_as_u64<R: Width>(x: (&[u8], &[u64]), y: (&[u8], &[u64])) -> Result<(), String> {
        let (nx, wx) = both::<R>(x.0, x.1, 0);
        let (ny, wy) = both::<R>(y.0, y.1, 0);
        for seed in [0, 0x9E37_79B9_7F4A_7C15] {
            det_assert_eq!(nx.fingerprint(seed), wx.fingerprint(seed));
            det_assert_eq!(ny.fingerprint(seed), wy.fingerprint(seed));
        }
        det_assert_eq!(nx.cmp(&ny), wx.cmp(&wy));
        let wide_debug = format!("{wx:?}").replacen("WideState", "MutexState", 1);
        det_assert_eq!(format!("{nx:?}"), wide_debug);
        Ok(())
    }

    /// `x`'s `Persist` bytes.
    fn bytes<T: Persist>(x: &T) -> Vec<u8> {
        let mut out = Vec::new();
        x.write(&mut out);
        out
    }

    /// `states_persist_canonically` at one register width.
    fn persists<R: Width>(x: (&[u8], &[u64]), y: (&[u8], &[u64]), spare: u8) -> Result<(), String> {
        let (nx, _) = both::<R>(x.0, x.1, 0);
        let (ny, _) = both::<R>(y.0, y.1, 0);
        let encoded = bytes(&nx);
        let mut pos = 0;
        det_assert_eq!(MutexState::read(&encoded, &mut pos), Ok(nx.clone()));
        det_assert_eq!(pos, encoded.len());
        // The spare capacity never reaches the bytes, and distinct states
        // never share them.
        det_assert_eq!(bytes(&both::<R>(x.0, x.1, spare).0), encoded);
        det_assert_eq!(bytes(&ny) == encoded, ny == nx);
        Ok(())
    }

    /// The second state's codes: its own, or the first's locals (`share`
    /// 1), and also the first half of its registers (2), so the order is
    /// decided by the registers too.
    fn shared(xs: &[u8], xw: &[u64], ys: Vec<u8>, yw: Vec<u64>, share: u8) -> (Vec<u8>, Vec<u64>) {
        let ys = if share > 0 { xs.to_vec() } else { ys };
        let yw = if share > 1 {
            let half = xw.len() / 2;
            xw[..half].iter().chain(&yw).take(12).copied().collect()
        } else {
            yw
        };
        (ys, yw)
    }

    impossible_det::det_prop! {
        /// The contract that makes the register width invisible: a
        /// `MutexState` fingerprints, orders and prints exactly as the
        /// `u64` `Vec` state holding the same values, with `u8` and with
        /// `u32` registers.
        fn registers_encode_and_order_as_u64(
            cases = 512,
            xs in prop::vec(0u8..18, 0..9),
            xw in prop::vec(0u64..=u64::from(u32::MAX), 0..13),
            ys in prop::vec(0u8..18, 0..9),
            yw in prop::vec(0u64..=u64::from(u32::MAX), 0..13),
            share in 0u8..3
        ) {
            let (ys, yw) = shared(&xs, &xw, ys, yw, share);
            encodes_as_u64::<u8>((&xs, &xw), (&ys, &yw))?;
            encodes_as_u64::<u32>((&xs, &xw), (&ys, &yw))?;
        }

        /// `Persist` on a `MutexState` at both widths: `read(write(x)) ==
        /// x`, consuming exactly the bytes, and `write` is canonical —
        /// whatever a row's spare capacity holds, and injective. Every
        /// `MutexAction` round trips through its one tag byte.
        fn states_persist_canonically(
            cases = 256,
            xs in prop::vec(0u8..18, 0..9),
            xw in prop::vec(0u64..=u64::from(u32::MAX), 0..13),
            ys in prop::vec(0u8..18, 0..9),
            yw in prop::vec(0u64..=u64::from(u32::MAX), 0..13),
            share in 0u8..3,
            spare in 0u8..18,
            p in 0u32..8
        ) {
            let (ys, yw) = shared(&xs, &xw, ys, yw, share);
            persists::<u8>((&xs, &xw), (&ys, &yw), spare)?;
            persists::<u32>((&xs, &xw), (&ys, &yw), spare)?;
            for (tag, action) in [MutexAction::Try(p), MutexAction::Step(p), MutexAction::Exit(p)]
                .into_iter()
                .enumerate()
            {
                let encoded = bytes(&action);
                det_assert_eq!(encoded[0], tag as u8);
                det_assert_eq!(MutexAction::read(&encoded, &mut 0), Ok(action));
            }
        }
    }
}
