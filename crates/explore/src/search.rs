//! The unified search engine: BFS shortest-witness search behind one
//! [`Search`] builder.
//!
//! # BFS (fingerprint dedup, one traversal order)
//!
//! The breadth-first engine is level-synchronized. Each level is
//! partitioned by `fingerprint % partitions` into a **fixed** number of
//! partitions, and the visited set is a [`ShardedFpMap`] sharded by that
//! *same* function — shard `k` holds exactly the fingerprints partition `k`
//! can produce next level, so partition `k`'s next frontier *is* shard
//! `k`'s newly-inserted list, handed over without re-partitioning. The
//! level loop (`Search::bfs_levels`) is the only one; *how* a level is
//! expanded is the crate-private visited backend's answer, never an
//! option's: `Resident` commits each partition as soon as it is expanded,
//! `crate::extmem`'s `Spill` once the whole level is expanded and its run
//! files asked, both on the calling thread. Every name
//! the report can mention — discovery order, witness, terminal list,
//! counters — is derived from the fixed partition order, so the report is
//! a pure function of `(system, bounds, seed, canon, partitions)`. See
//! `docs/EXPLORE.md` ("Sharding & determinism") for the ordering argument
//! and `docs/EXTMEM.md` for why the spill route cannot change a byte.
//!
//! The visited set stores 64-bit fingerprints, not states (see
//! [`crate::fingerprint`] for the collision policy; routes that must be
//! exact build [`Search::graph`], which confirms every fingerprint match by
//! full equality). Witnesses are reconstructed by walking a
//! fingerprint-keyed parent map back to an initial state and replaying the
//! actions through [`System::step`]. Only the routes that can be asked for
//! a parent store one (a witness, a snapshot page, a run page):
//! [`Search::explore`]'s table keeps keys only (`Backlink`), and so do
//! [`Search::run_resumable`] and [`Search::resume`] under a budget that can
//! never trip.
//!
//! Both level bodies expand a frontier partition through one function,
//! `Search::expand_partition` (stage the children in j-major order,
//! collect the terminals, fingerprint the batch), and commit what it hands
//! back through one function, `Search::commit_children`, partition by
//! partition; they differ only in whether every partition is expanded
//! before the first commit.
//!
//! # Semantics vs. the legacy `Explorer`
//!
//! On a full (predicate-free, untruncated) exploration the report agrees
//! with [`impossible_core::explore::Explorer`] on `num_states`,
//! `num_transitions` and the terminal-state *set* (the order differs:
//! legacy emits queue order, this engine merge order). Predicate searches
//! agree on witness *length* (both are shortest) but may return a different
//! shortest witness; this engine checks the predicate over each completed
//! level (a post-level scan of the newly-inserted states, which is what
//! keeps the check identical on both backends), so state/transition counts
//! of `search` runs are not comparable — legacy stops mid-level. The
//! cross-engine equivalence suite in `tests/explore_equivalence.rs` pins
//! all of this per model crate.

use crate::fingerprint::{BatchScratch, Encode};
use crate::stats::SearchStats;
use crate::table::{shard_index, Cap, FpMap, ShardedFpMap, TryInsert};
use impossible_core::exec::Execution;
use impossible_core::explore::Truncation;
use impossible_core::symmetry::Canon;
use impossible_core::system::System;
use impossible_obs::{trace_event, NoopTracer, Tracer};
use std::borrow::Cow;
use std::cell::RefCell;
use std::num::NonZeroU64;

/// Trace field value for a truncation cause ("none" when unbounded).
fn truncation_name(t: &Option<Truncation>) -> &'static str {
    t.map_or("none", |t| t.name())
}

/// Default fingerprint seed (any fixed value works; overridable for
/// collision re-randomization and `DET_SEED` integration).
pub const DEFAULT_SEED: u64 = 0x5EED_FACE_0FDA_7A5E;

/// Number of frontier partitions (and visited-set shards) of every search.
/// Fixed (never derived from the worker count), so reports are
/// worker-count invariant.
pub const DEFAULT_PARTITIONS: usize = 64;

/// A staged child: `(fingerprint, canonical state, action, parent fp)` —
/// the one record [`Search::expand_partition`] hands both level bodies.
pub(crate) type Child<S, A> = (u64, S, A, u64);

/// Result of a [`Search`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchReport<S, A> {
    /// Distinct states visited (fingerprint-distinct).
    pub num_states: usize,
    /// Transitions traversed.
    pub num_transitions: usize,
    /// States with no enabled action, in merge order.
    pub terminal_states: Vec<S>,
    /// The first bound that tripped, if any.
    pub truncated_by: Option<Truncation>,
    /// Shortest execution to a predicate match, if one was found.
    pub witness: Option<Execution<S, A>>,
    /// Per-run counters (deterministic; JSON via [`SearchStats::to_json`]).
    pub stats: SearchStats,
}

impl<S, A> SearchReport<S, A> {
    /// Did exploration hit a bound before exhausting the space?
    pub fn truncated(&self) -> bool {
        self.truncated_by.is_some()
    }
}

/// Parent-map entry, keyed by child fingerprint. Public so the checkpoint
/// layer (`impossible-ckpt`) can persist the witness-replay chain; the
/// search engine itself only ever builds these through its insert paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parent<A> {
    /// `initial_states()[i]`.
    Root(usize),
    /// Reached from the state fingerprinted `parent` via `action`.
    Child { parent: u64, action: A },
}

/// The visited table's value on every route that can be asked for a
/// parent: a [`Parent`] whose parent is stored as its table key. A stored
/// key is never 0 (the table folds fingerprint 0 onto key 1), so it is a
/// `NonZeroU64` and rustc keeps the variant in its niche: `Link<usize>` is
/// 16 bytes where `Parent<usize>` is 24 (the `search.rs` tests pin the
/// widths). Checkpoints and run pages stay `Parent`; the routes convert one
/// shard at a time, as they page.
///
/// [`Search::search`] needs it for the witness, [`Search::run_resumable`]
/// and [`Search::resume`] under a budget that can trip for the snapshot's
/// visited pages, and the spill routes for their run pages.
/// [`Search::explore`], and those two under [`PauseBudget::never`], can be
/// asked for none of these and store `()` instead ([`Backlink`]).
///
/// Restoring a `Parent` ([`Backlink::restored`]) applies the same fold, so
/// `Child { parent: 0 }` comes back as `parent: 1`: `table::key_of`'s fold,
/// the key any lookup of fingerprint 0 probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Link<A> {
    Root(usize),
    Child { parent: NonZeroU64, action: A },
}

/// What the visited table stores per key: the value type of the one level
/// loop. [`Link`] records how each state was reached, for witness replay,
/// snapshots and run pages; `()` records nothing, so a route that needs
/// none of them keeps keys only (a zero-sized value costs the table no
/// entry index either: `table.rs`, `FpMap`).
pub(crate) trait Backlink<A>: Sized {
    /// The value of `initial_states()[i]`.
    fn root(i: usize) -> Self;
    /// The value of a child of the state fingerprinted `parent`.
    fn child(parent: u64, action: A) -> Self;
    /// The parent this value records, for witness replay: `None` when it
    /// records none.
    fn parent(&self) -> Option<Parent<A>>;
    /// The value a checkpoint's `Parent` restores to: the same link, or,
    /// for a key-only table, nothing (the `Parent` is dropped).
    fn restored(p: Parent<A>) -> Self {
        match p {
            Parent::Root(i) => Self::root(i),
            Parent::Child { parent, action } => Self::child(parent, action),
        }
    }
}

impl<A: Clone> Backlink<A> for Link<A> {
    #[inline]
    fn root(i: usize) -> Self {
        Link::Root(i)
    }

    #[inline]
    fn child(parent: u64, action: A) -> Self {
        let parent = NonZeroU64::new(parent).unwrap_or(NonZeroU64::MIN);
        Link::Child { parent, action }
    }

    fn parent(&self) -> Option<Parent<A>> {
        Some(self.clone().into())
    }
}

impl<A> Backlink<A> for () {
    #[inline]
    fn root(_: usize) -> Self {}

    #[inline]
    fn child(_: u64, _: A) -> Self {}

    fn parent(&self) -> Option<Parent<A>> {
        None
    }
}

impl<A> From<Link<A>> for Parent<A> {
    fn from(l: Link<A>) -> Self {
        match l {
            Link::Root(i) => Parent::Root(i),
            Link::Child { parent, action } => Parent::Child { parent: parent.get(), action },
        }
    }
}

/// Pause thresholds for [`Search::run_resumable`] / [`Search::resume`]: the
/// run suspends at the first **completed level** where either bound is met
/// (levels are the engine's atomic unit: the checkpoint carries whole
/// frontier partitions, never a cursor into one). `usize::MAX` disables a
/// bound; [`PauseBudget::never`] never pauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseBudget {
    /// Pause once at least this many states are visited.
    pub states: usize,
    /// Pause once this many levels are completed.
    pub levels: usize,
}

impl PauseBudget {
    /// Pause at the first level boundary with `n` or more visited states.
    pub fn states(n: usize) -> Self {
        PauseBudget {
            states: n,
            levels: usize::MAX,
        }
    }

    /// Pause after `n` completed levels.
    pub fn levels(n: usize) -> Self {
        PauseBudget {
            states: usize::MAX,
            levels: n,
        }
    }

    /// Run to completion (no pause).
    pub fn never() -> Self {
        PauseBudget {
            states: usize::MAX,
            levels: usize::MAX,
        }
    }

    /// Can this budget ever suspend a run? Only [`PauseBudget::never`]
    /// cannot, and a run under it can be asked for no snapshot page, so
    /// it keeps keys only.
    fn can_trip(&self) -> bool {
        *self != PauseBudget::never()
    }
}

/// Outcome of a resumable run: either the finished report or a suspended
/// checkpoint that [`Search::resume`] (in this or a fresh process, via
/// `impossible-ckpt`'s snapshot format) continues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resumable<S, A> {
    /// The run finished within the pause budget.
    Done(SearchReport<S, A>),
    /// The run suspended at a level boundary.
    Paused(SearchCheckpoint<S, A>),
}

impl<S, A> Resumable<S, A> {
    /// The finished report, if the run completed.
    pub fn done(self) -> Option<SearchReport<S, A>> {
        match self {
            Resumable::Done(r) => Some(r),
            Resumable::Paused(_) => None,
        }
    }

    /// The suspended checkpoint, if the run paused.
    pub fn paused(self) -> Option<SearchCheckpoint<S, A>> {
        match self {
            Resumable::Done(_) => None,
            Resumable::Paused(c) => Some(c),
        }
    }
}

/// A BFS run suspended at a level boundary: everything the level loop
/// carries between levels, in canonical order.
///
/// * `visited[k]` is visited-set shard `k` in ascending stored-key order
///   (the canonical order [`crate::table::FpMap::iter_ordered`] defines) —
///   parent links included, so witness replay survives the round trip;
/// * `frontier[k]` is frontier partition `k` in the exact in-partition
///   order the expansion left it (traversal order);
/// * the counter fields are the [`SearchStats`] counters minus `workers`
///   (a resumed run reports the *resuming* builder's requested count,
///   exactly as an uninterrupted run would) and minus the steal counters
///   (0 on every run).
///
/// Two runs of the same `(system, bounds, seed, canon, partitions)` paused
/// at the same budget produce `==` checkpoints — pinned by
/// `tests/determinism.rs` and serialized byte-identically by
/// `impossible-ckpt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchCheckpoint<S, A> {
    /// Fingerprint seed of the suspended run.
    pub seed: u64,
    /// Partition/shard count of the suspended run.
    pub partitions: usize,
    /// Completed levels (the next level to expand).
    pub depth: usize,
    /// Transitions traversed so far.
    pub transitions: usize,
    /// The first bound that tripped, if any.
    pub truncated_by: Option<Truncation>,
    /// Visited-set pages: per shard, `(stored key, parent)` ascending by key.
    pub visited: Vec<Vec<(u64, Parent<A>)>>,
    /// Frontier partitions, in-partition order preserved.
    pub frontier: Vec<Vec<(u64, S)>>,
    /// Terminal states found so far, in merge order.
    pub terminal: Vec<S>,
    /// [`SearchStats::levels`] so far.
    pub levels: usize,
    /// [`SearchStats::expansions`] so far.
    pub expansions: usize,
    /// [`SearchStats::dedup_hits`] so far.
    pub dedup_hits: usize,
    /// [`SearchStats::canon_hits`] so far.
    pub canon_hits: usize,
    /// [`SearchStats::peak_frontier`] so far.
    pub peak_frontier: usize,
    /// [`SearchStats::cap_fallbacks`] so far.
    pub cap_fallbacks: usize,
    /// [`SearchStats::peak_bytes`] so far.
    pub peak_bytes: usize,
}

impl<S, A> SearchCheckpoint<S, A> {
    /// Distinct states visited at suspension.
    pub fn num_states(&self) -> usize {
        self.visited.iter().map(Vec::len).sum()
    }

    /// Frontier size at suspension.
    pub fn frontier_len(&self) -> usize {
        self.frontier.iter().map(Vec::len).sum()
    }
}

/// Where [`Search::commit_children`] puts one BFS level's children: the
/// visited set it probes under `cap` (values `V`, a [`Backlink`]), the
/// truncation flag a full table sets (traced once, naming `depth`), and
/// the next frontier's partitions the inserted children join. A level body
/// builds one before its partition loop and commits every partition
/// through it.
pub(crate) struct LevelCommit<'l, S, V> {
    pub(crate) visited: &'l mut ShardedFpMap<V>,
    pub(crate) cap: Cap,
    pub(crate) truncated_by: &'l mut Option<Truncation>,
    pub(crate) depth: usize,
    pub(crate) next_parts: &'l mut [Vec<(u64, S)>],
    pub(crate) tracer: &'l mut dyn Tracer,
}

/// Builder/engine for fingerprint-deduped state-space search.
///
/// ```
/// use impossible_explore::{Grid, Search};
///
/// // 3×3 grid; shortest path to the far corner has 4 steps.
/// let sys = Grid { n: 2, max: 2 };
/// let report = Search::new(&sys).search(|s| s.iter().all(|&c| c == 2));
/// assert_eq!(report.witness.unwrap().len(), 4);
/// assert_eq!(report.stats.strategy, "bfs");
/// ```
pub struct Search<'a, Sys: System> {
    sys: &'a Sys,
    max_states: usize,
    max_depth: usize,
    workers: usize,
    seed: u64,
    canon: Option<Canon<Sys::State>>,
    pub(crate) tracer: RefCell<Option<&'a mut dyn Tracer>>,
}

impl<'a, Sys: System> Search<'a, Sys> {
    /// A search with the legacy default bounds (1M states, depth 10k), one
    /// worker, and no canonicalization.
    pub fn new(sys: &'a Sys) -> Self {
        Search {
            sys,
            max_states: 1_000_000,
            max_depth: 10_000,
            workers: 1,
            seed: DEFAULT_SEED,
            canon: None,
            tracer: RefCell::new(None),
        }
    }

    /// Cap the number of distinct states visited.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Cap the BFS depth.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Record `w` (clamped to ≥ 1) as `stats.workers`, and nothing else:
    /// no search route threads, so the report is the same for every `w`.
    /// Kept only because the ledger's `grid` workloads call it; ROADMAP
    /// item 1 retires it.
    pub fn workers(mut self, w: usize) -> Self {
        self.workers = w.max(1);
        self
    }

    /// Re-key the fingerprint function, and the exact graph builder's
    /// index key with it. The fingerprint is observable (shard order,
    /// snapshots, run files, `found` events); the index key is not, so a
    /// graph is the same under every seed (`docs/EXPLORE.md`, "Fingerprint
    /// dedup and the collision policy").
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Install a symmetry canonicalization hook that rewrites the state it
    /// is given and returns `true` exactly when it changed it (see
    /// [`crate::canon`] for the idempotence/equivariance contract and what
    /// the flag means). Applied to initial states and to every successor
    /// before fingerprinting, with no allocation of its own.
    pub fn canon_in_place(mut self, c: fn(&mut Sys::State) -> bool) -> Self {
        self.canon = Some(Canon::InPlace(c));
        self
    }

    /// [`Search::canon_in_place`] for a hook that returns the
    /// representative as a new state: one allocation and one comparison
    /// more per call ([`Canon::Owned`]). Kept only because the ledger's
    /// `ring` workload and its `expected` counts call it with the owned
    /// `rotation_canon`; ROADMAP item 1 retires it.
    pub fn canon(mut self, c: fn(&Sys::State) -> Sys::State) -> Self {
        self.canon = Some(Canon::Owned(c));
        self
    }

    /// Record every later run's trace events into `tracer` (scope
    /// `"search"`, `"valence"` or `"property"` by entry point; see
    /// `docs/OBS.md`). Unset, a run records nothing, through `NoopTracer`.
    pub fn tracer(mut self, tracer: &'a mut dyn Tracer) -> Self {
        self.tracer = Some(tracer).into();
        self
    }

    pub(crate) fn canon_hook(&self) -> Option<Canon<Sys::State>> {
        self.canon
    }

    pub(crate) fn sys(&self) -> &'a Sys {
        self.sys
    }

    pub(crate) fn bounds(&self) -> (usize, usize) {
        (self.max_states, self.max_depth)
    }

    pub(crate) fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Shallow byte width of one frontier record: the 8-byte fingerprint
    /// plus the state's stack footprint. Deliberately ignores heap payloads
    /// (a `Vec<u8>` state counts as its 24-byte header) — the accounting
    /// must be a pure function of the type and the record count, never of
    /// allocator behaviour, to keep `peak_bytes` deterministic.
    pub(crate) fn frontier_item_bytes() -> usize {
        8 + std::mem::size_of::<Sys::State>()
    }

    /// Canonicalize `s` in place (if a hook is installed), counting the
    /// calls that moved it: the one dispatch of every search route — the
    /// roots, [`Search::stage_successors`] and the witness replay.
    pub(crate) fn canonize(&self, s: &mut Sys::State, hits: &mut usize) {
        if let Some(c) = self.canon {
            *hits += usize::from(c.apply(s));
        }
    }

    /// The one successor-generation step every route shares — both BFS
    /// level bodies and the graph builder: `enabled →
    /// step_into(spare) | step → canon`, each child whose action passes
    /// `keep` handed to `stage` in action order. Returns whether `s` had any
    /// enabled action at all (the terminal test, which `keep` does not
    /// affect).
    ///
    /// `spares` is a pool of dead states whose storage the next child may
    /// take over: a popped spare is overwritten through
    /// [`System::step_into`], an empty pool falls back to [`System::step`],
    /// and the two are `==` by that method's contract, so the pool's
    /// contents never reach an output. The canon hook then rewrites the
    /// child where it lies ([`Search::canonize`]), so on every route each
    /// child consumes one spare. The caller feeds the pool the children its
    /// visited structure rejects — three of four on the ledger's spaces —
    /// instead of dropping them, never past the length of the batch it
    /// staged, so a source that takes no spares (`ckpt::incr`'s, in the
    /// graph builder) cannot grow it past one batch. `acts` is the caller's
    /// action list, refilled through [`System::enabled_into`] and drained
    /// here: its contents never outlive the call, only its allocation does. `inline(always)`: every
    /// caller is a hot loop that wants this body, with its closures, folded
    /// into its own.
    #[inline(always)]
    pub(crate) fn stage_successors(
        &self,
        s: &Sys::State,
        keep: impl Fn(&Sys::Action) -> bool,
        canon_hits: &mut usize,
        spares: &mut Vec<Sys::State>,
        acts: &mut Vec<Sys::Action>,
        mut stage: impl FnMut(Sys::State, Sys::Action),
    ) -> bool {
        self.sys.enabled_into(s, acts);
        let live = !acts.is_empty();
        for a in acts.drain(..) {
            if keep(&a) {
                let mut t = match spares.pop() {
                    Some(mut t) => {
                        self.sys.step_into(s, &a, &mut t);
                        t
                    }
                    None => self.sys.step(s, &a),
                };
                self.canonize(&mut t, canon_hits);
                stage(t, a);
            }
        }
        live
    }
}

/// Run `f` on the tracer a builder's `tracer` setter put in `slot`, else on
/// `fallback` ([`Search`], [`crate::Checker`]): one borrow per entry-point
/// call, never per state.
pub(crate) fn with_tracer<R>(
    slot: &RefCell<Option<&mut dyn Tracer>>,
    fallback: &mut dyn Tracer,
    f: impl FnOnce(&mut dyn Tracer) -> R,
) -> R {
    match slot.borrow_mut().as_deref_mut() {
        Some(tracer) => f(tracer),
        None => f(fallback),
    }
}

/// In-flight BFS state: everything the level loop carries between levels.
/// One struct so the straight (`run_on`), resumable (`run_resumable`),
/// resumed (`resume`) and external-memory (`crate::extmem`) entry points
/// share the *same* setup, loop and finish — any budget/truncation fix
/// lands on all of them at once. `V` is the visited table's value: `()`
/// where no parent can be asked for ([`Search::explore`], and the two
/// resumable routes under [`PauseBudget::never`]), [`Link`] everywhere
/// else.
pub(crate) struct BfsRun<Sys: System, V = Link<<Sys as System>::Action>> {
    pub(crate) stats: SearchStats,
    pub(crate) visited: ShardedFpMap<V>,
    pub(crate) terminal: Vec<Sys::State>,
    transitions: usize,
    pub(crate) truncated_by: Option<Truncation>,
    pub(crate) found: Option<u64>,
    /// Frontier, pre-partitioned: `parts[k]` holds the states whose
    /// fingerprints shard to `k`.
    pub(crate) parts: Vec<Vec<(u64, Sys::State)>>,
    /// Completed levels (the next level to expand).
    pub(crate) depth: usize,
    /// Batched fingerprint pipeline shared by the control path and both
    /// level bodies (rebuilt fresh on restore — it is a buffer, never
    /// state).
    pub(crate) batch: BatchScratch,
}

impl<Sys: System, V> BfsRun<Sys, V> {
    /// Sample `peak_bytes` at a boundary where `resident_frontier` frontier
    /// records are held: the visited table priced as the link-carrying
    /// table a pausable run keeps
    /// ([`ShardedFpMap::approx_bytes_as`]`::<Link<A>>`, whatever `V` is) plus
    /// those records at their shallow width. The one statement of the
    /// formula, so `explore()` reports the bytes `run_resumable` does, an
    /// upper bound on its own key-only table.
    pub(crate) fn sample_peak_bytes(&mut self, resident_frontier: usize) {
        let table = self.visited.approx_bytes_as::<Link<Sys::Action>>();
        let bytes = table + resident_frontier * Search::<Sys>::frontier_item_bytes();
        self.stats.peak_bytes = self.stats.peak_bytes.max(bytes);
    }
}

/// Where visited keys and frontier records live, and how a level over
/// them is expanded. [`Search::bfs_levels`] is the only level loop; it asks
/// the backend exactly the questions the resident and spilled routes answer
/// differently, and nothing else. [`Resident`] keeps everything in
/// `BfsRun` and expands on the calling thread: the bookkeeping defaults
/// below are its answers, so the level body is all it implements.
/// `crate::extmem`'s `Spill` pages cold shards and frontier partitions to
/// run files and expands a whole level before committing it (it needs
/// `Persist` to do so, which is why this is a trait and not an optional
/// field). `V` is the table's value: `Resident` serves any [`Backlink`],
/// `Spill` only [`Link`], whose parents its run pages carry.
pub(crate) trait VisitedBackend<Sys: System, V = Link<<Sys as System>::Action>> {
    /// Visited keys held outside the resident table. They are disjoint
    /// from it, so `num_states` and the cap stay exact without touching
    /// disk.
    fn spilled(&self) -> usize {
        0
    }

    /// `(records in the current frontier, records of it resident at once)`.
    fn frontier_lens(&self, parts: &[Vec<(u64, Sys::State)>]) -> (usize, usize) {
        let len = parts.iter().map(Vec::len).sum();
        (len, len)
    }

    /// Frontier partition `k`, in its exact traversal order.
    fn partition<'p>(
        &self,
        parts: &'p [Vec<(u64, Sys::State)>],
        k: usize,
    ) -> Cow<'p, [(u64, Sys::State)]> {
        Cow::Borrowed(&parts[k])
    }

    /// One BFS level: expand the run's frontier in the reference order
    /// (partition order, in-partition frontier order, in-state action
    /// order), dedup + insert with the state cap applied per child in that
    /// order, fill `next_parts` and return the level's child count (its
    /// transition delta).
    fn expand_level(
        &self,
        search: &Search<'_, Sys>,
        run: &mut BfsRun<Sys, V>,
        next_parts: &mut [Vec<(u64, Sys::State)>],
        tracer: &mut dyn Tracer,
    ) -> usize;

    /// Level boundary, everything synchronized: install `next` as the
    /// run's frontier. The spill hooks live here.
    fn end_level(&mut self, run: &mut BfsRun<Sys, V>, next: Vec<Vec<(u64, Sys::State)>>) {
        run.parts = next;
    }

    /// Parent link of a key held outside the resident table, for witness
    /// replay.
    fn spilled_parent(&self, _fp: u64) -> Option<Parent<Sys::Action>> {
        None
    }
}

/// The all-in-RAM backend of [`Search::explore`] and friends, for a table
/// of any [`Backlink`].
pub(crate) struct Resident;

impl<Sys: System, V: Backlink<Sys::Action>> VisitedBackend<Sys, V> for Resident
where
    Sys::State: Encode,
{
    fn expand_level(
        &self,
        search: &Search<'_, Sys>,
        run: &mut BfsRun<Sys, V>,
        next_parts: &mut [Vec<(u64, Sys::State)>],
        tracer: &mut dyn Tracer,
    ) -> usize {
        search.expand_level_fused(run, next_parts, tracer)
    }
}

impl<'a, Sys: System> Search<'a, Sys>
where
    Sys::State: Encode,
{
    /// Explore the full reachable space (within bounds), no predicate. No
    /// witness, snapshot or run page can be asked of it, so its visited
    /// table keeps keys only; the report is the one
    /// `run_resumable(PauseBudget::never())` gives, `peak_bytes` included.
    pub fn explore(&self) -> SearchReport<Sys::State, Sys::Action> {
        self.explore_traced(&mut NoopTracer)
    }

    /// [`Search::explore`], recording trace events (scope `"search"`) into
    /// the tracer [`Search::tracer`] set, else into `tracer`. The trace is
    /// a pure function of `(system, bounds, seed, canon, partitions)`
    /// (`tests/trace_determinism.rs` pins this).
    pub fn explore_traced(
        &self,
        tracer: &mut dyn Tracer,
    ) -> SearchReport<Sys::State, Sys::Action> {
        with_tracer(&self.tracer, tracer, |t| {
            self.run_on::<(), _, _>(Resident, None::<fn(&Sys::State) -> bool>, t)
        })
    }

    /// BFS until `pred` matches; `witness` is a shortest execution from an
    /// initial state to a matching state. Traced (scope `"search"`) like
    /// [`Search::explore`].
    pub fn search<F>(&self, pred: F) -> SearchReport<Sys::State, Sys::Action>
    where
        F: Fn(&Sys::State) -> bool,
    {
        with_tracer(&self.tracer, &mut NoopTracer, |t| {
            self.run_on::<Link<Sys::Action>, _, _>(Resident, Some(pred), t)
        })
    }

    /// Run the full reachable exploration, pausing at `budget` if it trips
    /// first. The suspended checkpoint continues — in this process via
    /// [`Search::resume`], or in a fresh one via `impossible-ckpt`'s
    /// snapshot format — and the eventual [`SearchReport`] is byte-identical
    /// to an uninterrupted [`Search::explore`] (the level loop is literally
    /// the same code; `tests/determinism.rs` pins the equality). Exploration only
    /// (no predicate: a paused run has no `found` state by construction).
    /// Traced (scope `"search"`) like [`Search::explore`]; a pause emits
    /// one final `pause` event.
    ///
    /// A budget that can trip keeps a parent link per visited state, for
    /// the snapshot's visited pages. Under [`PauseBudget::never`] nothing
    /// can ask for one, so the run is [`Search::explore`], keys only.
    pub fn run_resumable(
        &self,
        budget: PauseBudget,
    ) -> Resumable<Sys::State, Sys::Action> {
        with_tracer(&self.tracer, &mut NoopTracer, |tracer| {
            if !budget.can_trip() {
                let pred = None::<fn(&Sys::State) -> bool>;
                return Resumable::Done(self.run_on::<(), _, _>(Resident, pred, tracer));
            }
            let pred = None::<&fn(&Sys::State) -> bool>;
            let run = self.bfs_init::<Link<Sys::Action>, _>(pred, tracer);
            self.run_to_budget(run, &budget, tracer)
        })
    }

    /// Continue a paused run until done or `budget` trips again.
    /// The builder must carry the same `(system, bounds, seed, canon,
    /// partitions)` the checkpoint was taken under; seed/partition drift is
    /// detected here, model drift by `impossible-ckpt`'s fingerprint check.
    /// Traced (scope `"search"`): a fresh `start` event, one `resume` event
    /// with the restored position, then the usual level events.
    ///
    /// As in [`Search::run_resumable`], a budget that can trip restores the
    /// checkpoint's parents as links, to page them out again at the next
    /// pause; under [`PauseBudget::never`] each page's parents are dropped
    /// as it is placed, and the run finishes on a key-only table.
    pub fn resume(
        &self,
        ckpt: SearchCheckpoint<Sys::State, Sys::Action>,
        budget: PauseBudget,
    ) -> Resumable<Sys::State, Sys::Action> {
        with_tracer(&self.tracer, &mut NoopTracer, |tracer| {
            if !budget.can_trip() {
                let run = self.restore::<()>(ckpt, tracer);
                let pred = None::<&fn(&Sys::State) -> bool>;
                return Resumable::Done(self.run_to_end(run, Resident, pred, tracer));
            }
            let run = self.restore::<Link<Sys::Action>>(ckpt, tracer);
            self.run_to_budget(run, &budget, tracer)
        })
    }

    /// Drive a resident, predicate-free, link-keeping run until it
    /// finishes or `budget` trips — the shared tail of
    /// [`Search::run_resumable`] and [`Search::resume`] under a budget that
    /// can trip.
    fn run_to_budget(
        &self,
        mut run: BfsRun<Sys>,
        budget: &PauseBudget,
        tracer: &mut dyn Tracer,
    ) -> Resumable<Sys::State, Sys::Action> {
        let pred = None::<&fn(&Sys::State) -> bool>;
        if self.bfs_levels(&mut run, &mut Resident, pred, budget, tracer) {
            Resumable::Paused(self.suspend(run))
        } else {
            Resumable::Done(self.bfs_finish(run, &Resident, tracer))
        }
    }

    /// The BFS engine, whole: init, the level loop over `backend`, finish.
    /// The resident and the external-memory entry points differ in the
    /// backend they pass and in the table's value `V`, and in nothing else.
    /// No trace event carries the requested worker count.
    pub(crate) fn run_on<V, F, B>(
        &self,
        backend: B,
        pred: Option<F>,
        tracer: &mut dyn Tracer,
    ) -> SearchReport<Sys::State, Sys::Action>
    where
        V: Backlink<Sys::Action>,
        F: Fn(&Sys::State) -> bool,
        B: VisitedBackend<Sys, V>,
    {
        let pred = pred.as_ref();
        let run = self.bfs_init(pred, tracer);
        self.run_to_end(run, backend, pred, tracer)
    }

    /// The level loop with no pause budget, then finish: the tail of a
    /// fresh run ([`Search::run_on`]) and of a resumed one that can never
    /// pause again.
    fn run_to_end<V, F, B>(
        &self,
        mut run: BfsRun<Sys, V>,
        mut backend: B,
        pred: Option<&F>,
        tracer: &mut dyn Tracer,
    ) -> SearchReport<Sys::State, Sys::Action>
    where
        V: Backlink<Sys::Action>,
        F: Fn(&Sys::State) -> bool,
        B: VisitedBackend<Sys, V>,
    {
        let paused = self.bfs_levels(&mut run, &mut backend, pred, &PauseBudget::never(), tracer);
        debug_assert!(!paused, "PauseBudget::never cannot pause");
        self.bfs_finish(run, &backend, tracer)
    }

    /// The `start` event a run opens with, fresh ([`Search::bfs_init`]) or
    /// resumed ([`Search::restore`]).
    fn trace_start(&self, tracer: &mut dyn Tracer) {
        trace_event!(tracer, "search", "start",
            "strategy": "bfs",
            "partitions": DEFAULT_PARTITIONS,
            "seed": self.seed,
            "max_states": self.max_states,
            "max_depth": self.max_depth,
            "canon": self.canon.is_some(),
        );
    }

    /// BFS init: seed the visited set and the partitioned root frontier.
    fn bfs_init<V, F>(&self, pred: Option<&F>, tracer: &mut dyn Tracer) -> BfsRun<Sys, V>
    where
        V: Backlink<Sys::Action>,
        F: Fn(&Sys::State) -> bool,
    {
        let mut stats = SearchStats::new(self.workers, DEFAULT_PARTITIONS, self.seed);
        let mut visited: ShardedFpMap<V> = ShardedFpMap::new(DEFAULT_PARTITIONS);
        let mut truncated_by: Option<Truncation> = None;
        let mut found: Option<u64> = None;
        // Batched fingerprint pipeline for this control path and both
        // level bodies.
        let mut batch = BatchScratch::new(self.seed);
        let mut roots: Vec<(u64, Sys::State)> = Vec::new();

        self.trace_start(tracer);

        for (i, s0) in self.sys.initial_states().into_iter().enumerate() {
            if visited.len() >= self.max_states {
                if truncated_by.is_none() {
                    trace_event!(tracer, "search", "truncate", "cause": "states", "level": 0usize);
                }
                truncated_by.get_or_insert(Truncation::States);
                break;
            }
            let mut sc = s0;
            self.canonize(&mut sc, &mut stats.canon_hits);
            let fp = batch.fingerprint_one(&sc);
            // The explicit length check above is the cap here, so the
            // insert itself is unbounded.
            if visited.try_insert_with(fp, Cap::Unbounded, || V::root(i)) == TryInsert::Present {
                stats.dedup_hits += 1;
                continue;
            }
            if found.is_none() && pred.is_some_and(|p| p(&sc)) {
                found = Some(fp);
            }
            roots.push((fp, sc));
        }

        // The initial frontier is a real frontier: record it before the
        // level loop so `peak_frontier` is never 0 on runs where the loop
        // body is skipped (predicate matched an initial state, or the space
        // has no initial states to expand).
        stats.peak_frontier = stats.peak_frontier.max(roots.len());
        trace_event!(tracer, "search", "init",
            "frontier": roots.len(),
            "states": visited.len(),
            "dedup": stats.dedup_hits,
        );
        if let Some(fp) = found {
            trace_event!(tracer, "search", "found", "depth": 0usize, "fp": fp);
        }

        // The frontier lives pre-partitioned: `parts[k]` holds the states
        // whose fingerprints shard to `k`. After the first level this comes
        // for free — partition `k`'s next frontier *is* visited shard `k`'s
        // newly-inserted list — so only the roots are partitioned here.
        let mut parts: Vec<Vec<(u64, Sys::State)>> =
            (0..DEFAULT_PARTITIONS).map(|_| Vec::new()).collect();
        let roots_len = roots.len();
        for item in roots {
            let k = shard_index(item.0, DEFAULT_PARTITIONS);
            parts[k].push(item);
        }

        let mut run = BfsRun {
            stats,
            visited,
            terminal: Vec::new(),
            transitions: 0,
            truncated_by,
            found,
            parts,
            depth: 0,
            batch,
        };
        run.sample_peak_bytes(roots_len);
        run
    }

    /// The level loop — the only one: the straight, resumable, resumed and
    /// external-memory entry points all drive it, over a [`Resident`] or a
    /// spilling backend. Returns `true` when the pause budget tripped at a
    /// level boundary (never mid-level) with the run still having work to
    /// do — the caller suspends; `false` means the run finished (witness
    /// found, frontier exhausted, or depth cutoff), which
    /// `PauseBudget::never` guarantees.
    fn bfs_levels<V, F, B>(
        &self,
        run: &mut BfsRun<Sys, V>,
        backend: &mut B,
        pred: Option<&F>,
        pause: &PauseBudget,
        tracer: &mut dyn Tracer,
    ) -> bool
    where
        V: Backlink<Sys::Action>,
        F: Fn(&Sys::State) -> bool,
        B: VisitedBackend<Sys, V>,
    {
        loop {
            let (frontier_len, resident_frontier) = backend.frontier_lens(&run.parts);
            if run.found.is_some() || frontier_len == 0 {
                return false;
            }
            let visited_before = run.visited.len() + backend.spilled();
            // Pause check first: a resumed run re-enters here with the
            // pre-pause frontier, so every per-level update below (peak
            // sampling included) still happens exactly once per level.
            if visited_before >= pause.states || run.depth >= pause.levels {
                trace_event!(tracer, "search", "pause",
                    "level": run.depth,
                    "states": visited_before,
                    "frontier": frontier_len,
                );
                return true;
            }
            run.stats.peak_frontier = run.stats.peak_frontier.max(frontier_len);
            // Byte accounting, sampled at the same boundary: the visited
            // table priced as the link-carrying one plus the frontier
            // records actually resident, at their shallow width. Both are
            // pure functions of the entry sets, and it is one formula for
            // every backend and table value, so a spilled run's lower
            // number is comparable evidence.
            run.sample_peak_bytes(resident_frontier);
            // Every frontier state is expanded below, by the cutoff scan or
            // by the backend's level body.
            run.stats.expansions += frontier_len;
            if run.depth >= self.max_depth {
                // Cutoff level: record terminals, flag unexpanded work.
                // (Shard-major traversal — the only loop left that sees a
                // whole frontier, one partition at a time.)
                trace_event!(tracer, "search", "cutoff",
                    "level": run.depth,
                    "frontier": frontier_len,
                );
                for k in 0..DEFAULT_PARTITIONS {
                    for (_, s) in backend.partition(&run.parts, k).iter() {
                        if self.sys.enabled(s).is_empty() {
                            run.terminal.push(s.clone());
                        } else {
                            if run.truncated_by.is_none() {
                                trace_event!(tracer, "search", "truncate",
                                    "cause": "depth",
                                    "level": run.depth,
                                );
                            }
                            run.truncated_by.get_or_insert(Truncation::Depth);
                        }
                    }
                }
                return false;
            }
            trace_event!(tracer, "search", "level.enter",
                "level": run.depth,
                "frontier": frontier_len,
            );

            run.stats.levels += 1;
            let mut next_parts: Vec<Vec<(u64, Sys::State)>> =
                (0..DEFAULT_PARTITIONS).map(|_| Vec::new()).collect();

            // The level body is the backend's, and lives in its own
            // function (not inlined here): the expand loops are the hottest
            // code in the crate, and giving them their own functions keeps
            // the optimizer's inlining budget focused on
            // `fingerprints`/`try_insert_with` instead of exhausting it on
            // the orchestration around them.
            let level_children = backend.expand_level(self, run, &mut next_parts, tracer);
            run.transitions += level_children;
            // A pure function of the state space and bounds, never of
            // which backend's body ran.
            if visited_before + level_children > self.max_states {
                run.stats.cap_fallbacks += 1;
            }

            // Predicate scan over the level's newly-inserted states, in
            // shard-major order. Running it here (not inside the insert
            // paths) is what makes `found` identical on both backends; the
            // cost is that a matching level is always completed before the
            // search stops.
            if let Some(p) = pred {
                'scan: for bucket in &next_parts {
                    for (fp, s) in bucket {
                        if p(s) {
                            run.found = Some(*fp);
                            trace_event!(tracer, "search", "found",
                                "depth": run.depth + 1,
                                "fp": *fp,
                            );
                            break 'scan;
                        }
                    }
                }
            }

            let next_len: usize = next_parts.iter().map(Vec::len).sum();
            backend.end_level(run, next_parts);
            trace_event!(tracer, "search", "level.exit",
                "level": run.depth,
                "next": next_len,
                "states": run.visited.len() + backend.spilled(),
                "transitions": run.transitions,
                "dedup": run.stats.dedup_hits,
                "canon": run.stats.canon_hits,
                "terminals": run.terminal.len(),
            );
            run.depth += 1;
        }
    }

    /// Finish a run: the `end` event, witness replay (parent links the
    /// backend holds outside the resident table included), and the report.
    /// Only a predicate run has a `found` state to replay, and those keep
    /// [`Link`]s: a key-only table records no parent to walk.
    fn bfs_finish<V, B>(
        &self,
        run: BfsRun<Sys, V>,
        backend: &B,
        tracer: &mut dyn Tracer,
    ) -> SearchReport<Sys::State, Sys::Action>
    where
        V: Backlink<Sys::Action>,
        B: VisitedBackend<Sys, V>,
    {
        let num_states = run.visited.len() + backend.spilled();
        trace_event!(tracer, "search", "end",
            "states": num_states,
            "transitions": run.transitions,
            "levels": run.stats.levels,
            "expansions": run.stats.expansions,
            "peak_frontier": run.stats.peak_frontier,
            "truncated": truncation_name(&run.truncated_by),
            "witness": run.found.is_some(),
        );

        let witness = run.found.map(|target| {
            let resident = |fp| run.visited.get(fp).and_then(V::parent);
            let lookup = |fp| resident(fp).or_else(|| backend.spilled_parent(fp));
            self.replay_witness_with(target, lookup)
        });

        SearchReport {
            num_states,
            num_transitions: run.transitions,
            terminal_states: run.terminal,
            truncated_by: run.truncated_by,
            witness,
            stats: run.stats,
        }
    }

    /// Package a paused run as a checkpoint, in canonical order: visited
    /// shards are moved out by [`crate::table::FpMap::take_ordered_as`]
    /// (ascending key — the run is over, so nothing is cloned), each link
    /// turned into its [`Parent`] in that same pass, and frontier
    /// partitions keep their in-partition traversal order.
    fn suspend(&self, mut run: BfsRun<Sys>) -> SearchCheckpoint<Sys::State, Sys::Action> {
        debug_assert!(run.found.is_none(), "paused runs carry no witness");
        let visited = run
            .visited
            .shards_mut()
            .iter_mut()
            .map(|shard| shard.take_ordered_as(Parent::from))
            .collect();
        SearchCheckpoint {
            seed: self.seed,
            partitions: DEFAULT_PARTITIONS,
            depth: run.depth,
            transitions: run.transitions,
            truncated_by: run.truncated_by,
            visited,
            frontier: run.parts,
            terminal: run.terminal,
            levels: run.stats.levels,
            expansions: run.stats.expansions,
            dedup_hits: run.stats.dedup_hits,
            canon_hits: run.stats.canon_hits,
            peak_frontier: run.stats.peak_frontier,
            cap_fallbacks: run.stats.cap_fallbacks,
            peak_bytes: run.stats.peak_bytes,
        }
    }

    /// Rebuild in-flight state from a checkpoint, emitting the `start` and
    /// `resume` events: shard `k` is
    /// [`crate::table::FpMap::from_ascending`] of page `k`, each
    /// [`Parent`] turned into the table's value `V` as it is placed
    /// ([`Backlink::restored`]: its [`Link`], or nothing for a key-only
    /// table), and each page freed once placed — the table inserting its
    /// keys one by one would have grown, so `peak_bytes` continues as if
    /// the run had never paused. `workers` in the restored stats is the
    /// *resuming* builder's count, matching what an uninterrupted run under
    /// that builder would record.
    ///
    /// A checkpoint from this process meets the asserts below by
    /// construction; one decoded from a file was checked against them (and
    /// for keys in the wrong page) by `impossible-ckpt`'s
    /// `Snapshot::from_bytes`.
    fn restore<V: Backlink<Sys::Action>>(
        &self,
        ckpt: SearchCheckpoint<Sys::State, Sys::Action>,
        tracer: &mut dyn Tracer,
    ) -> BfsRun<Sys, V> {
        self.trace_start(tracer);
        assert_eq!(ckpt.seed, self.seed, "checkpoint seed mismatch");
        assert_eq!(
            ckpt.partitions, DEFAULT_PARTITIONS,
            "checkpoint partition-count mismatch"
        );
        assert_eq!(
            ckpt.visited.len(),
            DEFAULT_PARTITIONS,
            "checkpoint shard-page count mismatch"
        );
        assert_eq!(
            ckpt.frontier.len(),
            DEFAULT_PARTITIONS,
            "checkpoint frontier-partition count mismatch"
        );
        let mut stats = SearchStats::new(self.workers, DEFAULT_PARTITIONS, self.seed);
        stats.levels = ckpt.levels;
        stats.expansions = ckpt.expansions;
        stats.dedup_hits = ckpt.dedup_hits;
        stats.canon_hits = ckpt.canon_hits;
        stats.peak_frontier = ckpt.peak_frontier;
        stats.cap_fallbacks = ckpt.cap_fallbacks;
        stats.peak_bytes = ckpt.peak_bytes;

        let mut visited: ShardedFpMap<V> = ShardedFpMap::new(DEFAULT_PARTITIONS);
        for (shard, page) in visited.shards_mut().iter_mut().zip(ckpt.visited) {
            *shard = FpMap::from_ascending(page.into_iter().map(|(k, p)| (k, V::restored(p))));
        }
        visited.refresh_len();

        let run = BfsRun {
            stats,
            visited,
            terminal: ckpt.terminal,
            transitions: ckpt.transitions,
            truncated_by: ckpt.truncated_by,
            found: None,
            parts: ckpt.frontier,
            depth: ckpt.depth,
            batch: BatchScratch::new(self.seed),
        };
        trace_event!(tracer, "search", "resume",
            "level": run.depth,
            "states": run.visited.len(),
            "frontier": run.parts.iter().map(Vec::len).sum::<usize>(),
            "transitions": run.transitions,
        );
        run
    }

    /// One BFS level, single-threaded, everything resident — [`Resident`]'s
    /// level body: fused expand + dedup + insert in one pass. This is the
    /// reference traversal — partition order, in-partition frontier order,
    /// in-state action order ("j-major"), cap checked inline per child —
    /// that `crate::extmem`'s level-wide body is extensionally equal to.
    /// Fills `next_parts` and returns the level's child count (its
    /// transition delta).
    ///
    /// Deliberately its own function (as is the spill body): the expand
    /// loop is the hottest code in the crate, and carving it out of
    /// `bfs_levels` gives it a private inlining budget — leaving it inline
    /// cost ~25% wall-clock because the surrounding function's size pushed
    /// `fingerprints`/`try_insert_with` out of line. The ledger workload
    /// that is nothing but this loop is `grid_w1` (`verdict_s`,
    /// `search.self_s`); re-measure there before restructuring.
    #[inline(never)]
    fn expand_level_fused<V: Backlink<Sys::Action>>(
        &self,
        run: &mut BfsRun<Sys, V>,
        next_parts: &mut [Vec<(u64, Sys::State)>],
        tracer: &mut dyn Tracer,
    ) -> usize {
        let BfsRun {
            stats,
            visited,
            terminal,
            truncated_by,
            parts,
            depth,
            batch,
            ..
        } = run;
        let cap = Cap::At(self.max_states);
        let mut level_children = 0usize;
        let mut dedup_hits = 0usize;
        let mut canon_hits = 0usize;
        // One partition's staged children, reused across the level's
        // partitions (phase C drains it).
        let mut children: Vec<Child<Sys::State, Sys::Action>> = Vec::new();
        // The children phase C rejects, kept for phase A of the next
        // partition to overwrite (`stage_successors`' spare pool): a
        // duplicate costs neither a `malloc` nor a `free`.
        let mut spares: Vec<Sys::State> = Vec::new();
        let mut acts: Vec<Sys::Action> = Vec::new();
        let mut level = LevelCommit {
            visited,
            cap,
            truncated_by,
            depth: *depth,
            next_parts,
            tracer,
        };
        for part in parts.iter() {
            canon_hits +=
                self.expand_partition(part, batch, &mut spares, &mut acts, &mut children, terminal);
            level_children += children.len();
            dedup_hits += Self::commit_children(&mut children, |_| false, &mut spares, &mut level);
        }
        stats.dedup_hits += dedup_hits;
        stats.canon_hits += canon_hits;
        level_children
    }

    /// Phases A and B of one frontier partition — the one expansion both
    /// level bodies share (the fused body above, the spill body), which
    /// commit what it hands back through [`Search::commit_children`].
    ///
    /// Phase A stages every child in the j-major reference order (frontier
    /// order, in-state action order) onto `children` through
    /// [`Search::stage_successors`], overwriting `spares` while the pool
    /// has any, and clones each state with no enabled action onto
    /// `terminals`. The two streams keep their own orders, so splitting
    /// phase A from the commit reorders nothing. Phase B fingerprints the
    /// staged batch in one tight loop through `batch` (bit-identical to the
    /// scalar path per the [`BatchScratch`] contract) into each record's
    /// first slot. Appends only — records already on `children` keep their
    /// fingerprints — and returns the canon hook's hits.
    #[inline(always)]
    pub(crate) fn expand_partition(
        &self,
        part: &[(u64, Sys::State)],
        batch: &mut BatchScratch,
        spares: &mut Vec<Sys::State>,
        acts: &mut Vec<Sys::Action>,
        children: &mut Vec<Child<Sys::State, Sys::Action>>,
        terminals: &mut Vec<Sys::State>,
    ) -> usize {
        let mut canon_hits = 0usize;
        let staged = children.len();
        for (pfp, s) in part {
            let stage = |tc, a| children.push((0, tc, a, *pfp));
            if !self.stage_successors(s, |_| true, &mut canon_hits, spares, acts, stage) {
                terminals.push(s.clone());
            }
        }
        let fresh = &mut children[staged..];
        let fps = batch.fingerprints(fresh.iter().map(|(_, tc, ..)| tc));
        for (child, &fp) in fresh.iter_mut().zip(fps) {
            child.0 = fp;
        }
        canon_hits
    }

    /// Phase C of both level bodies — the one commit step: drain
    /// `children` in j-major order and judge each against the level's
    /// visited set (`level.visited`). A child `on_disk` holds (a key the
    /// spill route paged out; `|_| false` when everything is resident) or
    /// `try_insert_with` finds `Present` is a dedup hit, and joins `spares`
    /// for the next expansion to overwrite — never past the batch's length,
    /// which holds the pool at one batch whatever the expansion takes from
    /// it (one spare per child, on every route). `Full` trips the state cap
    /// (`level.cap`); `Inserted` stores `V::child(parent, action)` and goes
    /// onto `level.next_parts[shard_index(fp)]`. A disk hit is `Present`
    /// before the cap is asked, as the table's own probe is. Returns the
    /// dedup hits.
    #[inline(always)]
    pub(crate) fn commit_children<V: Backlink<Sys::Action>>(
        children: &mut Vec<Child<Sys::State, Sys::Action>>,
        on_disk: impl Fn(u64) -> bool,
        spares: &mut Vec<Sys::State>,
        level: &mut LevelCommit<'_, Sys::State, V>,
    ) -> usize {
        let batch_len = children.len();
        let mut dedup_hits = 0usize;
        for (fp, tc, action, parent) in children.drain(..) {
            let link = || V::child(parent, action);
            let verdict = if on_disk(fp) {
                TryInsert::Present
            } else {
                level.visited.try_insert_with(fp, level.cap, link)
            };
            match verdict {
                TryInsert::Present => {
                    dedup_hits += 1;
                    if spares.len() < batch_len {
                        spares.push(tc);
                    }
                }
                TryInsert::Full => {
                    if level.truncated_by.is_none() {
                        trace_event!(level.tracer, "search", "truncate",
                            "cause": "states",
                            "level": level.depth,
                        );
                    }
                    level.truncated_by.get_or_insert(Truncation::States);
                }
                TryInsert::Inserted => {
                    level.next_parts[shard_index(fp, DEFAULT_PARTITIONS)].push((fp, tc));
                }
            }
        }
        dedup_hits
    }

    /// Walk the fingerprint parent map back to a root through `lookup`
    /// (resident table first, then whatever the backend spilled), then
    /// replay forward through `step` (+ canon) to materialize the actual
    /// states.
    fn replay_witness_with(
        &self,
        target: u64,
        lookup: impl Fn(u64) -> Option<Parent<Sys::Action>>,
    ) -> Execution<Sys::State, Sys::Action> {
        let mut rev_actions: Vec<Sys::Action> = Vec::new();
        let mut cur = target;
        let root = loop {
            match lookup(cur).expect("parent chain intact") {
                Parent::Root(i) => break i,
                Parent::Child { parent, action } => {
                    rev_actions.push(action);
                    cur = parent;
                }
            }
        };
        rev_actions.reverse();
        let init = self
            .sys
            .initial_states()
            .into_iter()
            .nth(root)
            .expect("root index valid");
        let canonized = |mut s: Sys::State| {
            self.canonize(&mut s, &mut 0);
            s
        };
        let mut exec = Execution::start(canonized(init));
        for a in rev_actions {
            let t = self.sys.step(exec.last(), &a);
            exec.push(a, canonized(t));
        }
        exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use impossible_core::explore::Explorer;

    #[test]
    fn explores_full_space_like_legacy() {
        let sys = Grid { n: 2, max: 2 };
        let r = Search::new(&sys).explore();
        let legacy = Explorer::new(&sys).explore();
        assert_eq!(r.num_states, 9);
        assert_eq!(r.num_states, legacy.num_states);
        assert_eq!(r.num_transitions, legacy.num_transitions);
        assert_eq!(r.truncated_by, None);
        assert_eq!(r.terminal_states, vec![vec![2, 2]]);
        assert_eq!(r.stats.levels, 5); // depths 0..=4 all expand
        assert!(r.stats.dedup_hits > 0); // the grid is full of diamonds
    }

    #[test]
    fn search_finds_shortest_witness() {
        let sys = Grid { n: 2, max: 5 };
        let r = Search::new(&sys).search(|s| s[0] == 2 && s[1] == 1);
        let w = r.witness.expect("target reachable");
        assert_eq!(w.len(), 3);
        assert_eq!(*w.last(), vec![2, 1]);
        assert_eq!(*w.first(), vec![0, 0]);
    }

    #[test]
    fn state_bound_truncates_exactly() {
        let sys = Grid { n: 2, max: 100 };
        let r = Search::new(&sys).max_states(10).explore();
        assert_eq!(r.truncated_by, Some(Truncation::States));
        assert_eq!(r.num_states, 10);
    }

    #[test]
    fn depth_bound_truncates() {
        let sys = Grid { n: 1, max: 100 };
        let r = Search::new(&sys).max_depth(3).explore();
        assert_eq!(r.truncated_by, Some(Truncation::Depth));
        assert_eq!(r.num_states, 4);
    }

    #[test]
    fn unreachable_predicate_yields_no_witness() {
        let sys = Grid { n: 2, max: 2 };
        let r = Search::new(&sys).search(|s| s[0] == 99);
        assert!(r.witness.is_none());
        assert!(!r.truncated());
        assert_eq!(r.num_states, 9);
    }

    #[test]
    fn initial_state_match_gives_empty_witness() {
        let sys = Grid { n: 2, max: 2 };
        let r = Search::new(&sys).search(|s| s == &vec![0, 0]);
        assert_eq!(r.witness.expect("initial matches").len(), 0);
    }

    #[test]
    fn peak_frontier_counts_the_initial_frontier() {
        // Regression: a predicate matching an initial state used to leave
        // peak_frontier at 0 — the level loop (where the peak was sampled)
        // never ran. The initial frontier is a real frontier.
        let sys = Grid { n: 2, max: 2 };
        let r = Search::new(&sys).search(|s| s == &vec![0, 0]);
        assert_eq!(r.stats.peak_frontier, 1);
        // Untruncated full explores are unaffected: the peak still comes
        // from the widest expanded level, not the roots.
        let full = Search::new(&sys).explore();
        assert!(full.stats.peak_frontier > 1);
    }

    #[test]
    fn expand_partition_stages_terminals_and_fingerprints_exactly_what_it_appends() {
        // `expand_partition` against its definition, written out naively:
        // per frontier state in order, `enabled` empty ⇒ a terminal, else
        // per action `step`, the canon hook, and the child's own scalar
        // fingerprint, parent fp attached. Records already on `children`
        // (and `terminals`) stay as they were, junk spares of every length
        // are overwritten, and the hits are the children the hook moved.
        fn sort_canon(s: &Vec<u8>) -> Vec<u8> {
            let mut t = s.clone();
            t.sort();
            t
        }
        use crate::fingerprint::Fingerprint;
        let sys = Grid { n: 3, max: 2 };
        let seed = 0x5EED;
        // A terminal between expanded states, one with a single action.
        let part: Vec<(u64, Vec<u8>)> =
            [vec![0, 1, 0], vec![2, 2, 2], vec![2, 2, 1], vec![1, 0, 2]]
                .into_iter()
                .enumerate()
                .map(|(i, s)| (100 + i as u64, s))
                .collect();
        for canon in [None, Some(sort_canon as fn(&Vec<u8>) -> Vec<u8>)] {
            let mut want_children = vec![(7, vec![9], 9, 9)];
            let mut want_terminals = vec![vec![9, 9]];
            let mut want_hits = 0;
            for (pfp, s) in &part {
                let acts = sys.enabled(s);
                if acts.is_empty() {
                    want_terminals.push(s.clone());
                }
                for a in acts {
                    let t = sys.step(s, &a);
                    let tc = canon.map_or(t.clone(), |c| c(&t));
                    want_hits += usize::from(tc != t);
                    want_children.push((tc.fingerprint(seed), tc, a, *pfp));
                }
            }

            let search = Search::new(&sys).seed(seed);
            let search = match canon {
                Some(c) => search.canon(c),
                None => search,
            };
            let mut batch = BatchScratch::new(seed);
            let mut spares = vec![vec![], vec![5; 7], vec![1]];
            let (mut acts, mut children, mut terminals) = (
                vec![9],
                want_children[..1].to_vec(),
                want_terminals[..1].to_vec(),
            );
            let hits = search.expand_partition(
                &part,
                &mut batch,
                &mut spares,
                &mut acts,
                &mut children,
                &mut terminals,
            );
            assert_eq!(children, want_children, "canon: {}", canon.is_some());
            assert_eq!(terminals, want_terminals);
            assert_eq!(hits, want_hits);
            assert_eq!(hits > 0, canon.is_some(), "the hook moved some child");
        }
    }

    #[test]
    fn canon_quotients_the_space() {
        // Sorting the counter vector = full-permutation canonicalization
        // for the (symmetric) grid: 2 counters to max 3 → 16 raw states,
        // 10 sorted multisets.
        fn sort_canon(s: &Vec<u8>) -> Vec<u8> {
            let mut t = s.clone();
            t.sort();
            t
        }
        let sys = Grid { n: 2, max: 3 };
        let plain = Search::new(&sys).explore();
        let quotient = Search::new(&sys).canon(sort_canon).explore();
        assert_eq!(plain.num_states, 16);
        assert_eq!(quotient.num_states, 10);
        assert!(quotient.stats.canon_hits > 0);
        // Witnesses in the quotient are executions of the quotient system.
        let w = Search::new(&sys)
            .canon(sort_canon)
            .search(|s| s == &vec![3, 3])
            .witness
            .expect("reachable");
        assert_eq!(w.len(), 6);
    }

    #[test]
    fn spare_pool_never_holds_more_than_one_batch() {
        // Every live state of the system below is counted (a token whose
        // `Clone` and `Drop` keep a per-thread tally), so a run's
        // high-water mark is observable: the states the route keeps, one
        // staged batch (a block of states' children in `graph()`, a
        // frontier partition's in `explore()`), and — the bound under test
        // — at most one more batch of spares. Sorted counters are a
        // high-duplicate space, and on the canon route nothing consumes
        // the pool: without the `batch_len` guards it holds one state per
        // duplicate (of the whole run in `graph()`, of a level in
        // `explore()`), far past either bound.
        use std::cell::Cell;
        thread_local! {
            static LIVE: Cell<usize> = const { Cell::new(0) };
            static PEAK: Cell<usize> = const { Cell::new(0) };
        }
        #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        struct Token {
            unit: (),
        }
        impl Token {
            fn new() -> Token {
                LIVE.set(LIVE.get() + 1);
                PEAK.set(PEAK.get().max(LIVE.get()));
                Token { unit: () }
            }
        }
        impl Clone for Token {
            fn clone(&self) -> Token {
                Token::new()
            }
        }
        impl Drop for Token {
            fn drop(&mut self) {
                LIVE.set(LIVE.get() - 1);
            }
        }
        crate::impl_encode_struct!(Token { unit });
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        struct Counted {
            at: Vec<u8>,
            token: Token,
        }
        crate::impl_encode_struct!(Counted { at, token });
        struct CountedGrid(Grid);
        impl System for CountedGrid {
            type State = Counted;
            type Action = usize;
            fn initial_states(&self) -> Vec<Counted> {
                let at = self.0.initial_states().swap_remove(0);
                vec![Counted { at, token: Token::new() }]
            }
            fn enabled(&self, s: &Counted) -> Vec<usize> {
                self.0.enabled(&s.at)
            }
            fn step(&self, s: &Counted, a: &usize) -> Counted {
                Counted { at: self.0.step(&s.at, a), token: Token::new() }
            }
        }
        fn sorted(s: &Counted) -> Counted {
            let mut t = s.clone();
            t.at.sort();
            t
        }
        fn assert_peak(bound: usize) {
            assert_eq!(LIVE.get(), 0, "every state is dropped with its run");
            assert!(PEAK.get() <= bound, "{} live states at once, bound {bound}", PEAK.get());
            PEAK.set(0);
        }

        const N: usize = 6;
        let sys = CountedGrid(Grid { n: N, max: 9 });
        for canon in [Some(sorted as fn(&Counted) -> Counted), None] {
            // Capped: without the hook this is the ledger's 10⁶-state grid.
            let search = || {
                let search = Search::new(&sys).max_states(20_000);
                match canon {
                    Some(c) => search.canon(c),
                    None => search,
                }
            };
            // `graph()` keeps every state and stages one block's children.
            let states = search().graph().len();
            assert_peak(states + 2 * crate::graph::BLOCK * N);

            // `explore()` keeps two frontiers and the terminals, and stages
            // one frontier partition's children: the largest such batch is
            // read off the run paused at every level in turn.
            let (mut largest_batch, mut level) = (0, 0);
            while let Resumable::Paused(ckpt) = search().run_resumable(PauseBudget::levels(level)) {
                for part in &ckpt.frontier {
                    let batch = part.iter().map(|(_, s)| sys.enabled(s).len()).sum();
                    largest_batch = largest_batch.max(batch);
                }
                level += 1;
            }
            PEAK.set(0);
            let r = search().explore();
            assert!(r.stats.dedup_hits > r.num_states, "a high-duplicate space");
            let kept = 2 * r.stats.peak_frontier + r.terminal_states.len();
            drop(r);
            assert_peak(kept + 2 * largest_batch);
        }
    }

    #[test]
    fn links_are_never_wider_than_parents_and_16_bytes_for_usize() {
        // Kills a plain `u64` parent field (no niche: `Link<usize>` is 24
        // bytes again, the `== 16` pin) and any extra field or wider
        // payload (the `<=` pins).
        use std::mem::size_of;
        #[allow(dead_code)]
        enum MutexShaped {
            Try(u32),
            Step(u32),
            Exit(u32),
        }
        fn no_wider<A>() -> bool {
            size_of::<Link<A>>() <= size_of::<Parent<A>>()
        }
        assert!(no_wider::<usize>());
        assert!(no_wider::<u64>());
        assert!(no_wider::<u8>());
        assert!(no_wider::<(usize, usize)>());
        assert!(no_wider::<MutexShaped>());
        assert_eq!(size_of::<Link<usize>>(), 16);
        assert_eq!(size_of::<Parent<usize>>(), 24);
    }

    #[test]
    fn links_round_trip_parents_but_for_the_zero_fold() {
        // Kills a conversion that swaps or drops a variant, loses the
        // action, or stores anything but the parent itself (an off-by-one
        // `parent + 1` key, say): every round trip must be exact.
        let round = |p: Parent<u32>| Parent::from(Link::restored(p));
        for i in [0, 1, 7, usize::MAX] {
            assert_eq!(round(Parent::Root(i)), Parent::Root(i));
        }
        for parent in [1, 2, 0x8000_0000_0000_0000, u64::MAX] {
            let p = Parent::Child { parent, action: 9 };
            assert_eq!(round(p.clone()), p);
        }
        // Kills a conversion that panics on parent 0 or maps it anywhere
        // but the table's own fold (`key_of(0) == 1`).
        assert_eq!(
            round(Parent::Child { parent: 0, action: 3 }),
            Parent::Child { parent: 1, action: 3 }
        );
        assert_eq!(crate::table::key_of(0), 1);
    }

    #[test]
    fn seed_changes_fingerprints_not_results() {
        let sys = Grid { n: 3, max: 2 };
        let a = Search::new(&sys).seed(1).explore();
        let b = Search::new(&sys).seed(2).explore();
        assert_eq!(a.num_states, b.num_states);
        assert_eq!(a.num_transitions, b.num_transitions);
        let mut ta = a.terminal_states.clone();
        let mut tb = b.terminal_states.clone();
        ta.sort();
        tb.sort();
        assert_eq!(ta, tb);
    }
}
