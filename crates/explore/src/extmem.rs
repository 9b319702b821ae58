//! External-memory BFS: exploration past RAM with byte-identical reports.
//!
//! The resident backend ([`crate::search`]) holds the whole visited set in
//! [`ShardedFpMap`] and the whole frontier in partitioned `Vec`s; at
//! 10⁷–10⁸ states that is gigabytes of tables, and the interesting
//! model-checking instances (the survey's arguments are only as convincing
//! as the spaces we can exhaust) go further. This module is the *spilling*
//! visited backend of the same search: `explore_extmem` is the resident
//! init, level loop and finish (`Search::run_on`), driven over `Spill`,
//! which pages *cold visited shards* — and optionally frontier partitions
//! — to deterministic per-shard run files, streams them back per level, and
//! expands each level on the calling thread, without changing a single
//! byte of the report:
//!
//! * **Spill unit = shard, boundary = level.** When the resident visited
//!   set exceeds [`SpillPolicy::ram_keys`] at a level boundary, every
//!   shard pages out via `FpMap::take_ordered_as` (ascending stored key —
//!   the canonical order checkpoints already use), its links turned back
//!   into `Parent`s, into a delta+varint [run page](crate::page) at
//!   `shard{k:03}.run{r:03}`, then clears. A key lives in RAM **or** in
//!   exactly one run file, never both: spilled keys are never re-inserted,
//!   because every commit asks the run files first.
//! * **One commit step per child.** The level's partitions expand, in
//!   partition order, one list each; in that order they are the resident
//!   body's j-major insert order. Each shard's run files are then asked
//!   once for the level's keys (a sorted-merge against the run pages' key
//!   blocks — values never decoded), and `Search::commit_children` judges
//!   every child, list by list, as it does for the resident body: a key on
//!   disk is a dedup hit, any other
//!   goes to `try_insert_with` under the resident cap less the spilled-key
//!   count. That is the resident backend's predicate in the resident
//!   backend's order, so the first occurrence wins the parent link on both
//!   routes and `next_parts`, `dedup_hits`, terminals and every other
//!   report byte agree.
//! * **Memory is accounted, not guessed.** [`crate::SearchStats::peak_bytes`]
//!   is the level loop's one shallow formula (table `approx_bytes` + resident
//!   frontier records at fixed widths) sampled at every level boundary —
//!   deterministic integer accounting, no RSS syscall — so "bounded peak
//!   RSS" is a recorded number, and the spilled run's lower figure is
//!   directly comparable.
//!
//! What is *not* supported: pause/resume (a spilled run already has
//! durable pages; wiring `SearchCheckpoint` to reference them is ROADMAP
//! item 13).
//! Witness replay works — parent links live in the run pages, and the
//! cold lookup walks them from disk.
//!
//! Run files are scratch, not durable artifacts: they are rewritten
//! wholesale per flush, a crash mid-write only aborts the search, and each
//! search must be given its own [`SpillPolicy`] directory. See
//! `docs/EXTMEM.md` for the full determinism argument and page layout.
//!
//! **Failure.** Every file step here — creating the directory, writing and
//! reading a run or frontier page, decoding one — returns a `SpillError`
//! naming the step, the file and the cause. The level loop's backend hooks
//! cannot return one, and neither can the public entry points (their
//! signatures are the resident route's), so the error ends the search in
//! one place, `spill_step`, as a panic carrying its text.

use crate::fingerprint::Encode;
use crate::page::{decode_frontier_page, decode_run_page, encode_frontier_page, encode_run_page, run_page_keys};
use crate::persist::Persist;
use crate::search::{
    with_tracer, BfsRun, Child, LevelCommit, Link, Parent, Search, SearchReport, VisitedBackend,
    DEFAULT_PARTITIONS,
};
use crate::table::{key_of, shard_index, Cap, ShardedFpMap};
use impossible_core::system::System;
use impossible_obs::{NoopTracer, Tracer};
use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};

/// Where and when the external-memory engine spills.
///
/// ```no_run
/// use impossible_explore::{Grid, Search, SpillPolicy};
///
/// // Doctests have no scratch dir; `tests/extmem_spill.rs` runs this for
/// // real under `CARGO_TARGET_TMPDIR`.
/// let sys = Grid { n: 3, max: 3 };
/// let policy = SpillPolicy::new("spill-scratch").ram_keys(50).spill_frontier(true);
/// let spilled = Search::new(&sys).explore_extmem(&policy);
/// let resident = Search::new(&sys).explore();
/// assert_eq!(spilled.num_states, resident.num_states);
/// assert_eq!(spilled.stats.dedup_hits, resident.stats.dedup_hits);
/// assert!(spilled.stats.peak_bytes < resident.stats.peak_bytes);
/// ```
#[derive(Debug, Clone)]
pub struct SpillPolicy {
    dir: PathBuf,
    ram_keys: usize,
    spill_frontier: bool,
}

impl SpillPolicy {
    /// Spill into `dir` (created on first use; must be private to one
    /// search) with a generous default resident budget of 2²⁰ visited keys
    /// and no frontier spilling.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillPolicy {
            dir: dir.into(),
            ram_keys: 1 << 20,
            spill_frontier: false,
        }
    }

    /// Flush visited shards to run files whenever the resident key count
    /// reaches `n` at a level boundary. `0` spills every level.
    pub fn ram_keys(mut self, n: usize) -> Self {
        self.ram_keys = n;
        self
    }

    /// Also page frontier partitions to disk between levels; the level
    /// body streams them back one at a time, so no level start holds the
    /// whole frontier resident.
    pub fn spill_frontier(mut self, on: bool) -> Self {
        self.spill_frontier = on;
        self
    }

    /// The spill directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

/// The spilling [`VisitedBackend`]: run files per shard, paged frontier
/// partitions, and the key counts that keep `num_states` and the cap exact
/// without touching disk.
struct Spill {
    policy: SpillPolicy,
    /// Completed visited flushes (names the next run generation).
    flushes: usize,
    /// Run files per shard, in flush order. Key-disjoint by construction.
    runs: Vec<Vec<PathBuf>>,
    /// Total keys across all run files.
    spilled: usize,
    /// Per-partition lengths of the current frontier while it lives in
    /// `front{k:03}.page` files; `None` while it is resident.
    paged: Option<Vec<usize>>,
}

/// A spill file step that failed: which step, on which file, and why (an
/// `io::Error`, or the `PersistError` of a page that does not decode).
#[derive(Debug)]
struct SpillError {
    step: &'static str,
    path: PathBuf,
    cause: Box<dyn std::error::Error>,
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.step, self.path.display(), self.cause)
    }
}

/// Tag a file step's result with the step and the file.
fn at<T, E: std::error::Error + 'static>(
    step: &'static str,
    path: &Path,
    r: Result<T, E>,
) -> Result<T, SpillError> {
    r.map_err(|e| SpillError {
        step,
        path: path.to_path_buf(),
        cause: Box::new(e),
    })
}

/// The value of a spill step, or the end of the search: the one panic of
/// the spill route, documented on [`Search::explore_extmem`] and
/// [`Search::search_extmem`].
fn spill_step<T>(r: Result<T, SpillError>) -> T {
    r.unwrap_or_else(|e| panic!("external-memory search failed: {e}"))
}

impl Spill {
    fn new(policy: &SpillPolicy) -> Result<Self, SpillError> {
        at("create spill dir", policy.dir(), std::fs::create_dir_all(policy.dir()))?;
        Ok(Spill {
            policy: policy.clone(),
            flushes: 0,
            runs: (0..DEFAULT_PARTITIONS).map(|_| Vec::new()).collect(),
            spilled: 0,
            paged: None,
        })
    }

    /// Page every non-empty visited shard out as one run file, emptying it
    /// (`take_ordered_as`, each link back to the `Parent` the page encodes).
    /// The commit step asks the run files before the table, so spilled keys
    /// are never re-inserted and each key lands in exactly one run across
    /// the whole search.
    fn flush_visited<A: Persist>(
        &mut self,
        visited: &mut ShardedFpMap<Link<A>>,
    ) -> Result<(), SpillError> {
        let r = self.flushes;
        for (k, shard) in visited.shards_mut().iter_mut().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let entries = shard.take_ordered_as(Parent::from);
            let page = encode_run_page(&entries);
            let path = self.policy.dir().join(format!("shard{k:03}.run{r:03}"));
            at("write run", &path, std::fs::write(&path, page))?;
            self.runs[k].push(path);
            self.spilled += entries.len();
        }
        self.flushes += 1;
        visited.refresh_len();
        Ok(())
    }

    /// Page the next frontier out, one file per non-empty partition
    /// (overwritten each level), keeping only the lengths resident.
    fn store_frontier<S: Persist>(&mut self, parts: &[Vec<(u64, S)>]) -> Result<(), SpillError> {
        for (k, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let path = self.frontier_path(k);
            at("write frontier", &path, std::fs::write(&path, encode_frontier_page(part)))?;
        }
        self.paged = Some(parts.iter().map(Vec::len).collect());
        Ok(())
    }

    /// Stream one non-empty paged frontier partition back, in its exact
    /// stored (traversal) order. `Persist` round trips are identities, so
    /// the decoded partition is the one the previous level produced.
    fn load_partition<S: Persist>(&self, k: usize) -> Result<Vec<(u64, S)>, SpillError> {
        let path = self.frontier_path(k);
        let buf = at("read frontier", &path, std::fs::read(&path))?;
        at("decode frontier", &path, decode_frontier_page(&buf))
    }

    fn frontier_path(&self, k: usize) -> PathBuf {
        self.policy.dir().join(format!("front{k:03}.page"))
    }

    /// The stored keys among `keys` (a level's children bound for shard `k`,
    /// any order, repeats included) that the shard's run files already
    /// hold, sorted. Nothing to read before the shard's first flush.
    fn on_disk(&self, k: usize, mut keys: Vec<u64>) -> Result<Vec<u64>, SpillError> {
        if self.runs[k].is_empty() {
            return Ok(Vec::new());
        }
        keys.sort_unstable();
        keys.dedup();
        self.disk_membership(k, &keys)
    }

    /// Which `keys` (sorted, unique) are already in shard `k`'s run files:
    /// a sorted-merge against each run page's key block — values never
    /// decoded, file bytes staged through one buffer reused across the
    /// shard's runs. Returns the matches, sorted.
    fn disk_membership(&self, k: usize, keys: &[u64]) -> Result<Vec<u64>, SpillError> {
        use std::io::Read;
        let mut buf = Vec::new();
        let mut old = Vec::new();
        for path in &self.runs[k] {
            buf.clear();
            let read = std::fs::File::open(path).and_then(|mut f| f.read_to_end(&mut buf));
            at("read run", path, read)?;
            let run_keys = at("decode run", path, run_page_keys(&buf))?;
            let (mut i, mut j) = (0usize, 0usize);
            while i < keys.len() && j < run_keys.len() {
                match keys[i].cmp(&run_keys[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        old.push(keys[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        // Runs are key-disjoint, but their key ranges interleave.
        old.sort_unstable();
        Ok(old)
    }

    /// The parent link of `fp` if a run file of its shard holds it,
    /// decoding the shard's run pages until the key surfaces.
    fn find_spilled<A: Persist>(&self, fp: u64) -> Result<Option<Parent<A>>, SpillError> {
        let key = key_of(fp);
        for path in &self.runs[shard_index(fp, self.runs.len())] {
            let buf = at("read run", path, std::fs::read(path))?;
            let entries = at("decode run", path, decode_run_page::<Parent<A>>(&buf))?;
            if let Ok(i) = entries.binary_search_by_key(&key, |&(k, _)| k) {
                return Ok(Some(entries.into_iter().nth(i).expect("index in range").1));
            }
        }
        Ok(None)
    }
}

impl<Sys: System> VisitedBackend<Sys> for Spill
where
    Sys::State: Encode + Persist,
    Sys::Action: Persist,
{
    fn spilled(&self) -> usize {
        self.spilled
    }

    /// A paged frontier counts its largest single partition as resident
    /// (the per-worker-slot bound — deliberately a worker-count-independent
    /// convention).
    fn frontier_lens(&self, parts: &[Vec<(u64, Sys::State)>]) -> (usize, usize) {
        match &self.paged {
            Some(lens) => (lens.iter().sum(), lens.iter().copied().max().unwrap_or(0)),
            None => {
                let len = parts.iter().map(Vec::len).sum();
                (len, len)
            }
        }
    }

    fn partition<'p>(
        &self,
        parts: &'p [Vec<(u64, Sys::State)>],
        k: usize,
    ) -> Cow<'p, [(u64, Sys::State)]> {
        match &self.paged {
            Some(lens) if lens[k] > 0 => Cow::Owned(spill_step(self.load_partition(k))),
            _ => Cow::Borrowed(&parts[k]),
        }
    }

    /// One BFS level, on the calling thread: expand every partition in
    /// partition order (a paged one decodes first) into its own `children`
    /// list, ask each shard's run files once for the level's keys they
    /// already hold, then commit the lists in partition order — the j-major
    /// reference order — through `Search::commit_children` under the
    /// resident cap less the spilled-key count (spilled keys are disjoint
    /// from the table). Committing list by list drops each partition's
    /// children and duplicates as it goes, as the fused body does.
    /// Byte-identical in effect to the resident body for every spill
    /// threshold (`tests/extmem_spill.rs` is the oracle).
    #[inline(never)]
    fn expand_level(
        &self,
        search: &Search<'_, Sys>,
        run: &mut BfsRun<Sys>,
        next_parts: &mut [Vec<(u64, Sys::State)>],
        tracer: &mut dyn Tracer,
    ) -> usize {
        let shard_n = DEFAULT_PARTITIONS;
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
        let (mut spares, mut acts) = (Vec::new(), Vec::new());
        let children: Vec<Vec<Child<Sys::State, Sys::Action>>> = (0..shard_n)
            .map(|k| {
                let part = VisitedBackend::<Sys>::partition(self, parts, k);
                let mut children = Vec::new();
                stats.canon_hits += search.expand_partition(
                    &part,
                    batch,
                    &mut spares,
                    &mut acts,
                    &mut children,
                    terminal,
                );
                children
            })
            .collect();
        let level_children = children.iter().map(Vec::len).sum();

        let mut keys: Vec<Vec<u64>> = vec![Vec::new(); shard_n];
        for &(fp, ..) in children.iter().flatten() {
            keys[shard_index(fp, shard_n)].push(key_of(fp));
        }
        let old: Vec<Vec<u64>> = spill_step(
            keys.into_iter().enumerate().map(|(k, keys)| self.on_disk(k, keys)).collect(),
        );
        let on_disk = |fp| old[shard_index(fp, shard_n)].binary_search(&key_of(fp)).is_ok();
        let mut level = LevelCommit {
            visited,
            cap: Cap::At(search.bounds().0 - self.spilled),
            truncated_by,
            depth: *depth,
            next_parts,
            tracer,
        };
        for mut part in children {
            stats.dedup_hits +=
                Search::<Sys>::commit_children(&mut part, on_disk, &mut spares, &mut level);
        }
        level_children
    }

    fn end_level(&mut self, run: &mut BfsRun<Sys>, next: Vec<Vec<(u64, Sys::State)>>) {
        // The next frontier is fully resident here (the commit path
        // materializes it): account for it before any of it pages out.
        run.sample_peak_bytes(next.iter().map(Vec::len).sum());
        if run.visited.len() >= self.policy.ram_keys {
            spill_step(self.flush_visited(&mut run.visited));
        }
        if self.policy.spill_frontier && run.found.is_none() {
            spill_step(self.store_frontier(&next));
            run.parts = next.iter().map(|_| Vec::new()).collect();
        } else {
            run.parts = next;
            self.paged = None;
        }
    }

    /// Cold path: the owning shard's run files.
    fn spilled_parent(&self, fp: u64) -> Option<Parent<Sys::Action>> {
        spill_step(self.find_spilled(fp))
    }
}

impl<'a, Sys: System> Search<'a, Sys>
where
    Sys::State: Encode + Persist,
    Sys::Action: Persist,
{
    /// [`Search::explore`], external-memory mode: identical report bytes
    /// (modulo [`crate::SearchStats::peak_bytes`], which is the point), bounded
    /// resident memory per `policy`.
    ///
    /// # Panics
    /// If a spill file step fails — the directory cannot be created, a run
    /// or frontier page cannot be written or read back, or one read back
    /// does not decode — with `external-memory search failed: ` and the
    /// step, the file and the cause.
    pub fn explore_extmem(&self, policy: &SpillPolicy) -> SearchReport<Sys::State, Sys::Action> {
        with_tracer(&self.tracer, &mut NoopTracer, |t| {
            self.run_on(spill_step(Spill::new(policy)), None::<fn(&Sys::State) -> bool>, t)
        })
    }

    /// [`Search::search`], external-memory mode: BFS until `pred` matches;
    /// the witness replays through parent links even when they live in run
    /// files.
    ///
    /// # Panics
    /// As [`Search::explore_extmem`], if a spill file step fails.
    pub fn search_extmem<F>(
        &self,
        pred: F,
        policy: &SpillPolicy,
    ) -> SearchReport<Sys::State, Sys::Action>
    where
        F: Fn(&Sys::State) -> bool,
    {
        with_tracer(&self.tracer, &mut NoopTracer, |t| {
            self.run_on(spill_step(Spill::new(policy)), Some(pred), t)
        })
    }
}
