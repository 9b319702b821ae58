//! The four `Grid{n:6,max:9}` workloads: 10⁶ states, 5.4·10⁶ transitions,
//! `step` trivial — so the engine's own layers are the whole cost.
//!
//! * `grid_w1` — one worker: `explore::fingerprint` + `explore::table` + the
//!   fused level loop. The dedup-bound extreme opposite `mutex_dijkstra4`.
//! * `grid_w2` — the same search on two workers: the pass-1/pass-2 route,
//!   the pool's claim protocol and the stitch. A gain for the fused route
//!   that costs the two-pass route (or the reverse) shows as a split
//!   between `grid_w1` and `grid_w2`.
//! * `grid_spill` — the same search through `explore_extmem` with a 2¹⁷-key
//!   RAM budget (the visited set is 7.6× that) and a paged frontier:
//!   `explore::page`, run-file I/O and `explore::extmem`'s
//!   classify/stage/commit do most of the work.
//! * `grid_resume` — pause at 500 000 states, seal a snapshot, write it,
//!   read it back, resume: `ckpt::snapshot` encode/decode and file traffic
//!   around an otherwise `grid_w1` search.
//!
//! The seed re-keys the fingerprint function: shard skew and probe chains
//! move, counts never do. Every report is compared, masked, with one built
//! from closed forms.

use crate::expected::{grid_peak_frontier, grid_states, grid_transitions};
use crate::harness::{Checked, Ctx, Layers, Workload, BASE_REPEATS};
use crate::replay::replay_kernels;
use crate::span::Recorder;
use crate::stats::median;
use crate::workloads::{pool_pass_overhead_us, spanned};
use impossible_ckpt::{model_fp, Snapshot};
use impossible_explore::page::{decode_run_page, encode_run_page};
use impossible_explore::{
    Grid, Parent, PauseBudget, Search, SearchReport, SearchStats, ShardedFpMap, SpillPolicy,
    DEFAULT_PARTITIONS,
};
use impossible_obs::RingTracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

type Report = SearchReport<Vec<u8>, usize>;

/// The parts every grid workload shares.
struct Common {
    grid: Grid,
    seed: u64,
    cap: usize,
    scratch: PathBuf,
}

/// The report with the counters zeroed that legitimately differ between
/// routes: pool shape (`workers`, steal counters) and RAM held
/// (`peak_bytes`). Everything else is the engine's byte-identity contract.
fn masked(r: &Report) -> String {
    let mut stats = r.stats;
    stats.workers = 0;
    stats.steals = 0;
    stats.stolen_shards = 0;
    stats.peak_bytes = 0;
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.num_states, r.num_transitions, r.terminal_states, r.truncated_by, r.witness, stats
    )
}

impl Common {
    fn prepare(ctx: &Ctx) -> Self {
        let grid = if ctx.small {
            Grid { n: 4, max: 4 }
        } else {
            Grid { n: 6, max: 9 }
        };
        Common {
            grid,
            seed: ctx.seed,
            cap: 2 * grid_states(grid.n, grid.max) as usize,
            scratch: ctx.scratch.clone(),
        }
    }

    fn search(&self) -> Search<'_, Grid> {
        Search::new(&self.grid).seed(self.seed).max_states(self.cap)
    }

    /// The report every route must produce, from closed forms alone.
    fn reference(&self) -> Report {
        let Grid { n, max } = self.grid;
        let (states, transitions) = (
            grid_states(n, max) as usize,
            grid_transitions(n, max) as usize,
        );
        SearchReport {
            num_states: states,
            num_transitions: transitions,
            terminal_states: vec![vec![max; n]],
            truncated_by: None,
            witness: None,
            stats: SearchStats {
                strategy: "bfs",
                workers: 0,
                partitions: DEFAULT_PARTITIONS,
                seed: self.seed,
                levels: n * max as usize + 1,
                expansions: states,
                dedup_hits: transitions - states + 1,
                canon_hits: 0,
                peak_frontier: grid_peak_frontier(n, max) as usize,
                cap_fallbacks: 0,
                peak_bytes: 0,
                steals: 0,
                stolen_shards: 0,
            },
        }
    }

    fn check(&self, r: &Report) -> Checked {
        let mut c = Checked::default();
        c.count("states", r.num_states);
        c.count("transitions", r.num_transitions);
        c.count("levels", r.stats.levels);
        c.count("expansions", r.stats.expansions);
        c.count("dedup_hits", r.stats.dedup_hits);
        c.count("canon_hits", r.stats.canon_hits);
        c.count("peak_frontier", r.stats.peak_frontier);
        c.count("terminals", r.terminal_states.len());
        c.count("cap_fallbacks", r.stats.cap_fallbacks);
        c.count("peak_bytes", r.stats.peak_bytes);
        c.count("steals", r.stats.steals);
        c.count("stolen_shards", r.stats.stolen_shards);
        let want = masked(&self.reference());
        c.require(masked(r) == want, || {
            format!("masked report differs from the closed forms: {}", masked(r))
        });
        c
    }

    fn search_layers(&self, r: &Report, layers: &mut Layers) {
        layers.set("search.levels", r.stats.levels as f64);
        layers.set("search.expansions", r.stats.expansions as f64);
        layers.set("search.peak_frontier", r.stats.peak_frontier as f64);
        layers.set("search.cap_fallbacks", r.stats.cap_fallbacks as f64);
        layers.set("search.peak_bytes", r.stats.peak_bytes as f64);
    }

    /// Kernel replay over the grid's stream; hands back the filled table.
    fn kernels(
        &self,
        rec: &mut Recorder,
        layers: &mut Layers,
        checked: &mut Checked,
    ) -> Option<ShardedFpMap<Parent<usize>>> {
        let graph = rec.time("graph.build", || self.search().graph());
        match replay_kernels(rec, &self.grid, None, self.seed, &graph) {
            Ok((totals, table)) => {
                totals.write(layers);
                checked.count("table_bytes", totals.table_bytes as usize);
                Some(table)
            }
            Err(e) => {
                checked.errors.push(e);
                None
            }
        }
    }

    /// A resident one-worker `explore()` under span `name` (fastest of
    /// [`BASE_REPEATS`]), held to the same closed-form report as the
    /// operation — so the two routes' reports agree byte for byte, the
    /// engine's own contract at benchmark scale.
    fn resident_base(&self, rec: &mut Recorder, name: &str, checked: &mut Checked) -> Report {
        let base = rec.time_fastest(name, BASE_REPEATS, || self.search().explore());
        checked.errors.append(&mut self.check(&base).errors);
        base
    }
}

/// Encode and decode `pages` (one per shard), and with `dir` also write
/// and read the same bytes back in between, each step under its own span;
/// returns `(keys, bytes)`.
fn replay_pages(
    rec: &mut Recorder,
    dir: Option<&Path>,
    pages: &[Vec<(u64, Parent<usize>)>],
) -> Result<(u64, u64), String> {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let (mut keys, mut bytes) = (0u64, 0u64);
    for (k, entries) in pages.iter().enumerate() {
        let page = rec.time("page.encode", || encode_run_page(entries));
        let back = match dir {
            None => page.clone(),
            Some(dir) => {
                let path = dir.join(format!("replay{k:03}.page"));
                rec.time("fs.write", || std::fs::write(&path, &page))
                    .map_err(|e| e.to_string())?;
                rec.time("fs.read", || std::fs::read(&path))
                    .map_err(|e| e.to_string())?
            }
        };
        let decoded = rec
            .time("page.decode", || decode_run_page::<Parent<usize>>(&back))
            .map_err(|e| e.to_string())?;
        if decoded != *entries {
            return Err(format!("page {k} does not decode to what was encoded"));
        }
        keys += entries.len() as u64;
        bytes += page.len() as u64;
    }
    Ok((keys, bytes))
}

fn page_layers(layers: &mut Layers, keys: u64, bytes: u64) {
    layers.set("page.keys", keys as f64);
    layers.set("page.bytes_per_key", bytes as f64 / keys.max(1) as f64);
}

// ---- grid_w1 / grid_w2 ------------------------------------------------

pub struct GridResident<const TWO: bool> {
    common: Common,
    workers: usize,
}

pub type GridW1 = GridResident<false>;
pub type GridW2 = GridResident<true>;

impl<const TWO: bool> Workload for GridResident<TWO> {
    type Outcome = Report;
    const NAME: &'static str = if TWO { "grid_w2" } else { "grid_w1" };

    fn prepare(ctx: &Ctx) -> Result<Self, String> {
        Ok(GridResident {
            common: Common::prepare(ctx),
            workers: if TWO { ctx.workers } else { 1 },
        })
    }

    fn states(&self) -> u64 {
        grid_states(self.common.grid.n, self.common.grid.max)
    }

    fn run(&mut self) -> Report {
        self.common.search().workers(self.workers).explore()
    }

    fn check(&mut self, r: Report) -> Checked {
        let mut c = self.common.check(&r);
        c.require(r.stats.workers == self.workers, || {
            format!("ran on {} workers", r.stats.workers)
        });
        c
    }

    fn run_traced(&mut self, rec: &mut Recorder) -> Report {
        rec.time("search.explore", || {
            self.common.search().workers(self.workers).explore()
        })
    }

    fn replay(&mut self, rec: &mut Recorder, layers: &mut Layers, checked: &mut Checked) {
        let explore_s = rec.total_s("search.explore");
        let report = self.common.search().workers(self.workers).explore();
        self.common.search_layers(&report, layers);
        self.common.kernels(rec, layers, checked);
        if TWO {
            // Base stated: the one-worker run of the same search.
            self.common.resident_base(rec, "search.explore_w1", checked);
            layers.set(
                "search.two_pass_extra_s",
                explore_s - rec.total_s("search.explore_w1"),
            );
            layers.set("pool.passes", report.stats.steals as f64);
            layers.set("pool.steals", report.stats.steals as f64);
            layers.set("pool.stolen_shards", report.stats.stolen_shards as f64);
            layers.set("pool.pass_overhead_us", pool_pass_overhead_us(self.workers));
        } else {
            // Guard for the observability work: what a live tracer costs.
            // Interleaved pairs, ratio of medians, so that the guard is not
            // at the mercy of one noisy run.
            let (mut plain, mut live) = (Vec::new(), Vec::new());
            let mut tracer = RingTracer::new(1 << 20);
            for _ in 0..BASE_REPEATS {
                tracer = RingTracer::new(1 << 20);
                let t = Instant::now();
                let traced = self.common.search().explore_traced(&mut tracer);
                live.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                let bare = self.common.search().explore();
                plain.push(t.elapsed().as_secs_f64());
                checked.require(traced == bare, || "the traced twin's report differs".into());
            }
            layers.set("obs.traced_overhead_ratio", median(&live) / median(&plain));
            layers.set("obs.events", tracer.recorded() as f64);
            checked.count("obs_events", tracer.recorded() as usize);
        }
    }
}

// ---- grid_spill -------------------------------------------------------

pub struct GridSpill {
    common: Common,
    policy: SpillPolicy,
}

/// `(files, bytes)` of the run files a spilled search left in `dir`.
fn run_files(dir: &Path) -> (usize, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".run"))
        .fold((0, 0), |(n, b), e| {
            (n + 1, b + e.metadata().map_or(0, |m| m.len()))
        })
}

impl GridSpill {
    fn operation(&self, mut rec: Option<&mut Recorder>) -> Report {
        spanned(&mut rec, "extmem.explore", || {
            self.common.search().explore_extmem(&self.policy)
        })
    }
}

impl Workload for GridSpill {
    type Outcome = Report;
    const NAME: &'static str = "grid_spill";

    fn prepare(ctx: &Ctx) -> Result<Self, String> {
        let common = Common::prepare(ctx);
        let ram_keys = if ctx.small { 1 << 6 } else { 1 << 17 };
        let policy = SpillPolicy::new(common.scratch.join("spill"))
            .ram_keys(ram_keys)
            .spill_frontier(true);
        Ok(GridSpill { common, policy })
    }

    fn states(&self) -> u64 {
        grid_states(self.common.grid.n, self.common.grid.max)
    }

    /// Each search must be given a directory of its own.
    fn before_op(&mut self) {
        let _ = std::fs::remove_dir_all(self.policy.dir());
    }

    fn run(&mut self) -> Report {
        self.operation(None)
    }

    fn check(&mut self, r: Report) -> Checked {
        let mut c = self.common.check(&r);
        let (files, bytes) = run_files(self.policy.dir());
        c.count("run_files", files);
        c.count("disk_bytes", bytes as usize);
        c.require(files > 0, || "nothing was spilled".into());
        c
    }

    fn run_traced(&mut self, rec: &mut Recorder) -> Report {
        self.operation(Some(rec))
    }

    fn replay(&mut self, rec: &mut Recorder, layers: &mut Layers, checked: &mut Checked) {
        let (files, bytes) = run_files(self.policy.dir());
        layers.set("extmem.run_files", files as f64);
        layers.set("extmem.disk_bytes", bytes as f64);
        layers.set("extmem.peak_bytes", checked.counts["peak_bytes"] as f64);

        let base = self.common.resident_base(rec, "search.explore", checked);
        self.common.search_layers(&base, layers);
        let extmem_s = rec.total_s("extmem.explore");
        layers.set(
            "extmem.overhead_ratio",
            extmem_s / rec.total_s("search.explore"),
        );

        let Some(table) = self.common.kernels(rec, layers, checked) else {
            return;
        };
        let pages: Vec<Vec<(u64, Parent<usize>)>> = table
            .shards()
            .iter()
            .map(|s| s.iter_ordered().map(|(k, v)| (k, v.clone())).collect())
            .collect();
        match replay_pages(rec, Some(&self.common.scratch.join("pages")), &pages) {
            Ok((keys, bytes)) => {
                page_layers(layers, keys, bytes);
                layers.set("fs.bytes", bytes as f64);
            }
            Err(e) => checked.errors.push(e),
        }
        // Derived: what the spilled route adds beyond the resident search,
        // the page codec and the file traffic replayed above.
        let replayed =
            ["page.encode", "page.decode", "fs.write", "fs.read"].map(|n| rec.total_s(n));
        let residual = extmem_s - rec.total_s("search.explore") - replayed.iter().sum::<f64>();
        layers.set("extmem.self_s", residual);
    }
}

// ---- grid_resume ------------------------------------------------------

pub struct GridResume {
    common: Common,
    pause_at: usize,
    model: u64,
    path: String,
}

impl GridResume {
    fn operation(&self, mut rec: Option<&mut Recorder>) -> Report {
        let rec = &mut rec;
        let ckpt = spanned(rec, "search.pause", || {
            self.common
                .search()
                .run_resumable(PauseBudget::states(self.pause_at))
        })
        .paused()
        .expect("the pause budget is below the space size");
        let snap = Snapshot::new(self.model, ckpt);
        spanned(rec, "snapshot.save", || snap.save(&self.path)).expect("write the snapshot");
        drop(snap);
        let snap = spanned(rec, "snapshot.load", || {
            Snapshot::<Vec<u8>, usize>::load(&self.path)
        })
        .expect("read the snapshot");
        snap.expect_model(self.model)
            .expect("the snapshot is this model's");
        spanned(rec, "search.resume", || {
            self.common.search().resume(snap.ckpt, PauseBudget::never())
        })
        .done()
        .expect("an unbounded resume finishes")
    }
}

impl Workload for GridResume {
    type Outcome = Report;
    const NAME: &'static str = "grid_resume";

    fn prepare(ctx: &Ctx) -> Result<Self, String> {
        let common = Common::prepare(ctx);
        let Grid { n, max } = common.grid;
        Ok(GridResume {
            pause_at: if ctx.small { 300 } else { 500_000 },
            model: model_fp("grid", &[n as u64, max as u64]),
            path: common
                .scratch
                .join("paused.ckpt")
                .to_string_lossy()
                .into_owned(),
            common,
        })
    }

    fn states(&self) -> u64 {
        grid_states(self.common.grid.n, self.common.grid.max)
    }

    fn run(&mut self) -> Report {
        self.operation(None)
    }

    fn check(&mut self, r: Report) -> Checked {
        let mut c = self.common.check(&r);
        let bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len());
        c.count("snapshot_bytes", bytes as usize);
        c
    }

    fn run_traced(&mut self, rec: &mut Recorder) -> Report {
        self.operation(Some(rec))
    }

    fn replay(&mut self, rec: &mut Recorder, layers: &mut Layers, checked: &mut Checked) {
        let op_s = [
            "search.pause",
            "snapshot.save",
            "snapshot.load",
            "search.resume",
        ]
        .map(|n| rec.total_s(n))
        .iter()
        .sum::<f64>();
        let base = self.common.resident_base(rec, "search.explore", checked);
        self.common.search_layers(&base, layers);
        layers.set(
            "resume.overhead_ratio",
            op_s / rec.total_s("search.explore"),
        );

        // The codec and the file traffic inside save/load, each alone.
        let ckpt = self
            .common
            .search()
            .run_resumable(PauseBudget::states(self.pause_at))
            .paused()
            .expect("the pause budget is below the space size");
        let snap = Snapshot::new(self.model, ckpt);
        let bytes = rec.time("snapshot.encode", || snap.to_bytes());
        let raw = self.path.clone() + ".raw";
        rec.time("fs.write", || std::fs::write(&raw, &bytes))
            .expect("write scratch file");
        let back = rec
            .time("fs.read", || std::fs::read(&raw))
            .expect("read scratch file");
        let decoded = rec
            .time("snapshot.decode", || {
                Snapshot::<Vec<u8>, usize>::from_bytes(&back)
            })
            .expect("decode the snapshot");
        checked.require(decoded == snap, || {
            "the snapshot does not decode to what was encoded".into()
        });
        layers.set("snapshot.bytes", bytes.len() as f64);
        layers.set("fs.bytes", bytes.len() as f64);

        // The visited pages the snapshot wraps, through the page codec
        // alone (fs.* on this workload is the snapshot file).
        match replay_pages(rec, None, &snap.ckpt.visited) {
            Ok((keys, page_bytes)) => page_layers(layers, keys, page_bytes),
            Err(e) => checked.errors.push(e),
        }
        self.common.kernels(rec, layers, checked);
    }
}
