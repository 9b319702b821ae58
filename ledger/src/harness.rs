//! The closed-loop driver: one client, one operation at a time.
//!
//! An *operation* is one complete check from model construction to
//! verdict; the next starts when the previous returns. A run is: set-up
//! (ending with one verified warm-up operation), then timed operations for
//! the requested number of seconds, with one run of the control kernel
//! (`control.rs`) between every two operations. Only [`Workload::run`] is
//! timed; verification, the control and scratch-dir housekeeping happen
//! between operations.
//! The traced run times a few untraced operations for its base, then three
//! operations with spans around every call into a layer (keeping the
//! fastest), then replays the layers in isolation (see `replay.rs`).

use crate::control::{Control, REFERENCE_S};
use crate::expected::Expected;
use crate::json::Value;
use crate::span::{self_ns, Recorder};
use crate::stats::{median, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`; `BENCHMARK.json` fixes their bounds.
/// Each reports the median of its samples.
///
/// Times are corrected by the in-run control (see `control.rs`): this box's
/// speed drifts by tens of percent for minutes at a time, which no
/// statistic of one run's wall times survives. Set-up time and memory come
/// from three processes each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("verdict_s", "s"),
    ("states_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order. A traced
/// run reports every one; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("system.step_s", "s"),
    ("system.steps", "count"),
    ("canon.apply_s", "s"),
    ("canon.calls", "count"),
    ("canon.hit_ratio", "ratio"),
    ("fingerprint.batch_s", "s"),
    ("fingerprint.items", "count"),
    ("fingerprint.ns_per_item", "ns"),
    ("table.insert_s", "s"),
    ("table.probe_s", "s"),
    ("table.inserts", "count"),
    ("table.present", "count"),
    ("table.dedup_ratio", "ratio"),
    ("table.bytes", "B"),
    ("table.shard_skew", "ratio"),
    ("pool.pass_overhead_us", "us"),
    ("pool.passes", "count"),
    ("pool.steals", "count"),
    ("pool.stolen_shards", "count"),
    ("search.explore_s", "s"),
    ("search.self_s", "s"),
    ("search.levels", "count"),
    ("search.expansions", "count"),
    ("search.peak_frontier", "count"),
    ("search.cap_fallbacks", "count"),
    ("search.peak_bytes", "B"),
    ("search.two_pass_extra_s", "s"),
    ("graph.build_s", "s"),
    ("graph.self_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("property.check_s", "s"),
    ("property.region", "count"),
    ("property.sccs", "count"),
    ("property.candidate_sccs", "count"),
    ("page.encode_s", "s"),
    ("page.decode_s", "s"),
    ("page.keys", "count"),
    ("page.bytes_per_key", "B"),
    ("extmem.explore_s", "s"),
    ("extmem.self_s", "s"),
    ("extmem.run_files", "count"),
    ("extmem.disk_bytes", "B"),
    ("extmem.peak_bytes", "B"),
    ("extmem.overhead_ratio", "ratio"),
    ("fs.write_s", "s"),
    ("fs.read_s", "s"),
    ("fs.bytes", "B"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.save_s", "s"),
    ("snapshot.load_s", "s"),
    ("snapshot.bytes", "B"),
    ("search.pause_s", "s"),
    ("search.resume_s", "s"),
    ("resume.overhead_ratio", "ratio"),
    ("cache.load_s", "s"),
    ("cache.save_s", "s"),
    ("cache.get_ns", "ns"),
    ("cache.entries", "count"),
    ("cache.file_bytes", "B"),
    ("manifest.run_s", "s"),
    ("manifest.hits", "count"),
    ("manifest.misses", "count"),
    ("manifest.job_sum_s", "s"),
    ("manifest.job_max_s", "s"),
    ("check.violation_s", "s"),
    ("check.deadlock_s", "s"),
    ("ring.evades_s", "s"),
    ("ring.greedy_s", "s"),
    ("quorum.lasso_s", "s"),
    ("obs.traced_overhead_ratio", "ratio"),
    ("obs.events", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("verdict.wall_s", "s"),
    ("control.slowdown", "ratio"),
];

/// The eight workloads, in ledger order.
pub const WORKLOADS: &[&str] = &[
    "mutex_dijkstra4",
    "ring_quotient20",
    "manifest_cold",
    "manifest_warm",
    "grid_w1",
    "grid_w2",
    "grid_spill",
    "grid_resume",
];

/// Untraced operations a run times at the least, however long they take.
const MIN_SAMPLES: usize = 3;

/// Traced operations per traced run; the fastest one's spans are kept.
const TRACED_OPS: usize = 3;

/// Repeats of a base measurement inside a replay; the fastest is kept.
pub const BASE_REPEATS: usize = 3;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// The small instances `ledger.sh --check` uses.
    pub small: bool,
    /// Exactly this many timed samples instead of a time budget.
    pub samples: Option<usize>,
    /// Stop after set-up and print `<seconds>:<peak RSS in MB>`.
    pub setup_only: bool,
    /// `(set-up seconds, peak RSS in MB after set-up)` measured by other
    /// processes of the same run.
    pub extra_setup: Vec<(f64, f64)>,
    /// Directory for scratch files and detailed results.
    pub out_dir: PathBuf,
    /// Path of `expected.txt`.
    pub expected_path: PathBuf,
}

/// Everything a workload's set-up may depend on.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Small (`--check`) instances?
    pub small: bool,
    /// Worker count for the parallel workloads: `min(2, nproc)`.
    pub workers: usize,
    /// This workload's private scratch directory (exists, empty).
    pub scratch: PathBuf,
    /// Parsed `expected.txt`.
    pub expected: Expected,
}

impl Ctx {
    /// `"full"` or `"small"`.
    pub fn scale(&self) -> &'static str {
        if self.small {
            "small"
        } else {
            "full"
        }
    }
}

/// What verifying one operation's outcome produced.
#[derive(Debug, Default)]
pub struct Checked {
    /// Deterministic counts of the operation, by name.
    pub counts: BTreeMap<String, u64>,
    /// Every way the outcome differed from the expected answer.
    pub errors: Vec<String>,
}

impl Checked {
    /// Record a count.
    pub fn count(&mut self, key: &str, value: usize) {
        self.counts.insert(key.to_string(), value as u64);
    }

    /// Record a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Per-layer metric values of one traced run, every name preset to 0.
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    fn slot(&mut self, name: &str) -> &mut f64 {
        self.0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
    }

    /// Set `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    /// Add to `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    /// Current value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// The derived metrics every workload shares. A `*.self_s` is the
    /// measured call minus the kernels replayed in isolation over the same
    /// state stream; replayed kernels run cache-warmer than in situ, so the
    /// residual bounds the shares from above.
    fn derive(&mut self) {
        let kernels = [
            "system.step_s",
            "canon.apply_s",
            "fingerprint.batch_s",
            "table.insert_s",
        ]
        .iter()
        .map(|k| self.get(k))
        .sum::<f64>();
        for (whole, own) in [
            ("search.explore_s", "search.self_s"),
            ("graph.build_s", "graph.self_s"),
        ] {
            if self.get(whole) > 0.0 {
                self.set(own, self.get(whole) - kernels);
            }
        }
        if self.get("fingerprint.items") > 0.0 {
            let per_item = self.get("fingerprint.batch_s") * 1e9 / self.get("fingerprint.items");
            self.set("fingerprint.ns_per_item", per_item);
        }
    }

    /// Every `<span>_s` metric that has spans named `<span>` becomes their
    /// total duration.
    fn fill_from_spans(&mut self, rec: &Recorder) {
        for &(name, _) in PER_LAYER {
            if let Some(span) = name.strip_suffix("_s") {
                if rec.spans().iter().any(|s| s.name == span) {
                    self.set(name, rec.total_s(span));
                }
            }
        }
    }
}

/// One of the eight workloads.
pub trait Workload: Sized {
    /// What one operation returns (reports, verdicts).
    type Outcome;
    /// Name as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Consecutive operations timed as one sample (reported per operation).
    const OPS_PER_SAMPLE: usize = 1;

    /// Set-up before the warm-up operation: inputs from the seed, scratch
    /// files, expected answers.
    fn prepare(ctx: &Ctx) -> Result<Self, String>;
    /// Distinct states the operation's verdicts cover.
    fn states(&self) -> u64;
    /// Untimed housekeeping before each operation.
    fn before_op(&mut self) {}
    /// One operation. The only timed call.
    fn run(&mut self) -> Self::Outcome;
    /// Verify an outcome against the expected answers and collect its
    /// deterministic counts.
    fn check(&mut self, out: Self::Outcome) -> Checked;
    /// One operation with a span around every call into a layer.
    fn run_traced(&mut self, rec: &mut Recorder) -> Self::Outcome;
    /// Drive each layer in isolation over the operation's state stream and
    /// record counts and derived metrics. The outcome [`Workload::check`]
    /// saw last is the traced operation whose spans `rec` holds.
    fn replay(&mut self, rec: &mut Recorder, layers: &mut Layers, checked: &mut Checked);
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Tally {
    attempted: usize,
    failed: usize,
    /// Each count as the first operation that reported it had it.
    reference: BTreeMap<String, u64>,
    expected: BTreeMap<String, u64>,
    messages: Vec<String>,
}

impl Tally {
    /// Count one operation; it fails when its own checks failed, when a
    /// count differs from `expected.txt`, or when a count differs from the
    /// first operation's.
    fn record(&mut self, checked: Result<Checked, String>) {
        self.attempted += 1;
        let mut errors = match checked {
            Err(panic) => vec![panic],
            Ok(c) => {
                let mut errors = c.errors;
                for (k, v) in &c.counts {
                    if let Some(want) = self.expected.get(k) {
                        if want != v {
                            errors.push(format!("{k} = {v}, expected.txt says {want}"));
                        }
                    }
                }
                // A count is pinned by the first operation that reports it
                // (the traced run's replay adds counts of its own).
                for (k, v) in c.counts {
                    let want = *self.reference.entry(k.clone()).or_insert(v);
                    if want != v {
                        errors.push(format!("{k} = {v}, an earlier operation had {want}"));
                    }
                }
                errors
            }
        };
        if !errors.is_empty() {
            self.failed += 1;
            errors.truncate(4);
            self.messages.extend(errors);
        }
    }
}

fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        format!("operation panicked: {msg}")
    })
}

/// One untimed-check, timed-run operation; returns wall seconds per
/// operation.
fn sample<W: Workload>(w: &mut W, tally: &mut Tally) -> f64 {
    let mut total = 0.0;
    for _ in 0..W::OPS_PER_SAMPLE {
        w.before_op();
        let t = Instant::now();
        let out = guarded(|| w.run());
        total += t.elapsed().as_secs_f64();
        tally.record(out.and_then(|o| guarded(|| w.check(o))));
    }
    total / W::OPS_PER_SAMPLE as f64
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj().with("value", value).with("unit", unit)
}

/// The traced half of a run: traced operations, replay, per-layer metrics,
/// `trace-<workload>.json`. `untraced_s` is the fastest untraced operation
/// of this process (wall time, uncorrected), the base of
/// `trace.overhead_ratio`; `slowdown` is the control's median time over its
/// reference.
fn trace_layers<W: Workload>(
    spec: &RunSpec,
    w: &mut W,
    tally: &mut Tally,
    untraced_s: f64,
    slowdown: f64,
    metrics: &mut Value,
    detail: &mut Value,
) -> Result<(), String> {
    // Traced operations, each into its own recorder whose first span is
    // the whole operation; the fastest one's spans are kept
    // (interference only ever adds time).
    let mut layers = Layers::default();
    let mut runs: Vec<(Recorder, Result<W::Outcome, String>)> = (0..TRACED_OPS)
        .map(|_| {
            let mut rec = Recorder::new();
            w.before_op();
            let op = rec.enter("operation");
            let out = guarded(|| w.run_traced(&mut rec));
            rec.exit(op);
            (rec, out)
        })
        .collect();
    let op = 0;
    let op_ns =
        |rec: &Recorder| rec.spans()[op as usize].end_ns - rec.spans()[op as usize].start_ns;
    let fastest = (0..runs.len())
        .min_by_key(|&i| op_ns(&runs[i].0))
        .expect("TRACED_OPS > 0");
    let (mut rec, out) = runs.swap_remove(fastest);
    for (_, slower) in runs {
        tally.record(slower.and_then(|o| guarded(|| w.check(o))));
    }
    let mut checked = out.and_then(|o| guarded(|| w.check(o)));
    let op_ns = op_ns(&rec);
    let attributed = 1.0 - self_ns(rec.spans(), op) as f64 / op_ns as f64;
    if let Ok(c) = &mut checked {
        let id = rec.enter("replay");
        if let Err(e) = guarded(|| w.replay(&mut rec, &mut layers, c)) {
            c.errors.push(e);
        }
        rec.exit(id);
    }
    tally.record(checked);
    layers.fill_from_spans(&rec);
    layers.derive();
    layers.set("trace.overhead_ratio", op_ns as f64 / 1e9 / untraced_s);
    layers.set("trace.attributed_share", attributed);
    layers.set("verdict.wall_s", untraced_s);
    layers.set("control.slowdown", slowdown);
    let mut per_layer = Value::obj();
    for &(name, unit) in PER_LAYER {
        metrics.set(name, metric(layers.get(name), unit));
        per_layer.set(name, metric(layers.get(name), unit));
    }
    detail.set("untraced_verdict_s", untraced_s);
    detail.set("per_layer", per_layer);
    let spans: Vec<Value> = rec
        .spans()
        .iter()
        .map(|s| {
            Value::obj()
                .with("id", s.id as u64)
                .with(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                )
                .with("name", s.name.as_str())
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("self_ns", self_ns(rec.spans(), s.id))
        })
        .collect();
    let trace = Value::obj()
        .with("workload", W::NAME)
        .with("seed", spec.seed)
        .with("spans", spans);
    let path = spec.out_dir.join(format!("trace-{}.json", W::NAME));
    std::fs::write(&path, trace.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

/// Run `spec` on workload `W`; `started` is the process start.
pub fn drive<W: Workload>(spec: &RunSpec, started: Instant) -> Result<i32, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = spec
        .out_dir
        .join(format!("scratch-{}-t{}", W::NAME, spec.traced as u8));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let expected_text = std::fs::read_to_string(&spec.expected_path)
        .map_err(|e| format!("{}: {e}", spec.expected_path.display()))?;
    let ctx = Ctx {
        seed: spec.seed,
        small: spec.small,
        workers: nproc.min(2),
        scratch: scratch.clone(),
        expected: Expected::parse(&expected_text)?,
    };
    let mut w = W::prepare(&ctx)?;
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        reference: BTreeMap::new(),
        expected: ctx.expected.counts(&format!("{}/{}", W::NAME, ctx.scale())),
        messages: Vec::new(),
    };
    // The verified warm-up operation ends set-up. Memory is read here, after
    // exactly one operation, and not at exit: how far the heap has grown by
    // then depends on how many operations a time budget happened to fit,
    // which is not a property of the program. The control's tables are
    // allocated only after that reading. Set-up has no control run before
    // it, so it is corrected by the one after it alone.
    sample(&mut w, &mut tally);
    let (setup_wall, setup_rss) = (started.elapsed().as_secs_f64(), peak_rss_mb());
    let mut control = Control::new();
    let mut controls = vec![control.run()];
    let setup_s = Control::correct(setup_wall, controls[0], controls[0]);
    if spec.setup_only {
        let _ = std::fs::remove_dir_all(&scratch);
        println!("{setup_s}:{setup_rss}");
        return Ok((tally.failed > 0) as i32);
    }

    // Control, operation, control, operation, … control: each operation is
    // corrected by the control runs on either side of it.
    let budget = if spec.traced {
        spec.seconds / 3.0
    } else {
        spec.seconds
    };
    let timed = Instant::now();
    let mut walls = Vec::new();
    loop {
        let done = match spec.samples {
            Some(n) => walls.len() >= n,
            None => walls.len() >= MIN_SAMPLES && timed.elapsed().as_secs_f64() >= budget,
        };
        if done {
            break;
        }
        walls.push(sample(&mut w, &mut tally));
        controls.push(control.run());
    }
    drop(control);
    let samples: Vec<f64> = walls
        .iter()
        .zip(controls.windows(2))
        .map(|(&wall, c)| Control::correct(wall, c[0], c[1]))
        .collect();

    // Workloads whose wall clock needs two cores are still run and checked
    // on one, but their timings are stamped and left out of comparisons.
    let machine_limited = nproc < 2 && matches!(W::NAME, "grid_w2" | "manifest_cold");
    let mut detail = Value::obj()
        .with("workload", W::NAME)
        .with("seed", spec.seed)
        .with("scale", ctx.scale())
        .with("traced", spec.traced)
        .with("nproc", nproc)
        .with("workers", ctx.workers)
        .with("machine_limited", machine_limited)
        .with("ops_per_sample", W::OPS_PER_SAMPLE)
        .with("states", w.states());
    let mut metrics = Value::obj();

    if !spec.traced {
        let rate: Vec<f64> = samples.iter().map(|s| w.states() as f64 / s).collect();
        let (mut setups, mut rss): (Vec<f64>, Vec<f64>) = spec.extra_setup.iter().copied().unzip();
        setups.push(setup_s);
        rss.push(setup_rss);
        let mut e2e = Value::obj();
        for (&(name, unit), all) in END_TO_END.iter().zip([samples, rate, rss, setups]) {
            let value = median(&all);
            metrics.set(name, metric(value, unit));
            e2e.set(
                name,
                Value::obj()
                    .with("unit", unit)
                    .with("value", value)
                    .with("samples", &all[..]),
            );
        }
        detail.set("end_to_end", e2e);
        detail.set("setup_wall_s", setup_wall);
        detail.set("wall_s", &walls[..]);
        detail.set("control_s", &controls[..]);
    } else {
        detail.set("untraced_samples", samples.len());
        trace_layers(
            spec,
            &mut w,
            &mut tally,
            Summary::of(&walls).min,
            median(&controls) / REFERENCE_S,
            &mut metrics,
            &mut detail,
        )?;
    }

    let mut counts = Value::obj();
    for (k, v) in &tally.reference {
        counts.set(k, *v);
    }
    detail.set("counts", counts);
    detail.set("attempted", tally.attempted);
    detail.set("failed", tally.failed);
    detail.set(
        "errors",
        tally
            .messages
            .iter()
            .map(|m| Value::from(m.as_str()))
            .collect::<Vec<_>>(),
    );
    let path = spec
        .out_dir
        .join(format!("run-{}-t{}.json", W::NAME, spec.traced as u8));
    std::fs::write(&path, detail.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = std::fs::remove_dir_all(&scratch);

    for m in &tally.messages {
        eprintln!("ledger: {}: {m}", W::NAME);
    }
    let line = Value::obj()
        .with("correct", tally.failed == 0)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", metrics);
    println!("{line}");
    Ok(0)
}
