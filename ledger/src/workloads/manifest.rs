//! `manifest_cold` and `manifest_warm` — what `check manifest` costs the
//! first time and every time after.
//!
//! Cold: 32 jobs (ring n evades-free / greedy-elects for n = 8..=18, the
//! E22 quorum non-termination family, three grids) on a two-worker pool
//! with an empty verdict cache, then `save`. Many small graphs, so
//! per-search fixed costs dominate instead of per-state costs, and the pool
//! is used across jobs rather than within levels.
//!
//! Warm: `load` a cache file holding those 32 verdicts among 2 000
//! seed-generated foreign entries, run the manifest (all hits), `save`.
//! The same `ckpt::cache` / `ckpt::manifest` layer with zero exploration: a
//! cache-format change that speeds cold saves but slows warm loads shows
//! here.
//!
//! The registry is re-declared here with the same closures as
//! `src/bin/check.rs` (a binary cannot be linked against).

use crate::expected::manifest_labels;
use crate::harness::{Checked, Ctx, Layers, Workload};
use crate::replay::{replay_lasso, Avoid, KernelTotals};
use crate::span::Recorder;
use crate::workloads::ring::{check_ring_lasso, replay_ring};
use impossible_ckpt::{
    job_key, model_fp, run_manifest, CheckJob, ManifestReport, Verdict, VerdictCache,
};
use impossible_consensus::flp::{AsyncCandidate, FlpAction, FlpState, FlpSystem};
use impossible_consensus::quorum::{exhibit_flp_lasso, QuorumLocal, QuorumMsg, QuorumVote};
use impossible_core::ids::ProcessId;
use impossible_core::system::System;
use impossible_det::rng::DetRng;
use impossible_election::ring_search;
use impossible_explore::property::eventually;
use impossible_explore::{Counterexample, Grid, PropertyReport, Search, WorkerPool};
use std::sync::Mutex;
use std::time::Instant;

/// State ceiling for every manifest job, as in `src/bin/check.rs`.
const MAX_STATES: usize = 400_000;
/// Foreign entries sharing the warm cache file.
const FOREIGN: usize = 2_000;

/// What the jobs report back besides their verdicts.
#[derive(Default)]
struct JobLog {
    /// Replay every lasso a job finds (the verified warm-up does).
    verify_lassos: bool,
    /// Record each job's wall time (the traced run does).
    timed: bool,
    times: Mutex<Vec<(String, f64)>>,
    errors: Mutex<Vec<String>>,
}

fn verdict<S: Clone + std::fmt::Debug, A: Clone + std::fmt::Debug>(
    r: &PropertyReport<S, A>,
) -> Verdict {
    Verdict {
        holds: r.holds,
        states: r.states,
        edges: r.edges,
    }
}

/// Replay the quorum lasso: a run of the crashed system whose cycle keeps
/// every message to a live process delivered, gives every live process a
/// step, and never has all live processes decided.
fn check_quorum_lasso(
    n: usize,
    failed: usize,
    report: &PropertyReport<FlpState<QuorumLocal, QuorumMsg>, FlpAction>,
) -> Result<(), String> {
    let Some(Counterexample::Lasso(lasso)) = &report.counterexample else {
        return Err("a failed liveness check carries no lasso".into());
    };
    let cand = QuorumVote::new(n);
    let sys = FlpSystem::all_binary(&cand);
    let live: Vec<usize> = (0..n).filter(|&p| p != failed).collect();
    let decided = |s: &FlpState<QuorumLocal, QuorumMsg>| {
        live.iter().all(|&p| cand.decision(&s.locals[p]).is_some())
    };
    let cycle = replay_lasso(
        &sys,
        None,
        &|a| sys.owner(a) != Some(ProcessId(failed)),
        &|s| s.pending.iter().all(|(_, to, _)| *to == failed),
        Avoid::Always(&decided),
        lasso,
    )?;
    for &p in &live {
        if !cycle.iter().any(|a| sys.owner(a) == Some(ProcessId(p))) {
            return Err(format!("live process {p} takes no step on the lasso cycle"));
        }
    }
    Ok(())
}

/// One registry entry, as `check.rs`'s `parse_job` builds it.
fn job<'a>(label: &str, log: &'a JobLog) -> CheckJob<'a> {
    let toks: Vec<&str> = label.split_whitespace().collect();
    let int = |s: &str| s.parse::<usize>().expect("registry labels are well-formed");
    let note = move |r: Result<(), String>, label: &str| {
        if let Err(e) = r {
            log.errors
                .lock()
                .expect("job log")
                .push(format!("{label}: {e}"));
        }
    };
    let owned = label.to_string();
    let (key, run): (u64, Box<dyn Fn() -> Verdict + Send + Sync + 'a>) = match toks.as_slice() {
        ["grid", n, max, prop @ "reaches-corner"] => {
            let (n, max) = (int(n), int(max) as u8);
            (
                job_key(model_fp("grid", &[n as u64, max as u64]), prop),
                Box::new(move || {
                    let sys = Grid { n, max };
                    let corner = eventually("reaches-corner", move |s: &Vec<u8>| {
                        s.iter().all(|&c| c == max)
                    });
                    verdict(
                        &Search::new(&sys)
                            .max_states(MAX_STATES)
                            .check_property(&corner),
                    )
                }),
            )
        }
        ["ring", n, prop @ "evades-free"] => {
            let n = int(n);
            (
                job_key(model_fp("ring", &[n as u64]), prop),
                Box::new(move || {
                    let r = ring_search::election_evades_free_schedulers(n, MAX_STATES);
                    if log.verify_lassos {
                        note(check_ring_lasso(n, false, &r), &owned);
                    }
                    verdict(&r)
                }),
            )
        }
        ["ring", n, prop @ "greedy-elects"] => {
            let n = int(n);
            (
                job_key(model_fp("greedy-ring", &[n as u64]), prop),
                Box::new(move || {
                    let r = ring_search::election_under_greedy_merges(n, MAX_STATES);
                    if log.verify_lassos {
                        note(check_ring_lasso(n, true, &r), &owned);
                    }
                    verdict(&r)
                }),
            )
        }
        ["quorum", n, failed, prop @ "nonterm"] => {
            let (n, failed) = (int(n), int(failed));
            (
                job_key(model_fp("quorum", &[n as u64, failed as u64]), prop),
                Box::new(move || {
                    let r = exhibit_flp_lasso(n, failed, MAX_STATES);
                    if log.verify_lassos {
                        note(check_quorum_lasso(n, failed, &r), &owned);
                    }
                    verdict(&r)
                }),
            )
        }
        _ => panic!("unknown registry label `{label}`"),
    };
    let label = label.to_string();
    if !log.timed {
        return CheckJob { label, key, run };
    }
    let name = label.clone();
    CheckJob {
        label,
        key,
        run: Box::new(move || {
            let t = Instant::now();
            let v = run();
            let dt = t.elapsed().as_secs_f64();
            log.times.lock().expect("job log").push((name.clone(), dt));
            v
        }),
    }
}

fn jobs<'a>(labels: &[String], log: &'a JobLog) -> Vec<CheckJob<'a>> {
    labels.iter().map(|l| job(l, log)).collect()
}

/// The parts both manifest workloads share.
struct Common {
    /// Job labels in this seed's order.
    labels: Vec<String>,
    /// Expected verdict per label, same order.
    expected: Vec<Verdict>,
    states: u64,
    workers: usize,
    path: String,
}

impl Common {
    fn prepare(ctx: &Ctx, name: &str) -> Result<Self, String> {
        let mut labels = manifest_labels(ctx.small);
        DetRng::seed_from_u64(ctx.seed).shuffle(&mut labels);
        let expected = labels
            .iter()
            .map(|l| {
                ctx.expected.job(l).map(|(holds, states, edges)| Verdict {
                    holds,
                    states,
                    edges,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Common {
            states: ctx
                .expected
                .count(&format!("{name}/{}", ctx.scale()), "states")?,
            labels,
            expected,
            workers: ctx.workers,
            path: ctx.scratch.join("cache.txt").to_string_lossy().into_owned(),
        })
    }

    /// Verdicts, hit/miss split and job order against the expected answers.
    fn check_report(&self, report: &ManifestReport, c: &mut Checked) {
        c.count("jobs", report.outcomes.len());
        c.count("hits", report.hits);
        c.count("misses", report.misses);
        c.require(report.outcomes.len() == self.labels.len(), || {
            "job count differs".into()
        });
        for ((o, label), want) in report.outcomes.iter().zip(&self.labels).zip(&self.expected) {
            c.require(o.label == *label, || {
                format!("outcome `{}` where `{label}` was due", o.label)
            });
            c.require(o.verdict == *want, || {
                format!("{label}: {:?}, expected {want:?}", o.verdict)
            });
        }
    }

    fn layers(&self, report: &ManifestReport, cache_len: usize, layers: &mut Layers) {
        layers.set("manifest.hits", report.hits as f64);
        layers.set("manifest.misses", report.misses as f64);
        layers.set("cache.entries", cache_len as f64);
        let bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len());
        layers.set("cache.file_bytes", bytes as f64);
    }
}

// ---- cold -------------------------------------------------------------

pub struct ManifestCold {
    common: Common,
    log: JobLog,
    small: bool,
    /// Per-job wall times of the outcome checked last (traced runs only).
    job_times: Vec<(String, f64)>,
}

pub struct ColdOutcome {
    report: ManifestReport,
    cache_len: usize,
    steals: (u64, u64),
    job_times: Vec<(String, f64)>,
}

impl ManifestCold {
    fn operation(&self, mut rec: Option<&mut Recorder>) -> ColdOutcome {
        let jobs = jobs(&self.common.labels, &self.log);
        let mut cache = VerdictCache::new();
        let pool = WorkerPool::new(self.common.workers);
        let report = super::spanned(&mut rec, "manifest.run", || {
            run_manifest(jobs, &mut cache, &pool)
        });
        super::spanned(&mut rec, "cache.save", || cache.save(&self.common.path))
            .expect("save the verdict cache");
        ColdOutcome {
            report,
            cache_len: cache.len(),
            steals: pool.take_steals(),
            job_times: std::mem::take(&mut *self.log.times.lock().expect("job log")),
        }
    }
}

impl Workload for ManifestCold {
    type Outcome = ColdOutcome;
    const NAME: &'static str = "manifest_cold";

    fn prepare(ctx: &Ctx) -> Result<Self, String> {
        Ok(ManifestCold {
            common: Common::prepare(ctx, Self::NAME)?,
            // The warm-up operation replays every lasso its jobs find.
            log: JobLog {
                verify_lassos: true,
                ..JobLog::default()
            },
            small: ctx.small,
            job_times: Vec::new(),
        })
    }

    fn states(&self) -> u64 {
        self.common.states
    }

    fn before_op(&mut self) {
        let _ = std::fs::remove_file(&self.common.path);
    }

    fn run(&mut self) -> ColdOutcome {
        self.operation(None)
    }

    fn check(&mut self, out: ColdOutcome) -> Checked {
        let mut c = Checked::default();
        self.common.check_report(&out.report, &mut c);
        c.count("cache_entries", out.cache_len);
        let bytes = std::fs::metadata(&self.common.path).map_or(0, |m| m.len());
        c.count("cache_file_bytes", bytes as usize);
        c.errors
            .append(&mut self.log.errors.lock().expect("job log"));
        self.log.verify_lassos = false;
        self.job_times = out.job_times;
        c
    }

    fn run_traced(&mut self, rec: &mut Recorder) -> ColdOutcome {
        self.log.timed = true;
        let out = self.operation(Some(rec));
        self.log.timed = false;
        out
    }

    fn replay(&mut self, rec: &mut Recorder, layers: &mut Layers, checked: &mut Checked) {
        for (label, dt) in &self.job_times {
            layers.add("manifest.job_sum_s", *dt);
            layers.set(
                "manifest.job_max_s",
                layers.get("manifest.job_max_s").max(*dt),
            );
            let engine = match label.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["ring", _, "evades-free"] => "ring.evades_s",
                ["ring", _, "greedy-elects"] => "ring.greedy_s",
                ["quorum", ..] => "quorum.lasso_s",
                _ => continue,
            };
            layers.add(engine, *dt);
        }
        // The operation's cache and report, rebuilt untimed for the counts.
        let out = self.operation(None);
        self.common.layers(&out.report, out.cache_len, layers);
        layers.set("pool.passes", out.steals.0 as f64);
        layers.set("pool.steals", out.steals.0 as f64);
        layers.set("pool.stolen_shards", out.steals.1 as f64);
        layers.set(
            "pool.pass_overhead_us",
            super::pool_pass_overhead_us(self.common.workers),
        );

        // Canon, graph and property shares come from replaying the ring
        // jobs, which are most of the manifest's exploration.
        let mut totals = KernelTotals::default();
        let sizes = if self.small { 8..=8 } else { 8..=18 };
        for n in sizes {
            for greedy in [false, true] {
                match replay_ring(rec, n, greedy, MAX_STATES) {
                    Err(e) => checked.errors.push(format!("ring {n}: {e}")),
                    Ok((t, report)) => {
                        layers.add("property.region", report.region as f64);
                        layers.add("property.sccs", report.sccs as f64);
                        layers.add("property.candidate_sccs", report.candidate_sccs as f64);
                        totals.absorb(&t);
                    }
                }
            }
        }
        totals.write(layers);
    }
}

// ---- warm -------------------------------------------------------------

pub struct ManifestWarm {
    common: Common,
    log: JobLog,
    /// The cache file's bytes; every `save` must reproduce them.
    file: Vec<u8>,
}

pub struct WarmOutcome {
    report: ManifestReport,
    cache_len: usize,
}

impl ManifestWarm {
    fn operation(&self, mut rec: Option<&mut Recorder>) -> WarmOutcome {
        let path = &self.common.path;
        let jobs = jobs(&self.common.labels, &self.log);
        let mut cache = super::spanned(&mut rec, "cache.load", || VerdictCache::load(path))
            .expect("load the verdict cache");
        let pool = WorkerPool::new(self.common.workers);
        let report = super::spanned(&mut rec, "manifest.run", || {
            run_manifest(jobs, &mut cache, &pool)
        });
        super::spanned(&mut rec, "cache.save", || cache.save(path))
            .expect("save the verdict cache");
        WarmOutcome {
            report,
            cache_len: cache.len(),
        }
    }
}

impl Workload for ManifestWarm {
    type Outcome = WarmOutcome;
    const NAME: &'static str = "manifest_warm";
    const OPS_PER_SAMPLE: usize = 50;

    fn prepare(ctx: &Ctx) -> Result<Self, String> {
        let common = Common::prepare(ctx, Self::NAME)?;
        // The verdicts come from expected.txt, so set-up explores nothing.
        let log = JobLog::default();
        let mut cache = VerdictCache::new();
        for (j, want) in jobs(&common.labels, &log).iter().zip(&common.expected) {
            cache.insert(j.key, &j.label, *want);
        }
        let mut rng = DetRng::stream(ctx.seed, 1);
        for i in 0..FOREIGN {
            let v = Verdict {
                holds: rng.gen_bool(0.5),
                states: rng.bounded_u64(1 << 20) as usize,
                edges: rng.bounded_u64(1 << 23) as usize,
            };
            cache.insert(rng.next_u64(), &format!("foreign {i} prop"), v);
        }
        cache.save(&common.path).map_err(|e| e.to_string())?;
        let file = std::fs::read(&common.path).map_err(|e| e.to_string())?;
        Ok(ManifestWarm { common, log, file })
    }

    fn states(&self) -> u64 {
        self.common.states
    }

    fn run(&mut self) -> WarmOutcome {
        self.operation(None)
    }

    fn check(&mut self, out: WarmOutcome) -> Checked {
        let mut c = Checked::default();
        self.common.check_report(&out.report, &mut c);
        c.count("cache_entries", out.cache_len);
        c.count("cache_file_bytes", self.file.len());
        c.require(out.cache_len == self.common.labels.len() + FOREIGN, || {
            format!("cache holds {} entries", out.cache_len)
        });
        let saved = std::fs::read(&self.common.path).unwrap_or_default();
        c.require(saved == self.file, || {
            "an all-hit run changed the cache file's bytes".into()
        });
        c
    }

    fn run_traced(&mut self, rec: &mut Recorder) -> WarmOutcome {
        self.operation(Some(rec))
    }

    fn replay(&mut self, rec: &mut Recorder, layers: &mut Layers, _checked: &mut Checked) {
        let out = self.operation(None);
        self.common.layers(&out.report, out.cache_len, layers);
        // The raw file traffic under load/save: the same bytes, no parsing.
        let raw = self.common.path.clone() + ".raw";
        rec.time("fs.write", || std::fs::write(&raw, &self.file))
            .expect("write scratch file");
        let back = rec
            .time("fs.read", || std::fs::read(&raw))
            .expect("read scratch file");
        layers.set("fs.bytes", back.len() as f64);

        let cache = VerdictCache::load(&self.common.path).expect("load the verdict cache");
        let keys: Vec<u64> = jobs(&self.common.labels, &self.log)
            .iter()
            .map(|j| j.key)
            .collect();
        let rounds = 10_000;
        let t = Instant::now();
        let mut found = 0usize;
        for _ in 0..rounds {
            for &k in &keys {
                found +=
                    std::hint::black_box(cache.get(std::hint::black_box(k))).is_some() as usize;
            }
        }
        let per_get = t.elapsed().as_secs_f64() * 1e9 / (rounds * keys.len()) as f64;
        assert_eq!(found, rounds * keys.len(), "every manifest key is cached");
        layers.set("cache.get_ns", per_get);
    }
}
