//! The batch-check scheduler: a manifest of model × property jobs, served
//! from the verdict cache where possible, run on the `WorkerPool` where
//! not.
//!
//! This is the in-process core of `src/bin/check`: the binary parses a
//! manifest file into [`CheckJob`]s (closures over registered workloads)
//! and hands them here. Scheduling is deliberately simple and
//! deterministic: cache hits are resolved up front (a hit costs a map
//! probe, parallelism would buy nothing), misses run on the pool via
//! `map_indexed` (results return in manifest order regardless of worker
//! count), and the report lists outcomes in manifest order. Trace events
//! (scope `"ckpt"`) are emitted only on the sequential path after the pool
//! joins, so a traced manifest run is byte-identical for any worker count
//! — the same discipline the search engine's tracer follows.

use crate::cache::{Verdict, VerdictCache};
use impossible_explore::WorkerPool;
use impossible_obs::{escape_into, trace_event, NoopTracer, Tracer};

/// One manifest entry: a labeled, keyed, runnable check.
pub struct CheckJob<'a> {
    /// Human-readable job label (appears in reports and the cache file).
    pub label: String,
    /// Cache key ([`crate::cache::job_key`]) — everything the verdict
    /// depends on must be folded into it.
    pub key: u64,
    /// Compute the verdict from scratch (run on a pool worker on a miss).
    pub run: Box<dyn Fn() -> Verdict + Send + Sync + 'a>,
}

/// One job's outcome in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job's label.
    pub label: String,
    /// The job's cache key.
    pub key: u64,
    /// Served from the cache (true) or computed this run (false).
    pub cached: bool,
    /// The verdict.
    pub verdict: Verdict,
}

/// Deterministic summary of one manifest run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestReport {
    /// Outcomes in manifest order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs served from the cache.
    pub hits: usize,
    /// Jobs computed this run.
    pub misses: usize,
}

impl ManifestReport {
    /// Canonical single-line JSON: fixed key order, keys rendered as fixed-
    /// width hex strings (u64-exact in any JSON reader), outcomes in
    /// manifest order. Pinned byte-for-byte by the verify.sh smoke stage.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"tool\":\"impossible-check\",\"jobs\":{},\"hits\":{},\"misses\":{},\"outcomes\":[",
            self.outcomes.len(),
            self.hits,
            self.misses
        );
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":\"");
            escape_into(&o.label, &mut out);
            out.push_str(&format!(
                "\",\"key\":\"{:016x}\",\"cached\":{},\"holds\":{},\"states\":{},\"edges\":{}}}",
                o.key,
                o.cached,
                o.verdict.holds,
                o.verdict.states,
                o.verdict.edges
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Run a manifest: resolve hits from `cache`, compute misses on `pool`,
/// write the new verdicts back into `cache`, and report outcomes in
/// manifest order. A second run over an unchanged manifest and cache is
/// all hits and computes nothing.
pub fn run_manifest<'a>(
    jobs: Vec<CheckJob<'a>>,
    cache: &mut VerdictCache,
    pool: &WorkerPool,
) -> ManifestReport {
    run_manifest_traced(jobs, cache, pool, &mut NoopTracer)
}

/// [`run_manifest`], recording trace events into `tracer` (scope
/// `"ckpt"`): `manifest.start`, one `job` event per entry in manifest
/// order, `manifest.end` with the hit/miss split.
pub fn run_manifest_traced<'a>(
    jobs: Vec<CheckJob<'a>>,
    cache: &mut VerdictCache,
    pool: &WorkerPool,
    tracer: &mut dyn Tracer,
) -> ManifestReport {
    trace_event!(tracer, "ckpt", "manifest.start",
        "jobs": jobs.len(),
        "cache_entries": cache.len(),
    );

    // Resolve the cache up front; collect the misses for the pool.
    let mut slots: Vec<Option<JobOutcome>> = Vec::with_capacity(jobs.len());
    let mut miss_jobs: Vec<(usize, CheckJob<'a>)> = Vec::new();
    for (i, job) in jobs.into_iter().enumerate() {
        match cache.get(job.key) {
            Some(verdict) => slots.push(Some(JobOutcome {
                label: job.label,
                key: job.key,
                cached: true,
                verdict,
            })),
            None => {
                slots.push(None);
                miss_jobs.push((i, job));
            }
        }
    }
    let hits = slots.iter().filter(|s| s.is_some()).count();
    let misses = miss_jobs.len();

    // Compute the misses. `map_indexed` returns results in item order for
    // any worker count, so the stitch below is deterministic.
    let computed = pool.map_indexed(miss_jobs, |_, (slot, job)| {
        let verdict = (job.run)();
        (
            slot,
            JobOutcome {
                label: job.label,
                key: job.key,
                cached: false,
                verdict,
            },
        )
    });
    for (slot, outcome) in computed {
        cache.insert(outcome.key, &outcome.label, outcome.verdict);
        slots[slot] = Some(outcome);
    }

    let outcomes: Vec<JobOutcome> = slots
        .into_iter()
        .map(|s| s.expect("every slot resolved or computed"))
        .collect();
    for o in &outcomes {
        trace_event!(tracer, "ckpt", "job",
            "label": o.label.as_str(),
            "cached": o.cached,
            "holds": o.verdict.holds,
            "states": o.verdict.states,
        );
    }
    trace_event!(tracer, "ckpt", "manifest.end",
        "hits": hits,
        "misses": misses,
    );
    ManifestReport {
        outcomes,
        hits,
        misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{job_key, model_fp};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn job<'a>(
        label: &str,
        key: u64,
        holds: bool,
        counter: &'a AtomicUsize,
    ) -> CheckJob<'a> {
        CheckJob {
            label: label.to_string(),
            key,
            run: Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                Verdict {
                    holds,
                    states: 10,
                    edges: 20,
                }
            }),
        }
    }

    #[test]
    fn second_run_is_all_hits_and_computes_nothing() {
        let runs = AtomicUsize::new(0);
        let k1 = job_key(model_fp("a", &[1]), "p");
        let k2 = job_key(model_fp("b", &[2]), "q");
        let mut cache = VerdictCache::new();
        let pool = WorkerPool::new(2);

        let make = || {
            vec![
                job("a 1 p", k1, true, &runs),
                job("b 2 q", k2, false, &runs),
            ]
        };
        let first = run_manifest(make(), &mut cache, &pool);
        assert_eq!((first.hits, first.misses), (0, 2));
        assert_eq!(runs.load(Ordering::SeqCst), 2);

        let second = run_manifest(make(), &mut cache, &pool);
        assert_eq!((second.hits, second.misses), (2, 0));
        assert_eq!(runs.load(Ordering::SeqCst), 2, "cache served everything");
        assert!(second.outcomes.iter().all(|o| o.cached));
        // Verdicts are identical either way.
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn outcomes_keep_manifest_order_for_any_worker_count() {
        let runs = AtomicUsize::new(0);
        let keys: Vec<u64> = (0..7).map(|i| job_key(model_fp("m", &[i]), "p")).collect();
        let render = |workers: usize| {
            let mut cache = VerdictCache::new();
            let pool = WorkerPool::new(workers);
            let jobs: Vec<CheckJob> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| job(&format!("m {i} p"), k, i % 2 == 0, &runs))
                .collect();
            run_manifest(jobs, &mut cache, &pool).to_json()
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(8));
    }

    #[test]
    fn partial_cache_mixes_hits_and_misses_in_place() {
        let runs = AtomicUsize::new(0);
        let k1 = job_key(model_fp("a", &[1]), "p");
        let k2 = job_key(model_fp("b", &[2]), "q");
        let mut cache = VerdictCache::new();
        cache.insert(
            k2,
            "b 2 q",
            Verdict {
                holds: true,
                states: 5,
                edges: 9,
            },
        );
        let pool = WorkerPool::new(1);
        let r = run_manifest(
            vec![job("a 1 p", k1, true, &runs), job("b 2 q", k2, false, &runs)],
            &mut cache,
            &pool,
        );
        assert_eq!((r.hits, r.misses), (1, 1));
        assert!(!r.outcomes[0].cached && r.outcomes[1].cached);
        // The cached verdict wins over the (different) recomputation the
        // closure would have produced: content-addressing means the key
        // promised they cannot differ.
        assert_eq!(r.outcomes[1].verdict.states, 5);
    }

    #[test]
    fn report_json_is_canonical() {
        let report = ManifestReport {
            outcomes: vec![JobOutcome {
                label: "ring \"4\" elects".to_string(),
                key: 0xAB,
                cached: true,
                verdict: Verdict {
                    holds: true,
                    states: 13,
                    edges: 29,
                },
            }],
            hits: 1,
            misses: 0,
        };
        assert_eq!(
            report.to_json(),
            "{\"tool\":\"impossible-check\",\"jobs\":1,\"hits\":1,\"misses\":0,\"outcomes\":[{\"label\":\"ring \\\"4\\\" elects\",\"key\":\"00000000000000ab\",\"cached\":true,\"holds\":true,\"states\":13,\"edges\":29}]}"
        );
    }
}
