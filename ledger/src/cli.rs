//! Command line of the `ledger` binary (`ledger.sh` is its only caller).
//!
//! ```text
//! ledger run --workload W --seed N --seconds S --trace 0|1 --out DIR --expected FILE
//!            [--small] [--samples N] [--setup-only] [--extra-setup s:mb,s:mb]
//! ledger report --out DIR --bench BENCHMARK.json [--seed N --rustc V --commit C]
//! ledger compare A.json B.json --bench BENCHMARK.json
//! ledger regen-expected
//! ```
//!
//! `run` measures one workload in this process — one process per workload,
//! so allocator state and `VmHWM` do not leak between workloads — and
//! prints one JSON object as its last line. `report` gathers the runs of a
//! directory into `results.json` and prints every metric by name.

use crate::compare::{classify, Class};
use crate::expected::regenerate;
use crate::harness::{drive, RunSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{parse, Value};
use crate::stats::Summary;
use crate::workloads::grid::{GridResume, GridSpill, GridW1, GridW2};
use crate::workloads::manifest::{ManifestCold, ManifestWarm};
use crate::workloads::mutex::Mutex;
use crate::workloads::ring::Ring;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `--flag value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["--small", "--setup-only"];

impl Args {
    fn parse(raw: Vec<String>) -> Result<Self, String> {
        let (mut words, mut flags) = (Vec::new(), Vec::new());
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                flags.push((a, String::new()));
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.push((a, v));
            } else {
                words.push(a);
            }
        }
        Ok(Args { words, flags })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn need(&self, flag: &str) -> Result<&str, String> {
        self.get(flag).ok_or_else(|| format!("missing {flag}"))
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        let v = self.need(flag)?;
        v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
    }
}

/// Entry point; returns the process exit code.
pub fn main(started: Instant) -> i32 {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(raw).and_then(|args| match args.words.first().map(String::as_str) {
        Some("run") => run(&args, started),
        Some("report") => report(&args),
        Some("compare") => compare(&args),
        Some("regen-expected") => {
            print!("{}", regenerate());
            Ok(0)
        }
        _ => Err("usage: ledger run|report|compare|regen-expected … (see ledger.sh)".into()),
    });
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        2
    })
}

fn run(args: &Args, started: Instant) -> Result<i32, String> {
    let seconds: f64 = args.num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds: {seconds} is out of range"));
    }
    let spec = RunSpec {
        workload: args.need("--workload")?.to_string(),
        seed: args.num("--seed")?,
        seconds,
        traced: match args.need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
        },
        small: args.get("--small").is_some(),
        samples: args
            .get("--samples")
            .map(|_| args.num("--samples"))
            .transpose()?,
        setup_only: args.get("--setup-only").is_some(),
        extra_setup: match args.get("--extra-setup") {
            None | Some("") => Vec::new(),
            Some(list) => list
                .split(',')
                .map(|pair| {
                    let (s, rss) = pair.split_once(':')?;
                    Some((s.parse::<f64>().ok()?, rss.parse::<f64>().ok()?))
                })
                .collect::<Option<_>>()
                .ok_or_else(|| format!("--extra-setup: bad value `{list}`"))?,
        },
        out_dir: PathBuf::from(args.need("--out")?),
        expected_path: PathBuf::from(args.need("--expected")?),
    };
    std::fs::create_dir_all(&spec.out_dir)
        .map_err(|e| format!("{}: {e}", spec.out_dir.display()))?;
    match spec.workload.as_str() {
        "mutex_dijkstra4" => drive::<Mutex>(&spec, started),
        "ring_quotient20" => drive::<Ring>(&spec, started),
        "manifest_cold" => drive::<ManifestCold>(&spec, started),
        "manifest_warm" => drive::<ManifestWarm>(&spec, started),
        "grid_w1" => drive::<GridW1>(&spec, started),
        "grid_w2" => drive::<GridW2>(&spec, started),
        "grid_spill" => drive::<GridSpill>(&spec, started),
        "grid_resume" => drive::<GridResume>(&spec, started),
        other => Err(format!("unknown workload `{other}`; one of {WORKLOADS:?}")),
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fmt(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

/// Gather `run-<workload>-t{0,1}.json` into `results.json`, print every
/// metric of every workload, fail on any failed operation.
fn report(args: &Args) -> Result<i32, String> {
    let out = PathBuf::from(args.need("--out")?);
    let mut results = Value::obj()
        .with("seed", args.get("--seed").unwrap_or("?"))
        .with("rustc", args.get("--rustc").unwrap_or("?"))
        .with("commit", args.get("--commit").unwrap_or("?"));
    let (mut runs, mut failed, mut attempted) = (Vec::new(), 0.0, 0.0);
    for w in WORKLOADS {
        let untraced = read_json(&out.join(format!("run-{w}-t0.json")))?;
        let traced = read_json(&out.join(format!("run-{w}-t1.json")))?;
        let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let limited = untraced
            .get("machine_limited")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let ops = num(&untraced, "attempted") + num(&traced, "attempted");
        let bad = num(&untraced, "failed") + num(&traced, "failed");
        (attempted, failed) = (attempted + ops, failed + bad);
        println!(
            "== {w}  (nproc {}, workers {}, {} operations, fail_share {}{})",
            num(&untraced, "nproc"),
            num(&untraced, "workers"),
            ops,
            bad / ops.max(1.0),
            if limited { ", machine_limited" } else { "" }
        );
        for &(name, unit) in END_TO_END {
            let metric = untraced.get("end_to_end").and_then(|e| e.get(name));
            let (value, samples) = metric
                .and_then(|m| Some((m.get("value")?.as_f64()?, m.get("samples")?.as_f64_vec()?)))
                .ok_or_else(|| format!("{w}: no end-to-end metric {name}"))?;
            let s = Summary::of(&samples);
            println!(
                "  {name:<28} {:>14} {unit:<6} samples: median {} q1 {} q3 {} min {} max {} n {}",
                fmt(value),
                fmt(s.median),
                fmt(s.q1),
                fmt(s.q3),
                fmt(s.min),
                fmt(s.max),
                s.n
            );
        }
        for &(name, unit) in PER_LAYER {
            let v = traced
                .get("per_layer")
                .and_then(|p| p.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{w}: no per-layer metric {name}"))?;
            println!("  {name:<28} {:>14} {unit}", fmt(v));
        }
        for run in [&untraced, &traced] {
            for e in run.get("errors").and_then(Value::as_array).unwrap_or(&[]) {
                println!("  FAILED: {}", e.as_str().unwrap_or("?"));
            }
        }
        runs.push(
            Value::obj()
                .with("workload", *w)
                .with("untraced", untraced)
                .with("traced", traced),
        );
    }
    if let Some(n) = runs
        .first()
        .and_then(|r| r.get("untraced"))
        .and_then(|u| u.get("nproc"))
    {
        results.set("nproc", n.clone());
    }
    results.set("workloads", runs);
    let path = out.join("results.json");
    std::fs::write(&path, results.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "ledger: wrote {} ({attempted} operations, {failed} failed)",
        path.display()
    );
    Ok((failed > 0.0) as i32)
}

/// Per workload × end-to-end metric: both medians with quartiles, the
/// relative change with its base, and ok / regressed / unresolved against
/// the bounds in `BENCHMARK.json`. Non-zero exit on any `regressed`.
fn compare(args: &Args) -> Result<i32, String> {
    let [_, a_path, b_path] = args.words.as_slice() else {
        return Err("compare needs two results.json paths".into());
    };
    let bench = read_json(Path::new(args.need("--bench")?))?;
    let (a, b) = (read_json(Path::new(a_path))?, read_json(Path::new(b_path))?);
    let by_name = |r: &Value| -> Vec<(String, Value)> {
        r.get("workloads")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| {
                Some((
                    w.get("workload")?.as_str()?.to_string(),
                    w.get("untraced")?.clone(),
                ))
            })
            .collect()
    };
    let (runs_a, runs_b) = (by_name(&a), by_name(&b));
    println!("A = {a_path}   B = {b_path}   (change = (B − A) ÷ A; positive is worse; [q …] = quartiles of the samples)");
    let mut regressed = 0;
    for (w, ua) in &runs_a {
        let Some((_, ub)) = runs_b.iter().find(|(n, _)| n == w) else {
            println!("{w}: missing from B");
            regressed += 1;
            continue;
        };
        let limited = |u: &Value| {
            u.get("machine_limited")
                .and_then(Value::as_bool)
                .unwrap_or(false)
        };
        for m in bench
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("BENCHMARK.json: metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: metric without bound")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            if (limited(ua) || limited(ub)) && name != "peak_rss_mb" {
                println!("{w:<16} {name:<13} skipped (machine_limited)");
                continue;
            }
            let samples = |u: &Value| {
                u.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .and_then(|m| m.get("samples"))
                    .and_then(Value::as_f64_vec)
                    .ok_or_else(|| format!("{w}: no samples for {name}"))
            };
            if !END_TO_END.iter().any(|(n, _)| *n == name) {
                return Err(format!("BENCHMARK.json: unknown end-to-end metric {name}"));
            }
            let row = classify(&samples(ua)?, &samples(ub)?, lower, bound);
            println!(
                "{w:<16} {name:<13} A {} [q {} … {}, n {}]   B {} [q {} … {}, n {}]   change {:+.2}% of A (bound {:.0}%)   {}",
                fmt(row.a_value),
                fmt(row.a.q1),
                fmt(row.a.q3),
                row.a.n,
                fmt(row.b_value),
                fmt(row.b.q1),
                fmt(row.b.q3),
                row.b.n,
                row.worse_by * 100.0,
                bound * 100.0,
                row.class.name()
            );
            regressed += (row.class == Class::Regressed) as i32;
        }
    }
    Ok((regressed > 0) as i32)
}
