//! Deterministic trace dumps and trace diffing (see `docs/OBS.md`).
//!
//! Usage:
//!
//! ```text
//! cargo run --bin trace -- dump <target> [seed]   # JSONL trace to stdout
//! cargo run --bin trace -- diff <a.jsonl> <b.jsonl>
//! ```
//!
//! Targets: `search` (fingerprint BFS on the benchmark grid), `valence`
//! (FLP arbiter classification + decider hunt), `benor` (randomized
//! consensus round transcript), `election` (async LCR ring), `property`
//! (the temporal-property checker exhibiting the quorum FLP lasso). Every
//! dump is a pure function of `(target, seed)`: run the same command twice
//! and `diff` reports the traces identical; change the seed and it
//! localizes the first divergent event.

use impossible::consensus::{benor, flp, quorum};
use impossible::election::lcr::Lcr;
use impossible::election::ring::{RingRunner, RingSchedule};
use impossible::explore::{Grid, Search, DEFAULT_SEED};
use impossible::obs::{trace_diff, Event, RingTracer};

/// Events kept per dump; plenty for every target here (the ring evicts
/// oldest-first beyond this, and reports what it dropped on stderr).
const CAPACITY: usize = 1 << 16;

fn usage() -> String {
    "usage: trace dump <search|valence|benor|election|property> [seed]\n\
     \x20      trace diff <a.jsonl> <b.jsonl>"
        .to_string()
}

fn dump(target: &str, seed: u64) -> Result<RingTracer, String> {
    let mut tracer = RingTracer::new(CAPACITY);
    match target {
        "search" => {
            let sys = Grid { n: 3, max: 5 };
            let r = Search::new(&sys)
                .seed(seed)
                .tracer(&mut tracer)
                .search(|s| s.iter().all(|&c| c == 5));
            r.witness.ok_or("grid corner unreachable?!")?;
        }
        "valence" => {
            // Seed selects the arbiter size (2 or 3 processes).
            let n = 2 + (seed % 2) as usize;
            let arb = flp::Arbiter::new(n);
            let sys = flp::FlpSystem::all_binary(&arb);
            let search = Search::new(&sys).max_states(200_000).tracer(&mut tracer);
            let _ = search.valence();
            let _ = search.find_decider();
        }
        "benor" => {
            let run = benor::run_benor(&[0, 1, 0, 1, 1], 2, seed, &[], 200, &mut tracer);
            if !run.complete {
                return Err(format!("ben-or did not terminate within budget (seed {seed})"));
            }
        }
        "election" => {
            let ids = [11, 3, 8, 20, 5, 17, 2, 14];
            let procs: Vec<Lcr> = ids.iter().map(|&id| Lcr::new(id)).collect();
            let out = RingRunner::new(procs).run(RingSchedule::Random(seed), 100_000, &mut tracer);
            if out.leader.is_none() {
                return Err("LCR elected no unique leader?!".to_string());
            }
        }
        "property" => {
            // The checker itself is seed-independent by contract; the seed
            // picks which voter crashes so different seeds still diverge.
            let n = 3;
            let failed = (seed % n as u64) as usize;
            let report = quorum::exhibit_flp_lasso_traced(n, failed, 400_000, &mut tracer);
            if report.inconclusive() {
                return Err("quorum vote held only within the state cap: inconclusive".to_string());
            }
            if report.holds {
                return Err("quorum vote terminated despite a crashed voter?!".to_string());
            }
        }
        other => return Err(format!("unknown dump target `{other}`\n{}", usage())),
    }
    Ok(tracer)
}

fn parse_trace(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            Event::parse_jsonl(l)
                .ok_or_else(|| format!("{path}:{}: not a canonical trace line", i + 1))
        })
        .collect()
}

/// What `main` fails with. The runtime prints a failed `main`'s error
/// through `Debug`, which for a bare `String` quotes it and escapes every
/// newline of the usage text; this `Debug` writes the message as it is.
struct CliError(String);

impl std::fmt::Debug for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn main() -> Result<(), CliError> {
    run().map_err(CliError)
}

fn run() -> Result<(), String> {
    // LINT-ALLOW: det-ambient -- CLI argument parsing; never protocol state
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    match strs.as_slice() {
        ["dump", target] => print_dump(target, DEFAULT_SEED),
        ["dump", target, seed] => {
            let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
            print_dump(target, seed)
        }
        ["diff", a, b] => {
            let (ta, tb) = (parse_trace(a)?, parse_trace(b)?);
            let verdict = trace_diff(&ta, &tb);
            println!("{}", verdict.render());
            if verdict.identical() {
                Ok(())
            } else {
                Err("traces differ".to_string())
            }
        }
        _ => Err(usage()),
    }
}

fn print_dump(target: &str, seed: u64) -> Result<(), String> {
    let tracer = dump(target, seed)?;
    if tracer.dropped() > 0 {
        eprintln!(
            "note: ring capacity {CAPACITY} evicted {} oldest events",
            tracer.dropped()
        );
    }
    print!("{}", tracer.to_jsonl());
    Ok(())
}
