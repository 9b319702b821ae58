//! `mutex_dijkstra4` — a real §2.1 model: Dijkstra's algorithm for four
//! processes, checked for mutual exclusion (BFS with a predicate) and for
//! deadlock (the graph route plus backward reachability) in one user-level
//! operation. `System::step` and `Encode` on structured states do most of
//! the work; table and fingerprint work is the minority.

use crate::harness::{Checked, Ctx, Layers, Workload, BASE_REPEATS};
use crate::replay::replay_kernels;
use crate::span::Recorder;
use impossible_core::exec::Execution;
use impossible_explore::{Search, DEFAULT_SEED};
use impossible_sharedmem::algorithms::dijkstra::{Dijkstra, DijkstraLocal};
use impossible_sharedmem::check::{find_deadlock, find_mutex_violation};
use impossible_sharedmem::mutex::{MutexAction, MutexState};
use impossible_sharedmem::MutexSystem;

/// State cap: above the 335 023 reachable states, so nothing truncates.
const CAP: usize = 1_000_000;

pub struct Mutex {
    alg: Dijkstra,
    states: u64,
}

type Violation = Option<Execution<MutexState<DijkstraLocal>, MutexAction>>;
type Deadlock = Option<MutexState<DijkstraLocal>>;

impl Workload for Mutex {
    type Outcome = (Violation, Deadlock);
    const NAME: &'static str = "mutex_dijkstra4";

    fn prepare(ctx: &Ctx) -> Result<Self, String> {
        let section = format!("{}/{}", Self::NAME, ctx.scale());
        Ok(Mutex {
            alg: Dijkstra::new(if ctx.small { 3 } else { 4 }),
            states: ctx.expected.count(&section, "states")?,
        })
    }

    fn states(&self) -> u64 {
        self.states
    }

    fn run(&mut self) -> Self::Outcome {
        let sys = MutexSystem::new(&self.alg);
        (find_mutex_violation(&sys, CAP), find_deadlock(&sys, CAP))
    }

    fn check(&mut self, (violation, deadlock): Self::Outcome) -> Checked {
        let mut c = Checked::default();
        c.count("violation", violation.is_some() as usize);
        c.count("deadlock", deadlock.is_some() as usize);
        c
    }

    fn run_traced(&mut self, rec: &mut Recorder) -> Self::Outcome {
        let sys = MutexSystem::new(&self.alg);
        let violation = rec.time("check.violation", || find_mutex_violation(&sys, CAP));
        let deadlock = rec.time("check.deadlock", || find_deadlock(&sys, CAP));
        (violation, deadlock)
    }

    fn replay(&mut self, rec: &mut Recorder, layers: &mut Layers, checked: &mut Checked) {
        let sys = MutexSystem::new(&self.alg);
        let search = Search::new(&sys).max_states(CAP);
        let report = rec.time_fastest("search.explore", BASE_REPEATS, || search.explore());
        let graph = rec.time_fastest("graph.build", BASE_REPEATS, || search.graph());
        checked.count("states", report.num_states);
        checked.count("transitions", report.num_transitions);
        checked.count("levels", report.stats.levels);
        checked.count("dedup_hits", report.stats.dedup_hits);
        checked.count("peak_frontier", report.stats.peak_frontier);
        checked.require(graph.len() == report.num_states, || {
            format!(
                "graph has {} nodes, search saw {} states",
                graph.len(),
                report.num_states
            )
        });
        layers.set("search.levels", report.stats.levels as f64);
        layers.set("search.expansions", report.stats.expansions as f64);
        layers.set("search.peak_frontier", report.stats.peak_frontier as f64);
        layers.set("search.cap_fallbacks", report.stats.cap_fallbacks as f64);
        layers.set("search.peak_bytes", report.stats.peak_bytes as f64);
        match replay_kernels(rec, &sys, None, DEFAULT_SEED, &graph) {
            Ok((totals, _)) => totals.write(layers),
            Err(e) => checked.errors.push(e),
        }
    }
}
