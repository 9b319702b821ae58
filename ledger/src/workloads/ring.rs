//! `ring_quotient20` — the anonymous token ring of size 20 explored in its
//! rotation quotient (52 487 necklaces), with two liveness checks: `◇(one
//! token)` under a free scheduler and `multi-token ⤳ one-token` under
//! greedy merges. `explore::canon` (rotation canon on every successor) and
//! `explore::property` (Tarjan SCC plus lasso construction) dominate, so a
//! canon or SCC change shows here and nowhere else.

use crate::harness::{Checked, Ctx, Layers, Workload};
use crate::replay::{replay_kernels, replay_lasso, Avoid, KernelTotals};
use crate::span::Recorder;
use impossible_core::system::System;
use impossible_election::ring_search::{
    election_evades_free_schedulers, election_under_greedy_merges, rotation_canon, GreedyMergeRing,
    TokenRing,
};
use impossible_explore::property::{eventually, leads_to};
use impossible_explore::{Checker, Counterexample, PropertyReport, Search, DEFAULT_SEED};

/// State cap of the full-scale operation (52 487 necklaces fit easily).
const CAP: usize = 2_000_000;

pub type RingReport = PropertyReport<Vec<u8>, usize>;

fn tokens(s: &[u8]) -> usize {
    s.iter().filter(|&&b| b == 1).count()
}

/// Replay a ring report's lasso with `enabled`/`step`/canon and the
/// property's own predicates.
pub fn check_ring_lasso(n: usize, greedy: bool, report: &RingReport) -> Result<(), String> {
    let Some(Counterexample::Lasso(lasso)) = &report.counterexample else {
        return Err("a failed liveness check carries no lasso".into());
    };
    let one = |s: &Vec<u8>| tokens(s) == 1;
    let many = |s: &Vec<u8>| tokens(s) >= 2;
    let (all, any) = (|_: &usize| true, |_: &Vec<u8>| true);
    if greedy {
        let sys = GreedyMergeRing { n };
        replay_lasso(
            &sys,
            Some(rotation_canon),
            &all,
            &any,
            Avoid::AfterPivot(&many, &one),
            lasso,
        )
    } else {
        let sys = TokenRing { n };
        replay_lasso(
            &sys,
            Some(rotation_canon),
            &all,
            &any,
            Avoid::Always(&one),
            lasso,
        )
    }
    .map(|_| ())
}

/// Rebuild one ring job's graph, check its property on the prebuilt graph
/// and drive the kernels over its stream. Returns the kernel counts and the
/// property report of the replayed check.
pub fn replay_ring(
    rec: &mut Recorder,
    n: usize,
    greedy: bool,
    cap: usize,
) -> Result<(KernelTotals, RingReport), String> {
    fn go<Sys: System<State = Vec<u8>, Action = usize>>(
        rec: &mut Recorder,
        sys: &Sys,
        greedy: bool,
        cap: usize,
    ) -> Result<(KernelTotals, RingReport), String> {
        let search = Search::new(sys).max_states(cap).canon(rotation_canon);
        let graph = rec.time("graph.build", || search.graph());
        let prop = if greedy {
            leads_to(
                "merges-elect",
                |s: &Vec<u8>| tokens(s) >= 2,
                |s: &Vec<u8>| tokens(s) == 1,
            )
        } else {
            eventually("one-token", |s: &Vec<u8>| tokens(s) == 1)
        };
        let report = rec.time("property.check", || Checker::new(&graph).check(&prop));
        let (totals, _) = replay_kernels(rec, sys, Some(rotation_canon), DEFAULT_SEED, &graph)?;
        Ok((totals, report))
    }
    if greedy {
        go(rec, &GreedyMergeRing { n }, true, cap)
    } else {
        go(rec, &TokenRing { n }, false, cap)
    }
}

pub struct Ring {
    n: usize,
    states: u64,
}

impl Workload for Ring {
    type Outcome = (RingReport, RingReport);
    const NAME: &'static str = "ring_quotient20";

    fn prepare(ctx: &Ctx) -> Result<Self, String> {
        let section = format!("{}/{}", Self::NAME, ctx.scale());
        Ok(Ring {
            n: if ctx.small { 12 } else { 20 },
            states: ctx.expected.count(&section, "states")?,
        })
    }

    fn states(&self) -> u64 {
        self.states
    }

    fn run(&mut self) -> Self::Outcome {
        (
            election_evades_free_schedulers(self.n, CAP),
            election_under_greedy_merges(self.n, CAP),
        )
    }

    fn check(&mut self, (evades, greedy): Self::Outcome) -> Checked {
        let mut c = Checked::default();
        for (tag, is_greedy, r) in [("evades", false, &evades), ("greedy", true, &greedy)] {
            c.count(&format!("{tag}.holds"), r.holds as usize);
            c.count(&format!("{tag}.states"), r.states);
            c.count(&format!("{tag}.edges"), r.edges);
            c.count(&format!("{tag}.region"), r.region);
            c.count(&format!("{tag}.sccs"), r.sccs);
            c.count(&format!("{tag}.candidate_sccs"), r.candidate_sccs);
            c.require(!r.truncated, || format!("{tag}: graph truncated"));
            if let Err(e) = check_ring_lasso(self.n, is_greedy, r) {
                c.errors.push(format!("{tag}: {e}"));
            }
        }
        c
    }

    fn run_traced(&mut self, rec: &mut Recorder) -> Self::Outcome {
        let evades = rec.time("ring.evades", || {
            election_evades_free_schedulers(self.n, CAP)
        });
        let greedy = rec.time("ring.greedy", || election_under_greedy_merges(self.n, CAP));
        (evades, greedy)
    }

    fn replay(&mut self, rec: &mut Recorder, layers: &mut Layers, checked: &mut Checked) {
        let mut totals = KernelTotals::default();
        for (tag, greedy) in [("evades", false), ("greedy", true)] {
            match replay_ring(rec, self.n, greedy, CAP) {
                Err(e) => checked.errors.push(format!("{tag}: {e}")),
                Ok((t, report)) => {
                    checked.count(&format!("{tag}.canon_hits"), t.canon_hits as usize);
                    // The check on the prebuilt graph is the operation's own
                    // second half, so it must reach the same counts.
                    checked.count(&format!("{tag}.sccs"), report.sccs);
                    checked.count(&format!("{tag}.edges"), t.edges as usize);
                    layers.add("property.region", report.region as f64);
                    layers.add("property.sccs", report.sccs as f64);
                    layers.add("property.candidate_sccs", report.candidate_sccs as f64);
                    totals.absorb(&t);
                }
            }
        }
        totals.write(layers);
    }
}
