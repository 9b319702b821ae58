//! Incremental re-exploration after a model edit.
//!
//! The north-star workload is Lynch's own: impossibility arguments are
//! re-run against small protocol *variations* — crash one more process,
//! drop one transition rule, widen one guard — and the state spaces before
//! and after an edit are nearly identical. Rebuilding the reachable graph
//! from scratch re-pays `enabled`/`step` for every state; this pass pays
//! them only for the **dirty frontier** — the pre-states whose transition
//! set the edit actually touches — and splices the old graph's successor
//! lists back in everywhere else.
//!
//! The contract is *equivalence, cheaper*: [`reexplore_incremental`]
//! produces a graph equal (states, order, edges, truncation) to a full
//! [`Search::graph`](impossible_explore::Search::graph) of the edited
//! system. It is the same loop: the pass is
//! [`Search::graph_from`](impossible_explore::Search::graph_from) — the
//! workspace's one graph builder, so interning, discovery order, the state
//! cap and every other bound are that search's — handed a successor source
//! that reads the old graph where it may. Equality then rests on `dirty`
//! alone, which must over-approximate the edit: for every clean state the
//! edited system's `(action, child)` sequence equals the old graph's.
//! [`ActionEdit::dirty_state`] derives such a predicate for action-dropping
//! edits mechanically; `crates/explore/tests/graph_oracle.rs` sweeps it
//! against full rebuilds on generated systems.
//!
//! Reuse is disabled wholesale when the old graph was truncated: a capped
//! builder drops children of *clean* states too, so old successor lists
//! are not trustworthy — correctness first, savings second.

use impossible_core::ids::ProcessId;
use impossible_core::system::System;
use impossible_explore::{ReachableGraph, Search};
use impossible_obs::{trace_event, Tracer};
use std::collections::BTreeMap;

/// A model edit expressed as an action filter over a base system: the
/// edited system is the base with every `(state, action)` pair failing
/// `keep` removed. Dropping all of one process's actions models a crash;
/// dropping one rule models a protocol variation.
pub struct ActionEdit<'a, Sys: System, K>
where
    K: Fn(&Sys::State, &Sys::Action) -> bool,
{
    base: &'a Sys,
    keep: K,
}

impl<'a, Sys: System, K> ActionEdit<'a, Sys, K>
where
    K: Fn(&Sys::State, &Sys::Action) -> bool,
{
    /// The base system with every `(state, action)` failing `keep` removed.
    pub fn new(base: &'a Sys, keep: K) -> Self {
        ActionEdit { base, keep }
    }

    /// The dirty predicate this edit induces: a pre-state is dirty iff the
    /// edit drops at least one of its enabled actions — exactly the states
    /// whose successor lists the old graph can no longer vouch for.
    pub fn dirty_state(&self, s: &Sys::State) -> bool {
        self.base.enabled(s).iter().any(|a| !(self.keep)(s, a))
    }
}

/// Crash-style edit: drop every action owned by `failed`.
pub fn crash_process<Sys: System>(
    base: &Sys,
    failed: ProcessId,
) -> ActionEdit<'_, Sys, impl Fn(&Sys::State, &Sys::Action) -> bool + '_> {
    let keep = move |_s: &Sys::State, a: &Sys::Action| base.owner(a) != Some(failed);
    ActionEdit::new(base, keep)
}

impl<'a, Sys: System, K> System for ActionEdit<'a, Sys, K>
where
    K: Fn(&Sys::State, &Sys::Action) -> bool,
{
    type State = Sys::State;
    type Action = Sys::Action;

    fn initial_states(&self) -> Vec<Self::State> {
        self.base.initial_states()
    }

    fn enabled(&self, state: &Self::State) -> Vec<Self::Action> {
        let mut acts = Vec::new();
        self.enabled_into(state, &mut acts);
        acts
    }

    fn enabled_into(&self, state: &Self::State, out: &mut Vec<Self::Action>) {
        self.base.enabled_into(state, out);
        out.retain(|a| (self.keep)(state, a));
    }

    fn step(&self, state: &Self::State, action: &Self::Action) -> Self::State {
        self.base.step(state, action)
    }

    fn step_into(&self, state: &Self::State, action: &Self::Action, out: &mut Self::State) {
        self.base.step_into(state, action, out)
    }

    fn owner(&self, action: &Self::Action) -> Option<ProcessId> {
        self.base.owner(action)
    }

    fn num_processes(&self) -> Option<usize> {
        self.base.num_processes()
    }
}

/// What the incremental pass paid versus saved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrStats {
    /// States whose successor lists were spliced in from the old graph
    /// (no `enabled`/`step` calls).
    pub reused: usize,
    /// States re-expanded through the edited system (dirty, new, or all of
    /// them when the old graph was truncated).
    pub recomputed: usize,
}

impl IncrStats {
    /// Canonical single-line JSON (fixed key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"reused\":{},\"recomputed\":{}}}",
            self.reused, self.recomputed
        )
    }
}

/// Rebuild the reachable graph of the edited system `sys`, reusing the old
/// graph's successor lists for every state that is present in `old`, not
/// `dirty`, and `old` itself is untruncated. Equal to a full
/// `Search::new(sys).max_states(max_states).graph()` — same states, same
/// discovery order, same edges, same truncation, that search's default
/// depth bound included — with `enabled`/`step` paid only on the
/// recomputed states. Records `scope: "ckpt"` events into `tracer`: one
/// `incr.start` with the old graph's size, one `incr.end` with the result
/// size and the reuse split.
pub fn reexplore_incremental<Sys, D>(
    old: &ReachableGraph<Sys::State, Sys::Action>,
    sys: &Sys,
    dirty: D,
    max_states: usize,
    tracer: &mut dyn Tracer,
) -> (ReachableGraph<Sys::State, Sys::Action>, IncrStats)
where
    Sys: System,
    D: Fn(&Sys::State) -> bool,
{
    trace_event!(tracer, "ckpt", "incr.start",
        "old_states": old.len(),
        "old_edges": old.num_edges(),
        "old_truncated": old.truncated(),
        "max_states": max_states,
    );
    let reuse_ok = !old.truncated();
    let old_index: BTreeMap<&Sys::State, usize> =
        old.order.iter().enumerate().map(|(i, s)| (s, i)).collect();
    let mut stats = IncrStats {
        reused: 0,
        recomputed: 0,
    };

    // The exact-graph builder's own traversal; only where each state's
    // `(action, child)` sequence comes from differs, and on clean states
    // the two sources agree by the `dirty` over-approximation contract.
    // The builder's spare pool is left alone: most children here are clones
    // spliced from the old graph, not steps.
    let g = Search::new(sys)
        .max_states(max_states)
        .graph_from(|state, children, _spares| match old_index.get(state) {
            Some(&oi) if reuse_ok && !dirty(state) => {
                stats.reused += 1;
                children.extend(
                    old.succ[oi]
                        .iter()
                        .map(|(a, t)| (a.clone(), old.order[*t].clone())),
                );
            }
            _ => {
                stats.recomputed += 1;
                for a in sys.enabled(state) {
                    let t = sys.step(state, &a);
                    children.push((a, t));
                }
            }
        });

    trace_event!(tracer, "ckpt", "incr.end",
        "states": g.len(),
        "edges": g.num_edges(),
        "reused": stats.reused,
        "recomputed": stats.recomputed,
        "truncated": g.truncated(),
    );
    (g, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_explore::Grid;
    use impossible_obs::NoopTracer;

    /// Render a graph for byte-level comparison.
    fn bytes(g: &ReachableGraph<Vec<u8>, usize>) -> String {
        format!("{:?}|{:?}|{}|{:?}", g.order, g.succ, g.initials, g.truncated_by)
    }

    #[test]
    fn identity_edit_reuses_everything() {
        let sys = Grid { n: 3, max: 3 };
        let old = Search::new(&sys).graph();
        let edit = ActionEdit::new(&sys, |_: &Vec<u8>, _: &usize| true);
        let (g, stats) =
            reexplore_incremental(&old, &edit, |s| edit.dirty_state(s), 1_000_000, &mut NoopTracer);
        assert_eq!(bytes(&g), bytes(&old));
        assert_eq!(stats.recomputed, 0);
        assert_eq!(stats.reused, old.len());
    }

    #[test]
    fn dropping_an_action_recomputes_only_its_cone() {
        // Drop counter-2 increments once counter 0 is ahead: a genuinely
        // state-dependent edit.
        let sys = Grid { n: 3, max: 2 };
        let old = Search::new(&sys).graph();
        let edit = ActionEdit::new(&sys, |s: &Vec<u8>, a: &usize| !(*a == 2 && s[0] > s[1]));
        let (g, stats) =
            reexplore_incremental(&old, &edit, |s| edit.dirty_state(s), 1_000_000, &mut NoopTracer);
        let full = Search::new(&edit).graph();
        assert_eq!(bytes(&g), bytes(&full));
        assert!(stats.reused > 0, "clean states must be spliced");
        assert!(stats.recomputed > 0, "dirty states must be re-expanded");
    }

    #[test]
    fn truncated_old_graph_disables_reuse() {
        let sys = Grid { n: 3, max: 3 };
        let old = Search::new(&sys).max_states(20).graph();
        assert!(old.truncated());
        let edit = ActionEdit::new(&sys, |_: &Vec<u8>, _: &usize| true);
        let (g, stats) =
            reexplore_incremental(&old, &edit, |s| edit.dirty_state(s), 20, &mut NoopTracer);
        let full = Search::new(&edit).max_states(20).graph();
        assert_eq!(bytes(&g), bytes(&full));
        assert_eq!(stats.reused, 0, "capped succ lists must never be trusted");
    }

    /// A grid where action `k` is owned by process `k` — gives
    /// `crash_process` something real to drop.
    struct OwnedGrid(Grid);

    impl System for OwnedGrid {
        type State = Vec<u8>;
        type Action = usize;

        fn initial_states(&self) -> Vec<Vec<u8>> {
            self.0.initial_states()
        }

        fn enabled(&self, s: &Vec<u8>) -> Vec<usize> {
            self.0.enabled(s)
        }

        fn step(&self, s: &Vec<u8>, a: &usize) -> Vec<u8> {
            self.0.step(s, a)
        }

        fn owner(&self, a: &usize) -> Option<ProcessId> {
            Some(ProcessId(*a))
        }
    }

    #[test]
    fn crash_edit_matches_owner_filtered_graph() {
        let sys = OwnedGrid(Grid { n: 3, max: 2 });
        let old = Search::new(&sys).graph();
        let edit = crash_process(&sys, ProcessId(1));
        let (g, stats) =
            reexplore_incremental(&old, &edit, |s| edit.dirty_state(s), 1_000_000, &mut NoopTracer);
        let full = Search::new(&sys).graph_filtered(|a| sys.owner(a) != Some(ProcessId(1)));
        assert_eq!(bytes(&g), bytes(&full));
        // Crashing a process dirties every state where it could still move,
        // so the only reused states are the ones it had already exhausted.
        assert_eq!(stats.reused + stats.recomputed, g.len());
    }
}
