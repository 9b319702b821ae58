//! Exact reachable-graph construction for the analysis engines.
//!
//! The valence fixpoint, deadlock backward-reachability and lasso product
//! searches all need the full graph — states *and* successor lists — so a
//! fingerprint-only visited set is not enough, and a hash-indexed one would
//! make graph shape depend on collision luck. This builder keeps every
//! state (it must, to return them) and uses fingerprints purely as an
//! **index acceleration**: dedup probes a [`ShardedFpMap`] (the same
//! sharded table the BFS engine's visited set uses) for the first state
//! index seen under a fingerprint, then confirms with one full equality
//! comparison; the (astronomically rare) colliding fingerprints spill into
//! an overflow chain. A collision costs extra comparisons, never a wrong
//! graph — so graph-based classifications (valence, deadlock,
//! non-termination) are exact under any seed, while skipping the
//! per-fingerprint bucket allocations and per-expansion state clones the
//! previous builder paid (the ledger's `graph.build_s` / `graph.self_s`
//! on `mutex_dijkstra4` and `ring_quotient20` track the cost).
//!
//! This is a separate loop from the BFS engine's because it stores what
//! that engine exists to avoid storing — every state and every edge — and
//! because its indices are assigned in global FIFO discovery order, which
//! downstream engines treat as stable (the BFS engine's merge order is
//! shard-major within a level). The bounds are the same on both: a
//! `System` whose state is [`Encode`], nothing about threads. What the two
//! share is the machinery underneath: `Search::stage_successors`, the
//! sharded table and the batched fingerprint pipeline.
//!
//! Graphs honor the search's bounds — `max_states`, and (since the
//! spill-to-disk PR fixed the builder silently ignoring it) `max_depth`:
//! the FIFO cursor tracks BFS level boundaries, stops expanding at the
//! depth bound, and reports [`Truncation::Depth`] when unexpanded
//! non-terminal states remain, exactly like `Search::explore`. Interned
//! node indices are `u32`; the conversion is checked, surfacing as
//! [`Truncation::Index`] instead of a silent wrap, should a space ever
//! outgrow the index width before the state cap binds.

use crate::fingerprint::{BatchScratch, Encode};
use crate::search::Search;
use crate::table::{Cap, ShardedFpMap, TryInsert};
use impossible_core::explore::Truncation;
use impossible_core::system::{DecisionSystem, System};
use impossible_core::valence::{ValenceEngine, ValenceReport};
use std::collections::BTreeMap;

/// A reachable configuration graph: `order[i]` is state `i`, `succ[i]` its
/// `(action, target_index)` edges in action order.
#[derive(Debug, Clone)]
pub struct ReachableGraph<S, A> {
    /// States in discovery (BFS) order; initial states first.
    pub order: Vec<S>,
    /// Successor lists, indices into `order`.
    pub succ: Vec<Vec<(A, usize)>>,
    /// Number of (distinct, canonical) initial states: `order[..initials]`.
    /// The property checker's stem searches start here.
    pub initials: usize,
    /// The first bound that tripped, if any: `States`, `Depth`, or `Index`
    /// (the `u32` index space ran out).
    pub truncated_by: Option<Truncation>,
}

impl<S, A> ReachableGraph<S, A> {
    /// Did the builder hit a bound before exhausting the space?
    pub fn truncated(&self) -> bool {
        self.truncated_by.is_some()
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Number of edges (sum of successor-list lengths).
    pub fn num_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// True when no state was reached (no initial states).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl<'a, Sys: System> Search<'a, Sys>
where
    Sys::State: Encode,
{
    /// Build the reachable graph (within `max_states`), dedup accelerated by
    /// fingerprint buckets with exact equality fallback.
    pub fn graph(&self) -> ReachableGraph<Sys::State, Sys::Action> {
        self.graph_filtered(|_| true)
    }

    /// All distinct reachable states (within `max_states`), sorted.
    pub fn reachable_states(&self) -> Vec<Sys::State> {
        let mut order = self.graph().order;
        order.sort();
        order
    }

    /// Reachable graph over the transitions whose action passes `keep` —
    /// e.g. the FLP non-termination engine drops actions owned by failed
    /// processes before hunting for bivalent cycles.
    pub fn graph_filtered<F>(&self, keep: F) -> ReachableGraph<Sys::State, Sys::Action>
    where
        F: Fn(&Sys::Action) -> bool,
    {
        let sys = self.sys();
        let (max_states, max_depth) = self.bounds();
        let seed = self.seed_value();

        let mut order: Vec<Sys::State> = Vec::new();
        let mut succ: Vec<Vec<(Sys::Action, usize)>> = Vec::new();
        // First state index interned under each fingerprint. Indices are
        // `u32`: the graph stores full states, so memory runs out long
        // before 2³² of them. Genuine collisions (distinct states sharing a
        // fingerprint) chain into `spill`, which stays empty on honest
        // encodings.
        let mut first_by_fp: ShardedFpMap<u32> = ShardedFpMap::new(self.partitions_value());
        let mut spill: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut batch = BatchScratch::new(seed);
        let mut truncated_by: Option<Truncation> = None;

        // Look up the interned index of `sc` under `fp`, with exact
        // equality confirmation (a fingerprint match alone is never
        // trusted).
        macro_rules! lookup {
            ($fp:expr, $sc:expr) => {
                match first_by_fp.get($fp) {
                    None => None,
                    Some(&j0) if order[j0 as usize] == *$sc => Some(j0 as usize),
                    Some(_) => spill
                        .get(&$fp)
                        .and_then(|chain| {
                            chain.iter().copied().find(|&j| order[j as usize] == *$sc)
                        })
                        .map(|j| j as usize),
                }
            };
        }
        // Intern a known-new state as index `$j`. Evaluates to `false` —
        // without interning — when `$j` no longer fits the `u32` index
        // width: the caller records `Truncation::Index` and stops adding
        // states, instead of the old `as u32` silently wrapping the index
        // into a bogus (and aliased) slot.
        macro_rules! intern_new {
            ($fp:expr, $sc:expr, $j:expr) => {{
                match u32::try_from($j) {
                    Err(_) => false,
                    Ok(j32) => {
                        if first_by_fp.contains($fp) {
                            spill.entry($fp).or_default().push(j32);
                        } else {
                            let r = first_by_fp.try_insert_with($fp, Cap::Unbounded, || j32);
                            debug_assert_eq!(r, TryInsert::Inserted);
                        }
                        order.push($sc);
                        succ.push(Vec::new());
                        true
                    }
                }
            }};
        }

        for s0 in sys.initial_states() {
            let sc = self.canonize(s0, &mut 0);
            let fp = batch.fingerprint_one(&sc);
            if lookup!(fp, &sc).is_some() {
                continue;
            }
            let j = order.len();
            if !intern_new!(fp, sc, j) {
                truncated_by.get_or_insert(Truncation::Index);
                break;
            }
        }
        let initials = order.len();

        // FIFO discovery: indices are assigned in push order, so the queue
        // is just a cursor over `order` — identical traversal to the old
        // VecDeque builder, without cloning each state out of `order` to
        // expand it (children are staged in a reusable buffer instead, so
        // `order` is never grown while a state borrow is live).
        let mut children: Vec<(Sys::Action, Sys::State)> = Vec::new();
        let mut i = 0usize;
        // BFS level boundary: indices `[0, level_end)` are at most `depth`
        // steps from an initial state. FIFO order makes the boundary a
        // plain cursor — no per-state depth bookkeeping.
        let mut depth = 0usize;
        let mut level_end = order.len();
        while i < order.len() {
            if i == level_end {
                depth += 1;
                level_end = order.len();
            }
            if depth >= max_depth {
                // Depth cutoff, matching `Search::explore`: the remaining
                // states stay in the graph with empty successor lists, and
                // the truncation is flagged iff any of them still had kept
                // work to expand.
                if order[i..]
                    .iter()
                    .any(|s| sys.enabled(s).iter().any(|a| keep(a)))
                {
                    truncated_by.get_or_insert(Truncation::Depth);
                }
                break;
            }
            self.stage_successors(&order[i], &keep, &mut 0, |tc, a| children.push((a, tc)));
            // One batched fingerprint pass over the staged children — the
            // same hot-path shape as the fused search engine.
            let fps = batch.fingerprints(children.iter().map(|(_, tc)| tc));
            for ((a, tc), &fp) in children.drain(..).zip(fps) {
                let ti = match lookup!(fp, &tc) {
                    Some(j) => j,
                    None => {
                        if order.len() >= max_states {
                            truncated_by.get_or_insert(Truncation::States);
                            continue;
                        }
                        let j = order.len();
                        if !intern_new!(fp, tc, j) {
                            truncated_by.get_or_insert(Truncation::Index);
                            continue;
                        }
                        j
                    }
                };
                succ[i].push((a, ti));
            }
            i += 1;
        }

        ReachableGraph {
            order,
            succ,
            initials,
            truncated_by,
        }
    }
}

impl<'a, Sys: DecisionSystem> Search<'a, Sys>
where
    Sys::State: Encode,
{
    /// Valence-classify the reachable space: build the graph here, run the
    /// classification fixpoint through
    /// [`ValenceEngine::analyze_from_graph`]. Drop-in for
    /// `ValenceEngine::analyze` with the fast graph builder underneath.
    pub fn valence(&self) -> ValenceReport<Sys::State> {
        let g = self.graph();
        ValenceEngine::new(self.sys())
            .max_states(self.bounds().0)
            .analyze_from_graph(&g.order, &g.succ, g.truncated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FpHasher;
    use crate::grid::Grid;

    #[test]
    fn graph_matches_full_exploration() {
        let sys = Grid { n: 2, max: 3 };
        let g = Search::new(&sys).graph();
        let r = Search::new(&sys).explore();
        assert_eq!(g.len(), r.num_states);
        assert_eq!(
            g.succ.iter().map(Vec::len).sum::<usize>(),
            r.num_transitions
        );
        assert!(!g.truncated());
        // Initial state first, edges index-closed.
        assert_eq!(g.order[0], vec![0, 0]);
        assert!(g.succ.iter().flatten().all(|&(_, t)| t < g.len()));
    }

    #[test]
    fn graph_filtered_drops_edges_and_their_cone() {
        // Keep only counter-0 increments: a 1-dimensional chain remains.
        let sys = Grid { n: 2, max: 3 };
        let g = Search::new(&sys).graph_filtered(|a| *a == 0);
        assert_eq!(g.len(), 4);
        assert!(g.succ.iter().all(|es| es.len() <= 1));
    }

    #[test]
    fn graph_is_exact_even_under_total_fingerprint_collision() {
        // All states encode identically — every fingerprint collides. The
        // equality fallback must still produce the exact graph.
        struct Degenerate;
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        struct Blind(u8);
        // LINT-ALLOW: encode-coverage -- deliberately blind: the audit must fire
        impl Encode for Blind {
            fn encode(&self, _h: &mut FpHasher) {}
        }
        impl System for Degenerate {
            type State = Blind;
            type Action = u8;
            fn initial_states(&self) -> Vec<Blind> {
                vec![Blind(0)]
            }
            fn enabled(&self, s: &Blind) -> Vec<u8> {
                if s.0 < 9 {
                    vec![0]
                } else {
                    vec![]
                }
            }
            fn step(&self, s: &Blind, _a: &u8) -> Blind {
                Blind(s.0 + 1)
            }
        }
        let g = Search::new(&Degenerate).graph();
        assert_eq!(g.len(), 10);
        assert!(!g.truncated());
    }

    #[test]
    fn depth_bound_is_enforced_and_marked() {
        // Regression: the builder used to ignore `max_depth` entirely —
        // `.max_depth(3)` built the full space. A 1-D chain makes the
        // level structure exact: depth d reaches counter values 0..=d.
        let sys = Grid { n: 1, max: 100 };
        let g = Search::new(&sys).max_depth(3).graph();
        assert_eq!(g.len(), 4, "roots + 3 expanded levels");
        assert_eq!(g.truncated_by, Some(Truncation::Depth));
        // The cutoff level's states are present but unexpanded.
        assert!(g.succ[3].is_empty());
        // And the search engine agrees on the census at the same bound.
        let r = Search::new(&sys).max_depth(3).explore();
        assert_eq!(r.num_states, g.len());
        assert_eq!(r.truncated_by, g.truncated_by);
    }

    #[test]
    fn depth_bound_on_terminal_frontier_is_not_truncation() {
        // If the depth bound lands exactly on the space's own horizon —
        // every frontier state terminal — nothing was cut off.
        let sys = Grid { n: 1, max: 3 };
        let g = Search::new(&sys).max_depth(3).graph();
        assert_eq!(g.len(), 4);
        assert_eq!(g.truncated_by, None);
        // One level short, the same space *is* truncated.
        let g = Search::new(&sys).max_depth(2).graph();
        assert_eq!(g.truncated_by, Some(Truncation::Depth));
    }

    #[test]
    fn depth_bound_respects_filtered_actions() {
        // A state whose only enabled actions are filtered out is terminal
        // *in the filtered graph*: reaching it at the cutoff depth is not
        // truncation.
        let sys = Grid { n: 2, max: 2 };
        // Keep only counter-0 increments: chain (0,0)→(1,0)→(2,0), done.
        let g = Search::new(&sys).max_depth(2).graph_filtered(|a| *a == 0);
        assert_eq!(g.len(), 3);
        assert_eq!(g.truncated_by, None);
    }

    #[test]
    fn state_cap_marks_truncation() {
        let sys = Grid { n: 2, max: 50 };
        let g = Search::new(&sys).max_states(7).graph();
        assert_eq!(g.len(), 7);
        assert_eq!(g.truncated_by, Some(Truncation::States));
    }
}
