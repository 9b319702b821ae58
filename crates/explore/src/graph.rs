//! The exact reachable-graph builder: the one loop in the workspace that
//! interns a [`System`] into `(order, succ)`.
//!
//! The valence fixpoint, deadlock backward-reachability and lasso product
//! searches all need the full graph — states *and* successor lists — so a
//! fingerprint-only visited set is not enough, and one that trusted a hash
//! would make graph shape depend on collision luck. This builder keeps every
//! state (it must, to return them) and uses a hash purely as an **index
//! acceleration**: dedup probes the crate's `InternIndex` (sharded like the
//! BFS engine's visited set, one 8-byte word per entry: the key's high 32
//! bits over `index + 1`), and every word whose tag matches is confirmed by
//! one full equality comparison against `order[index]`. A tag or key shared
//! by distinct states only makes the probe go on — there is no collision
//! chain — so a collision costs extra comparisons, never a wrong graph, and
//! graph-based classifications (valence, deadlock, non-termination) are
//! exact under any seed (the ledger's `graph.build_s` / `graph.self_s` on
//! `mutex_dijkstra4` and `ring_quotient20` track the cost).
//!
//! The key is not the search route's fingerprint. No output depends on
//! it, so it is whatever hash is cheapest: the state's own
//! `std::hash::Hash` (a [`System::State`] bound) fed to `table.rs`'s
//! `IndexHasher`, seeded by `Search::seed` — a few words per state where
//! the seeded [`Encode`](crate::Encode) fingerprint, which is observable
//! and is not computed here at all, spends a `splitmix64` round per word.
//! Dedup relies on that `Hash` agreeing with `Eq` (the two-hash policy:
//! `docs/EXPLORE.md`, "Fingerprint dedup and the collision policy").
//!
//! **One builder, one seam.** [`Search::graph_from`] is the loop; what it
//! leaves to its caller is the successor *source*, a closure that stages a
//! state's `(label, child)` batch in action order. [`Search::graph`],
//! [`Search::graph_filtered`] and [`Search::shape`] source it from
//! `Search::stage_successors` (`enabled → step_into(spare) | step →
//! canon`, the step every search route shares); `ckpt::incr` sources it
//! from an older graph's successor lists wherever the model edit left a
//! state clean. Roots are canonised by the loop; children are interned
//! exactly as the closure hands them over, so in `graph_from` the canon
//! hook is the closure's business. The closure
//! also receives the loop's *spare pool* — the children that turned out to
//! be interned already, at most one block's batch of them, kept instead of
//! dropped so that `stage_successors` can build the next children in their
//! storage; a source that has no use for dead states (`ckpt::incr`'s)
//! ignores it. The closure is a generic parameter — monomorphised into the
//! loop, never `dyn`.
//!
//! **A block at a time.** The loop stages the children of up to `BLOCK` =
//! 16 consecutive FIFO states of one BFS level before it interns any of
//! them, and keys each child as it is staged, while the child is still in
//! cache. One pass then reads every staged child's home index word
//! (`InternIndex::home_word`, kept live with `std::hint::black_box`; no
//! `unsafe` prefetch). Those reads do not depend on one another, so their
//! cache misses overlap. In a state-at-a-time loop each child's index
//! lookup waited for the previous child's probe and `Eq` confirm. After
//! the pass the block is interned and its rows closed in state order and
//! action order, through the unchanged `find` / `Eq` / `insert`. So node
//! numbering and edges are a state-at-a-time loop's, and so are the cuts:
//! the cap is tested as a child is interned, never as it is staged, and
//! a block never crosses a level boundary, so the depth cut still stops at
//! the first state of the cut level that has work. The read-ahead is not
//! a second probe. Each child still gets exactly one `find`, and the
//! read-ahead costs one plain load of a word that `find` reads next
//! anyway. On `Dijkstra(4)` (2 vCPU) `graph()` went 0.293 → 0.224 s
//! (medians of 20 interleaved runs in one process), and the ledger's
//! `mutex_dijkstra4` `verdict_s` 0.353 → 0.315 s (10 pairs).
//!
//! The search route does not read ahead. Its `Search::commit_children`
//! probes a fingerprint table with keys that `expand_partition` computed
//! for the whole partition beforehand, and a hit there needs no state
//! comparison, so there is no chain of dependent loads for a read-ahead to
//! break. The same pass in `commit_children` was measured twice on mutex
//! `explore()`: 15 % slower in one prototype, and within ±2 % of no pass
//! over 40 interleaved runs in another (2 vCPU). No gain was shown, so it
//! stays out.
//!
//! This is a separate loop from the BFS engine's because it stores what
//! that engine exists to avoid storing — every state and every edge — and
//! because its indices are assigned in global FIFO discovery order, which
//! downstream engines treat as stable (the BFS engine's merge order is
//! shard-major within a level). It asks less of the model than that
//! engine: any [`System`], no [`Encode`](crate::Encode) and nothing about
//! threads. What the two share is the machinery underneath:
//! `Search::stage_successors` and the table's shard routing and probing.
//!
//! Graphs honor the search's bounds — `max_states` and `max_depth`: the
//! FIFO cursor tracks BFS level boundaries, stops expanding at the depth
//! bound, and reports [`Truncation::Depth`] when unexpanded non-terminal
//! states remain, exactly like `Search::explore`. Two widths are `u32`,
//! and both conversions are checked, surfacing as [`Truncation::Index`]
//! instead of a silent wrap, should a space ever outgrow them before the
//! state cap binds: interned node indices (stored as `index + 1` in the
//! low half of an index word, so the last internable index is
//! `u32::MAX − 1`) and the
//! row offsets of the edge array (at most `u32::MAX` edges). A cut, a
//! depth bound or an index overflow therefore has this one place to be
//! right.
//!
//! **Edges are flat.** [`ReachableGraph::succ`] is a [`Succ`]: one edge
//! array and one `u32` offset per state, not a heap block per state. States
//! are expanded in index order, so rows complete in index order and the
//! builder writes them in place — push a state's edges, close its row, and
//! after the loop (exhausted, depth cut or cap) pad the states that were
//! never expanded with empty rows.
//!
//! **Labels only where they are read.** The edge label is `graph_from`'s
//! type parameter: an edge is `(label, target)`. [`Search::graph`] and
//! [`Search::graph_filtered`] label it with its action, for the consumers
//! that read labels across the graph: a fair `Checker` (fairness classes
//! over every edge of an SCC: FLP crash-liveness, `quorum`),
//! `find_lockout` (which process stepped), [`Search::find_decider`] (solo
//! runs follow one process's actions) and `ckpt::incr` (it re-stages an
//! old row's actions). [`Search::shape`] labels it `()`, for those that
//! read targets only: the valence classification ([`Search::valence`]),
//! the mutex deadlock check, [`Search::reachable_states`] and
//! [`Search::check_property`], which sets no fairness and so reads an
//! action only on the witness it returns — it derives those few with
//! `Search::edge_action` (re-staging the edge's source state; exact on
//! rows a cap cut, `docs/PROPERTIES.md`, "Witness actions").
//!
//! **Targets as wide as the reader needs.** `graph_from`'s second type
//! parameter is the target width `T` ([`Target`]: `usize` or `u32`), so an
//! edge costs `size_of::<(L, T)>()`: 16 B labelled, `(action, usize)`, on
//! the mutex models (an 8-byte `MutexAction`) and on the token ring (a
//! `usize` action); 4 B label-free, `((), u32)` — on `Dijkstra(4)`'s
//! 1 340 092 edges, 21.4 MB against 5.4 MB; on `TokenRing{20}`'s quotient,
//! 524 880 edges, 8.4 MB against 2.1 MB. `graph()` keeps its `(action,
//! usize)` rows because the performance ledger (`ledger/src/replay.rs`,
//! outside the workspace) reads `&g.succ[i]` as a slice of `(A, usize)`
//! and indexes its own per-state arrays with the targets; narrowing the
//! labelled graph's targets waits for a change that may edit the ledger
//! (ROADMAP item 1(e)). The ledger never calls `shape()`.
//!
//! The graph *queries* are not here: a consumer runs them on the rows,
//! `g.succ.can_reach(..)`, `g.succ.bfs_tree()`, `g.succ.sccs(..)`,
//! `g.succ.covering_cycle(..)` — one implementation of each, in
//! `core::succ`, which `core::valence` reaches too.

use crate::search::{with_tracer, Search, DEFAULT_PARTITIONS};
use crate::table::{IndexHasher, InternIndex};
use impossible_core::explore::Truncation;
use impossible_core::succ::{Succ, Target};
use impossible_core::system::{DecisionSystem, System};
use impossible_core::valence::{Decider, ValenceEngine, ValenceReport};
use impossible_obs::NoopTracer;

/// The most FIFO states whose children [`Search::graph_from`] stages, keys
/// and reads ahead before interning any of them.
pub(crate) const BLOCK: usize = 16;

/// A reachable configuration graph: `order[i]` is state `i`, `succ[i]` its
/// `(label, target_index)` edges in action order — the label an action
/// ([`Search::graph`]) or `()` ([`Search::shape`]), the target a `T`
/// ([`Target`]: `usize`, or `u32` for [`Search::shape`]).
#[derive(Debug, Clone)]
pub struct ReachableGraph<S, A, T = usize> {
    /// States in discovery (BFS) order; initial states first.
    pub order: Vec<S>,
    /// Successor rows, targets indexing `order`; one row per state.
    pub succ: Succ<A, T>,
    /// Number of (distinct, canonical) initial states: `order[..initials]`.
    /// The property checker's stem searches start here.
    pub initials: usize,
    /// The first bound that tripped, if any: `States`, `Depth`, or `Index`
    /// (the `u32` index space ran out).
    pub truncated_by: Option<Truncation>,
}

impl<S, A, T> ReachableGraph<S, A, T> {
    /// Did the builder hit a bound before exhausting the space?
    pub fn truncated(&self) -> bool {
        self.truncated_by.is_some()
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Number of edges (sum of successor-row lengths), in O(1).
    pub fn num_edges(&self) -> usize {
        self.succ.num_edges()
    }

    /// True when no state was reached (no initial states).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl<'a, Sys: System> Search<'a, Sys> {
    /// Build the reachable graph (within `max_states`), dedup accelerated by
    /// a hash index with exact equality fallback.
    pub fn graph(&self) -> ReachableGraph<Sys::State, Sys::Action> {
        self.graph_filtered(|_| true)
    }

    /// The reachable graph without its action labels: [`Search::graph`]'s
    /// states, initials, truncation and row targets, node for node and edge
    /// for edge (the same source, loop, cuts, FIFO numbering and canon),
    /// with every edge `((), target)` and the target a `u32` — 4 bytes,
    /// where a labelled edge is `(action, usize)`. For the consumers that
    /// read targets only: [`Search::reachable_states`], [`Search::valence`],
    /// [`Search::check_property`] and the mutex deadlock check.
    pub fn shape(&self) -> ReachableGraph<Sys::State, (), u32> {
        let mut acts = Vec::new();
        self.graph_from(|s, out, spares| {
            self.stage_successors(s, |_| true, &mut 0, spares, &mut acts, |tc, _| {
                out.push(((), tc))
            });
        })
    }

    /// The action on edge `k` of row `i` of `g`, a graph this search's
    /// [`Search::shape`] (or [`Search::graph`]) built: the `k`-th child, in
    /// action order, that `stage_successors` stages for `g.order[i]` and
    /// that is in the graph — found by walking the staged children and the
    /// row's targets together, an edge matched when `order[target] ==
    /// child`. Exact on every row: the builder pushes an edge for each
    /// staged child it interns or finds, in staging order, and skips one
    /// only when a cap (`max_states`, the index width) refused it — after
    /// which it interns nothing more, so a skipped child is in no row and
    /// matches no target. A plain action index would be wrong on such a
    /// row; two actions into one target are two edges, matched in turn.
    /// One `enabled` and one `step` per action of `g.order[i]`: witness
    /// edges only, never a pass over the graph.
    ///
    /// # Panics
    /// If row `i` has no edge `k`, or `g` is not this search's graph.
    pub(crate) fn edge_action<L, T: Target>(
        &self,
        g: &ReachableGraph<Sys::State, L, T>,
        i: usize,
        k: usize,
    ) -> Sys::Action {
        let row = &g.succ[i];
        let (mut next, mut action) = (0, None);
        let (mut spares, mut acts) = (Vec::new(), Vec::new());
        self.stage_successors(&g.order[i], |_| true, &mut 0, &mut spares, &mut acts, |child, a| {
            if next <= k && row.get(next).is_some_and(|&(_, t)| g.order[t.to_usize()] == child) {
                if next == k {
                    action = Some(a);
                }
                next += 1;
            }
        });
        action.unwrap_or_else(|| panic!("row {i} has no edge {k} among its staged children"))
    }

    /// All distinct reachable states (within `max_states`), sorted.
    pub fn reachable_states(&self) -> Vec<Sys::State> {
        let mut order = self.shape().order;
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
        let mut acts = Vec::new();
        self.graph_from(|s, out, spares| {
            self.stage_successors(s, &keep, &mut 0, spares, &mut acts, |tc, a| out.push((a, tc)));
        })
    }

    /// The builder itself, over any successor source: `successors(s, out,
    /// spares)` pushes the `(label, child)` pairs of `s` onto `out` in
    /// action order (`out` arrives empty); the label, an action or `()`,
    /// is the edge's. `spares` holds dead states — the children of earlier
    /// blocks that were already interned, never more than one block's
    /// batch of them — whose storage the source may take over for the
    /// children it builds, or leave alone. The source is called
    /// on the states of a block (up to `BLOCK` = 16 FIFO states of one BFS
    /// level) before any of their children is interned. Initial states
    /// come from the system and are canonised here; children are interned
    /// as staged — a source that wants the quotient applies the canon hook
    /// itself, as [`Search::graph_filtered`]'s does. Everything else —
    /// FIFO discovery order, `max_states` / `max_depth` / index-width
    /// truncation — is this loop's, whatever the source. The target width
    /// `T` is the caller's: `usize` for [`Search::graph`], `u32` for
    /// [`Search::shape`]; a node index past it would end the build as
    /// [`Truncation::Index`] (none is: the index interns at most
    /// `u32::MAX − 1`).
    pub fn graph_from<L, T: Target, F>(&self, mut successors: F) -> ReachableGraph<Sys::State, L, T>
    where
        F: FnMut(&Sys::State, &mut Vec<(L, Sys::State)>, &mut Vec<Sys::State>),
    {
        let sys = self.sys();
        let (max_states, max_depth) = self.bounds();

        let mut order: Vec<Sys::State> = Vec::new();
        // Rows are written in place: the loop below expands states in index
        // order, so row `i` is pushed and closed while `i` is the cursor,
        // and the states it never reaches are padded after it.
        let mut succ: Succ<L, T> = Succ::default();
        // Key → node index, one 8-byte word per entry; a key only proposes
        // a node, `order[j] == state` decides.
        let mut index = InternIndex::new(DEFAULT_PARTITIONS);
        let keys = IndexHasher::new(self.seed_value());
        let mut truncated_by: Option<Truncation> = None;

        for s0 in sys.initial_states() {
            let mut sc = s0;
            self.canonize(&mut sc, &mut 0);
            let key = keys.key(&sc);
            let Err(vacant) = index.find(key, |j| order[j] == sc) else {
                continue;
            };
            if !index.insert(vacant, key, order.len()) {
                truncated_by.get_or_insert(Truncation::Index);
                break;
            }
            order.push(sc);
        }
        let initials = order.len();

        // FIFO discovery: indices are assigned in push order, so the queue
        // is just a cursor over `order`, advanced a block of states at a
        // time. A block's children are staged in a reusable buffer (so
        // `order` is never grown while a state borrow is live), each keyed
        // as it is staged; the block's home index words are read in one
        // pass, and only then are the children interned and the rows
        // closed, in state order and action order.
        let mut children: Vec<(L, Sys::State)> = Vec::new();
        let mut child_keys: Vec<u64> = Vec::new();
        // One state's batch, as the source hands it over (empty on arrival).
        let mut out = Vec::new();
        // `row_lens[k]`: how many of `children` are block state `k`'s.
        let mut row_lens: Vec<usize> = Vec::with_capacity(BLOCK);
        // Children that were interned already, kept for the source to
        // overwrite (`stage_successors`' spare pool, one spare per child it
        // builds, canon hook or not) instead of dropped — never more than
        // one block's batch of them: a source that takes none
        // (`ckpt::incr`'s) would otherwise grow it by every duplicate.
        let mut spares: Vec<Sys::State> = Vec::new();
        let mut i = 0usize;
        // BFS level boundary: indices `[0, level_end)` are at most `depth`
        // steps from an initial state. FIFO order makes the boundary a
        // plain cursor — no per-state depth bookkeeping — and a block
        // never crosses it.
        let mut depth = 0usize;
        let mut level_end = order.len();
        'blocks: while i < order.len() {
            if i == level_end {
                depth += 1;
                level_end = order.len();
            }
            let block_end = level_end.min(i + BLOCK);
            for s in &order[i..block_end] {
                successors(s, &mut out, &mut spares);
                if depth >= max_depth && !out.is_empty() {
                    // Depth cutoff, matching `Search::explore`: the states
                    // from here on stay in the graph with empty successor
                    // lists (the earlier states of this block staged
                    // nothing), and the truncation is flagged iff the
                    // source still has work for any of them.
                    truncated_by.get_or_insert(Truncation::Depth);
                    break 'blocks;
                }
                child_keys.extend(out.iter().map(|(_, t)| keys.key(t)));
                row_lens.push(out.len());
                children.append(&mut out);
            }
            // The read-ahead: one plain read per child, independent of each
            // other, so their cache misses overlap instead of each waiting
            // for the previous child's probe and `Eq` confirm.
            for &key in &child_keys {
                std::hint::black_box(index.home_word(key));
            }
            let batch_len = children.len();
            let mut staged = children.drain(..).zip(child_keys.drain(..));
            for &len in &row_lens {
                for ((label, tc), key) in staged.by_ref().take(len) {
                    let ti = match index.find(key, |j| order[j] == tc) {
                        Ok(j) => {
                            if spares.len() < batch_len {
                                spares.push(tc);
                            }
                            j
                        }
                        Err(vacant) => {
                            if order.len() >= max_states {
                                truncated_by.get_or_insert(Truncation::States);
                                continue;
                            }
                            let j = order.len();
                            if !index.insert(vacant, key, j) {
                                truncated_by.get_or_insert(Truncation::Index);
                                continue;
                            }
                            order.push(tc);
                            j
                        }
                    };
                    if !succ.push(label, ti) {
                        // A node index past the target width: as below.
                        truncated_by.get_or_insert(Truncation::Index);
                        break 'blocks;
                    }
                }
                if !succ.close_row() {
                    // More edges than a `u32` row offset can address: this
                    // state and the rest of its block keep no row (the
                    // padding drops what was pushed).
                    truncated_by.get_or_insert(Truncation::Index);
                    break 'blocks;
                }
            }
            row_lens.clear();
            i = block_end;
        }
        // Whatever ended the loop — space exhausted, depth cut, a cap —
        // every state without a closed row was never expanded: empty rows.
        succ.pad_rows(order.len());

        ReachableGraph {
            order,
            succ,
            initials,
            truncated_by,
        }
    }
}

impl<'a, Sys: DecisionSystem> Search<'a, Sys> {
    /// Valence-classify the reachable space (Figures 2–3): build the
    /// label-free graph ([`Search::shape`]) here, run the classification
    /// fixpoint through [`ValenceEngine::analyze_from_graph`], tracing into
    /// the tracer [`Search::tracer`] set (scope `"valence"`).
    pub fn valence(&self) -> ValenceReport<Sys::State> {
        let g = self.shape();
        with_tracer(&self.tracer, &mut NoopTracer, |t| {
            let engine = ValenceEngine::new(self.sys());
            engine.analyze_from_graph(&g.order, &g.succ, g.initials, g.truncated(), t)
        })
    }

    /// Search the reachable space for a Bridgeland–Watro decider
    /// configuration (Figure 2), through
    /// [`ValenceEngine::find_decider_from_graph`], tracing into the tracer
    /// [`Search::tracer`] set (scope `"valence"`).
    pub fn find_decider(&self) -> Option<Decider<Sys::State, Sys::Action>> {
        let g = self.graph();
        with_tracer(&self.tracer, &mut NoopTracer, |t| {
            ValenceEngine::new(self.sys()).find_decider_from_graph(&g.order, &g.succ, t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::property::never;
    use impossible_core::ids::ProcessId;

    #[test]
    fn graph_matches_full_exploration() {
        let sys = Grid { n: 2, max: 3 };
        let g = Search::new(&sys).graph();
        let r = Search::new(&sys).explore();
        assert_eq!(g.len(), r.num_states);
        assert_eq!(g.num_edges(), r.num_transitions);
        assert_eq!(g.succ.iter().map(<[_]>::len).sum::<usize>(), g.num_edges());
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
    fn graph_is_exact_even_under_total_index_key_collision() {
        // All states hash identically — every index key collides, so every
        // probe meets every interned state. The equality fallback must
        // still produce the exact graph. (`Blind` hashes nothing, which
        // agrees with any `Eq`; its `PartialEq` is hand-written beside it
        // because the `hash-eq` lint wants both or neither derived.)
        struct Degenerate;
        #[derive(Debug, Clone, Eq, PartialOrd, Ord)]
        struct Blind(u8);
        impl PartialEq for Blind {
            fn eq(&self, other: &Blind) -> bool {
                self.0 == other.0
            }
        }
        impl std::hash::Hash for Blind {
            fn hash<H: std::hash::Hasher>(&self, _h: &mut H) {}
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
        assert_eq!(g.order, (0..10).map(Blind).collect::<Vec<_>>());
        for (i, row) in g.succ.iter().enumerate() {
            let want: &[(u8, usize)] = if i < 9 { &[(0, i + 1)] } else { &[] };
            assert_eq!(row, want);
        }
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

    /// A toy 2-process "consensus" where each process i has input bit b_i and
    /// the *first* process to move decides its own input; the other then
    /// copies. Correct agreement, but configurations before the first move
    /// are bivalent when inputs differ.
    struct FirstMover;

    type FmState = (Option<u64>, [u64; 2], [Option<u64>; 2]); // (decided value, inputs, decisions)

    impl System for FirstMover {
        type State = FmState;
        type Action = usize; // which process moves

        fn initial_states(&self) -> Vec<FmState> {
            let mut v = Vec::new();
            for b0 in 0..2u64 {
                for b1 in 0..2u64 {
                    v.push((None, [b0, b1], [None, None]));
                }
            }
            v
        }

        fn enabled(&self, s: &FmState) -> Vec<usize> {
            (0..2).filter(|&i| s.2[i].is_none()).collect()
        }

        fn step(&self, s: &FmState, a: &usize) -> FmState {
            let mut t = *s;
            let v = t.0.unwrap_or(t.1[*a]);
            t.0 = Some(v);
            t.2[*a] = Some(v);
            t
        }

        fn owner(&self, a: &usize) -> Option<ProcessId> {
            Some(ProcessId(*a))
        }

        fn num_processes(&self) -> Option<usize> {
            Some(2)
        }
    }

    impl DecisionSystem for FirstMover {
        fn decisions(&self, s: &FmState) -> Vec<(ProcessId, u64)> {
            s.2.iter()
                .enumerate()
                .filter_map(|(i, d)| d.map(|v| (ProcessId(i), v)))
                .collect()
        }
    }

    #[test]
    fn classifies_initial_valences() {
        let report = Search::new(&FirstMover).valence();
        // Mixed-input initials are bivalent; same-input initials univalent.
        assert_eq!(report.bivalent_initials.len(), 2);
        assert_eq!(report.univalent_initials.len(), 2);
        assert!(!report.truncated);
        let agreement = never("agreement", |s: &FmState| FirstMover.disagrees(s));
        assert!(Search::new(&FirstMover).check_property(&agreement).holds);
    }

    #[test]
    fn mixed_input_initial_is_critical_here() {
        // From a mixed-input initial, every successor decides a value =>
        // univalent, so the initial is critical.
        let report = Search::new(&FirstMover).valence();
        for m in &report.bivalent_initials {
            assert!(report.critical.contains(m));
        }
    }

    #[test]
    fn decider_exists_for_first_mover() {
        // Either process can, alone, decide either value from a mixed initial
        // — wait: moving decides own input only; p0 solo from (0,1) reaches
        // only decision 0. So p alone reaches ONE valence; no decider.
        let d = Search::new(&FirstMover).find_decider();
        assert!(d.is_none());
    }

    /// A deliberately *non-deciding* protocol: two processes pass a token
    /// around forever and never decide. Valence is empty-set everywhere;
    /// no decisions reachable at all.
    struct TokenLoop;
    impl System for TokenLoop {
        type State = u8; // who holds the token
        type Action = u8; // holder passes
        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn enabled(&self, s: &u8) -> Vec<u8> {
            vec![*s]
        }
        fn step(&self, s: &u8, _a: &u8) -> u8 {
            1 - *s
        }
        fn owner(&self, a: &u8) -> Option<ProcessId> {
            Some(ProcessId(*a as usize))
        }
        fn num_processes(&self) -> Option<usize> {
            Some(2)
        }
    }
    impl DecisionSystem for TokenLoop {
        fn decisions(&self, _s: &u8) -> Vec<(ProcessId, u64)> {
            Vec::new()
        }
    }

    /// From `10` (or `11`, its canonical twin) one process decides either
    /// bit: `0` and `1` are the decided states.
    struct Pick;
    impl System for Pick {
        type State = u8;
        type Action = u8;
        fn initial_states(&self) -> Vec<u8> {
            vec![10]
        }
        fn enabled(&self, s: &u8) -> Vec<u8> {
            if *s >= 10 {
                vec![0, 1]
            } else {
                vec![]
            }
        }
        fn step(&self, _s: &u8, a: &u8) -> u8 {
            *a
        }
    }
    impl DecisionSystem for Pick {
        fn decisions(&self, s: &u8) -> Vec<(ProcessId, u64)> {
            if *s < 10 {
                vec![(ProcessId(0), u64::from(*s))]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn a_canonised_initial_state_is_still_classified() {
        // Regression: the initials were looked up as `initial_states()`
        // returns them, so under a hook that moves `10` to `11` the graph's
        // initial node was never found and classified.
        let plain = Search::new(&Pick).valence();
        assert_eq!(
            (plain.bivalent_initials, plain.critical),
            (vec![10], vec![10])
        );
        let twin = |s: &u8| if *s == 10 { 11 } else { *s };
        let canon = Search::new(&Pick).canon(twin).valence();
        assert_eq!(canon.bivalent_initials, vec![11]);
        assert!(canon.univalent_initials.is_empty());
        assert_eq!(canon.critical, vec![11]);
    }

    #[test]
    fn token_loop_has_empty_valence() {
        let report = Search::new(&TokenLoop).valence();
        assert_eq!(report.num_states, 2);
        // Valence sets are empty (no decision reachable): neither bivalent
        // nor univalent, but undecided.
        assert!(report.bivalent_initials.is_empty());
        assert!(report.univalent_initials.is_empty());
        assert_eq!(report.undecided_initials, vec![0]);
    }
}
