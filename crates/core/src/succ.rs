//! Compressed successor rows — the edge storage of a reachable graph, and
//! the graph algorithms every engine runs over it.
//!
//! A configuration graph over `n` states is `n` rows of `(action, target
//! index)` edges. Stored as `Vec<Vec<_>>` that is a 24-byte header and one
//! heap block per state; [`Succ`] stores the same rows as **one** edge
//! array plus one `u32` offset per row (row `i` is
//! `edges[offsets[i]..offsets[i + 1]]`), and hands them back as the slices
//! the nested form handed back: `succ[i]`, `succ[i][k]`, `succ.iter()`,
//! `succ.len()`. Its `Debug` output is the nested form's, byte for byte,
//! so nothing that renders a graph can tell the two apart.
//!
//! It lives in this crate because [`crate::valence::ValenceEngine`]
//! consumes it and `impossible-explore` — whose `Search::graph_from` is the
//! one loop that fills it from a [`crate::system::System`] — depends on
//! this crate, not the other way round.
//!
//! **Algorithms.** Every argument the engines make executable is a query
//! over these rows, and each query is written once, here, where both
//! `core::valence` and `impossible-explore` reach it:
//!
//! * [`Succ::preds`] — the reverse rows as a `u32` CSR index, sources
//!   ascending, parallel edges kept (the valence fixpoint's worklist, and
//!   [`Succ::can_reach`]);
//! * [`Succ::can_reach`] — backward closure inside an allowed set
//!   (deadlock, `leads_to` pivots);
//! * [`Succ::bfs_tree`] — a reusable FIFO BFS tree with an edge filter and
//!   a stop-at-dequeue visitor, and [`BfsTree::path`] back to a start, as
//!   nodes and edge indices (safety witnesses, lasso stems, the decider's
//!   solo runs);
//! * [`Succ::sccs`] — iterative Tarjan over a kept subgraph (liveness);
//! * [`Succ::covering_cycle`] — the shortest cycle through a head covering
//!   a set of action classes (fair lassos, mutex lockout).
//!
//! Each visits nodes in index order and neighbours in row order, so every
//! answer — a path, an SCC count, a cycle — is a pure function of the
//! rows. Node indices in their scratch arrays are stored as `u32`: a graph
//! with more than `u32::MAX` rows is refused by a panic, never wrapped
//! (`Search::graph_from` interns no more).
//!
//! **Target width.** An edge's target is a [`Target`]: `usize` (the
//! default, `Succ<A>`) or `u32` (`Succ<A, u32>`, half the bytes of a
//! label-free edge — `size_of::<((), u32)>()` is 4 where `((), usize)` is
//! 8). A target is converted into the width when it is pushed, and one
//! past it is refused, never truncated. The algorithms read targets back
//! as `usize` ([`Target::to_usize`]), so they answer the same on either
//! width, and the `Debug` output is the same too: a `u32` prints as the
//! `usize` of the same value.
//!
//! **Building.** Rows are appended in index order: [`Succ::push`] the
//! row's edges, [`Succ::close_row`] it, and once no more rows will be
//! expanded [`Succ::pad_rows`] up to the node count (a graph cut by a
//! bound has states that never got a row). Offsets are `u32`, so a graph
//! holds at most `u32::MAX` edges; `close_row` checks the conversion and
//! refuses the row that would cross it instead of wrapping.
//! [`Succ::from_rows`] is the same protocol over rows written out by hand.
//!
//! ```
//! use impossible_core::succ::Succ;
//!
//! let mut succ = Succ::new();
//! assert!(succ.push('a', 1));
//! assert!(succ.push('b', 2));
//! assert!(succ.close_row()); // row 0
//! succ.pad_rows(3); // rows 1 and 2: never expanded, so empty
//! assert_eq!(succ, Succ::from_rows([vec![('a', 1), ('b', 2)], vec![], vec![]]));
//! assert_eq!(succ[0][1], ('b', 2));
//! assert_eq!((succ.len(), succ.num_edges()), (3, 2));
//! assert_eq!(format!("{succ:?}"), "[[('a', 1), ('b', 2)], [], []]");
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Index;

/// The width an edge stores its target index in: `usize` or `u32`, and no
/// other (the trait is sealed).
pub trait Target: sealed::Sealed + Copy + Eq + fmt::Debug {
    /// `index` in this width, or `None` when it does not fit: a refusal,
    /// never a truncation.
    fn from_usize(index: usize) -> Option<Self>;
    /// The index back as a `usize`.
    fn to_usize(self) -> usize;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for usize {}
    impl Sealed for u32 {}
}

impl Target for usize {
    fn from_usize(index: usize) -> Option<usize> {
        Some(index)
    }

    fn to_usize(self) -> usize {
        self
    }
}

impl Target for u32 {
    fn from_usize(index: usize) -> Option<u32> {
        u32::try_from(index).ok()
    }

    fn to_usize(self) -> usize {
        self as usize
    }
}

/// Successor rows in compressed form: `succ[i]` is the slice of state
/// `i`'s `(action, target index)` edges, in the order they were pushed,
/// each target stored as a `T` ([`Target`]).
///
/// A row is visible — to indexing, [`Succ::iter`], [`Succ::num_edges`],
/// `Debug` — once it is closed. `==` compares finished values: build both
/// sides to the end ([`Succ::close_row`] or [`Succ::pad_rows`] last)
/// before comparing them.
#[derive(Clone, PartialEq, Eq)]
pub struct Succ<A, T = usize> {
    edges: Vec<(A, T)>,
    /// `rows + 1` monotone offsets into `edges`, `offsets[0] == 0`; on a
    /// finished value the last one is `edges.len()`.
    offsets: Vec<u32>,
}

impl<A> Succ<A> {
    /// No rows, `usize` targets ([`Succ::default`] makes an empty value
    /// of either width).
    pub fn new() -> Self {
        Succ::default()
    }

    /// The rows of a hand-written graph: `rows[i]` becomes `succ[i]`.
    ///
    /// # Panics
    /// If the rows hold more than `u32::MAX` edges between them.
    pub fn from_rows<R>(rows: impl IntoIterator<Item = R>) -> Self
    where
        R: AsRef<[(A, usize)]>,
        A: Clone,
    {
        let mut succ = Succ::new();
        for row in rows {
            succ.edges.extend_from_slice(row.as_ref());
            assert!(succ.close_row(), "more than u32::MAX edges");
        }
        succ
    }
}

impl<A, T: Target> Succ<A, T> {
    /// Append an edge to the row under construction. `false`, with
    /// nothing appended, when `target` does not fit `T`: the caller stops
    /// building, as on a refused [`Succ::close_row`].
    #[must_use]
    pub fn push(&mut self, action: A, target: usize) -> bool {
        let Some(target) = T::from_usize(target) else {
            return false;
        };
        self.edges.push((action, target));
        true
    }
}

impl<A, T> Succ<A, T> {
    /// Close the row under construction — an empty one if nothing was
    /// pushed since the last close. `false`, with the row left open, when
    /// its end no longer fits a `u32` offset: the caller stops building
    /// (and [`Succ::pad_rows`] then drops the row's edges).
    #[must_use]
    pub fn close_row(&mut self) -> bool {
        let Ok(end) = u32::try_from(self.edges.len()) else {
            return false;
        };
        self.offsets.push(end);
        true
    }

    /// Finish building: drop the edges of a row left open, then append
    /// empty rows until there are `rows` of them (no-op at or past that).
    pub fn pad_rows(&mut self, rows: usize) {
        let end = self.closed_end();
        self.edges.truncate(end as usize);
        if self.len() < rows {
            self.offsets.resize(rows + 1, end);
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges in all rows together, in O(1).
    pub fn num_edges(&self) -> usize {
        self.closed_end() as usize
    }

    /// The rows in index order, each as a slice.
    pub fn iter(&self) -> impl Iterator<Item = &[(A, T)]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.edges[w[0] as usize..w[1] as usize])
    }

    /// Where the last closed row ends.
    fn closed_end(&self) -> u32 {
        self.offsets[self.offsets.len() - 1]
    }
}

impl<A, T> Default for Succ<A, T> {
    fn default() -> Self {
        Succ {
            edges: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl<A, T> Index<usize> for Succ<A, T> {
    type Output = [(A, T)];

    fn index(&self, row: usize) -> &[(A, T)] {
        &self.edges[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }
}

/// Exactly what `Vec<Vec<(A, usize)>>` prints, in both `{:?}` and `{:#?}`,
/// at either target width.
impl<A: fmt::Debug, T: fmt::Debug> fmt::Debug for Succ<A, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The graph algorithms. Each expects finished rows whose targets are all
/// `< len()` (what `Search::graph_from` and [`Succ::from_rows`] over a
/// closed graph produce).
impl<A, T: Target> Succ<A, T> {
    /// The row count, checked to fit the `u32` node indices the
    /// algorithms store.
    fn nodes(&self) -> usize {
        let n = self.len();
        assert!(u32::try_from(n).is_ok(), "more than u32::MAX states");
        n
    }

    /// The predecessor index: `preds()[t]` lists the source of every edge
    /// into `t`, ascending, once per edge (parallel edges repeat it).
    pub fn preds(&self) -> Preds {
        let n = self.nodes();
        // One counting pass and one filling pass over the edges, in one
        // offset array: count the predecessors of `t` into `start[t + 2]`,
        // prefix-sum so that `start[t + 1]` is where `t`'s list begins, and
        // fill through `start[t + 1]`, which leaves it where `t + 1`'s list
        // begins — the predecessors of `t` are `src[start[t]..start[t + 1]]`.
        let mut start = vec![0u32; n + 2];
        for &(_, t) in self.iter().flatten() {
            start[t.to_usize() + 2] += 1;
        }
        for t in 0..n {
            start[t + 2] += start[t + 1];
        }
        let mut src = vec![0u32; self.num_edges()];
        for (v, row) in self.iter().enumerate() {
            for &(_, t) in row {
                let t = t.to_usize();
                src[start[t + 1] as usize] = v as u32;
                start[t + 1] += 1;
            }
        }
        start.pop();
        Preds { start, src }
    }

    /// Which states can reach a `goal` state along a path that stays inside
    /// `allowed` (both predicates over state indices: `allowed` is asked
    /// once per state and once per predecessor edge of a state found, so
    /// keep it a table lookup; `goal` about `allowed` states only, once
    /// each, in index order). Multi-source backward closure over
    /// [`Succ::preds`] — pure membership, so order-free.
    pub fn can_reach(
        &self,
        allowed: impl Fn(usize) -> bool,
        goal: impl Fn(usize) -> bool,
    ) -> Vec<bool> {
        let preds = self.preds();
        let n = self.len();
        let mut can: Vec<bool> = (0..n).map(|v| allowed(v) && goal(v)).collect();
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        queue.extend((0..n).filter(|&v| can[v]).map(|v| v as u32));
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &u in &preds[v as usize] {
                if !can[u as usize] && allowed(u as usize) {
                    can[u as usize] = true;
                    queue.push(u);
                }
            }
        }
        can
    }

    /// An empty BFS tree over these rows; [`BfsTree::search`] grows it.
    /// Its `n`-sized link array is allocated here, once, however many
    /// searches the tree then runs.
    pub fn bfs_tree(&self) -> BfsTree<'_, A, T> {
        BfsTree {
            succ: self,
            link: vec![UNREACHED; self.nodes()],
            reached: Vec::new(),
        }
    }

    /// The strongly connected components of the subgraph induced by `keep`
    /// (one flag per row): iterative Tarjan, roots in ascending index
    /// order, neighbours in row order — the decomposition (ids, count,
    /// cyclic flags) is a pure function of the rows.
    pub fn sccs(&self, keep: &[bool]) -> Sccs {
        let n = self.nodes();
        assert_eq!(keep.len(), n, "one keep flag per row");
        let mut index = vec![Sccs::NONE; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut id = vec![Sccs::NONE; n];
        let mut cyclic: Vec<bool> = Vec::new();
        let mut next_index = 0u32;
        // DFS frames `(node, next edge index into its row)`, both `u32` (a
        // row holds at most `u32::MAX` edges); a node is numbered and
        // pushed when its frame first comes up.
        let mut frames: Vec<(u32, u32)> = Vec::new();
        for root in 0..n {
            if keep[root] && index[root] == Sccs::NONE {
                frames.push((root as u32, 0));
            }
            while let Some(&(v, ei)) = frames.last() {
                let (v, ei) = (v as usize, ei as usize);
                if ei == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v as u32);
                    on_stack[v] = true;
                }
                if ei < self[v].len() {
                    frames.last_mut().expect("nonempty").1 += 1;
                    let w = self[v][ei].1.to_usize();
                    if keep[w] && index[w] == Sccs::NONE {
                        frames.push((w as u32, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(u, _)) = frames.last() {
                        let u = u as usize;
                        low[u] = low[u].min(low[v]);
                    }
                    if low[v] == index[v] {
                        // `v` roots a component: it and everything above it
                        // on the stack. A single member cycles only through
                        // a self-loop.
                        let at = stack.iter().rposition(|&w| w as usize == v);
                        let at = at.expect("on the stack");
                        let self_loop = self[v].iter().any(|&(_, t)| t.to_usize() == v);
                        cyclic.push(stack.len() - at >= 2 || self_loop);
                        for w in stack.drain(at..) {
                            on_stack[w as usize] = false;
                            id[w as usize] = cyclic.len() as u32 - 1;
                        }
                    }
                }
            }
        }
        Sccs { id, cyclic }
    }

    /// Shortest cycle from `head` back to `head` through `allowed` states
    /// whose actions' `class_bits` together cover `full` (`full == 0` asks
    /// for any cycle), as `(source, edge index)` pairs into the rows. BFS
    /// over `(state, bits of full seen)` product nodes, FIFO, neighbours in
    /// row order — so the cycle is a pure function of the rows. `None` when
    /// no such cycle exists.
    pub fn covering_cycle(
        &self,
        head: usize,
        allowed: impl Fn(usize) -> bool,
        class_bits: impl Fn(&A) -> u32,
        full: u32,
    ) -> Option<Vec<(usize, usize)>> {
        assert!(head < self.nodes(), "the head {head} is not a row");
        // The FIFO queue keeps every product node `(state, bits of full
        // seen)` it dequeued, each with the edge that discovered it —
        // `(queue index of its source, source state, edge index)` — so the
        // cycle is read back off the queue, entry 0 being `(head, 0)`.
        // States and edge indices are `u32`: the graph has at most
        // `u32::MAX` rows and edges.
        let head = head as u32;
        let mut seen = BTreeSet::from([(head, 0)]);
        let mut queue: Vec<(Product, Discovery)> = vec![((head, 0), (0, head, 0))];
        let mut k = 0;
        while let Some(&((v, mask), _)) = queue.get(k) {
            for (ei, (a, t)) in self[v as usize].iter().enumerate() {
                let t = t.to_usize();
                if !allowed(t) {
                    continue;
                }
                let node = (t as u32, mask | (class_bits(a) & full));
                if node == (head, full) {
                    let mut edges = vec![(v as usize, ei)];
                    let mut j = k;
                    while j != 0 {
                        let (_, (from, src, e)) = queue[j];
                        edges.push((src as usize, e as usize));
                        j = from;
                    }
                    edges.reverse();
                    return Some(edges);
                }
                if seen.insert(node) {
                    queue.push((node, (k, v, ei as u32)));
                }
            }
            k += 1;
        }
        None
    }
}

/// A [`Succ::covering_cycle`] product node: `(state, bits of full seen)`.
type Product = (u32, u32);
/// How [`Succ::covering_cycle`] discovered a product node: `(queue index
/// of its source, source state, edge index in the source's row)`.
type Discovery = (usize, u32, u32);

/// [`Succ::preds`]' answer: `preds[t]` is the slice of `t`'s predecessor
/// indices. Two arrays, `u32` throughout: one offset per row plus one, one
/// source per edge.
pub struct Preds {
    /// `rows + 1` monotone offsets into `src`.
    start: Vec<u32>,
    src: Vec<u32>,
}

impl Index<usize> for Preds {
    type Output = [u32];

    fn index(&self, t: usize) -> &[u32] {
        &self.src[self.start[t] as usize..self.start[t + 1] as usize]
    }
}

/// [`BfsTree`]'s link of a node the current search has not reached.
const UNREACHED: (u32, u32) = (u32::MAX, u32::MAX);
/// [`BfsTree`]'s link of a start: no edge discovered it. (`u32::MAX` is
/// never a node index: a graph has at most `u32::MAX` rows.)
const START: (u32, u32) = (u32::MAX, 0);

/// A FIFO breadth-first search tree over a [`Succ`]'s rows
/// ([`Succ::bfs_tree`]). It can be grown again and again: each
/// [`BfsTree::search`] first forgets the nodes the previous one reached —
/// only those, so a caller that runs one small search per configuration
/// pays for what each search touches, not for the graph.
pub struct BfsTree<'s, A, T = usize> {
    succ: &'s Succ<A, T>,
    /// Per node: `UNREACHED`, `START`, or the `(source, edge index into
    /// its row)` that discovered it.
    link: Vec<(u32, u32)>,
    /// The nodes reached, in discovery order: the FIFO queue, and what the
    /// next search clears.
    reached: Vec<u32>,
}

impl<'s, A, T: Target> BfsTree<'s, A, T> {
    /// Search breadth-first from `starts` (in order; a repeat is ignored),
    /// dequeuing FIFO and following, in row order, the edges `(action,
    /// target)` that `edge` admits into nodes not reached yet — the first
    /// edge to reach a node is its tree link. `stop` is asked about each
    /// node as it is dequeued, before its row is expanded: the search ends
    /// at the first `true` and returns that node (the nearest one, ties
    /// broken by discovery order), or `None` once the queue runs dry.
    pub fn search(
        &mut self,
        starts: impl IntoIterator<Item = usize>,
        mut edge: impl FnMut(&A, usize) -> bool,
        mut stop: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        for v in self.reached.drain(..) {
            self.link[v as usize] = UNREACHED;
        }
        for s in starts {
            if self.link[s] == UNREACHED {
                self.link[s] = START;
                self.reached.push(s as u32);
            }
        }
        let succ = self.succ;
        let mut head = 0;
        while let Some(v) = self.reached.get(head).map(|&v| v as usize) {
            head += 1;
            if stop(v) {
                return Some(v);
            }
            for (ei, (a, t)) in succ[v].iter().enumerate() {
                let t = t.to_usize();
                if self.link[t] == UNREACHED && edge(a, t) {
                    self.link[t] = (v as u32, ei as u32);
                    self.reached.push(t as u32);
                }
            }
        }
        None
    }

    /// The tree path from a start to `v`, a node the last search reached:
    /// its nodes, start first, and for each of its edges the edge's index
    /// in its source's row — edge `k` is `succ[nodes[k]][edges[k]]`, so a
    /// caller reads the stored label there or derives it elsewhere.
    ///
    /// # Panics
    /// If the last search did not reach `v`.
    pub fn path(&self, mut v: usize) -> (Vec<usize>, Vec<usize>) {
        assert_ne!(self.link[v], UNREACHED, "node {v} is not in the BFS tree");
        let (mut nodes, mut edges) = (vec![v], Vec::new());
        while self.link[v] != START {
            let (src, ei) = self.link[v];
            v = src as usize;
            edges.push(ei as usize);
            nodes.push(v);
        }
        nodes.reverse();
        edges.reverse();
        (nodes, edges)
    }
}

/// [`Succ::sccs`]' answer: the strongly connected components of the kept
/// subgraph, numbered in the order Tarjan closes them (so an edge between
/// two components runs from the higher id to the lower).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sccs {
    /// Component id per node; `u32::MAX` for a node not kept.
    pub id: Vec<u32>,
    /// One flag per component — its length is the component count: can
    /// the component sustain a cycle (two or more nodes, or a self-loop)?
    pub cyclic: Vec<bool>,
}

impl Sccs {
    /// The id of a node outside the kept subgraph.
    const NONE: u32 = u32::MAX;
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_det::{det_assert, det_assert_eq, det_prop, prop};

    type Rows = Vec<Vec<(u8, usize)>>;
    type Rows0 = Vec<Vec<((), usize)>>;

    /// A generated byte as an edge: action `x % 4`, target `x / 4`.
    fn edges(raw: &[u8]) -> Vec<(u8, usize)> {
        raw.iter().map(|&x| (x % 4, usize::from(x / 4))).collect()
    }

    /// `front` empty rows, the rows of `middle`, `back` empty rows — drawn
    /// separately so that empty rows turn up at the front, in the middle
    /// and at the end (and all three empty is the zero-row value).
    fn nested(front: usize, middle: &[Vec<u8>], back: usize) -> Rows {
        let mut rows = vec![Vec::new(); front];
        rows.extend(middle.iter().map(|raw| edges(raw)));
        rows.extend(vec![Vec::new(); back]);
        rows
    }

    det_prop! {
        fn succ_is_the_nested_rows_it_was_built_from(
            cases = 1024,
            front in 0usize..3,
            middle in prop::vec(prop::vec(0u8..160, 0..4), 0..7),
            back in 0usize..3
        ) {
            let rows = nested(front, &middle, back);
            let succ = Succ::from_rows(&rows);
            det_assert_eq!(succ.len(), rows.len());
            det_assert_eq!(succ.is_empty(), rows.is_empty());
            det_assert_eq!(succ.num_edges(), rows.iter().map(Vec::len).sum::<usize>());
            for (i, row) in rows.iter().enumerate() {
                det_assert_eq!(&succ[i], row.as_slice());
            }
            det_assert_eq!(succ.iter().map(<[_]>::to_vec).collect::<Rows>(), rows.clone());
            det_assert_eq!(format!("{succ:?}"), format!("{rows:?}"));
            det_assert_eq!(format!("{succ:#?}"), format!("{rows:#?}"));
            // `==` is row equality: a clone is equal, and moving one edge
            // across a row boundary (same edges, other offsets) or
            // dropping a trailing empty row is not.
            det_assert!(succ == succ.clone());
            if let Some(i) = (1..rows.len()).find(|&i| !rows[i].is_empty()) {
                let mut moved = rows.clone();
                let e = moved[i].remove(0);
                moved[i - 1].push(e);
                det_assert!(succ != Succ::from_rows(&moved));
            }
            if !rows.is_empty() {
                det_assert!(succ != Succ::from_rows(&rows[..rows.len() - 1]));
            }
        }

        /// How `graph_from` builds: the first `expanded` rows pushed and
        /// closed, a row left open where the loop broke off, the rest padded.
        fn push_close_pad_equals_from_rows(
            cases = 1024,
            front in 0usize..3,
            middle in prop::vec(prop::vec(0u8..160, 0..4), 0..7),
            back in 0usize..3,
            cut in 0usize..12,
            open in prop::vec(0u8..160, 0..3)
        ) {
            let mut rows = nested(front, &middle, back);
            let expanded = cut.min(rows.len());
            let mut succ = Succ::new();
            for row in &rows[..expanded] {
                for &(a, t) in row {
                    det_assert!(succ.push(a, t));
                }
                det_assert!(succ.close_row());
            }
            for (a, t) in edges(&open) {
                det_assert!(succ.push(a, t));
            }
            succ.pad_rows(rows.len());
            rows[expanded..].fill(Vec::new());
            det_assert_eq!(succ.len(), rows.len());
            det_assert_eq!(succ.num_edges(), rows.iter().map(Vec::len).sum::<usize>());
            det_assert!(succ == Succ::from_rows(&rows));
            // Padding to fewer rows than there are changes nothing.
            succ.pad_rows(0);
            det_assert!(succ == Succ::from_rows(&rows));
        }
    }

    // ---- the target width ----------------------------------------------

    /// `rows` built at `u32` width, through `push` / `close_row`.
    fn narrow<A: Clone>(rows: &[Vec<(A, usize)>]) -> Succ<A, u32> {
        let mut succ = Succ::default();
        for row in rows {
            for (a, t) in row {
                assert!(succ.push(a.clone(), *t));
            }
            assert!(succ.close_row());
        }
        succ
    }

    #[test]
    fn label_free_edges_are_four_bytes_at_u32_and_eight_at_usize() {
        assert_eq!(std::mem::size_of::<((), u32)>(), 4);
        assert_eq!(std::mem::size_of::<((), usize)>(), 8);
    }

    /// Kills: `Target for u32` converting with a truncating `index as u32`
    /// (`u32::MAX + 1` would be stored as target 0).
    #[test]
    fn a_target_past_the_width_is_refused() {
        let past = u32::MAX as usize + 1;
        let mut succ: Succ<(), u32> = Succ::default();
        assert!(succ.push((), past - 1));
        assert!(!succ.push((), past));
        assert!(succ.close_row());
        assert_eq!(&succ[0], &[((), u32::MAX)]);
        // The default width takes it.
        let mut wide = Succ::new();
        assert!(wide.push((), past));
        assert!(wide.close_row());
        assert_eq!(&wide[0], &[((), past)]);
    }

    det_prop! {
        /// The same rows at both widths: the same `Debug`, and the same
        /// answer from every algorithm — label-free, and with the drawn
        /// actions as fairness classes for `covering_cycle`.
        fn u32_targets_answer_what_usize_targets_answer(
            cases = 1024,
            front in 0usize..3,
            middle in prop::vec(prop::vec(0u8..160, 0..4), 0..14),
            back in 0usize..3,
            keep_bits in 0u32..1 << 20,
            keep_all in 0u8..3
        ) {
            let rows = graph(front, &middle, back);
            let n = rows.len();
            let keep = mask(keep_bits, keep_all == 0, n);
            let erase = |row: &Vec<(u8, usize)>| row.iter().map(|&(_, t)| ((), t)).collect();
            let bare: Rows0 = rows.iter().map(erase).collect();
            let (wide, thin) = (Succ::from_rows(&bare), narrow(&bare));
            det_assert_eq!(format!("{thin:?}"), format!("{wide:?}"));
            det_assert_eq!(format!("{thin:#?}"), format!("{wide:#?}"));
            let (wide_preds, thin_preds) = (wide.preds(), thin.preds());
            for t in 0..n {
                det_assert_eq!(&thin_preds[t], &wide_preds[t]);
            }
            det_assert_eq!(
                thin.can_reach(|v| keep[v], |v| v % 3 == 0),
                wide.can_reach(|v| keep[v], |v| v % 3 == 0)
            );
            det_assert_eq!(thin.sccs(&keep), wide.sccs(&keep));
            let (wide, thin) = (Succ::from_rows(&rows), narrow(&rows));
            det_assert_eq!(format!("{thin:?}"), format!("{wide:?}"));
            let bits = |a: &u8| 1u32 << a;
            for head in 0..n {
                for full in [0, 1, 5, 15] {
                    det_assert_eq!(
                        thin.covering_cycle(head, |t| keep[t], bits, full),
                        wide.covering_cycle(head, |t| keep[t], bits, full)
                    );
                }
            }
        }
    }

    // ---- the algorithms -------------------------------------------------

    /// [`nested`]'s rows closed into a graph: every target taken modulo
    /// the row count, so self-loops and parallel edges are common.
    fn graph(front: usize, middle: &[Vec<u8>], back: usize) -> Rows {
        let mut rows = nested(front, middle, back);
        let n = rows.len();
        for (_, t) in rows.iter_mut().flatten() {
            *t %= n;
        }
        rows
    }

    /// Bit `v` of `bits` per node, or every node when `all`.
    fn mask(bits: u32, all: bool, n: usize) -> Vec<bool> {
        (0..n).map(|v| all || bits >> v & 1 == 1).collect()
    }

    /// `reach[u][v]`: a path of zero or more edges leads from `u` to `v`
    /// through `keep` nodes only (`u` itself kept).
    fn closure(rows: &Rows, keep: &[bool]) -> Vec<Vec<bool>> {
        let n = rows.len();
        let mut reach: Vec<Vec<bool>> = (0..n)
            .map(|u| (0..n).map(|v| keep[u] && u == v).collect())
            .collect();
        loop {
            let mut grew = false;
            for from_u in reach.iter_mut() {
                for v in 0..n {
                    if from_u[v] {
                        for &(_, t) in &rows[v] {
                            if keep[t] && !from_u[t] {
                                from_u[t] = true;
                                grew = true;
                            }
                        }
                    }
                }
            }
            if !grew {
                return reach;
            }
        }
    }

    #[test]
    fn can_reach_is_the_backward_closure_inside_allowed() {
        // 0 → 1 → 2 → 3, 1 → 4 (a dead end), 5 → 3 (off to the side).
        let succ = Succ::from_rows([
            &[(0, 1)][..],
            &[(0, 2), (1, 4)],
            &[(0, 3)],
            &[],
            &[],
            &[(0, 3)],
        ]);
        assert_eq!(
            succ.can_reach(|_| true, |i| i == 3),
            [true, true, true, true, false, true]
        );
        // Forbid 2: the only way from {0, 1} to 3 is gone; 5 still has its own.
        assert_eq!(
            succ.can_reach(|i| i != 2, |i| i == 3),
            [false, false, false, true, false, true]
        );
        // A goal outside `allowed` seeds nothing, and nothing reaches a
        // goal nobody satisfies.
        assert_eq!(succ.can_reach(|i| i != 3, |i| i == 3), [false; 6]);
        assert_eq!(succ.can_reach(|_| true, |_| false), [false; 6]);
    }

    /// `can_reach` by its definition: the least set holding every allowed
    /// goal state and every allowed state with an edge into the set.
    fn can_reach_naive(rows: &[Vec<(u32, usize)>], allowed: &[bool], goal: &[bool]) -> Vec<bool> {
        let n = rows.len();
        let mut can: Vec<bool> = (0..n).map(|v| allowed[v] && goal[v]).collect();
        loop {
            let grown: Vec<bool> = (0..n)
                .map(|v| can[v] || (allowed[v] && rows[v].iter().any(|&(_, t)| can[t])))
                .collect();
            if grown == can {
                return can;
            }
            can = grown;
        }
    }

    #[test]
    fn covering_cycle_finds_the_shortest_cycle_covering_every_class() {
        // Handshake: 0 and 1 each carry a private self-loop (classes 1 and
        // 2) and hop to each other (class 0 — no bits).
        let succ = Succ::from_rows([[(1, 0), (0, 1)], [(2, 1), (0, 0)]]);
        let bits = |a: &u32| *a;
        // `full == 0`: any cycle will do, and the self-loop at the head is
        // the shortest.
        assert_eq!(
            succ.covering_cycle(0, |_| true, bits, 0),
            Some(vec![(0, 0)])
        );
        // Class 1 alone: the same self-loop.
        assert_eq!(
            succ.covering_cycle(0, |_| true, bits, 1),
            Some(vec![(0, 0)])
        );
        // Both classes: loop here, hop, loop there, hop back.
        assert_eq!(
            succ.covering_cycle(0, |_| true, bits, 3),
            Some(vec![(0, 0), (0, 1), (1, 0), (1, 1)])
        );
        // With state 1 off limits its class is out of reach.
        assert_eq!(succ.covering_cycle(0, |t| t != 1, bits, 3), None);
        // A class no edge carries is never covered.
        assert_eq!(succ.covering_cycle(0, |_| true, bits, 7), None);
        // And a head with no way back has no cycle at all.
        let line = Succ::from_rows([&[(0u32, 1)][..], &[]]);
        assert_eq!(line.covering_cycle(0, |_| true, bits, 0), None);
    }

    det_prop! {
        /// Generated graphs — up to 24 nodes (none included), out-degree up
        /// to 3, self-loops and parallel edges as drawn — under generated
        /// masks: `allowed` everything or a drawn subset, `goal` nothing or
        /// a drawn subset, drawn independently, so goals outside `allowed`
        /// are common.
        fn can_reach_matches_a_naive_fixpoint(
            cases = 2048,
            raw in prop::vec(prop::vec(0u8..24, 0..4), 0..25),
            allowed_bits in 0u32..1 << 24,
            all_allowed in 0u8..3,
            goal_bits in 0u32..1 << 24,
            no_goal in 0u8..4
        ) {
            let n = raw.len();
            let rows: Vec<Vec<(u32, usize)>> = raw
                .iter()
                .map(|ts| ts.iter().map(|&t| (0, t as usize % n)).collect())
                .collect();
            let allowed = mask(allowed_bits, all_allowed == 0, n);
            let goal = mask(if no_goal == 0 { 0 } else { goal_bits }, false, n);
            det_assert_eq!(
                Succ::from_rows(&rows).can_reach(|v| allowed[v], |v| goal[v]),
                can_reach_naive(&rows, &allowed, &goal)
            );
        }

        /// `preds()[t]` is every edge into `t`, by source, ascending, a
        /// parallel edge once per copy. Kills: the filling pass walking the
        /// rows in reverse (sources descending — a membership query such as
        /// `can_reach` cannot tell).
        fn preds_is_the_reversed_edge_multiset_sources_ascending(
            cases = 1024,
            front in 0usize..3,
            middle in prop::vec(prop::vec(0u8..160, 0..4), 0..14),
            back in 0usize..3
        ) {
            let rows = graph(front, &middle, back);
            let mut naive: Vec<Vec<u32>> = vec![Vec::new(); rows.len()];
            for (v, row) in rows.iter().enumerate() {
                for &(_, t) in row {
                    naive[t].push(v as u32);
                }
            }
            let preds = Succ::from_rows(&rows).preds();
            for (t, sources) in naive.iter().enumerate() {
                det_assert_eq!(&preds[t], sources.as_slice());
            }
        }

        /// Tarjan against mutual reachability: same id ⇔ each reaches the
        /// other inside `keep`; `Sccs::NONE` ⇔ not kept; ids `0..cyclic.len()`;
        /// cyclic ⇔ two or more members or a self-loop; every kept edge
        /// runs from a higher id to a lower or equal one. Kills: a visited
        /// neighbour lowering `low` whether or not it is still on the stack
        /// (`else if on_stack[w]` → `else if index[w] != Sccs::NONE`: a
        /// cross edge into a closed component strands kept nodes on the
        /// stack, without an id).
        fn sccs_are_the_mutual_reachability_classes_inside_keep(
            cases = 1024,
            front in 0usize..3,
            middle in prop::vec(prop::vec(0u8..160, 0..4), 0..14),
            back in 0usize..3,
            keep_bits in 0u32..1 << 20,
            keep_all in 0u8..3
        ) {
            let rows = graph(front, &middle, back);
            let n = rows.len();
            let keep = mask(keep_bits, keep_all == 0, n);
            let sccs = Succ::from_rows(&rows).sccs(&keep);
            let reach = closure(&rows, &keep);
            let mut size = vec![0usize; sccs.cyclic.len()];
            let mut self_loop = vec![false; sccs.cyclic.len()];
            for u in 0..n {
                det_assert_eq!(sccs.id[u] == Sccs::NONE, !keep[u]);
                if !keep[u] {
                    continue;
                }
                let c = sccs.id[u] as usize;
                det_assert!(c < sccs.cyclic.len());
                size[c] += 1;
                for &(_, t) in &rows[u] {
                    self_loop[c] |= t == u;
                    if keep[t] {
                        det_assert!(sccs.id[u] >= sccs.id[t]);
                    }
                }
                for v in (0..n).filter(|&v| keep[v]) {
                    det_assert_eq!(sccs.id[u] == sccs.id[v], reach[u][v] && reach[v][u]);
                }
            }
            for c in 0..sccs.cyclic.len() {
                det_assert!(size[c] > 0);
                det_assert_eq!(sccs.cyclic[c], size[c] >= 2 || self_loop[c]);
            }
        }

        /// One tree, three searches: an unrelated one (so the next must
        /// forget what it reached), one stopping at a goal, one exhaustive.
        /// The stop node is the first goal in FIFO order; every path is a
        /// real path inside the filter, as long as the naive BFS distance,
        /// through the first dequeued node with an admitted edge onward,
        /// along that node's first admitted edge. Kills: a search that
        /// clears `reached` without resetting its links (what the previous
        /// search reached stays unreachable).
        fn bfs_tree_paths_are_shortest_filtered_paths_in_fifo_order(
            cases = 1024,
            front in 0usize..3,
            middle in prop::vec(prop::vec(0u8..160, 0..4), 0..14),
            back in 0usize..3,
            starts in prop::vec(0usize..20, 0..4),
            earlier in prop::vec(0usize..20, 0..3),
            actions in 0u8..16,
            allowed_bits in 0u32..1 << 20,
            goal_bits in 0u32..1 << 20
        ) {
            let rows = graph(front, &middle, back);
            let n = rows.len();
            let starts: Vec<usize> = starts.iter().filter(|_| n > 0).map(|s| s % n).collect();
            let earlier: Vec<usize> = earlier.iter().filter(|_| n > 0).map(|s| s % n).collect();
            let allowed = mask(allowed_bits, false, n);
            let goal = mask(goal_bits, false, n);
            let admit = |a: u8, t: usize| actions >> a & 1 == 1 && allowed[t];

            // The reference: the FIFO dequeue order, and each node's level.
            let mut fifo: Vec<usize> = Vec::new();
            let mut dist: Vec<Option<usize>> = vec![None; n];
            for &s in &starts {
                if dist[s].is_none() {
                    dist[s] = Some(0);
                    fifo.push(s);
                }
            }
            let mut head = 0;
            while let Some(&v) = fifo.get(head) {
                head += 1;
                for &(a, t) in &rows[v] {
                    if dist[t].is_none() && admit(a, t) {
                        dist[t] = dist[v].map(|d| d + 1);
                        fifo.push(t);
                    }
                }
            }

            let succ = Succ::from_rows(&rows);
            let mut tree = succ.bfs_tree();
            det_assert_eq!(tree.search(earlier, |_, _| true, |_| false), None);
            let stop = tree.search(starts.iter().copied(), |a, t| admit(*a, t), |v| goal[v]);
            det_assert_eq!(stop, fifo.iter().copied().find(|&v| goal[v]));
            let check_path = |tree: &BfsTree<'_, u8>, v: usize| -> Result<(), String> {
                let (nodes, eis) = tree.path(v);
                det_assert!(starts.contains(&nodes[0]));
                det_assert_eq!(nodes.last(), Some(&v));
                det_assert_eq!(Some(eis.len()), dist[v]);
                for (k, step) in nodes.windows(2).enumerate() {
                    let (u, w) = (step[0], step[1]);
                    let edge_into_w = |&(a, t): &(u8, usize)| t == w && admit(a, t);
                    det_assert_eq!(fifo.iter().find(|&&x| rows[x].iter().any(edge_into_w)), Some(&u));
                    det_assert_eq!(rows[u].iter().position(edge_into_w), Some(eis[k]));
                }
                Ok(())
            };
            if let Some(v) = stop {
                check_path(&tree, v)?;
            }
            det_assert_eq!(tree.search(starts.iter().copied(), |a, t| admit(*a, t), |_| false), None);
            for &v in &fifo {
                check_path(&tree, v)?;
            }
        }
    }
}
