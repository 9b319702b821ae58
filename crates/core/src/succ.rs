//! Compressed successor rows — the edge storage of a reachable graph.
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
//! succ.push('a', 1);
//! succ.push('b', 2);
//! assert!(succ.close_row()); // row 0
//! succ.pad_rows(3); // rows 1 and 2: never expanded, so empty
//! assert_eq!(succ, Succ::from_rows([vec![('a', 1), ('b', 2)], vec![], vec![]]));
//! assert_eq!(succ[0][1], ('b', 2));
//! assert_eq!((succ.len(), succ.num_edges()), (3, 2));
//! assert_eq!(format!("{succ:?}"), "[[('a', 1), ('b', 2)], [], []]");
//! ```

use std::fmt;
use std::ops::Index;

/// Successor rows in compressed form: `succ[i]` is the slice of state
/// `i`'s `(action, target index)` edges, in the order they were pushed.
///
/// A row is visible — to indexing, [`Succ::iter`], [`Succ::num_edges`],
/// `Debug` — once it is closed. `==` compares finished values: build both
/// sides to the end ([`Succ::close_row`] or [`Succ::pad_rows`] last)
/// before comparing them.
#[derive(Clone, PartialEq, Eq)]
pub struct Succ<A> {
    edges: Vec<(A, usize)>,
    /// `rows + 1` monotone offsets into `edges`, `offsets[0] == 0`; on a
    /// finished value the last one is `edges.len()`.
    offsets: Vec<u32>,
}

impl<A> Succ<A> {
    /// No rows.
    pub fn new() -> Self {
        Succ {
            edges: Vec::new(),
            offsets: vec![0],
        }
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

    /// Append an edge to the row under construction.
    pub fn push(&mut self, action: A, target: usize) {
        self.edges.push((action, target));
    }

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
    pub fn iter(&self) -> impl Iterator<Item = &[(A, usize)]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.edges[w[0] as usize..w[1] as usize])
    }

    /// Where the last closed row ends.
    fn closed_end(&self) -> u32 {
        self.offsets[self.offsets.len() - 1]
    }
}

impl<A> Default for Succ<A> {
    fn default() -> Self {
        Succ::new()
    }
}

impl<A> Index<usize> for Succ<A> {
    type Output = [(A, usize)];

    fn index(&self, row: usize) -> &[(A, usize)] {
        &self.edges[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }
}

/// Exactly what `Vec<Vec<(A, usize)>>` prints, in both `{:?}` and `{:#?}`.
impl<A: fmt::Debug> fmt::Debug for Succ<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_det::{det_assert, det_assert_eq, det_prop, prop};

    type Rows = Vec<Vec<(u8, usize)>>;

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
                    succ.push(a, t);
                }
                det_assert!(succ.close_row());
            }
            for (a, t) in edges(&open) {
                succ.push(a, t);
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
}
