//! Network topologies.
//!
//! The survey's network bounds are parameterized by graph structure: ring
//! election costs Ω(n log n) messages \[25, 58\], sessions cost time
//! proportional to the *diameter* \[8\], Byzantine agreement needs
//! *connectivity* `2t + 1` \[39\], and "involving all edges" bounds count `e`
//! \[15, 94\]. [`Topology`] provides the graphs and those quantities.

use std::collections::VecDeque;

/// An undirected network graph over nodes `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    adj: Vec<Vec<usize>>,
}

impl Topology {
    /// Graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            assert_ne!(a, b, "self-loops not allowed");
            if !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        Topology { n, adj }
    }

    /// The bidirectional ring `0 - 1 - ... - (n-1) - 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (a ring needs at least 2 nodes; `n = 2` is a
    /// double edge collapsed to a single edge).
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2);
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Topology::from_edges(n, &edges)
    }

    /// The line `0 - 1 - ... - (n-1)`.
    pub fn line(n: usize) -> Self {
        assert!(n >= 1);
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Topology::from_edges(n, &edges)
    }

    /// The complete graph on `n` nodes.
    pub fn complete(n: usize) -> Self {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Topology::from_edges(n, &edges)
    }

    /// An `r × c` grid mesh.
    pub fn mesh(r: usize, c: usize) -> Self {
        assert!(r >= 1 && c >= 1);
        let idx = |i: usize, j: usize| i * c + j;
        let mut edges = Vec::new();
        for i in 0..r {
            for j in 0..c {
                if i + 1 < r {
                    edges.push((idx(i, j), idx(i + 1, j)));
                }
                if j + 1 < c {
                    edges.push((idx(i, j), idx(i, j + 1)));
                }
            }
        }
        Topology::from_edges(r * c, &edges)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Neighbors of `node`, sorted.
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.adj[node]
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// BFS distances from `src` (`usize::MAX` = unreachable).
    fn distances(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        dist[src] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            for &v in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Graph diameter.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or empty.
    pub fn diameter(&self) -> usize {
        assert!(self.n > 0);
        (0..self.n)
            .map(|s| {
                *self
                    .distances(s)
                    .iter()
                    .max()
                    .expect("nonempty")
            })
            .inspect(|&d| assert_ne!(d, usize::MAX, "graph is disconnected"))
            .max()
            .expect("nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_structure() {
        let t = Topology::ring(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.num_edges(), 5);
        assert_eq!(t.neighbors(0), &[1, 4]);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn line_diameter_is_n_minus_1() {
        let t = Topology::line(6);
        assert_eq!(t.diameter(), 5);
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(3), &[2, 4]);
    }

    #[test]
    fn complete_graph() {
        let t = Topology::complete(4);
        assert_eq!(t.num_edges(), 6);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn mesh_structure() {
        let t = Topology::mesh(2, 3);
        assert_eq!(t.len(), 6);
        assert_eq!(t.num_edges(), 7);
        assert_eq!(t.diameter(), 3); // corner to corner
    }

    #[test]
    fn distances_bfs() {
        let t = Topology::ring(6);
        let d = t.distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn disconnected_detected() {
        let t = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(t.distances(0).contains(&usize::MAX));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        Topology::from_edges(2, &[(0, 0)]);
    }

    #[test]
    fn duplicate_edges_deduped() {
        let t = Topology::from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(t.num_edges(), 1);
    }
}
