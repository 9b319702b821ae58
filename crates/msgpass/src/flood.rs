//! Broadcast flooding over a [`Topology`] as an explorable [`System`].
//!
//! The survey's network bounds "involve all edges" \[15, 94\]: information
//! spreads only along channels, so any broadcast costs at least one message
//! per node reached and completes no faster than the diameter. This module
//! makes the spread itself a transition system: a configuration is the set
//! of informed nodes, and one action informs an uninformed neighbor of an
//! informed node. Exhaustive search over it answers reachability questions
//! mechanically — every run of [`impossible_explore::Search`] or the
//! legacy explorer sees exactly the up-closed family of connected informed
//! sets containing the root, which is what the cross-engine equivalence
//! suite pins.

use crate::topology::Topology;
use impossible_core::system::System;

/// Flooding from a root: state is the informed-set indicator vector, action
/// `(u, v)` is "informed `u` tells uninformed neighbor `v`".
#[derive(Debug, Clone)]
pub struct FloodSystem {
    /// The network.
    pub topo: Topology,
    /// The initially informed node.
    pub root: usize,
}

impl FloodSystem {
    /// Flooding over `topo` starting at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn new(topo: Topology, root: usize) -> Self {
        assert!(root < topo.len(), "root out of range");
        FloodSystem { topo, root }
    }
}

impl System for FloodSystem {
    type State = Vec<bool>;
    type Action = (usize, usize);

    fn initial_states(&self) -> Vec<Vec<bool>> {
        let mut s = vec![false; self.topo.len()];
        s[self.root] = true;
        vec![s]
    }

    fn enabled(&self, s: &Vec<bool>) -> Vec<(usize, usize)> {
        let mut acts = Vec::new();
        for u in 0..self.topo.len() {
            if !s[u] {
                continue;
            }
            for &v in self.topo.neighbors(u) {
                if !s[v] {
                    acts.push((u, v));
                }
            }
        }
        acts
    }

    fn step(&self, s: &Vec<bool>, &(_, v): &(usize, usize)) -> Vec<bool> {
        let mut t = s.clone();
        t[v] = true;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impossible_explore::Search;

    #[test]
    fn ring_flood_counts_connected_supersets_of_root() {
        // On a 5-ring the informed sets are exactly the "arcs" containing
        // the root: k arcs of each length k < 5, plus the full ring — 11.
        let sys = FloodSystem::new(Topology::ring(5), 0);
        let r = Search::new(&sys).explore();
        assert_eq!(r.num_states, 11);
        assert_eq!(r.terminal_states.len(), 1);
        assert!(r.terminal_states[0].iter().all(|&b| b));
    }

    #[test]
    fn disconnected_component_stalls() {
        // Two disjoint edges: flooding from 0 never reaches {2, 3}.
        let topo = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        let sys = FloodSystem::new(topo, 0);
        let r = Search::new(&sys).explore();
        assert_eq!(r.terminal_states, vec![vec![true, true, false, false]]);
    }

    #[test]
    fn shortest_full_broadcast_informs_one_node_per_step() {
        let sys = FloodSystem::new(Topology::mesh(2, 3), 0);
        let w = Search::new(&sys)
            .search(|s| s.iter().all(|&b| b))
            .witness
            .expect("mesh is connected");
        assert_eq!(w.len(), 5); // n - 1 informs, no shortcuts possible
    }
}
