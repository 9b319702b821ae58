//! A tunable synthetic [`System`] for benchmarks and engine tests.
//!
//! `n` independent counters, each incrementable to `max`: exactly
//! `(max+1)^n` reachable states, one terminal state (all saturated), and a
//! dense diamond structure that stresses the visited set — every interior
//! state is reachable along many paths, so dedup throughput dominates.
//! This is the public sibling of `core`'s test-only `Counters` system; the
//! ledger's `grid_*` workloads use `Grid { n: 6, max: 9 }` (10⁶ states).

use impossible_core::system::System;

/// `n` counters over `0..=max`; action `i` increments counter `i`.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    /// Number of counters.
    pub n: usize,
    /// Saturation value per counter.
    pub max: u8,
}

impl System for Grid {
    type State = Vec<u8>;
    type Action = usize;

    fn initial_states(&self) -> Vec<Vec<u8>> {
        vec![vec![0; self.n]]
    }

    fn enabled(&self, s: &Vec<u8>) -> Vec<usize> {
        let mut acts = Vec::new();
        self.enabled_into(s, &mut acts);
        acts
    }

    fn enabled_into(&self, s: &Vec<u8>, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.n).filter(|&i| s[i] < self.max));
    }

    fn step(&self, s: &Vec<u8>, a: &usize) -> Vec<u8> {
        let mut t = s.clone();
        Grid::apply(*a, &mut t);
        t
    }

    fn step_into(&self, s: &Vec<u8>, a: &usize, out: &mut Vec<u8>) {
        out.clone_from(s);
        Grid::apply(*a, out);
    }
}

impl Grid {
    /// The transition body, on `next ==` the pre-state.
    fn apply(a: usize, next: &mut [u8]) {
        next[a] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Search;

    #[test]
    fn state_count_is_exact() {
        let r = Search::new(&Grid { n: 3, max: 4 }).explore();
        assert_eq!(r.num_states, 125);
        assert_eq!(r.terminal_states.len(), 1);
    }
}
