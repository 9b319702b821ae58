//! Decision tasks and the graph-theoretic solvability characterization.
//!
//! Moran–Wolfstahl \[85\] and Biran–Moran–Zaks \[20\] recast the FLP result as a
//! statement about *tasks*: represent the possible input assignments as an
//! **input graph** (vectors adjacent iff they differ in one component) and
//! the allowed decision assignments as a **decision graph**. Any task whose
//! input graph is connected but whose decision graph is disconnected — in the
//! sense that adjacent inputs are mapped into different decision components —
//! is unsolvable in the presence of one faulty process. Consensus is the
//! canonical instance.
//!
//! [`Task`] stores the relation; [`Task::moran_wolfstahl`] checks the
//! condition and returns the witnessing pair of adjacent inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A decision task for `n` processes: a finite relation from input vectors to
/// allowed decision vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    n: usize,
    /// `allowed[input] = set of permitted decision vectors`.
    allowed: BTreeMap<Vec<u64>, BTreeSet<Vec<u64>>>,
}

/// Witness that a task satisfies the Moran–Wolfstahl impossibility condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoranWolfstahlWitness {
    /// Two input vectors (connected through the input graph) ...
    pub inputs: (Vec<u64>, Vec<u64>),
    /// ... whose allowed decision vectors lie entirely in different connected
    /// components of the decision graph, so somewhere along the connecting
    /// input path the decision must jump components — which one faulty
    /// process can always prevent.
    component_reps: (Vec<u64>, Vec<u64>),
}

impl fmt::Display for MoranWolfstahlWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "connected inputs {:?} .. {:?} are forced into disconnected decision \
             components (reps {:?} vs {:?}): unsolvable with 1 faulty process",
            self.inputs.0, self.inputs.1, self.component_reps.0, self.component_reps.1
        )
    }
}

impl Task {
    /// Empty task for `n` processes.
    pub fn new(n: usize) -> Self {
        Task {
            n,
            allowed: BTreeMap::new(),
        }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Permit decision vector `output` for input vector `input`.
    ///
    /// # Panics
    ///
    /// Panics if either vector has length ≠ `n`.
    pub fn allow(&mut self, input: Vec<u64>, output: Vec<u64>) {
        assert_eq!(input.len(), self.n);
        assert_eq!(output.len(), self.n);
        self.allowed.entry(input).or_default().insert(output);
    }

    /// All input vectors.
    pub fn inputs(&self) -> Vec<&Vec<u64>> {
        self.allowed.keys().collect()
    }

    /// The binary consensus task for `n` processes: inputs are all 0/1
    /// vectors; allowed outputs are the all-0 and/or all-1 vectors subject to
    /// validity (the decided value must be someone's input).
    pub fn consensus(n: usize) -> Self {
        let mut t = Task::new(n);
        for mask in 0..(1u64 << n) {
            let input: Vec<u64> = (0..n).map(|i| (mask >> i) & 1).collect();
            let has0 = input.contains(&0);
            let has1 = input.contains(&1);
            if has0 {
                t.allow(input.clone(), vec![0; n]);
            }
            if has1 {
                t.allow(input.clone(), vec![1; n]);
            }
        }
        t
    }

    /// Input graph adjacency: vectors present as inputs, adjacent iff they
    /// differ in exactly one component.
    fn input_components(&self) -> BTreeMap<Vec<u64>, usize> {
        components(self.allowed.keys().cloned().collect())
    }

    /// Decision graph adjacency over *all* allowed output vectors.
    fn output_components(&self) -> BTreeMap<Vec<u64>, usize> {
        let outs: BTreeSet<Vec<u64>> = self.allowed.values().flatten().cloned().collect();
        components(outs)
    }

    /// Check the Moran–Wolfstahl condition: the input graph is connected, the
    /// decision graph is disconnected, and some pair of inputs is *forced*
    /// into different decision components (their allowed-output component
    /// sets are disjoint).
    ///
    /// Under these conditions, walking the input path between the forced pair
    /// one component at a time, the decision must at some step jump between
    /// disconnected decision components while only one input changed — which
    /// a single faulty (silent) process can always exploit, exactly as in the
    /// FLP-style argument of \[85\].
    ///
    /// Returns the witness if the task is 1-fault unsolvable by this
    /// criterion; `None` means the criterion does not apply (the task may
    /// still be unsolvable for other reasons).
    pub fn moran_wolfstahl(&self) -> Option<MoranWolfstahlWitness> {
        let in_comp = self.input_components();
        let num_in_comps = in_comp.values().collect::<BTreeSet<_>>().len();
        if num_in_comps != 1 {
            return None; // input graph must be connected
        }
        let out_comp = self.output_components();
        let num_out_comps = out_comp.values().collect::<BTreeSet<_>>().len();
        if num_out_comps < 2 {
            return None; // decision graph must be disconnected
        }

        // For each input, the set of decision components its outputs occupy.
        let comp_sets: BTreeMap<&Vec<u64>, BTreeSet<usize>> = self
            .allowed
            .iter()
            .map(|(i, outs)| (i, outs.iter().map(|o| out_comp[o]).collect()))
            .collect();

        for (a, outs_a) in &self.allowed {
            for b in self.allowed.keys() {
                let ca = &comp_sets[a];
                let cb = &comp_sets[b];
                if ca.is_disjoint(cb) {
                    let rep_a = outs_a.iter().next().expect("nonempty").clone();
                    let rep_b = self.allowed[b].iter().next().expect("nonempty").clone();
                    return Some(MoranWolfstahlWitness {
                        inputs: (a.clone(), b.clone()),
                        component_reps: (rep_a, rep_b),
                    });
                }
            }
        }
        None
    }
}

/// Differ in exactly one component.
fn adjacent(a: &[u64], b: &[u64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).filter(|(x, y)| x != y).count() == 1
}

/// Connected components of the "differ in one component" graph over `verts`.
fn components(verts: BTreeSet<Vec<u64>>) -> BTreeMap<Vec<u64>, usize> {
    let vlist: Vec<Vec<u64>> = verts.into_iter().collect();
    let mut comp: Vec<usize> = (0..vlist.len()).collect();

    fn find(comp: &mut Vec<usize>, i: usize) -> usize {
        if comp[i] != i {
            let r = find(comp, comp[i]);
            comp[i] = r;
        }
        comp[i]
    }

    for i in 0..vlist.len() {
        for j in (i + 1)..vlist.len() {
            if adjacent(&vlist[i], &vlist[j]) {
                let (ri, rj) = (find(&mut comp, i), find(&mut comp, j));
                comp[ri.max(rj)] = ri.min(rj);
            }
        }
    }
    vlist
        .iter()
        .enumerate()
        .map(|(i, v)| (v.clone(), find(&mut comp.clone(), i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_is_moran_wolfstahl_impossible() {
        for n in 2..=4 {
            let task = Task::consensus(n);
            let witness = task
                .moran_wolfstahl()
                .expect("consensus must satisfy the impossibility condition");
            // The forced pair is the all-0 and all-1 input (validity pins
            // each to its own decision component).
            assert_eq!(witness.inputs.0, vec![0; n]);
            assert_eq!(witness.inputs.1, vec![1; n]);
            assert_ne!(witness.component_reps.0, witness.component_reps.1);
        }
    }

    #[test]
    fn trivial_constant_task_is_solvable_by_criterion() {
        // Every input maps to the all-0 output: decision graph has one
        // vertex; no disconnection possible.
        let mut t = Task::new(2);
        for mask in 0..4u64 {
            let input = vec![mask & 1, (mask >> 1) & 1];
            t.allow(input, vec![0, 0]);
        }
        assert!(t.moran_wolfstahl().is_none());
    }

    #[test]
    fn adjacency_helper() {
        assert!(adjacent(&[0, 1], &[1, 1]));
        assert!(!adjacent(&[0, 1], &[1, 0]));
        assert!(!adjacent(&[0, 1], &[0, 1]));
    }

    #[test]
    fn disconnected_input_graph_rejects_criterion() {
        let mut t = Task::new(2);
        // Inputs {0,0} and {5,5}: not adjacent, two components.
        t.allow(vec![0, 0], vec![0, 0]);
        t.allow(vec![5, 5], vec![1, 1]);
        assert!(t.moran_wolfstahl().is_none());
    }

    #[test]
    fn witness_displays() {
        let w = Task::consensus(2).moran_wolfstahl().unwrap();
        assert!(w.to_string().contains("unsolvable"));
    }
}
