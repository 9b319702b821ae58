//! Dijkstra's original mutual-exclusion algorithm \[38\] (CACM 1965).
//!
//! The algorithm the survey's story begins with: `n` processes, read/write
//! variables `b[i]`, `c[i]` and a turn variable `k`. It guarantees mutual
//! exclusion and progress but **not** fairness — the lockout checker
//! exhibits a starvation schedule, which is precisely the gap the later
//! §2.1 work (bounded waiting, lockout-freedom) formalized.

use crate::mutex::{MutexAlgorithm, Region};

/// Dijkstra's algorithm for `n` processes.
///
/// Variable layout: `b[i] = i`, `c[i] = n + i`, `k = 2n`.
#[derive(Debug, Clone)]
pub struct Dijkstra {
    n: usize,
}

impl Dijkstra {
    /// Instance for `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Dijkstra { n }
    }

    fn b(&self, i: usize) -> usize {
        i
    }
    fn c(&self, i: usize) -> usize {
        self.n + i
    }
    fn k(&self) -> usize {
        2 * self.n
    }
}

/// Program counter of a [`Dijkstra`] process. The default is the
/// remainder region, every process's initial local.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DijkstraLocal {
    /// Remainder region.
    #[default]
    Rem,
    /// `b[i] := 0` (announce interest).
    SetB,
    /// Read the turn variable `k`.
    ReadK,
    /// `c[i] := 1` then inspect `b[k]` (we are not the turn-holder).
    SetCTrue {
        /// The turn value read at [`DijkstraLocal::ReadK`].
        k: u8,
    },
    /// Read `b[k]`; if the turn-holder is passive, claim the turn.
    ReadBk {
        /// The turn value read at [`DijkstraLocal::ReadK`].
        k: u8,
    },
    /// Write `k := i`.
    WriteK,
    /// `c[i] := 0` (second phase: claim).
    SetCFalse,
    /// Scan `c[j]` for all `j != i`; any claim by another aborts to `ReadK`.
    CheckC {
        /// Next index to check.
        j: u8,
    },
    /// Critical region.
    Crit,
    /// Exit: `c[i] := 1`.
    ExitC,
    /// Exit: `b[i] := 1`.
    ExitB,
}

impl Dijkstra {
    fn next_check(&self, i: usize, j: usize) -> DijkstraLocal {
        let mut j = j;
        if j == i {
            j += 1;
        }
        if j >= self.n {
            DijkstraLocal::Crit
        } else {
            let j = u8::try_from(j).expect("the scan index is a process index");
            DijkstraLocal::CheckC { j }
        }
    }
}

impl MutexAlgorithm for Dijkstra {
    type Local = DijkstraLocal;
    type Register = u8;

    fn name(&self) -> &'static str {
        "dijkstra-1965"
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn num_vars(&self) -> usize {
        2 * self.n + 1
    }

    fn initial_var(&self, var: usize) -> u64 {
        if var == self.k() {
            0 // turn initially with p0
        } else {
            1 // b and c are "true" (passive)
        }
    }

    fn initial_local(&self, _i: usize) -> DijkstraLocal {
        DijkstraLocal::Rem
    }

    fn region(&self, local: &DijkstraLocal) -> Region {
        match local {
            DijkstraLocal::Rem => Region::Remainder,
            DijkstraLocal::Crit => Region::Critical,
            DijkstraLocal::ExitC | DijkstraLocal::ExitB => Region::Exit,
            _ => Region::Trying,
        }
    }

    fn on_try(&self, _i: usize, _local: &DijkstraLocal) -> DijkstraLocal {
        DijkstraLocal::SetB
    }

    fn on_exit(&self, _i: usize, _local: &DijkstraLocal) -> DijkstraLocal {
        DijkstraLocal::ExitC
    }

    fn target(&self, i: usize, local: &DijkstraLocal) -> usize {
        match local {
            DijkstraLocal::SetB | DijkstraLocal::ExitB => self.b(i),
            DijkstraLocal::ReadK | DijkstraLocal::WriteK => self.k(),
            DijkstraLocal::SetCTrue { .. }
            | DijkstraLocal::SetCFalse
            | DijkstraLocal::ExitC => self.c(i),
            DijkstraLocal::ReadBk { k } => self.b(usize::from(*k)),
            DijkstraLocal::CheckC { j } => self.c(usize::from(*j)),
            other => unreachable!("no access in {other:?}"),
        }
    }

    fn step(&self, i: usize, local: &DijkstraLocal, value: u64) -> (DijkstraLocal, u64) {
        match local {
            DijkstraLocal::SetB => (DijkstraLocal::ReadK, 0),
            DijkstraLocal::ReadK => {
                let k = u8::try_from(value).expect("the turn variable holds a process index");
                if usize::from(k) == i {
                    (DijkstraLocal::SetCFalse, value)
                } else {
                    (DijkstraLocal::SetCTrue { k }, value)
                }
            }
            DijkstraLocal::SetCTrue { k } => (DijkstraLocal::ReadBk { k: *k }, 1),
            DijkstraLocal::ReadBk { .. } => {
                if value == 1 {
                    // Turn-holder is passive: claim the turn.
                    (DijkstraLocal::WriteK, value)
                } else {
                    (DijkstraLocal::ReadK, value)
                }
            }
            DijkstraLocal::WriteK => (DijkstraLocal::ReadK, i as u64),
            DijkstraLocal::SetCFalse => (self.next_check(i, 0), 0),
            DijkstraLocal::CheckC { j } => {
                if value == 0 {
                    // Someone else also claims: retreat to the k-loop.
                    (DijkstraLocal::ReadK, value)
                } else {
                    (self.next_check(i, usize::from(*j) + 1), value)
                }
            }
            DijkstraLocal::ExitC => (DijkstraLocal::ExitB, 1),
            DijkstraLocal::ExitB => (DijkstraLocal::Rem, 1),
            other => unreachable!("no step in {other:?}"),
        }
    }

    fn read_write_only(&self) -> bool {
        true
    }

    fn value_space(&self, var: usize) -> Option<u64> {
        Some(if var == self.k() { self.n as u64 } else { 2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::mutex::MutexSystem;

    #[test]
    fn satisfies_mutual_exclusion_n2() {
        let alg = Dijkstra::new(2);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_mutex_violation(&sys, 500_000).is_none());
    }

    #[test]
    fn satisfies_mutual_exclusion_n3() {
        let alg = Dijkstra::new(3);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_mutex_violation(&sys, 500_000).is_none());
    }

    #[test]
    fn satisfies_progress() {
        let alg = Dijkstra::new(2);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_deadlock(&sys, 500_000).is_none());
    }

    #[test]
    fn exhibits_lockout() {
        // Dijkstra's algorithm is deadlock-free but unfair: the checker must
        // find a starvation cycle — the historical motivation for the
        // fairness conditions of [26].
        let alg = Dijkstra::new(2);
        let sys = MutexSystem::new(&alg);
        assert!(
            check::find_lockout(&sys, 1, 500_000).is_some(),
            "dijkstra admits lockout"
        );
    }

    #[test]
    fn solo_progress() {
        let alg = Dijkstra::new(3);
        let sys = MutexSystem::with_participants(&alg, vec![false, true, false]);
        assert!(check::find_deadlock(&sys, 500_000).is_none());
    }
}

impossible_explore::impl_encode_enum!(DijkstraLocal {
    0: Rem,
    1: SetB,
    2: ReadK,
    3: SetCTrue { k },
    4: ReadBk { k },
    5: WriteK,
    6: SetCFalse,
    7: CheckC { j },
    8: Crit,
    9: ExitC,
    10: ExitB,
});

impossible_explore::impl_persist_enum!(DijkstraLocal {
    0: Rem,
    1: SetB,
    2: ReadK,
    3: SetCTrue { k },
    4: ReadBk { k },
    5: WriteK,
    6: SetCFalse,
    7: CheckC { j },
    8: Crit,
    9: ExitC,
    10: ExitB,
});
