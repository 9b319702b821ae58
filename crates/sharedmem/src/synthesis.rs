//! The Cremers–Hibbard theorem, made exhaustive: **no 2-valued test-and-set
//! protocol (with bounded local state) gives fair 2-process mutual
//! exclusion.**
//!
//! The original proof \[35\] is a pigeonhole case analysis over the values the
//! shared variable can take. Here we go further than checking one candidate:
//! we *enumerate every symmetric protocol* in a bounded shape — `k` trying
//! states, a single-step exit, a 2-valued variable, arbitrary deterministic
//! transition tables — and model-check each against mutual exclusion,
//! progress and lockout-freedom. All fail, and the enumeration records
//! which condition kills each protocol.
//!
//! The shape is general enough to express the natural algorithms (the plain
//! test-and-set lock appears in the enumeration and fails exactly the
//! fairness check), so this is an honest finite-space version of the
//! theorem; the unbounded-local-state case is the paper's, not ours.

use crate::check;
use crate::mutex::{MutexAlgorithm, MutexSystem, Region};

/// A point in the protocol space: symmetric 2-process protocol with `k`
/// trying states over a `v`-valued variable.
///
/// Encoding of the trying transition table: for each `(trying state t,
/// observed value x)` the protocol picks `(next, write)` where `next` is one
/// of the `k` trying states or "enter critical", and `write` is one of the
/// `v` values. The exit protocol is a single step that writes `exit_write[x]`
/// on observing `x`. The variable starts at `init_value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthProtocol {
    /// Number of trying-region local states.
    pub k: usize,
    /// Number of variable values.
    pub v: u64,
    /// `table[t * v + x] = (next_state, write)`; `next_state == k` means
    /// "enter the critical region".
    pub table: Vec<(usize, u64)>,
    /// `exit_write[x]` = value stored by the exit step when observing `x`.
    pub exit_write: Vec<u64>,
    /// Initial variable value.
    pub init_value: u64,
}

/// Local state for a synthesized protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SynthLocal {
    /// Remainder region.
    Rem,
    /// Trying, in synthesized state `t`.
    Try(usize),
    /// Critical region.
    Crit,
    /// Exit (single step).
    Exit,
}

impl MutexAlgorithm for SynthProtocol {
    type Local = SynthLocal;
    type Register = u8;

    fn name(&self) -> &'static str {
        "synthesized"
    }

    fn num_processes(&self) -> usize {
        2
    }

    fn num_vars(&self) -> usize {
        1
    }

    fn initial_var(&self, _var: usize) -> u64 {
        self.init_value
    }

    fn initial_local(&self, _i: usize) -> SynthLocal {
        SynthLocal::Rem
    }

    fn region(&self, local: &SynthLocal) -> Region {
        match local {
            SynthLocal::Rem => Region::Remainder,
            SynthLocal::Try(_) => Region::Trying,
            SynthLocal::Crit => Region::Critical,
            SynthLocal::Exit => Region::Exit,
        }
    }

    fn on_try(&self, _i: usize, _local: &SynthLocal) -> SynthLocal {
        SynthLocal::Try(0)
    }

    fn on_exit(&self, _i: usize, _local: &SynthLocal) -> SynthLocal {
        SynthLocal::Exit
    }

    fn target(&self, _i: usize, _local: &SynthLocal) -> usize {
        0
    }

    fn step(&self, _i: usize, local: &SynthLocal, value: u64) -> (SynthLocal, u64) {
        match local {
            SynthLocal::Try(t) => {
                let (next, write) = self.table[t * self.v as usize + value as usize];
                let local = if next == self.k {
                    SynthLocal::Crit
                } else {
                    SynthLocal::Try(next)
                };
                (local, write)
            }
            SynthLocal::Exit => (SynthLocal::Rem, self.exit_write[value as usize]),
            other => unreachable!("no step in {other:?}"),
        }
    }

    fn value_space(&self, _var: usize) -> Option<u64> {
        Some(self.v)
    }
}

/// Why a synthesized protocol was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Refutation {
    /// Two processes reached the critical region together.
    MutexViolation,
    /// A trying process can never reach the critical region.
    Deadlock,
    /// An admissible schedule starves one process forever.
    Lockout,
}

/// Tally of an exhaustive sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Protocols enumerated.
    pub total: usize,
    /// Rejected for violating mutual exclusion.
    pub mutex_violations: usize,
    /// Rejected for deadlock.
    pub deadlocks: usize,
    /// Rejected for lockout (the fairness failure the theorem is about).
    pub lockouts: usize,
    /// Protocols that passed every check (must be 0 for v = 2 by
    /// Cremers–Hibbard; a nonzero count at v = 3 would *discover* their
    /// algorithm).
    pub survivors: Vec<SynthProtocol>,
}

/// Check one protocol; `None` means it satisfies all three conditions.
pub fn refute(p: &SynthProtocol, max_states: usize) -> Option<Refutation> {
    let sys = MutexSystem::new(p);
    if check::find_mutex_violation(&sys, max_states).is_some() {
        return Some(Refutation::MutexViolation);
    }
    if check::find_deadlock(&sys, max_states).is_some() {
        return Some(Refutation::Deadlock);
    }
    // Also require progress when only one process participates.
    for solo in 0..2 {
        let parts = (0..2).map(|i| i == solo).collect();
        let solo_sys = MutexSystem::with_participants(p, parts);
        if check::find_deadlock(&solo_sys, max_states).is_some() {
            return Some(Refutation::Deadlock);
        }
    }
    // Symmetric protocol: lockout of p1 suffices (p0 mirrors).
    if check::find_lockout(&sys, 1, max_states).is_some() {
        return Some(Refutation::Lockout);
    }
    None
}

/// Exhaustively enumerate and check every protocol with `k` trying states
/// over `v` values.
///
/// The space has `((k+1)·v)^(k·v) · v^v · v` members; keep `k` and `v` tiny
/// (`k = 2, v = 2` is ~10⁴ protocols; the experiments binary runs `k = 3`).
pub fn sweep(k: usize, v: u64, max_states: usize) -> SweepReport {
    let mut report = SweepReport::default();
    let cells = k * v as usize;
    let options = (k + 1) * v as usize; // (next, write) combinations
    let exit_options = v.pow(v as u32);

    let mut table_idx = vec![0usize; cells];
    loop {
        // Materialize the trying table.
        let table: Vec<(usize, u64)> = table_idx
            .iter()
            .map(|&o| (o / v as usize, (o % v as usize) as u64))
            .collect();
        for exit_code in 0..exit_options {
            let mut exit_write = Vec::with_capacity(v as usize);
            let mut e = exit_code;
            for _ in 0..v {
                exit_write.push(e % v);
                e /= v;
            }
            for init_value in 0..v {
                let p = SynthProtocol {
                    k,
                    v,
                    table: table.clone(),
                    exit_write: exit_write.clone(),
                    init_value,
                };
                report.total += 1;
                match refute(&p, max_states) {
                    Some(Refutation::MutexViolation) => report.mutex_violations += 1,
                    Some(Refutation::Deadlock) => report.deadlocks += 1,
                    Some(Refutation::Lockout) => report.lockouts += 1,
                    None => report.survivors.push(p),
                }
            }
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == cells {
                return report;
            }
            table_idx[i] += 1;
            if table_idx[i] < options {
                break;
            }
            table_idx[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_tas_lock_appears_and_fails_fairness() {
        // Encode the 2-valued TAS lock in the synthesis shape:
        // state 0, value 0 (free) -> enter critical, write 1 (held)
        // state 0, value 1 (held) -> stay, write 1
        // exit writes 0 regardless.
        let p = SynthProtocol {
            k: 1,
            v: 2,
            table: vec![(1, 1), (0, 1)],
            exit_write: vec![0, 0],
            init_value: 0,
        };
        assert_eq!(refute(&p, 50_000), Some(Refutation::Lockout));
    }

    #[test]
    fn trivially_broken_protocol_fails_safety() {
        // Always enter immediately, never look at the variable.
        let p = SynthProtocol {
            k: 1,
            v: 2,
            table: vec![(1, 0), (1, 1)],
            exit_write: vec![0, 0],
            init_value: 0,
        };
        assert_eq!(refute(&p, 50_000), Some(Refutation::MutexViolation));
    }

    #[test]
    fn never_entering_protocol_fails_progress() {
        let p = SynthProtocol {
            k: 1,
            v: 2,
            table: vec![(0, 0), (0, 1)],
            exit_write: vec![0, 0],
            init_value: 0,
        };
        assert_eq!(refute(&p, 50_000), Some(Refutation::Deadlock));
    }

    #[test]
    fn cremers_hibbard_exhaustive_k1() {
        // Every 1-trying-state 2-valued protocol fails: the executable
        // theorem at its smallest shape.
        let report = sweep(1, 2, 20_000);
        // ((k+1)·v)^(k·v) tables × v^v exits × v inits = 4² × 4 × 2.
        assert_eq!(report.total, 16 * 4 * 2);
        assert!(
            report.survivors.is_empty(),
            "no 2-valued fair mutex can exist: {:?}",
            report.survivors.first()
        );
        // All three refutation kinds occur in the space.
        assert!(report.mutex_violations > 0);
        assert!(report.deadlocks > 0);
        assert!(report.lockouts > 0);
    }

    #[test]
    #[ignore = "larger sweep, run with --ignored or via the experiments binary"]
    fn cremers_hibbard_exhaustive_k2() {
        let report = sweep(2, 2, 20_000);
        assert!(report.survivors.is_empty());
    }
}

impossible_explore::impl_encode_enum!(SynthLocal {
    0: Rem,
    1: Try(t),
    2: Crit,
    3: Exit,
});
