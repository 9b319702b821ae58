//! The one-bit mutual-exclusion algorithm (Burns; also Lamport).
//!
//! `n` processes, one single-writer **bit** per process — matching the
//! Burns–Lynch lower bound \[27\] that read/write mutual exclusion requires
//! `n` separate shared variables. Mutual exclusion and deadlock-freedom
//! hold; fairness does not (low-numbered processes have priority).

use crate::mutex::{MutexAlgorithm, Region};

/// The one-bit algorithm for `n` processes; variable `i` is process `i`'s
/// flag bit.
#[derive(Debug, Clone)]
pub struct OneBit {
    n: usize,
}

impl OneBit {
    /// Instance for `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        OneBit { n }
    }
}

/// Program counter of a [`OneBit`] process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OneBitLocal {
    /// Remainder region.
    Rem,
    /// `flag[i] := 1`.
    SetFlag,
    /// Scan flags of lower-numbered processes.
    ScanLow {
        /// Next lower index to inspect.
        j: usize,
    },
    /// A lower process is competing: `flag[i] := 0`, then wait for it.
    Retreat {
        /// The lower process that beat us.
        j: usize,
    },
    /// Spin until `flag[j] == 0`, then restart.
    WaitLow {
        /// The lower process being waited for.
        j: usize,
    },
    /// Scan flags of higher-numbered processes (wait for each to clear).
    ScanHigh {
        /// Next higher index to inspect.
        j: usize,
    },
    /// Critical region.
    Crit,
    /// Exit: `flag[i] := 0`.
    ClearFlag,
}

impl MutexAlgorithm for OneBit {
    type Local = OneBitLocal;
    type Register = u8;

    fn name(&self) -> &'static str {
        "one-bit"
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn num_vars(&self) -> usize {
        self.n
    }

    fn initial_var(&self, _var: usize) -> u64 {
        0
    }

    fn initial_local(&self, _i: usize) -> OneBitLocal {
        OneBitLocal::Rem
    }

    fn region(&self, local: &OneBitLocal) -> Region {
        match local {
            OneBitLocal::Rem => Region::Remainder,
            OneBitLocal::Crit => Region::Critical,
            OneBitLocal::ClearFlag => Region::Exit,
            _ => Region::Trying,
        }
    }

    fn on_try(&self, _i: usize, _local: &OneBitLocal) -> OneBitLocal {
        OneBitLocal::SetFlag
    }

    fn on_exit(&self, _i: usize, _local: &OneBitLocal) -> OneBitLocal {
        OneBitLocal::ClearFlag
    }

    fn target(&self, i: usize, local: &OneBitLocal) -> usize {
        match local {
            OneBitLocal::SetFlag | OneBitLocal::Retreat { .. } | OneBitLocal::ClearFlag => i,
            OneBitLocal::ScanLow { j }
            | OneBitLocal::WaitLow { j }
            | OneBitLocal::ScanHigh { j } => *j,
            other => unreachable!("no access in {other:?}"),
        }
    }

    fn step(&self, i: usize, local: &OneBitLocal, value: u64) -> (OneBitLocal, u64) {
        match *local {
            OneBitLocal::SetFlag => {
                if i == 0 {
                    // No lower processes to scan.
                    let next = if self.n > 1 {
                        OneBitLocal::ScanHigh { j: 1 }
                    } else {
                        OneBitLocal::Crit
                    };
                    (next, 1)
                } else {
                    (OneBitLocal::ScanLow { j: 0 }, 1)
                }
            }
            OneBitLocal::ScanLow { j } => {
                if value == 1 {
                    (OneBitLocal::Retreat { j }, value)
                } else {
                    let next = j + 1;
                    if next >= i {
                        if i + 1 >= self.n {
                            (OneBitLocal::Crit, value)
                        } else {
                            (OneBitLocal::ScanHigh { j: i + 1 }, value)
                        }
                    } else {
                        (OneBitLocal::ScanLow { j: next }, value)
                    }
                }
            }
            OneBitLocal::Retreat { j } => (OneBitLocal::WaitLow { j }, 0),
            OneBitLocal::WaitLow { j } => {
                if value == 0 {
                    (OneBitLocal::SetFlag, value)
                } else {
                    (OneBitLocal::WaitLow { j }, value)
                }
            }
            OneBitLocal::ScanHigh { j } => {
                if value == 1 {
                    (OneBitLocal::ScanHigh { j }, value) // spin until clear
                } else {
                    let next = j + 1;
                    if next >= self.n {
                        (OneBitLocal::Crit, value)
                    } else {
                        (OneBitLocal::ScanHigh { j: next }, value)
                    }
                }
            }
            OneBitLocal::ClearFlag => (OneBitLocal::Rem, 0),
            ref other => unreachable!("no step in {other:?}"),
        }
    }

    fn read_write_only(&self) -> bool {
        true
    }

    fn value_space(&self, _var: usize) -> Option<u64> {
        Some(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::mutex::MutexSystem;

    #[test]
    fn satisfies_mutual_exclusion_n2() {
        let alg = OneBit::new(2);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_mutex_violation(&sys, 300_000).is_none());
    }

    #[test]
    fn satisfies_mutual_exclusion_n3() {
        let alg = OneBit::new(3);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_mutex_violation(&sys, 600_000).is_none());
    }

    #[test]
    fn satisfies_progress_n2() {
        let alg = OneBit::new(2);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_deadlock(&sys, 300_000).is_none());
    }

    #[test]
    fn uses_exactly_n_variables_of_two_values() {
        // The match to the Burns–Lynch n-variable lower bound.
        let alg = OneBit::new(3);
        assert_eq!(alg.num_vars(), 3);
        let sys = MutexSystem::new(&alg);
        let spaces = check::observed_value_spaces(&sys, 200_000);
        assert!(spaces.iter().all(|&s| s <= 2));
    }

    #[test]
    fn low_priority_process_can_be_locked_out() {
        let alg = OneBit::new(2);
        let sys = MutexSystem::new(&alg);
        assert!(check::find_lockout(&sys, 1, 300_000).is_some());
    }
}

impossible_explore::impl_encode_enum!(OneBitLocal {
    0: Rem,
    1: SetFlag,
    2: ScanLow { j },
    3: Retreat { j },
    4: WaitLow { j },
    5: ScanHigh { j },
    6: Crit,
    7: ClearFlag,
});
