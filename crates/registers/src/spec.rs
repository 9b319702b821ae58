//! Operation histories and register semantics.
//!
//! The three register grades of Lamport \[71\]:
//!
//! * **safe** — a read not overlapping any write returns the latest written
//!   value; an overlapping read may return anything;
//! * **regular** — an overlapping read returns the old or one of the
//!   overlapping new values;
//! * **atomic** — the whole history is *linearizable*: some total order of
//!   the operations respects real time and register semantics.
//!
//! [`check_linearizable`] searches for a linearization (with memoized DFS);
//! [`check_regular`] and [`check_safe`] validate single-writer histories
//! against the weaker grades. The checkers return concrete witnesses,
//! because the constructions in [`crate::constructions`] are *judged* by
//! them.

use std::collections::BTreeSet;

/// The kind of a register operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A read returning the attached value.
    Read,
    /// A write storing the attached value.
    Write,
}

/// One complete operation in a history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Executing process.
    pub process: usize,
    /// Read or write.
    pub kind: OpKind,
    /// Value written / returned.
    pub value: u64,
    /// Invocation time.
    invoke: f64,
    /// Response time (must exceed `invoke`).
    respond: f64,
}

impl Op {
    /// A read by `process` returning `value` over `[invoke, respond]`.
    pub fn read(process: usize, value: u64, invoke: f64, respond: f64) -> Self {
        assert!(invoke < respond);
        Op {
            process,
            kind: OpKind::Read,
            value,
            invoke,
            respond,
        }
    }

    /// A write by `process` of `value` over `[invoke, respond]`.
    pub fn write(process: usize, value: u64, invoke: f64, respond: f64) -> Self {
        assert!(invoke < respond);
        Op {
            process,
            kind: OpKind::Write,
            value,
            invoke,
            respond,
        }
    }

    fn precedes(&self, other: &Op) -> bool {
        self.respond < other.invoke
    }

    fn overlaps(&self, other: &Op) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }
}

/// A complete history over a single register.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// The operations (any order).
    pub ops: Vec<Op>,
    /// The register's initial value.
    pub initial: u64,
}

impl History {
    /// A history with initial value 0.
    pub fn new() -> Self {
        History::default()
    }

    /// Builder: add an operation.
    pub fn with(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }
}

/// A linearization witness: indices into `history.ops` in linearized order.
pub type Linearization = Vec<usize>;

/// Search for a linearization of `history`. `Some(order)` is the witness;
/// `None` means the history is **not atomic** (e.g. a new/old inversion).
pub fn check_linearizable(history: &History) -> Option<Linearization> {
    let n = history.ops.len();
    let ops = &history.ops;
    // DFS over (linearized-set, current value); memoize failures.
    fn dfs(
        ops: &[Op],
        done: &mut Vec<bool>,
        done_count: usize,
        value: u64,
        order: &mut Vec<usize>,
        failed: &mut BTreeSet<(Vec<bool>, u64)>,
    ) -> bool {
        if done_count == ops.len() {
            return true;
        }
        let key = (done.clone(), value);
        if failed.contains(&key) {
            return false;
        }
        for i in 0..ops.len() {
            if done[i] {
                continue;
            }
            // Real-time constraint: i may linearize next only if no
            // not-yet-linearized op finished before i was invoked.
            let blocked = (0..ops.len())
                .any(|j| !done[j] && j != i && ops[j].precedes(&ops[i]));
            if blocked {
                continue;
            }
            // Semantics.
            let next_value = match ops[i].kind {
                OpKind::Read => {
                    if ops[i].value != value {
                        continue;
                    }
                    value
                }
                OpKind::Write => ops[i].value,
            };
            done[i] = true;
            order.push(i);
            if dfs(ops, done, done_count + 1, next_value, order, failed) {
                return true;
            }
            done[i] = false;
            order.pop();
        }
        failed.insert(key);
        false
    }

    let mut done = vec![false; n];
    let mut order = Vec::new();
    let mut failed = BTreeSet::new();
    dfs(
        ops,
        &mut done,
        0,
        history.initial,
        &mut order,
        &mut failed,
    )
    .then_some(order)
}

/// A violation of the weaker grades, with the offending read.
#[derive(Debug, Clone, PartialEq)]
pub struct GradeViolation {
    /// Index of the offending read in `history.ops`.
    pub read: usize,
    /// The values that would have been legal.
    pub allowed: Vec<u64>,
}

/// Check single-writer **regularity**: every read returns the latest write
/// preceding it or some overlapping write.
pub fn check_regular(history: &History) -> Result<(), GradeViolation> {
    check_grade(history, true)
}

/// Check single-writer **safeness**: only reads that overlap no write are
/// constrained (to the latest preceding write).
// LINT-ALLOW: dead-pub -- Lamport's safe register grade, the weakest of the three; test safe_register_allows_garbage_only_during_overlap
pub fn check_safe(history: &History) -> Result<(), GradeViolation> {
    check_grade(history, false)
}

fn check_grade(history: &History, regular: bool) -> Result<(), GradeViolation> {
    let writes: Vec<&Op> = history
        .ops
        .iter()
        .filter(|o| o.kind == OpKind::Write)
        .collect();
    for (idx, read) in history.ops.iter().enumerate() {
        if read.kind != OpKind::Read {
            continue;
        }
        let overlapping: Vec<u64> = writes
            .iter()
            .filter(|w| w.overlaps(read))
            .map(|w| w.value)
            .collect();
        // Latest write completing before the read starts.
        let preceding = writes
            .iter()
            .filter(|w| w.precedes(read))
            .max_by(|a, b| a.respond.partial_cmp(&b.respond).expect("finite"))
            .map(|w| w.value)
            .unwrap_or(history.initial);
        let mut allowed = vec![preceding];
        if regular || overlapping.is_empty() {
            allowed.extend(&overlapping);
        } else {
            // Safe register: overlapping reads are unconstrained.
            continue;
        }
        if !allowed.contains(&read.value) {
            return Err(GradeViolation {
                read: idx,
                allowed,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_history_is_linearizable() {
        let h = History::new()
            .with(Op::write(0, 5, 0.0, 1.0))
            .with(Op::read(1, 5, 2.0, 3.0))
            .with(Op::write(0, 7, 4.0, 5.0))
            .with(Op::read(1, 7, 6.0, 7.0));
        assert!(check_linearizable(&h).is_some());
    }

    #[test]
    fn overlapping_read_may_return_either() {
        // Write of 9 overlaps a read: returning old (0) or new (9) both OK.
        for v in [0u64, 9] {
            let h = History::new()
                .with(Op::write(0, 9, 1.0, 3.0))
                .with(Op::read(1, v, 2.0, 4.0));
            assert!(check_linearizable(&h).is_some(), "value {v}");
        }
    }

    #[test]
    fn new_old_inversion_is_not_linearizable() {
        // Two sequential reads during one long write: new then old — the
        // exact pattern regular registers allow and atomic ones forbid.
        let h = History::new()
            .with(Op::write(0, 1, 0.0, 10.0))
            .with(Op::read(1, 1, 1.0, 2.0)) // new
            .with(Op::read(1, 0, 3.0, 4.0)); // old, after new: inversion
        assert!(check_linearizable(&h).is_none());
        // But it IS regular: both reads overlap the write.
        assert!(check_regular(&h).is_ok());
    }

    #[test]
    fn stale_read_violates_even_regularity() {
        let h = History::new()
            .with(Op::write(0, 4, 0.0, 1.0))
            .with(Op::read(1, 0, 2.0, 3.0)); // returns initial after write done
        assert!(check_linearizable(&h).is_none());
        let err = check_regular(&h).unwrap_err();
        assert_eq!(err.read, 1);
        assert_eq!(err.allowed, vec![4]);
    }

    #[test]
    fn safe_register_allows_garbage_only_during_overlap() {
        let overlapping_garbage = History::new()
            .with(Op::write(0, 1, 1.0, 3.0))
            .with(Op::read(1, 77, 2.0, 4.0));
        assert!(check_safe(&overlapping_garbage).is_ok());
        assert!(check_regular(&overlapping_garbage).is_err());

        let quiet_garbage = History::new()
            .with(Op::write(0, 1, 0.0, 1.0))
            .with(Op::read(1, 77, 2.0, 3.0));
        assert!(check_safe(&quiet_garbage).is_err());
    }

    #[test]
    fn linearization_witness_is_valid_order() {
        let h = History::new()
            .with(Op::write(0, 3, 0.0, 5.0))
            .with(Op::read(1, 0, 1.0, 2.0)) // old value while write pending
            .with(Op::read(1, 3, 6.0, 7.0));
        let order = check_linearizable(&h).expect("linearizable");
        assert_eq!(order.len(), 3);
        // The old read must come before the write in the witness.
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(1) < pos(0));
    }

    #[test]
    fn concurrent_writers_interleave() {
        let h = History::new()
            .with(Op::write(0, 1, 0.0, 4.0))
            .with(Op::write(1, 2, 1.0, 3.0))
            .with(Op::read(2, 1, 5.0, 6.0));
        // Legal: linearize write(2) then write(1).
        assert!(check_linearizable(&h).is_some());
    }
}
