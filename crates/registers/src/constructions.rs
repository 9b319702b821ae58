//! Register constructions, judged by the semantic checkers.
//!
//! The §2.3 programme builds strong registers from weak ones. Here:
//!
//! * [`simulate_safe_to_regular`] — binary safe → regular (the writer skips
//!   redundant writes, so an overlapping read's garbage is always a legal
//!   old-or-new value);
//! * [`simulate_regular_to_atomic_srsw`] — regular → atomic for a single
//!   reader via timestamps (no reader writes needed when there is only one
//!   reader: monotone local memory suffices);
//! * [`inversion_without_reader_writes`] — Lamport's theorem \[71\]: with
//!   **two** readers that never write, the per-reader-copy construction
//!   admits a *new/old inversion* across readers; the function constructs
//!   the schedule and the linearizability checker rejects the history —
//!   the executable content of "atomic registers cannot be implemented in
//!   terms of regular registers unless the readers write";
//! * [`simulate_mrsw_with_reader_writes`] — the fix: readers publish the
//!   freshest `(timestamp, value)` they have seen; every schedule
//!   linearizes.

use crate::spec::{History, Op};
#[cfg(test)]
use crate::spec::{check_linearizable, check_regular};
use impossible_det::DetRng;

/// Timestamped value stored in base registers.
type Stamped = (u64, u64); // (timestamp, value)

/// Simulate the binary safe→regular construction under a random schedule.
///
/// The writer performs `writes` alternating-bit writes, the reader `reads`
/// reads; micro-steps interleave randomly. Overlapping base reads return an
/// adversarial bit — but only when the stored bit is actually changing,
/// because the construction skips redundant writes. Returns the high-level
/// history (always regular; often not atomic).
pub fn simulate_safe_to_regular(writes: usize, reads: usize, seed: u64) -> History {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut history = History::new();
    let mut t = 0.0f64;
    let mut stored = 0u64; // the base register's settled value
    // Pending write window, if the writer is mid-write: (target, start).
    let mut writing: Option<(u64, f64)> = None;
    let mut writes_left = writes;
    let mut reads_left = reads;
    let mut current = 0u64; // writer's local copy (skip-redundant logic)

    while writes_left > 0 || reads_left > 0 {
        t += 1.0;
        let do_write = writes_left > 0 && (reads_left == 0 || rng.gen_bool(0.4));
        if do_write {
            match writing {
                None => {
                    let target = 1 - current;
                    // Skip-redundant: by construction target != stored.
                    writing = Some((target, t));
                }
                Some((target, start)) => {
                    stored = target;
                    current = target;
                    history.ops.push(Op::write(0, target, start, t));
                    writing = None;
                    writes_left -= 1;
                }
            }
        } else if reads_left > 0 {
            // A base-level read is instantaneous here; its high-level window
            // is [t, t+0.5].
            let value = match writing {
                // Overlap with a changing write: safe register may return
                // garbage — for a binary register, garbage ∈ {0, 1} which is
                // exactly {old, new}.
                Some(_) => rng.gen_range(0..2),
                None => stored,
            };
            history.ops.push(Op::read(1, value, t, t + 0.5));
            reads_left -= 1;
        }
    }
    // Close any dangling write.
    if let Some((target, start)) = writing {
        t += 1.0;
        history.ops.push(Op::write(0, target, start, t));
    }
    history
}

/// Simulate the timestamped regular→atomic SRSW construction: the writer
/// stores `(ts, v)` pairs in one regular register; the single reader
/// remembers the largest timestamp it has returned and never goes backward.
/// Every schedule linearizes.
pub fn simulate_regular_to_atomic_srsw(ops: usize, seed: u64) -> History {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut history = History::new();
    let mut t = 0.0f64;
    let mut settled: Stamped = (0, 0);
    let mut writing: Option<(Stamped, f64)> = None;
    let mut reader_best: Stamped = (0, 0);
    let mut ts = 0u64;

    for _ in 0..ops {
        t += 1.0;
        if rng.gen_bool(0.5) {
            // Writer micro-step.
            match writing {
                None => {
                    ts += 1;
                    writing = Some(((ts, rng.gen_range(0..100)), t));
                }
                Some((pair, start)) => {
                    settled = pair;
                    history.ops.push(Op::write(0, pair.1, start, t));
                    writing = None;
                }
            }
        } else {
            // Reader: base regular read returns settled or the in-flight
            // pair (adversary picks); pairs are read atomically.
            let observed = match writing {
                Some((pair, _)) if rng.gen_bool(0.5) => pair,
                _ => settled,
            };
            if observed.0 > reader_best.0 {
                reader_best = observed;
            }
            history.ops.push(Op::read(1, reader_best.1, t, t + 0.5));
        }
    }
    if let Some((pair, start)) = writing {
        t += 1.0;
        history.ops.push(Op::write(0, pair.1, start, t));
    }
    history
}

/// Lamport's theorem, executed: the natural multi-reader construction in
/// which readers never write (one atomic copy per reader, written in
/// sequence) admits a new/old inversion. Returns the history of that
/// schedule, which
/// [`check_linearizable`](crate::spec::check_linearizable) rejects:
/// readers must write to warn each other.
pub fn inversion_without_reader_writes() -> History {
    // Writer writes value 1 into copy[0] then copy[1]; between the two,
    // reader 0 reads its (fresh) copy and completes, then reader 1 reads
    // its (stale) copy and completes.
    History::new()
        .with(Op::write(0, 1, 0.0, 10.0)) // high-level write in progress
        .with(Op::read(1, 1, 1.0, 2.0)) // reader 0: new value
        .with(Op::read(2, 0, 3.0, 4.0)) // reader 1: old value — inversion
}

/// Simulate the corrected multi-reader construction: readers publish the
/// freshest `(ts, v)` they have seen in their own announce register and
/// always consult each other's announcements. Every schedule linearizes.
pub fn simulate_mrsw_with_reader_writes(
    readers: usize,
    ops: usize,
    seed: u64,
) -> History {
    assert!(readers >= 1);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut history = History::new();
    let mut t = 0.0f64;
    let mut ts = 0u64;
    // Base registers are atomic (built by the SRSW construction): writer's
    // register plus one announce register per reader.
    let mut wreg: Stamped = (0, 0);
    let mut announce: Vec<Stamped> = vec![(0, 0); readers];
    // In-flight reader operations: (reader, phase, best, start).
    // phase 0..=readers: 0 = read wreg, 1..readers = read announce[phase-1],
    // readers = write own announce & respond.
    let mut in_flight: Vec<Option<(usize, Stamped, f64)>> = vec![None; readers];
    // In-flight write: (pair, phase?) — writer has a single micro-step.
    let mut pending_write: Option<(Stamped, f64)> = None;

    for _ in 0..ops {
        t += 1.0;
        let who = rng.gen_range(0..readers + 1);
        if who == readers {
            // Writer.
            match pending_write {
                None => {
                    ts += 1;
                    pending_write = Some(((ts, rng.gen_range(0..100)), t));
                }
                Some((pair, start)) => {
                    wreg = pair;
                    history.ops.push(Op::write(readers, pair.1, start, t));
                    pending_write = None;
                }
            }
        } else {
            let r = who;
            match in_flight[r].take() {
                None => {
                    // Begin: read the writer's register.
                    in_flight[r] = Some((0, wreg, t));
                }
                Some((phase, mut best, start)) => {
                    if phase < readers - 1 + 1 && phase < readers {
                        // Read announce[phase] (skipping is fine for r == phase;
                        // reading own announce is harmless).
                        let seen = announce[phase];
                        if seen.0 > best.0 {
                            best = seen;
                        }
                        if phase + 1 < readers {
                            in_flight[r] = Some((phase + 1, best, start));
                        } else {
                            // Final micro-step: publish and respond.
                            announce[r] = best;
                            history.ops.push(Op::read(r, best.1, start, t + 0.5));
                        }
                    }
                }
            }
        }
    }
    // Abandon unfinished operations (incomplete ops are dropped from the
    // history; completeness is the checker's precondition).
    if let Some((pair, start)) = pending_write {
        t += 1.0;
        history.ops.push(Op::write(readers, pair.1, start, t));
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_to_regular_is_always_regular() {
        for seed in 0..30 {
            let h = simulate_safe_to_regular(6, 8, seed);
            assert!(check_regular(&h).is_ok(), "seed {seed}: {h:?}");
        }
    }

    #[test]
    fn safe_to_regular_is_not_atomic_somewhere() {
        // Some schedule must produce a new/old inversion.
        let broken = (0..300).any(|seed| {
            let h = simulate_safe_to_regular(6, 8, seed);
            check_linearizable(&h).is_none()
        });
        assert!(broken, "regular ≠ atomic: an inversion schedule must exist");
    }

    #[test]
    fn timestamped_srsw_is_always_atomic() {
        for seed in 0..50 {
            let h = simulate_regular_to_atomic_srsw(24, seed);
            assert!(
                check_linearizable(&h).is_some(),
                "seed {seed}: {h:?}"
            );
        }
    }

    #[test]
    fn lamport_inversion_has_no_linearization() {
        assert!(check_linearizable(&inversion_without_reader_writes()).is_none());
    }

    #[test]
    fn reader_writing_construction_is_always_atomic() {
        for seed in 0..40 {
            let h = simulate_mrsw_with_reader_writes(2, 40, seed);
            assert!(
                check_linearizable(&h).is_some(),
                "seed {seed}: {h:?}"
            );
        }
    }

    #[test]
    fn reader_writing_construction_three_readers() {
        for seed in 0..15 {
            let h = simulate_mrsw_with_reader_writes(3, 30, seed);
            assert!(check_linearizable(&h).is_some(), "seed {seed}");
        }
    }
}
