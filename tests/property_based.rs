//! Property-based tests: invariants under randomized inputs/schedules.
//!
//! Built on the in-tree [`impossible_det`] harness: cases are generated
//! from per-test deterministic streams, failures shrink, and every failure
//! prints a `DET_SEED=...` line that replays it exactly.

use impossible::consensus::benor::run_benor;
use impossible::consensus::eig::run_eig;
use impossible::consensus::floodset::run_floodset;
use impossible::core::symmetry::{bit_reversal_ring, comparison_symmetry_classes, order_equivalent};
use impossible::datalink::abp::run_abp;
use impossible::election::lcr::run_lcr;
use impossible::election::ring::RingSchedule;
use impossible::election::{hs, peterson};
use impossible::obs::NoopTracer;
use impossible::registers::constructions::{
    simulate_mrsw_with_reader_writes, simulate_regular_to_atomic_srsw, simulate_safe_to_regular,
};
use impossible::registers::spec::{check_linearizable, check_regular};
use impossible::sharedmem::algorithms::{Bakery, OneBit, Peterson2};
use impossible::sharedmem::sched::simulate_random;
use impossible_det::{det_assert, det_assert_eq, det_assume, det_prop, prop, DetRng};

det_prop! {
    fn floodset_agrees_under_random_crash_patterns(
        cases = 24,
        inputs in prop::vec(0u64..2, 4..7),
        crash_proc in 0usize..4,
        crash_round in 1usize..3,
        prefix in 0usize..5,
    ) {
        let t = 2;
        let run = run_floodset(&inputs, t, false, &[(crash_proc, crash_round, prefix)]);
        det_assert!(run.agreement());
        // Validity: the decision is someone's input.
        if let Some(v) = run.decisions.iter().flatten().next() {
            det_assert!(inputs.contains(v));
        }
    }

    fn eig_agrees_under_any_single_traitor(
        cases = 24,
        inputs in prop::vec(0u64..2, 4..5),
        traitor in 0usize..4,
    ) {
        let run = run_eig(&inputs, 1, &[traitor]);
        det_assert!(run.agreement());
    }

    fn benor_safe_for_all_seeds(
        cases = 24,
        inputs in prop::vec(0u64..2, 5..6),
        seed in 0u64..1000,
    ) {
        let run = run_benor(&inputs, 2, seed, &[], 400, &mut NoopTracer);
        det_assert!(run.agreement());
        if let Some(v) = run.decisions.iter().flatten().next() {
            det_assert!(inputs.contains(v));
        }
    }

    fn ring_elections_agree_on_the_winner(
        cases = 24,
        perm_seed in 0u64..500,
        n in 4usize..12,
    ) {
        let mut ids: Vec<u64> = (0..n as u64).collect();
        DetRng::seed_from_u64(perm_seed).shuffle(&mut ids);
        let max_pos = ids.iter().position(|&v| v == n as u64 - 1).unwrap();

        let l = run_lcr(&ids, RingSchedule::Random(perm_seed));
        det_assert_eq!(l.leader, Some(max_pos));
        let h = hs::run_hs(&ids, RingSchedule::Random(perm_seed));
        det_assert_eq!(h.leader, Some(max_pos));
        let p = peterson::run_peterson(&ids, RingSchedule::Random(perm_seed));
        det_assert!(p.leader.is_some());
    }

    fn abp_delivers_exactly_the_sent_sequence(
        cases = 24,
        msgs in prop::vec(0u64..100, 1..15),
        seed in 0u64..500,
        drop_pct in 0u32..40,
    ) {
        let (delivered, _) = run_abp(&msgs, seed, drop_pct * 10, 200, 600_000);
        det_assert_eq!(delivered, msgs);
    }

    fn mutex_algorithms_never_violate_safety_under_random_schedules(
        cases = 24,
        seed in 0u64..200,
        bias in 1u32..10,
    ) {
        let bias = bias * 10; // percent
        det_assert!(!simulate_random(&Peterson2::new(), 30_000, seed, bias).mutex_violated);
        det_assert!(!simulate_random(&Bakery::new(3), 30_000, seed, bias).mutex_violated);
        det_assert!(!simulate_random(&OneBit::new(3), 30_000, seed, bias).mutex_violated);
    }

    fn register_constructions_meet_their_grade(cases = 24, seed in 0u64..500) {
        det_assert!(check_regular(&simulate_safe_to_regular(5, 6, seed)).is_ok());
        det_assert!(check_linearizable(&simulate_regular_to_atomic_srsw(18, seed)).is_some());
        det_assert!(check_linearizable(&simulate_mrsw_with_reader_writes(2, 24, seed)).is_some());
    }

    fn order_equivalence_is_an_equivalence_invariant_under_scaling(
        cases = 24,
        xs in prop::vec(0u64..1000, 2..6),
        scale in 1u64..50,
        offset in 0u64..100,
    ) {
        // Distinct values only (order-equivalence assumes them).
        let mut distinct = xs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        det_assume!(distinct.len() == xs.len());
        let ys: Vec<u64> = xs.iter().map(|x| x * scale + offset).collect();
        det_assert!(order_equivalent(&xs, &xs));
        det_assert!(order_equivalent(&xs, &ys));
        det_assert!(order_equivalent(&ys, &xs));
    }

    fn symmetry_classes_partition_the_ring(cases = 24, k in 1usize..4) {
        let ring = bit_reversal_ring(16);
        let classes = comparison_symmetry_classes(&ring, k);
        let mut seen: Vec<usize> = classes.concat();
        seen.sort_unstable();
        det_assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }
}
