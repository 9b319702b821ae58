//! Integration: every bound's two sides, possibility and impossibility,
//! exercised together — the "game" of §3.4.

use impossible::consensus::commit::run_2pc;
use impossible::consensus::eig::run_eig;
use impossible::consensus::floodset::run_floodset;
use impossible::consensus::round_lb::{refute_one_round, MajorityRule, MinRule, RoundHorn};
use impossible::core::pigeonhole::bounds;
use impossible::datalink::abp::run_abp;
use impossible::datalink::stealing::refute_bounded_header;
use impossible::election::lcr::{run_lcr, worst_case_ids};
use impossible::election::ring::RingSchedule;
use impossible::election::{hs, timeslice};
use impossible::msgpass::asyncnet::DelayModel;
use impossible::msgpass::sessions::run_sessions;
use impossible::msgpass::topology::Topology;
use impossible::clocksync::model::{averaging_adjustments, ClockParams};
use impossible::clocksync::shifting::demonstrate_lower_bound;
use std::collections::BTreeSet;

#[test]
fn byzantine_threshold_is_sharp() {
    // n = 3t + 1 works under two-faced traitors.
    let good = run_eig(&[1, 0, 1, 1], 1, &[3]);
    assert!(good.agreement());
    // n = 3t is refuted (scenario engine, covered elsewhere); here the
    // bound function is the paper's.
    assert_eq!(bounds::byzantine_min_processes(1), 4);
    assert_eq!(bounds::byzantine_min_processes(2), 7);
}

#[test]
fn round_bound_is_sharp() {
    // 1 round: every natural rule refuted — some run of its chain, one
    // crash away from the next, decides two values.
    for (horn, chain) in [
        refute_one_round(&MinRule, 4),
        refute_one_round(&MajorityRule, 5),
    ] {
        let RoundHorn::Disagreement(k) = horn else {
            panic!("{horn:?}")
        };
        let decided: BTreeSet<_> = chain.executions()[k].decisions.iter().flatten().collect();
        assert_eq!(decided.len(), 2);
    }
    // t + 1 rounds: FloodSet agrees under every single-crash pattern with
    // adversarial prefixes.
    for crash_round in 1..=2usize {
        for prefix in 0..4usize {
            let run = run_floodset(&[0, 1, 1, 0], 1, false, &[(1, crash_round, prefix)]);
            assert!(run.agreement());
        }
    }
}

#[test]
fn sessions_bound_tracks_diameter() {
    for n in [6usize, 10] {
        let ring = Topology::ring(n);
        let line = Topology::line(n);
        for s in [2usize, 4] {
            for topo in [&ring, &line] {
                let r = run_sessions(topo, s, DelayModel::Unit);
                assert!(
                    r.total_time >= r.lower_bound,
                    "n={n} s={s}: {} < {}",
                    r.total_time,
                    r.lower_bound
                );
            }
        }
    }
}

#[test]
fn clock_sync_bound_is_tight_from_both_sides() {
    for n in [2usize, 4, 7] {
        let params = ClockParams {
            offsets: vec![0.0; n],
            lo: 0.5,
            hi: 2.5,
        };
        let demo = demonstrate_lower_bound(&params, averaging_adjustments);
        assert!(demo.indistinguishable);
        let expect = 2.0 * (1.0 - 1.0 / n as f64);
        assert!((demo.bound - expect).abs() < 1e-12);
        // Tight: achieved == bound (within float noise).
        assert!((demo.demonstrated_skew() - demo.bound).abs() < 1e-9);
    }
}

#[test]
fn election_complexity_ladder() {
    let n = 64usize;
    let ids = worst_case_ids(n);
    let lcr = run_lcr(&ids, RingSchedule::RoundRobin).messages;
    let hs = hs::run_hs(&ids, RingSchedule::RoundRobin).messages;
    let ts = timeslice::run_timeslice(&ids).messages;
    // O(n) < O(n log n) < O(n²), in the same world.
    assert!(ts < hs, "timeslice {ts} < hs {hs}");
    assert!(hs < lcr, "hs {hs} < lcr {lcr}");
    assert_eq!(ts, n);
}

#[test]
fn commit_messages_exactly_meet_dwork_skeen() {
    for n in 2..=10usize {
        let run = run_2pc(&vec![true; n], None);
        assert_eq!(run.messages as u64, bounds::commit_min_messages(n as u64));
        assert!(run.blocked.is_empty());
    }
}

#[test]
fn datalink_split_by_channel_power() {
    // FIFO loss/duplication: ABP (2 headers) wins.
    let msgs: Vec<u64> = (0..12).collect();
    let (delivered, _) = run_abp(&msgs, 4, 300, 300, 400_000);
    assert_eq!(delivered, msgs);
    // Withholding channel: every finite header space loses.
    for k in [2u64, 3, 8] {
        let (before, after) = refute_bounded_header(k);
        assert_eq!(
            after,
            [&before[..], &before[..1]].concat(),
            "message 0 twice"
        );
    }
}

#[test]
fn floodset_early_stopping_dominates_plain() {
    for t in 1..=3usize {
        let n = 2 * t + 3;
        let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
        let plain = run_floodset(&inputs, t, false, &[]);
        let early = run_floodset(&inputs, t, true, &[]);
        assert!(plain.agreement() && early.agreement());
        let pr = plain.rounds_to_decide.iter().flatten().max().unwrap();
        let er = early.rounds_to_decide.iter().flatten().max().unwrap();
        assert!(er <= pr, "t={t}: early {er} > plain {pr}");
        assert_eq!(*pr, t + 1);
    }
}
