//! The experiment harness: regenerates every figure and quantitative claim
//! of the paper (see DESIGN.md §3 and EXPERIMENTS.md).
//!
//! Usage: `cargo run --release --bin experiments [ID ...]`
//! with IDs among F1 F2 F3 and E1 through E23; no argument runs everything.

use impossible::consensus::round_lb::RoundHorn;
use impossible::consensus::{approx, benor, commit, eig, flp, round_lb, scenario3t};
use impossible::core::pigeonhole::bounds;
use impossible::core::symmetry::{
    bit_reversal_ring, comparison_symmetry_classes, min_symmetry_class, SymmetryVerdict,
};
use impossible::core::task::Task;
use impossible::datalink::two_generals::AttackHorn;
use impossible::datalink::{abp, stealing, two_generals};
use impossible::election::ring::RingSchedule;
use impossible::election::{anonymous, complete, hs, itai_rodeh, lcr, peterson, timeslice};
use impossible::explore::Search;
use impossible::msgpass::asyncnet::{DelayModel, UNIT};
use impossible::msgpass::sessions::run_sessions;
use impossible::msgpass::topology::Topology;
use impossible::obs::NoopTracer;
use impossible::registers::constructions;
use impossible::registers::herlihy::{
    consensus_verdict, CasConsensus, HierarchyVerdict, QueueConsensus2, RegisterMin2,
    RegisterWait2, TasConsensus2, TasConsensus3,
};
use impossible::sharedmem::algorithms::{Bakery, Dijkstra, HandoffLock, OneBit, OwnerOverwrite, Peterson2, TasLock};
use impossible::sharedmem::check;
use impossible::sharedmem::choice::{simulate as choice_simulate, ChoiceSystem};
use impossible::sharedmem::kexclusion::CounterSemaphore;
use impossible::sharedmem::mutex::MutexSystem;
use impossible::sharedmem::synthesis;
use impossible::clocksync::model::{averaging_adjustments, ClockParams};
use impossible::clocksync::shifting::demonstrate_lower_bound;

fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

fn f1() {
    header(
        "F1",
        "Figure 1 — no 3-process Byzantine agreement with 1 fault (scenario)",
    );
    let Some(c) = scenario3t::refute_3t(&eig::Eig::new(3, 1), 1) else {
        panic!("n = 3t contradicts");
    };
    println!(
        "REFUTED [scenario argument]: candidate solves 3-process Byzantine agreement with t = 1"
    );
    println!("  witness: {c}");
    println!("\npossibility side: EIG at n = 4, t = 1 with a two-faced traitor:");
    for victim in 0..4 {
        let mut inputs = vec![1u64; 4];
        inputs[victim] = 0;
        let run = eig::run_eig(&inputs, 1, &[victim]);
        println!(
            "  byzantine = p{victim}: honest decisions {:?}  agreement = {}",
            run.decisions,
            run.agreement()
        );
    }
    println!("  paper: n ≥ 3t+1 = {} required", bounds::byzantine_min_processes(1));
}

fn f2() {
    header("F2", "Figures 2–3 — FLP bivalence, deciders, non-termination");
    let arb = flp::Arbiter::new(3);
    let report = flp::analyze(&arb, 500_000);
    println!(
        "arbiter candidate (3 procs): {} reachable configs, {} bivalent initials, \
         {} univalent initials, {} critical configs",
        report.num_states,
        report.bivalent_initials.len(),
        report.univalent_initials.len(),
        report.critical.len()
    );
    let sys = flp::FlpSystem::all_binary(&arb);
    if let Some(d) = Search::new(&sys).max_states(500_000).find_decider() {
        println!("decider process (Figure 2): {}", d.process);
    }
    fn horn<S>(verdict: &flp::FlpVerdict<S>) -> String {
        match verdict {
            flp::FlpVerdict::AgreementViolation(_) => {
                "agreement violated (decided too eagerly)".into()
            }
            flp::FlpVerdict::ValidityViolation { .. } => "validity violated".into(),
            flp::FlpVerdict::NonTerminating { failed, .. } => format!(
                "non-terminating with p{failed} crashed (waited too patiently)"
            ),
            flp::FlpVerdict::CleanWithinBounds => "CLEAN?! (bound too small)".into(),
        }
    }
    println!(
        "  candidate {:14} -> {}",
        "FirstWins(2)",
        horn(&flp::check_candidate(&flp::FirstWins::new(2), 500_000))
    );
    println!(
        "  candidate {:14} -> {}",
        "WaitForAll(2)",
        horn(&flp::check_candidate(&flp::WaitForAll::new(2), 500_000))
    );
    println!(
        "  candidate {:14} -> {}",
        "Arbiter(3)",
        horn(&flp::check_candidate(&flp::Arbiter::new(3), 500_000))
    );
    let mw = Task::consensus(3).moran_wolfstahl().expect("consensus fits the criterion");
    println!("task-level criterion (Moran–Wolfstahl): {mw}");
}

fn f3() {
    header("F3", "Figure 4 — comparison symmetry of the bit-reversal ring");
    let ring = bit_reversal_ring(8);
    println!("ring: {ring:?}");
    for k in [1usize, 2, 3] {
        let classes = comparison_symmetry_classes(&ring, k);
        println!(
            "  radius {k}: {} order-equivalence classes, min class size {}",
            classes.len(),
            min_symmetry_class(&ring, k)
        );
    }
    let sorted: Vec<u64> = (0..8).collect();
    println!(
        "  contrast (sorted ring): min class size at radius 1 = {} (a uniquely \
         identifiable position exists)",
        min_symmetry_class(&sorted, 1)
    );
    println!("  (every singleton-free radius forces message duplication: Ω(n log n))");
}

fn e1() {
    header("E1", "Mutex value bounds (Cremers–Hibbard / Burns et al.)");
    println!("exhaustive synthesis over 2-valued TAS protocols, 2 processes:");
    for k in [1usize, 2] {
        let report = synthesis::sweep(k, 2, 20_000);
        println!(
            "  {k} trying state(s): {} protocols -> {} mutex violations, {} deadlocks, \
             {} lockouts, {} survivors",
            report.total,
            report.mutex_violations,
            report.deadlocks,
            report.lockouts,
            report.survivors.len()
        );
    }
    println!("paper bound: n+1 = {} values needed for n = 2", bounds::bounded_waiting_values(2));
    let handoff = HandoffLock::new();
    let sys = MutexSystem::new(&handoff);
    println!(
        "verified 4-valued handoff lock: mutex {}, progress {}, lockout-free {}",
        check::find_mutex_violation(&sys, 100_000).is_none(),
        check::find_deadlock(&sys, 100_000).is_none(),
        (0..2).all(|v| check::find_lockout(&sys, v, 100_000).is_none())
    );
    let tas = TasLock::new(2);
    let tsys = MutexSystem::new(&tas);
    println!(
        "2-valued TAS lock: safe {}, live {}, but lockout witness found: {}",
        check::find_mutex_violation(&tsys, 100_000).is_none(),
        check::find_deadlock(&tsys, 100_000).is_none(),
        check::find_lockout(&tsys, 1, 100_000).is_some()
    );
    let broken = OwnerOverwrite::new(2);
    let bsys = MutexSystem::new(&broken);
    println!(
        "single RW variable (Burns–Lynch [27]): owner-overwrite candidate violates \
         mutex: {} (obliteration race, witness length {})",
        check::find_mutex_violation(&bsys, 200_000).is_some(),
        check::find_mutex_violation(&bsys, 200_000).map(|w| w.len()).unwrap_or(0)
    );
    for n in [2usize, 3] {
        let onebit = OneBit::new(n);
        let osys = MutexSystem::new(&onebit);
        println!(
            "one-bit algorithm, n = {n}: {} vars × ≤2 values, mutex ok: {}",
            n,
            check::find_mutex_violation(&osys, 600_000).is_none()
        );
    }
    for (name, safe) in [
        ("peterson(2)", check::find_mutex_violation(&MutexSystem::new(&Peterson2::new()), 300_000).is_none()),
        ("dijkstra(2)", check::find_mutex_violation(&MutexSystem::new(&Dijkstra::new(2)), 500_000).is_none()),
        ("bakery(2) [bounded]", check::find_mutex_violation(&MutexSystem::new(&Bakery::new(2)), 120_000).is_none()),
    ] {
        println!("  classic algorithm {name}: mutual exclusion verified = {safe}");
    }
}

fn e2() {
    header("E2", "t+1 round lower bound for consensus [56]");
    for (name, rule, (horn, _)) in [
        (
            "min-of-seen",
            "min-of-seen",
            round_lb::refute_one_round(&round_lb::MinRule, 4),
        ),
        (
            "majority",
            "majority-of-seen",
            round_lb::refute_one_round(&round_lb::MajorityRule, 4),
        ),
    ] {
        println!(
            "1-round rule '{name}': one-round rule '{rule}' solves 1-crash-resilient \
             consensus for n = 4"
        );
        match horn {
            RoundHorn::Disagreement(_) | RoundHorn::Validity { .. } => {
                println!("  -> REFUTED via chain argument")
            }
            RoundHorn::Broken(err) => println!("  -> the chain broke: {err}"),
        }
    }
    println!("\nFloodSet rounds-to-decide (paper: t+1; early stopping: min(f+2, t+1)):");
    println!("  {:>3} {:>8} {:>14} {:>16}", "t", "f", "plain rounds", "early-stop rounds");
    for t in 1..=4usize {
        for f in 0..=t.min(2) {
            let n = 2 * t + 3;
            let inputs: Vec<u64> = (0..n).map(|i| (i % 2) as u64).collect();
            let crashes: Vec<(usize, usize, usize)> =
                (0..f).map(|c| (c, c + 1, c + 1)).collect();
            let plain = round_lb_rounds(&inputs, t, false, &crashes);
            let early = round_lb_rounds(&inputs, t, true, &crashes);
            println!("  {t:>3} {f:>8} {plain:>14} {early:>16}");
        }
    }
}

fn round_lb_rounds(inputs: &[u64], t: usize, early: bool, crashes: &[(usize, usize, usize)]) -> usize {
    let run = impossible::consensus::floodset::run_floodset(inputs, t, early, crashes);
    assert!(run.agreement(), "floodset must agree");
    run.rounds_to_decide.iter().flatten().copied().max().unwrap_or(0)
}

fn e3() {
    header("E3", "Ben-Or randomized consensus circumvents FLP [19]");
    let dist = benor::phase_distribution(&[0, 1, 0, 1], 1, 50, 500);
    let max = dist.iter().max().copied().unwrap_or(0);
    let mean = dist.iter().sum::<usize>() as f64 / dist.len() as f64;
    println!("n = 4, t = 1, balanced inputs, 50 seeds:");
    println!("  phases to decide: mean {mean:.2}, max {max}");
    let mut hist = vec![0usize; max + 1];
    for &p in &dist {
        hist[p] += 1;
    }
    for (p, count) in hist.iter().enumerate().filter(|(_, c)| **c > 0) {
        println!("  {p:>3} phases: {}", "#".repeat(*count));
    }
    let crashes = [(0, 1, 2), (3, 4, 1)];
    let crashed = benor::run_benor(&[0, 1, 1, 0, 1], 2, 3, &crashes, 300, &mut NoopTracer);
    println!(
        "with 2 crashes (n=5,t=2): complete={} agreement={} decisions {:?}",
        crashed.complete,
        crashed.agreement(),
        crashed.decisions
    );
}

fn e4() {
    header("E4", "Approximate agreement convergence [36]");
    println!(
        "{:>3} {:>14} {:>14} {:>14}",
        "k", "measured", "(t/n)^k", "(t/(nk))^k"
    );
    for k in 1..=6u32 {
        let run = approx::run_approx(&[0.0, 10.0, 3.0, 6.0, 8.0], 1, k, 7);
        println!(
            "{k:>3} {:>14.6} {:>14.6} {:>14.6}",
            run.ratio, run.round_by_round_curve, run.lower_bound_curve
        );
    }
    println!("(measured tracks the (t/n)^k algorithm curve; the universal bound is far below)");
}

fn e5() {
    header("E5", "Clock sync skew bound u·(1−1/n) (Lundelius–Lynch [77])");
    println!("{:>3} {:>12} {:>12} {:>16}", "n", "bound", "worst world", "indistinguishable");
    for n in [2usize, 3, 4, 6, 8] {
        let params = ClockParams {
            offsets: vec![0.0; n],
            lo: 1.0,
            hi: 3.0,
        };
        let demo = demonstrate_lower_bound(&params, averaging_adjustments);
        println!(
            "{n:>3} {:>12.4} {:>12.4} {:>16}",
            demo.bound,
            demo.demonstrated_skew(),
            demo.indistinguishable
        );
    }
    println!("(uncertainty u = 2; the averaging algorithm meets the bound exactly — tight)");
}

fn e6() {
    header("E6", "s sessions cost ≈ (s−1)·diam asynchronously (AFL [8])");
    println!(
        "{:>16} {:>4} {:>6} {:>12} {:>12} {:>10}",
        "topology", "s", "diam", "measured", "(s-1)·d", "sync cost"
    );
    for (name, topo) in [
        ("ring(8)", Topology::ring(8)),
        ("ring(16)", Topology::ring(16)),
        ("line(10)", Topology::line(10)),
    ] {
        for s in [2usize, 4, 6] {
            let report = run_sessions(&topo, s, DelayModel::Unit);
            println!(
                "{name:>16} {s:>4} {:>6} {:>12} {:>12} {:>10}",
                topo.diameter(),
                report.total_time / UNIT,
                report.lower_bound / UNIT,
                report.synchronous_time / UNIT
            );
        }
    }
}

fn e7() {
    header("E7", "Ring election message complexity [25, 58]");
    println!(
        "{:>5} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "n", "LCR(worst)", "HS", "Peterson", "Franklin", "n·log2(n)"
    );
    for n in [8usize, 16, 32, 64, 128] {
        let ids = lcr::worst_case_ids(n);
        let l = lcr::run_lcr(&ids, RingSchedule::RoundRobin).messages;
        let h = hs::run_hs(&ids, RingSchedule::RoundRobin).messages;
        let p = peterson::run_peterson(&ids, RingSchedule::RoundRobin).messages;
        let f = impossible::election::franklin::run_franklin(&ids, RingSchedule::RoundRobin)
            .messages;
        println!(
            "{n:>5} {l:>12} {h:>10} {p:>10} {f:>10} {:>12}",
            bounds::ring_election_messages(n as u64)
        );
    }
    println!("(LCR quadratic; HS/Peterson track the n log n lower-bound curve)");
    println!("\ncomplete graphs (Korach–Moran–Zaks candidate capture):");
    println!("{:>5} {:>12} {:>14}", "n", "messages", "n·log2(n)");
    for n in [16usize, 64, 256] {
        let ids: Vec<u64> = (0..n as u64).collect();
        let out = complete::run_complete(&ids);
        println!(
            "{n:>5} {:>12} {:>14}",
            out.messages,
            bounds::ring_election_messages(n as u64)
        );
    }
}

fn e8() {
    header("E8", "Anonymous rings: deterministic impossible, randomized works");
    match anonymous::refute_deterministic(&anonymous::HashChain, 6, 200) {
        SymmetryVerdict::SymmetricForever {
            period,
            rounds_to_repeat,
            leaders,
        } => {
            println!(
                "REFUTED [symmetry argument]: deterministic anonymous protocol elects a \
                 leader on a uniform 6-ring"
            );
            println!(
                "  witness: configuration stays period-{period} symmetric (repeats within \
                 {rounds_to_repeat} rounds); simultaneous leadership claims: {leaders} \
                 (must be 0 or a multiple of 6 — never exactly 1)"
            );
        }
        SymmetryVerdict::SymmetryBroken { round } => {
            println!("HashChain broke symmetry at round {round}: not deterministic and anonymous")
        }
    }
    println!("\nItai–Rodeh randomized election (anonymous, coins):");
    println!("{:>4} {:>8} {:>10} {:>8}", "n", "seed", "messages", "phases");
    for n in [4usize, 8] {
        for seed in 0..3 {
            let (out, phases) = itai_rodeh::run_itai_rodeh(n, seed, 100_000);
            println!(
                "{n:>4} {seed:>8} {:>10} {phases:>8}  leader at {:?}",
                out.messages, out.leader
            );
        }
    }
}

fn e9() {
    header("E9", "Counterexample algorithms: O(n) messages, huge time [58]");
    println!("TimeSlice (n known):");
    println!("{:>18} {:>10} {:>8}", "ids", "messages", "rounds");
    for ids in [vec![1u64, 4, 3, 2], vec![10, 14, 13, 12], vec![5, 2, 8, 3, 9, 6]] {
        let out = timeslice::run_timeslice(&ids);
        println!("{:>18} {:>10} {:>8}", format!("{ids:?}"), out.messages, out.rounds);
    }
    println!("\nVariableSpeeds (n unknown):");
    for ids in [vec![1u64, 2, 3, 4], vec![5, 6, 7, 8]] {
        let out = timeslice::run_variable_speeds(&ids);
        println!(
            "{:>18} {:>10} {:>8}  (time doubles per unit of min id)",
            format!("{ids:?}"),
            out.messages,
            out.rounds
        );
    }
}

fn e10() {
    header("E10", "Commit message bound 2n−2 (Dwork–Skeen [48])");
    println!("{:>4} {:>10} {:>8}", "n", "messages", "2n-2");
    for n in [2usize, 4, 8, 16] {
        let run = commit::run_2pc(&vec![true; n], None);
        println!("{n:>4} {:>10} {:>8}", run.messages, run.bound);
        assert_eq!(run.messages as u64, run.bound);
    }
    let blocked = commit::run_2pc(&[true, true, true, true], Some(1));
    println!(
        "blocking anomaly (coordinator crashes mid-broadcast): committed at p1, \
         blocked participants {:?} — the FLP shadow over commit",
        blocked.blocked
    );
}

fn e11() {
    header("E11", "Two Generals + data link over lossy channels [61, 78]");
    let r = 4;
    match two_generals::refute(&two_generals::Threshold(0), r) {
        (AttackHorn::AttackOnNothing(cert), chain) => {
            println!(
                "REFUTED [chain argument]: rule 'threshold' coordinates an attack over an \
                 unreliable channel ({r} round trips)"
            );
            println!(
                "  witness: the chain e_{} ~ ... ~ e_0 ({cert}) forces both generals to \
                 attack in e_0, where NO message was ever delivered — attacking on zero \
                 information, indistinguishable from the enemy-holds-the-pass world. No \
                 rule escapes: coordination + liveness ⇒ attack-on-nothing.",
                chain.len()
            );
        }
        (horn, _) => println!("threshold 0 fell on another horn: {horn:?}"),
    }
    println!("\nABP over loss+duplication (FIFO): possibility side");
    let msgs: Vec<u64> = (0..20).collect();
    for (drop, dup) in [(0, 0), (300, 0), (0, 300), (300, 300)] {
        let (delivered, tx) = abp::run_abp(&msgs, 11, drop, dup, 400_000);
        println!(
            "  drop={drop}‰ dup={dup}‰: delivered {}/{} in order, {tx} transmissions",
            delivered.len(),
            msgs.len()
        );
    }
    println!("\nbounded headers + withholding channel: message stealing");
    for k in [2u64, 4, 16] {
        let (before, after) = stealing::refute_bounded_header(k);
        // The replayed packet re-delivers message 0's payload.
        match after.split_last() {
            Some((again, stream)) if stream == before && before.first() == Some(again) => {
                println!("  mod-{k} headers: REFUTED [message stealing argument]")
            }
            _ => println!("  mod-{k} headers: the replay was rejected?!"),
        }
    }
}

fn e12() {
    header("E12", "Herlihy's consensus hierarchy [65]");
    let rows: Vec<(&str, HierarchyVerdict)> = vec![
        ("registers / RegisterMin2", consensus_verdict(&RegisterMin2, 500_000)),
        ("registers / RegisterWait2", consensus_verdict(&RegisterWait2, 500_000)),
        ("TAS, 2 processes", consensus_verdict(&TasConsensus2, 500_000)),
        ("TAS, 3 processes (naive)", consensus_verdict(&TasConsensus3, 2_000_000)),
        ("FIFO queue, 2 processes", consensus_verdict(&QueueConsensus2, 500_000)),
        ("CAS, 3 processes", consensus_verdict(&CasConsensus::new(3), 500_000)),
        ("CAS, 4 processes", consensus_verdict(&CasConsensus::new(4), 2_000_000)),
    ];
    for (name, verdict) in rows {
        println!("  {name:28} -> {verdict:?}");
    }
    println!("(cons#: register = 1, TAS = queue = 2, CAS = ∞ — as in the paper)");
}

fn e13() {
    header("E13", "Register constructions & Lamport's reader-write theorem [71]");
    let regular_ok = (0..30).all(|s| {
        impossible::registers::spec::check_regular(&constructions::simulate_safe_to_regular(6, 8, s)).is_ok()
    });
    println!("safe→regular: 30 random schedules, all regular: {regular_ok}");
    let atomic_fails = (0..300).any(|s| {
        impossible::registers::spec::check_linearizable(
            &constructions::simulate_safe_to_regular(6, 8, s),
        )
        .is_none()
    });
    println!("  ... but some schedule is NOT atomic (regular ≠ atomic): {atomic_fails}");
    let srsw_ok = (0..50).all(|s| {
        impossible::registers::spec::check_linearizable(
            &constructions::simulate_regular_to_atomic_srsw(24, s),
        )
        .is_some()
    });
    println!("regular→atomic SRSW (timestamps): 50 schedules all linearizable: {srsw_ok}");
    let history = constructions::inversion_without_reader_writes();
    match impossible::registers::spec::check_linearizable(&history) {
        None => {
            println!(
                "REFUTED [chain argument]: multi-reader atomic register from per-reader \
                 copies without reader writes"
            );
            println!(
                "  witness: schedule: writer updates copy0, reader0 returns new (1), reader1 \
                 then returns old (0), writer finishes copy1 — history {history:?} has no \
                 linearization (new/old inversion); readers must write to warn each other"
            );
        }
        Some(order) => println!("the inversion linearizes?! {order:?}"),
    }
    let mrsw_ok = (0..40).all(|s| {
        impossible::registers::spec::check_linearizable(
            &constructions::simulate_mrsw_with_reader_writes(2, 40, s),
        )
        .is_some()
    });
    println!("MRSW with reader writes: 40 schedules all linearizable: {mrsw_ok}");
}

fn e14() {
    header("E14", "k-exclusion and choice coordination [57, 53, 92]");
    println!("counting semaphore (k-exclusion): value space = k+1");
    for k in 1..=3u64 {
        let alg = CounterSemaphore::new(4, k);
        let sys = MutexSystem::new(&alg);
        let spaces = check::observed_value_spaces(&sys, 300_000);
        println!(
            "  k = {k}: observed values {:?}; FIFO-queue simulation bound would need \
             ~n² = {} values",
            spaces,
            bounds::fifo_queue_values(4)
        );
    }
    println!("\nRabin choice coordination (randomized):");
    let sys = ChoiceSystem::new(vec![0, 1, 0, 1]);
    let safety = impossible::sharedmem::choice::find_safety_violation(&sys, 300_000).is_none();
    println!("  safety (never two boards marked), model-checked over all coins: {safety}");
    let mut worst_steps = 0;
    let mut worst_value = 0;
    for seed in 0..30 {
        let run = choice_simulate(&sys, seed, 200_000).expect("terminates");
        worst_steps = worst_steps.max(run.steps);
        worst_value = worst_value.max(run.max_value);
    }
    println!(
        "  30 seeds: worst steps {worst_steps}, worst board value {worst_value} \
         (paper: Ω(n^1/3) = {} values necessary)",
        bounds::choice_coordination_values(4)
    );
}

fn e15() {
    header("E15", "Authenticated agreement: signatures beat 3t+1 (Dolev–Strong [43, 37])");
    use impossible::consensus::authenticated::run_dolev_strong;
    println!("{:>4} {:>4} {:>10} {:>16} {:>10}", "n", "t", "dealer", "decisions", "agree");
    for (n, t, byz) in [(4usize, 1usize, false), (4, 2, false), (4, 1, true), (5, 2, true)] {
        let run = run_dolev_strong(n, t, 1, byz);
        println!(
            "{n:>4} {t:>4} {:>10} {:>16} {:>10}",
            if byz { "two-faced" } else { "honest" },
            format!("{:?}", run.decisions.iter().flatten().collect::<Vec<_>>()),
            run.agreement()
        );
    }
    let split = run_dolev_strong(4, 0, 9, true);
    println!(
        "with only 1 round (t = 0) the equivocator splits the honest: agreement = {}",
        split.agreement()
    );
    println!("(signatures dissolve n > 3t — but not the t+1 rounds; see E2)");
}

fn e16() {
    header("E16", "Byzantine firing squad: simultaneity costs consensus rounds [31]");
    use impossible::consensus::firing_squad::run_squad;
    for t in 1..=3usize {
        let run = run_squad(2 * t + 3, t, Some((0, 1)), &[], false);
        let round = run.fired_at.iter().flatten().next().copied();
        println!(
            "  t = {t}: fired simultaneously = {} at round {:?} (= signal + t + 2)",
            run.simultaneous(),
            round
        );
    }
    let ragged = run_squad(4, 1, Some((2, 1)), &[], true);
    println!(
        "  naive 'fire on hearing': simultaneous = {} ({:?}) — the forbidden raggedness",
        ragged.simultaneous(),
        ragged.fired_at
    );
    let crashed = run_squad(5, 2, Some((0, 1)), &[(0, 2, 1), (1, 3, 2)], false);
    println!(
        "  signal-holder crashes mid-broadcast: simultaneous = {}, fired_at = {:?}",
        crashed.simultaneous(),
        crashed.fired_at
    );
}

fn e17() {
    header("E17", "The α-synchronizer and its overhead (Awerbuch [16])");
    use impossible::msgpass::synchronizer::run_alpha_with;
    struct FloodMax {
        neighbors: Vec<usize>,
        best: u64,
        rounds_needed: usize,
        rounds_run: usize,
    }
    impl impossible::msgpass::synchronizer::SimpleSync for FloodMax {
        type Msg = u64;
        fn send(&mut self, _r: usize) -> Vec<(usize, u64)> {
            self.neighbors.iter().map(|&n| (n, self.best)).collect()
        }
        fn receive(&mut self, _r: usize, msgs: Vec<(usize, u64)>) {
            for (_, v) in msgs {
                self.best = self.best.max(v);
            }
            self.rounds_run += 1;
        }
        fn done(&self) -> bool {
            self.rounds_run >= self.rounds_needed
        }
    }
    println!("{:>10} {:>8} {:>12} {:>12}", "topology", "rounds", "wire msgs", "2E·rounds");
    for (name, topo) in [("ring(8)", Topology::ring(8)), ("mesh(3,3)", Topology::mesh(3, 3))] {
        let diam = topo.diameter();
        let algs: Vec<FloodMax> = (0..topo.len())
            .map(|i| FloodMax {
                neighbors: topo.neighbors(i).to_vec(),
                best: i as u64,
                rounds_needed: diam,
                rounds_run: 0,
            })
            .collect();
        let (report, outputs) = run_alpha_with(
            &topo,
            algs,
            diam,
            DelayModel::Uniform { lo: 100, hi: 3000, seed: 5 },
            |a| a.best,
        );
        assert!(outputs.iter().all(|&v| v == (topo.len() - 1) as u64));
        println!(
            "{name:>10} {:>8} {:>12} {:>12}   (max computed correctly under async delays)",
            report.rounds, report.wire_messages, report.overhead_curve
        );
    }
}

fn e18() {
    header("E18", "Knowledge: E^k degrades per trip; common knowledge unattainable [47, 64]");
    use impossible::core::knowledge::KnowledgeFrame;
    let trips = 8usize;
    let states: Vec<usize> = (0..=trips).collect();
    let frame = KnowledgeFrame::new(states, 2, |&k: &usize, p| {
        if p.index() == 0 {
            k / 2
        } else {
            k.div_ceil(2)
        }
    });
    let fact = |&k: &usize| k >= 1;
    println!("Two Generals frame (states = trips delivered, 0..={trips}); φ = \"≥1 trip\":");
    for j in 0..=4usize {
        let truth = frame.iterated_knowledge(fact, j);
        let holds_from = truth.iter().position(|&x| x).map(|i| i.to_string());
        println!(
            "  E^{j}(φ) holds from state {} upward",
            holds_from.unwrap_or_else(|| "nowhere".into())
        );
    }
    let c = frame.common_knowledge(fact);
    println!(
        "  C(φ) holds at {} states — common knowledge is unattainable over the \
         unreliable channel (Halpern–Moses)",
        c.iter().filter(|&&x| x).count()
    );
}

fn e19() {
    header("E19", "Anonymous ring computation: the Ω(n²) premium [14]");
    use impossible::election::anonymous_compute::run_rotation;
    println!("{:>5} {:>12} {:>14} {:>8}", "n", "messages", "with-IDs curve", "result");
    for n in [8usize, 16, 32] {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let out = run_rotation(&inputs, |v| *v.iter().max().unwrap());
        println!(
            "{n:>5} {:>12} {:>14} {:>8}",
            out.messages,
            bounds::ring_election_messages(n as u64),
            out.results[0]
        );
    }
    println!("(rotation uses ~n² messages; with IDs, n log n suffices — anonymity costs)");
}

fn e20() {
    header("E20", "Clock drift envelopes + unbounded-header growth [44, 99]");
    use impossible::clocksync::drift::{run_drift, DriftParams};
    use impossible::datalink::sequence::{header_bits_after, steal_replay_attack};
    println!("drift: n = 4, u = 0.5, ρ = 0.001; envelope = u(1−1/n) + 2ρR:");
    for period in [50.0f64, 200.0, 800.0] {
        let run = run_drift(
            &DriftParams { n: 4, rho: 0.001, lo: 1.0, hi: 1.5, period },
            20,
            7,
        );
        let worst = run.pre_sync_skews.iter().skip(2).cloned().fold(0.0, f64::max);
        println!(
            "  R = {period:>5}: worst pre-sync skew {worst:.4} vs envelope {:.4}",
            run.envelope
        );
    }
    println!("\nunbounded headers defeat steal-and-replay (mod-K always fails, E11):");
    for lead in [16u64, 1024] {
        let (b, a) = steal_replay_attack(lead);
        println!(
            "  after {lead} messages: replay rejected ({b} -> {a}); header bits = {}",
            header_bits_after(lead)
        );
    }
    println!("  (headers must grow ~log m — the paper's open question 5, per Wang–Zuck)");
}

fn e21() {
    header("E21", "Partial synchrony: DLS consensus decides once GST passes [46]");
    use impossible::consensus::dls::{run_dls, run_dls_selective};
    println!("total omission until GST, then full synchrony (n = 5):");
    println!("{:>6} {:>12} {:>14} {:>8}", "GST", "GST phase", "decide phase", "agree");
    for gst in [0usize, 9, 21, 41] {
        let run = run_dls(&[0, 1, 1, 0, 1], gst, 15);
        println!(
            "{gst:>6} {:>12} {:>14} {:>8}",
            gst / 4 + 1,
            run.last_decide_phase.map(|p| p.to_string()).unwrap_or("—".into()),
            run.agreement()
        );
    }
    let mut safe = true;
    for seed in 0..20 {
        safe &= run_dls_selective(&[0, 1, 0, 1, 1], 17, seed, 12).agreement();
    }
    println!("selective 60% pre-GST omission, 20 seeds: agreement always = {safe}");
    println!("(open question 2 of the paper asks for the exact time bounds;");
    println!(" measured: decision lands within ~2 phases of the GST phase)");
}

fn e22() {
    header("E22", "Mechanized FLP lasso for the majority-quorum vote [55]");
    use impossible::consensus::quorum;
    use impossible::explore::property::Counterexample;
    println!("crash one voter of n = 3; temporal checker hunts an admissible");
    println!("fair cycle where every live process stays undecided:\n");
    println!(
        "{:>7} {:>8} {:>7} {:>7} {:>6} {:>10} {:>5} {:>6}",
        "crashed", "states", "edges", "region", "sccs", "candidates", "stem", "cycle"
    );
    for failed in 0..3 {
        let r = quorum::exhibit_flp_lasso(3, failed, 400_000);
        assert!(!r.holds, "quorum vote decided despite crashed voter {failed}?!");
        let (stem, cycle) = match r.counterexample.as_ref() {
            Some(Counterexample::Lasso(l)) => (l.stem.len(), l.cycle.len()),
            _ => unreachable!("liveness violation must carry a lasso"),
        };
        println!(
            "{failed:>7} {:>8} {:>7} {:>7} {:>6} {:>10} {stem:>5} {cycle:>6}",
            r.states, r.edges, r.region, r.sccs, r.candidate_sccs
        );
    }
    let r = quorum::exhibit_flp_lasso(3, 0, 400_000);
    if let Some(Counterexample::Lasso(l)) = r.counterexample {
        let actions: Vec<String> = l.cycle.iter().map(|(a, _)| format!("{a:?}")).collect();
        println!("\ncycle for crashed = 0 (every live process acts, none decides):");
        println!("  {}", actions.join(" -> "));
    }
    println!("\n(the same lasso, byte for byte, at any worker count or seed —");
    println!(" see crates/consensus/src/quorum.rs tests and docs/PROPERTIES.md)");
}

fn e23() {
    header("E23", "Incremental re-check after a model edit + verdict caching [55]");
    use impossible::ckpt::{
        crash_process, job_key, model_fp, reexplore_incremental, Verdict, VerdictCache,
    };
    use impossible::consensus::{flp, quorum};
    use impossible::core::ids::ProcessId;
    use impossible::core::system::System;

    // The survey's workload: re-run the same impossibility argument against
    // small protocol variations. Build the full quorum-vote graph once,
    // then derive each crash variant incrementally — recomputing only the
    // states the crash actually touches — and prove the result equal to a
    // from-scratch rebuild.
    let cand = quorum::QuorumVote::new(3);
    let sys = flp::FlpSystem::all_binary(&cand);
    let old = Search::new(&sys).max_states(400_000).graph();
    println!(
        "base quorum-vote graph (n = 3, no crash): {} states, {} edges\n",
        old.len(),
        old.num_edges()
    );
    println!(
        "{:>7} {:>8} {:>7} {:>8} {:>10} {:>9}",
        "crashed", "states", "edges", "reused", "recomputed", "identical"
    );
    for failed in 0..3 {
        let edit = crash_process(&sys, ProcessId(failed));
        let (g, stats) =
            reexplore_incremental(&old, &edit, |s| edit.dirty_state(s), 400_000, &mut NoopTracer);
        let full = Search::new(&sys)
            .max_states(400_000)
            .graph_filtered(|a| sys.owner(a) != Some(ProcessId(failed)));
        let same = format!("{:?}|{:?}|{}", g.order, g.succ, g.initials)
            == format!("{:?}|{:?}|{}", full.order, full.succ, full.initials);
        assert!(same, "incremental graph diverged from the full rebuild");
        println!(
            "{failed:>7} {:>8} {:>7} {:>8} {:>10} {same:>9}",
            g.len(),
            g.num_edges(),
            stats.reused,
            stats.recomputed
        );
    }

    // Crash edits dirty everything (a crashed process could have moved in
    // nearly every state), so the splice saves nothing there — honestly
    // reported above. A *finer* variation shows the other regime: forbid
    // process 2's null step while the network is empty (a scheduler tweak,
    // not a crash). Only empty-network states are dirty; everything else is
    // spliced from the old graph without touching `enabled`/`step`.
    let edit = impossible::ckpt::ActionEdit::new(&sys, |s: &flp::FlpState<_, _>, a| {
        !(matches!(a, flp::FlpAction::Null(2)) && s.pending.is_empty())
    });
    let (g, stats) =
        reexplore_incremental(&old, &edit, |s| edit.dirty_state(s), 400_000, &mut NoopTracer);
    let full = Search::new(&edit).max_states(400_000).graph();
    assert!(
        format!("{:?}|{:?}|{}", g.order, g.succ, g.initials)
            == format!("{:?}|{:?}|{}", full.order, full.succ, full.initials),
        "incremental graph diverged from the full rebuild"
    );
    println!(
        "\nfiner edit (no Null(2) on an empty network): {} states, {} reused, {} recomputed",
        g.len(),
        stats.reused,
        stats.recomputed
    );

    // The service face of the same workload: verdicts are content-addressed
    // by (model name, parameter vector, property), so an edit moves the key
    // and stale verdicts become unreachable instead of invalidated.
    let mut cache = VerdictCache::new();
    for failed in 0..3 {
        let key = job_key(model_fp("quorum", &[3, failed]), "nonterm");
        let r = quorum::exhibit_flp_lasso(3, failed as usize, 400_000);
        // As in `check manifest`: a "holds" on a graph the state cap cut
        // is no verdict, so it is not cached (and never printed as a hit).
        if r.inconclusive() {
            continue;
        }
        cache.insert(
            key,
            &format!("quorum 3 {failed} nonterm"),
            Verdict { holds: r.holds, states: r.states, edges: r.edges },
        );
    }
    let hit = cache.get(job_key(model_fp("quorum", &[3, 0]), "nonterm"));
    let miss = cache.get(job_key(model_fp("quorum", &[5, 0]), "nonterm"));
    println!("\nverdict cache after checking the three crash variants:");
    println!("  entries: {}", cache.len());
    println!("  re-request (n=3, crash 0): {}", match hit {
        Some(v) => format!("HIT  (holds={}, {} states)", v.holds, v.states),
        None => "MISS?!".to_string(),
    });
    println!("  edited model (n=5, crash 0): {}", if miss.is_none() {
        "MISS (key moved with the edit — recompute)"
    } else {
        "HIT?!"
    });
    assert!(hit.is_some() && miss.is_none());
    println!("\n(`cargo run --bin check` serves manifests of exactly such jobs");
    println!(" through this cache; see docs/CKPT.md)");
}

fn main() {
    // LINT-ALLOW: det-ambient -- CLI experiment filters; never protocol state
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "F1", "F2", "F3", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
        "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23",
    ];
    let selected: Vec<String> = if args.is_empty() {
        all.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for id in &selected {
        match id.to_uppercase().as_str() {
            "F1" => f1(),
            "F2" => f2(),
            "F3" => f3(),
            "E1" => e1(),
            "E2" => e2(),
            "E3" => e3(),
            "E4" => e4(),
            "E5" => e5(),
            "E6" => e6(),
            "E7" => e7(),
            "E8" => e8(),
            "E9" => e9(),
            "E10" => e10(),
            "E11" => e11(),
            "E12" => e12(),
            "E13" => e13(),
            "E14" => e14(),
            "E15" => e15(),
            "E16" => e16(),
            "E17" => e17(),
            "E18" => e18(),
            "E19" => e19(),
            "E20" => e20(),
            "E21" => e21(),
            "E22" => e22(),
            "E23" => e23(),
            other => eprintln!("unknown experiment id {other}"),
        }
    }
}
