//! Ring election tour: the Ω(n log n) world of §2.4.
//!
//! Run with `cargo run --example ring_election`.
//!
//! Compares LCR, Hirschberg–Sinclair and Peterson on the same rings, shows
//! the symmetric ring structure behind the lower bound, the anonymous
//! impossibility, the randomized escape, and the O(n)-message
//! counterexample algorithm that trades time for messages.

use impossible::core::pigeonhole::bounds;
use impossible::core::symmetry::{bit_reversal_ring, min_symmetry_class, SymmetryVerdict};
use impossible::election::anonymous::{refute_deterministic, HashChain};
use impossible::election::itai_rodeh::run_itai_rodeh;
use impossible::election::lcr::{run_lcr, worst_case_ids};
use impossible::election::ring::RingSchedule;
use impossible::election::timeslice::run_timeslice;
use impossible::election::{hs, peterson};

fn main() {
    println!("Leader election in rings — message complexity\n");
    println!(
        "{:>5} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "n", "LCR(worst)", "HS", "Peterson", "Franklin", "n·log2 n"
    );
    for n in [8usize, 16, 32, 64] {
        let ids = worst_case_ids(n);
        println!(
            "{n:>5} {:>12} {:>10} {:>10} {:>10} {:>12}",
            run_lcr(&ids, RingSchedule::RoundRobin).messages,
            hs::run_hs(&ids, RingSchedule::RoundRobin).messages,
            peterson::run_peterson(&ids, RingSchedule::RoundRobin).messages,
            impossible::election::franklin::run_franklin(&ids, RingSchedule::RoundRobin).messages,
            bounds::ring_election_messages(n as u64),
        );
    }

    println!("\nWhy Ω(n log n)? The Figure 4 ring is comparison-symmetric:");
    let ring = bit_reversal_ring(8);
    println!("  ring {ring:?}: no position is unique at radius 1 (min class size {})",
        min_symmetry_class(&ring, 1));

    println!("\nAnonymous rings (no IDs at all):");
    match refute_deterministic(&HashChain, 6, 200) {
        SymmetryVerdict::SymmetricForever {
            period, leaders, ..
        } => println!(
            "  deterministic: refuted — the 6-ring stays period-{period} symmetric, \
             and {leaders} processes claim leadership at once (never exactly 1)"
        ),
        SymmetryVerdict::SymmetryBroken { round } => {
            println!("  deterministic: HashChain broke symmetry at round {round}?!")
        }
    }
    let (out, phases) = run_itai_rodeh(6, 42, 100_000);
    println!(
        "  randomized (Itai–Rodeh): leader at {:?} in {} messages, {phases} phase(s)",
        out.leader, out.messages
    );

    println!("\nThe counterexample algorithm (synchronous, non-comparison):");
    for ids in [vec![1u64, 4, 3, 2], vec![9, 12, 11, 10]] {
        let out = run_timeslice(&ids);
        println!(
            "  TimeSlice on {ids:?}: {} messages (= n!), {} rounds — messages \
             bought with time",
            out.messages, out.rounds
        );
    }
}
