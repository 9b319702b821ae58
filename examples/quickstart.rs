//! Quickstart: the library in five minutes.
//!
//! Run with `cargo run --example quickstart`.
//!
//! Tour: (1) refute a Byzantine-agreement candidate with the Figure 1
//! scenario engine, (2) watch the FLP bivalence engine dissect an
//! asynchronous consensus candidate, (3) catch the unfairness of a 2-valued
//! lock with the lockout checker — one example per proof-technique family.

use impossible::consensus::eig::Eig;
use impossible::consensus::flp::{check_candidate, FlpVerdict, WaitForAll};
use impossible::consensus::scenario3t::refute_3t;
use impossible::sharedmem::algorithms::TasLock;
use impossible::sharedmem::check::{find_lockout, find_mutex_violation};
use impossible::sharedmem::mutex::MutexSystem;

fn main() {
    // ------------------------------------------------------------------
    // 1. Scenario argument (Figure 1): feed the *real* EIG algorithm,
    //    instantiated below its n > 3t threshold, to its own
    //    impossibility proof.
    // ------------------------------------------------------------------
    println!("1) Scenario argument — Byzantine agreement at n = 3, t = 1:");
    let candidate = Eig::new(3, 1);
    let Some(contradiction) = refute_3t(&candidate, 1) else {
        panic!("n = 3t always contradicts");
    };
    println!("   EIG(3, 1) is refuted — the hexagon breaks a window obligation:");
    println!("   {contradiction}");

    // ------------------------------------------------------------------
    // 2. Bivalence argument (Figures 2–3): an async consensus candidate
    //    that waits for everyone is safe — and a single crash stalls it
    //    forever. The engine returns the admissible non-deciding run.
    // ------------------------------------------------------------------
    println!("2) Bivalence argument — asynchronous consensus with 1 crash:");
    match check_candidate(&WaitForAll::new(2), 200_000) {
        FlpVerdict::NonTerminating { failed, lasso } => println!(
            "   WaitForAll is refuted: with p{} crashed, the cycle {:?} repeats \
             forever and nobody ever decides.\n",
            failed,
            lasso.cycle.iter().map(|(a, _)| a).collect::<Vec<_>>()
        ),
        other => println!("   unexpected verdict: {other:?}\n"),
    }

    // ------------------------------------------------------------------
    // 3. Pigeonhole/fairness (§2.1): the 2-valued test-and-set lock is
    //    safe and live, but the checker finds the starvation schedule —
    //    the reason Cremers–Hibbard needed a third value.
    // ------------------------------------------------------------------
    println!("3) Fairness — the 2-valued test-and-set lock:");
    let lock = TasLock::new(2);
    let sys = MutexSystem::new(&lock);
    assert!(find_mutex_violation(&sys, 100_000).is_none());
    let lockout = find_lockout(&sys, 1, 100_000).expect("2 values cannot be fair");
    println!(
        "   mutual exclusion holds, yet p1 starves under the repeatable cycle {:?}",
        lockout.cycle.iter().map(|(a, _)| a).collect::<Vec<_>>()
    );
    println!("\nSee `cargo run --release --bin experiments` for all 25 reproductions.");
}
