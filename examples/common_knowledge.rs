//! Common knowledge and the Two Generals, from the epistemic side.
//!
//! Run with `cargo run --example common_knowledge`.
//!
//! The survey's knowledge thread (Dwork–Moses, Halpern–Moses): coordinated
//! attack = common knowledge of the signal, and common knowledge cannot be
//! gained over an unreliable channel. This example computes K, E^k and C
//! exactly on the Two Generals frame and cross-checks the conclusion
//! against the operational chain argument in `datalink::two_generals`.

use impossible::core::knowledge::KnowledgeFrame;
use impossible::core::ids::ProcessId;
use impossible::datalink::two_generals::{refute, AttackHorn, Threshold};

fn main() {
    let trips = 10usize;
    let states: Vec<usize> = (0..=trips).collect();
    // General 0 receives the even trips, general 1 the odd ones.
    let frame = KnowledgeFrame::new(states, 2, |&k: &usize, p: ProcessId| {
        if p.index() == 0 {
            k / 2
        } else {
            k.div_ceil(2)
        }
    });
    let signal = |&k: &usize| k >= 1;

    println!("Two Generals, {trips} messenger trips; φ = \"the signal was sent\"\n");
    println!("How deep does iterated knowledge reach?");
    for j in 0..=5usize {
        let truth = frame.iterated_knowledge(signal, j);
        let from = truth.iter().position(|&x| x);
        match from {
            Some(s) => println!("  E^{j}(φ): true from state {s} (needs {s} delivered trips)"),
            None => println!("  E^{j}(φ): true nowhere"),
        }
    }

    let c = frame.common_knowledge(signal);
    println!(
        "\nC(φ): true at {}/{} states — the indistinguishability chain links every \
         state down to state 0 where φ is false.",
        c.iter().filter(|&&x| x).count(),
        c.len()
    );

    println!("\nOperational cross-check (the chain argument on the same structure):");
    match refute(&Threshold(0), trips / 2) {
        (AttackHorn::AttackOnNothing(cert), chain) => println!(
            "attack-on-any-signal is REFUTED: the chain e_{} ~ ... ~ e_0 ({cert}) forces \
             both generals to attack in e_0, where no message was ever delivered.",
            chain.len()
        ),
        (horn, _) => println!("attack-on-any-signal fell on another horn: {horn:?}"),
    }

    println!("\nSame theorem, two proofs: the fixpoint computation and the execution");
    println!("chain are the epistemic and operational faces of one indistinguishability.");
}
