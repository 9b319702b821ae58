//! Byzantine generals end-to-end: run the EIG algorithm against two-faced
//! traitors across the `n = 3t + 1` threshold, and watch both sides of the
//! bound.
//!
//! Run with `cargo run --example byzantine_generals`.

use impossible::consensus::eig::{run_eig, Eig};
use impossible::consensus::scenario3t::refute_3t;
use impossible::core::pigeonhole::bounds;

fn main() {
    println!("The n > 3t threshold for Byzantine agreement (PSL [89, 73])\n");

    // Above the threshold: agreement and validity hold no matter where the
    // traitors sit or what the inputs are.
    for (n, t, byz) in [(4usize, 1usize, vec![2usize]), (7, 2, vec![1, 5])] {
        println!("n = {n}, t = {t} (threshold {}):", bounds::byzantine_min_processes(t as u64));
        for pattern in 0..4u64 {
            let inputs: Vec<u64> = (0..n).map(|i| (pattern >> (i % 2)) & 1).collect();
            let run = run_eig(&inputs, t, &byz);
            println!(
                "  inputs {:?} traitors {:?} -> decisions {:?} (agreement: {})",
                inputs,
                byz,
                run.decisions,
                run.agreement()
            );
            assert!(run.agreement());
        }
        println!();
    }

    // At the threshold: the scenario engine refutes the very same algorithm.
    for (n, t) in [(3usize, 1usize), (6, 2)] {
        let Some(c) = refute_3t(&Eig::new(n, t), t) else {
            panic!("n = 3t contradicts");
        };
        println!("n = {n}, t = {t}: REFUTED by the scenario argument");
        println!("  {}", c.obligation);
    }

    println!("\nThe same code is correct at n = 3t+1 and provably broken at n = 3t —");
    println!("the bound is about the world, not the algorithm.");
}
