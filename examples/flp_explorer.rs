//! FLP explorer: walk the bivalence structure of an asynchronous consensus
//! candidate interactively-ish (prints the full anatomy).
//!
//! Run with `cargo run --example flp_explorer`.

use impossible::consensus::flp::{analyze, check_candidate, Arbiter, FlpSystem, FlpVerdict};
use impossible::core::exec::Admissibility;
use impossible::explore::Search;

fn main() {
    let candidate = Arbiter::new(3);
    println!("Candidate: the Arbiter protocol, 3 processes (p0 arbitrates).\n");

    let report = analyze(&candidate, 500_000);
    println!("Reachable configurations: {}", report.num_states);
    println!("Bivalent initial configurations: {}", report.bivalent_initials.len());
    for s in report.bivalent_initials.iter().take(2) {
        println!("  e.g. {s:?}");
    }
    println!("Univalent initial configurations: {}", report.univalent_initials.len());
    println!(
        "Undecided initial configurations (no decision reachable): {}",
        report.undecided_initials.len()
    );
    println!(
        "Critical configurations (Figure 3 — bivalent, every real successor univalent): {}",
        report.critical.len()
    );
    for s in report.critical.iter().take(1) {
        println!("  e.g. {s:?}");
    }

    let sys = FlpSystem::all_binary(&candidate);
    if let Some(decider) = Search::new(&sys).max_states(500_000).find_decider() {
        println!(
            "\nDecider (Figure 2): process {} can drive the outcome either way alone:",
            decider.process
        );
        println!(
            "  to one valence in {} step(s), to the other in {} step(s)",
            decider.to_first.len(),
            decider.to_second.len()
        );
    }

    println!("\nThe 1-resilience failure:");
    if let FlpVerdict::NonTerminating { failed, lasso } = check_candidate(&candidate, 500_000) {
        println!(
            "  crash p{} and the clients loop on {:?} forever — an admissible \
             non-deciding execution (every live process keeps stepping, no message \
             to a live process is withheld).",
            failed,
            lasso.cycle.iter().map(|(a, _)| a).collect::<Vec<_>>()
        );
    }

    // Run the same space through the search subsystem and dump its
    // deterministic run counters (byte-identical across reruns and worker
    // counts — see docs/EXPLORE.md).
    let search_report = Search::new(&sys).max_states(500_000).explore();
    println!(
        "\nSearch subsystem: {} states, {} transitions.",
        search_report.num_states, search_report.num_transitions
    );
    println!("  stats: {}", search_report.stats.to_json());

    // The lasso search through the generic engine needs 1-resilient
    // admissibility; show it is exercised.
    let adm = Admissibility::resilient(1);
    println!(
        "\nAdmissibility used: up to {} failure(s), weak fairness = {}.",
        adm.max_failures, adm.weak_fairness
    );
    println!("\nFLP in one line: safe candidates stall; eager candidates disagree.");
}
