//! Determinism regression: randomized algorithms are pure functions of
//! their seed.
//!
//! The paper's standard — "it is not possible to fake an impossibility
//! proof" — requires that any counterexample or randomized run be
//! *replayable*. These tests pin that property for the two randomized
//! algorithms in the workspace (Ben-Or consensus, Itai–Rodeh election):
//! running twice with the same seed must produce **byte-identical
//! transcripts**, and varying the seed must actually vary the run (the
//! coins are real, not frozen).
//!
//! The last test pins the deterministic side the same way: checksums of the
//! rotation-quotient reports, so a canon hook that drifts fails here.

use impossible::consensus::benor::run_benor;
use impossible::election::itai_rodeh::run_itai_rodeh;
use impossible::obs::NoopTracer;

/// The Ben-Or transcript for one seed: every observable of the run.
fn benor_transcript(seed: u64) -> String {
    let run = run_benor(&[0, 1, 0, 1, 1], 2, seed, &[], 400, &mut NoopTracer);
    format!("{run:?}")
}

/// The Itai–Rodeh transcript for one seed: outcome plus phase count.
fn itai_rodeh_transcript(seed: u64) -> String {
    let (outcome, phases) = run_itai_rodeh(6, seed, 50_000);
    format!("{outcome:?} phases={phases}")
}

#[test]
fn benor_same_seed_means_identical_transcript() {
    for seed in [0u64, 1, 7, 42, 1989] {
        let a = benor_transcript(seed);
        let b = benor_transcript(seed);
        assert_eq!(a, b, "Ben-Or diverged on seed {seed}");
    }
}

#[test]
fn benor_different_seeds_give_different_transcripts() {
    // A perfectly split input (2–2) forces Ben-Or to the coin-flip branch,
    // so across 16 seeds the runs must not all collapse to one transcript.
    let transcripts: std::collections::BTreeSet<String> = (0..16)
        .map(|seed| format!("{:?}", run_benor(&[0, 0, 1, 1], 1, seed, &[], 400, &mut NoopTracer)))
        .collect();
    assert!(
        transcripts.len() > 1,
        "all 16 seeds produced the same Ben-Or transcript"
    );
}

#[test]
fn itai_rodeh_same_seed_means_identical_transcript() {
    for seed in [0u64, 3, 11, 77, 1989] {
        let a = itai_rodeh_transcript(seed);
        let b = itai_rodeh_transcript(seed);
        assert_eq!(a, b, "Itai–Rodeh diverged on seed {seed}");
    }
}

#[test]
fn itai_rodeh_different_seeds_give_different_transcripts() {
    let transcripts: std::collections::BTreeSet<String> =
        (0..16).map(itai_rodeh_transcript).collect();
    assert!(
        transcripts.len() > 1,
        "all 16 seeds produced the same Itai–Rodeh transcript"
    );
}

#[test]
fn transcripts_are_stable_under_crash_injection_too() {
    // Fault injection must not introduce hidden nondeterminism either.
    for seed in [2u64, 13] {
        let a = run_benor(&[0, 1, 1, 0, 1], 2, seed, &[(0, 1, 2), (3, 4, 1)], 300, &mut NoopTracer);
        let b = run_benor(&[0, 1, 1, 0, 1], 2, seed, &[(0, 1, 2), (3, 4, 1)], 300, &mut NoopTracer);
        assert_eq!(a, b, "crash-injected Ben-Or diverged on seed {seed}");
    }
}

/// `FpHasher` checksum of a rendered report.
fn checksum(rendered: &str) -> u64 {
    let mut h = impossible::explore::FpHasher::new(0);
    h.write_bytes(rendered.as_bytes());
    h.finish()
}

#[test]
fn quotient_reports_are_pinned_by_checksum() {
    // The rotation quotient's reports name concrete canonical states (lasso
    // stems and cycles, BFS-order counts), so any drift in the canon hook —
    // a different representative, a split or merged orbit — changes these
    // bytes. Pinned from the commit before the hook became the linear-time
    // scan, so plain `cargo test` catches drift without a parent build.
    use impossible::election::ring_search::{
        election_evades_free_schedulers, election_under_greedy_merges, explore_quotient,
    };
    const PINNED: [(usize, u64, u64); 6] = [
        (5, 0xfba3c0022f6ea3dc, 0x69ee0d7d38915e40),
        (6, 0x8c26af0158021849, 0xc7f7e321e6268b30),
        (7, 0x863ae7c2a1093438, 0x6080a98ecd59e5ed),
        (8, 0xed6f07dfb344501d, 0x107c40d36ed9bd65),
        (9, 0x082285f0772a02b7, 0x7bc5a7ee22aaf629),
        (10, 0xa2bf7ac93ca3573d, 0x01f70b69217b290b),
    ];
    for (n, evades, greedy) in PINNED {
        let got_evades = checksum(&election_evades_free_schedulers(n, 100_000).to_json());
        let got_greedy = checksum(&election_under_greedy_merges(n, 100_000).to_json());
        assert_eq!(
            (got_evades, got_greedy),
            (evades, greedy),
            "n={n}: got ({got_evades:#018x}, {got_greedy:#018x})"
        );
    }
    // This one renders `SearchStats`, `peak_bytes` included, so it also
    // moves with the visited table's accounting (`FpMap::approx_bytes`).
    // The masked sibling zeroes `peak_bytes` and so must not: it pins every
    // other byte of the same report across an accounting change.
    let mut report = explore_quotient(12, 100_000);
    let quotient = checksum(&format!("{report:?}"));
    report.stats.peak_bytes = 0;
    let masked = checksum(&format!("{report:?}"));
    assert_eq!(
        (quotient, masked),
        (0x63c728e4b997894e, 0xd63394f6551229f2),
        "explore_quotient(12): got ({quotient:#018x}, {masked:#018x})"
    );
}
