//! The property layer's determinism contract: SCC decomposition, verdicts
//! and lasso witnesses are byte-identical for any fingerprint seed, and the
//! `PropertyReport` JSON rendering is pinned.
//!
//! The seed reaches the checker only through the graph builder, which is
//! exact (fingerprints are an index acceleration with equality fallback)
//! and assigns indices in sequential BFS discovery order; the checker then
//! visits vertices in index order and neighbors in successor-list order.
//! Nothing downstream of `Search::new` may change a byte of the report
//! (the builder never reads `Search::workers`:
//! `tests/determinism.rs::resident_runs_ignore_the_worker_count`).
//! `DET_SEED` replays the property cases.

use impossible_det::{det_assert, det_assert_eq, det_prop};
use impossible_explore::property::{eventually, leads_to, never, Checker};
use impossible_explore::{impl_encode_struct, Grid, Search};
use impossible_core::system::System;

/// A hub state fanning out into three disjoint cycles ("gears") of
/// lengths 2, 3 and 4 — one acyclic SCC plus three cyclic ones, so the
/// checker's head choice, stem and cycle construction all get exercised.
struct Gears;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct G(u8, u8); // (ring, position); ring 0 is the hub

impl_encode_struct!(G(ring, position));

const LENS: [u8; 3] = [2, 3, 4];

impl System for Gears {
    type State = G;
    type Action = u8;
    fn initial_states(&self) -> Vec<G> {
        vec![G(0, 0)]
    }
    fn enabled(&self, s: &G) -> Vec<u8> {
        match s.0 {
            0 => vec![1, 2, 3], // enter a ring
            _ => vec![0],       // advance around it
        }
    }
    fn step(&self, s: &G, a: &u8) -> G {
        match s.0 {
            0 => G(*a, 0),
            r => G(r, (s.1 + 1) % LENS[(r - 1) as usize]),
        }
    }
}

/// One safety and two liveness checks, rendered to canonical JSON. The
/// concatenation is the byte-level comparison unit.
fn render_all(seed: u64) -> String {
    let g = Search::new(&Gears).seed(seed).graph();
    let checker = Checker::new(&g);
    let live = checker.check(&eventually("stops", |_: &G| false)).to_json();
    let resp = checker
        .check(&leads_to("ring3-hub", |s: &G| s.0 == 3, |s: &G| s.0 == 0))
        .to_json();
    let grid = Grid { n: 3, max: 3 };
    let safe = Search::new(&grid)
        .seed(seed)
        .check_property(&never("diagonal", |s: &Vec<u8>| s.iter().all(|&x| x == 2)))
        .to_json();
    format!("{live}\n{resp}\n{safe}")
}

det_prop! {
    fn any_seed_same_property_bytes(cases = 12, seed in 0u64..1_000_000) {
        let baseline = render_all(impossible_explore::DEFAULT_SEED);
        det_assert_eq!(baseline, render_all(seed));
        det_assert!(baseline.contains("\"type\":\"lasso\""), "liveness case must produce a lasso");
    }
}

det_prop! {
    fn scc_decomposition_is_seed_invariant(cases = 12, seed in 0u64..1_000_000) {
        // The decomposition stats (region, sccs, candidates) are part of
        // the report; pin them directly across seeds.
        let g = Search::new(&Gears).seed(seed).graph();
        let r = Checker::new(&g).check(&eventually("stops", |_: &G| false));
        det_assert_eq!(r.region, 10);
        det_assert_eq!(r.sccs, 4);
        det_assert_eq!(r.candidate_sccs, 3);
    }
}

#[test]
fn lasso_report_json_is_pinned() {
    // The full canonical rendering, byte for byte: the head is the gear
    // nearest the hub (ring 1, BFS order), the cycle walks it once.
    let r = Search::new(&Gears).check_property(&eventually("stops", |_: &G| false));
    assert_eq!(
        r.to_json(),
        "{\"name\":\"stops\",\"kind\":\"eventually\",\"holds\":false,\
         \"states\":10,\"edges\":12,\"region\":10,\"sccs\":4,\"candidate_sccs\":3,\
         \"truncated\":false,\"counterexample\":{\"type\":\"lasso\",\"pivot\":null,\
         \"stem_states\":[\"G(0, 0)\",\"G(1, 0)\"],\"stem_actions\":[\"1\"],\
         \"cycle_actions\":[\"0\",\"0\"],\"cycle_states\":[\"G(1, 1)\",\"G(1, 0)\"]}}"
    );
}

#[test]
fn leads_to_report_json_is_pinned() {
    // leads_to stamps the pivot: the ring-3 entry that the hub never
    // answers, then the length-4 gear cycle avoiding the hub forever.
    let r = Search::new(&Gears)
        .check_property(&leads_to("ring3-hub", |s: &G| s.0 == 3, |s: &G| s.0 == 0));
    assert_eq!(
        r.to_json(),
        "{\"name\":\"ring3-hub\",\"kind\":\"leads-to\",\"holds\":false,\
         \"states\":10,\"edges\":12,\"region\":9,\"sccs\":3,\"candidate_sccs\":3,\
         \"truncated\":false,\"counterexample\":{\"type\":\"lasso\",\"pivot\":1,\
         \"stem_states\":[\"G(0, 0)\",\"G(3, 0)\"],\"stem_actions\":[\"3\"],\
         \"cycle_actions\":[\"0\",\"0\",\"0\",\"0\"],\
         \"cycle_states\":[\"G(3, 1)\",\"G(3, 2)\",\"G(3, 3)\",\"G(3, 0)\"]}}"
    );
}

#[test]
fn bad_state_report_json_is_pinned() {
    let r = Search::new(&Gears).check_property(&never("enters-ring-2", |s: &G| s.0 == 2));
    assert_eq!(
        r.to_json(),
        "{\"name\":\"enters-ring-2\",\"kind\":\"never\",\"holds\":false,\
         \"states\":10,\"edges\":12,\"region\":3,\"sccs\":0,\"candidate_sccs\":0,\
         \"truncated\":false,\"counterexample\":{\"type\":\"bad-state\",\
         \"states\":[\"G(0, 0)\",\"G(2, 0)\"],\"actions\":[\"2\"]}}"
    );
}

#[test]
fn holding_report_json_is_pinned() {
    let r = Search::new(&Gears).check_property(&eventually("leaves-hub", |s: &G| s.0 != 0));
    assert_eq!(
        r.to_json(),
        "{\"name\":\"leaves-hub\",\"kind\":\"eventually\",\"holds\":true,\
         \"states\":10,\"edges\":12,\"region\":1,\"sccs\":1,\"candidate_sccs\":0,\
         \"truncated\":false,\"counterexample\":null}"
    );
}
