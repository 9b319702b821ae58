//! The resume oracle, on spaces with back edges.
//!
//! Every other pause/resume test in the tree runs on `Grid`, which is
//! layered: no child is ever a state of an earlier level, so after a resume
//! nothing probes a key from before the pause, and a restored visited table
//! that *holds* its keys but cannot *find* them passes them all. Here every
//! space folds back onto earlier levels — token rings (merging tokens keep
//! circulating), their rotation quotient, and tori whose counters wrap — and
//! the run is paused at **every** level boundary, sent through
//! `Snapshot::to_bytes` → `from_bytes`, and resumed: the report must be the
//! uninterrupted one, and pausing the resumed run again at any later
//! boundary must give the bytes of a straight run paused there.
//!
//! Mutation-checked against `FpMap::from_ascending` / `take_ordered` (the
//! mutants and the assertion each trips are listed in `CHANGES.md`, PR 21):
//! a key loaded away from where its probe looks is re-inserted by the first
//! back edge and the state count grows; a table loaded one doubling short
//! moves `peak_bytes` in the next checkpoint; an order that leaves wrapped
//! entries first is not ascending and the page codec refuses it.

use impossible::ckpt::{model_fp, Snapshot};
use impossible::core::system::System;
use impossible::election::ring_search::{rotation_canon, TokenRing};
use impossible::explore::{Encode, PauseBudget, Persist, Resumable, Search, DEFAULT_SEED};

/// `crates/explore/tests/extmem_spill.rs`'s wrap-around grid: `n` counters
/// mod `max + 1`, every action always enabled, so every level re-derives
/// states of the levels before it.
struct Torus {
    n: usize,
    max: u8,
}

impl System for Torus {
    type State = Vec<u8>;
    type Action = usize;

    fn initial_states(&self) -> Vec<Vec<u8>> {
        vec![vec![0; self.n]]
    }

    fn enabled(&self, _: &Vec<u8>) -> Vec<usize> {
        (0..self.n).collect()
    }

    fn step(&self, s: &Vec<u8>, a: &usize) -> Vec<u8> {
        let mut t = s.clone();
        t[*a] = (t[*a] + 1) % (self.max + 1);
        t
    }
}

/// A [`Search::canon`] hook.
type Canon<S> = fn(&<S as System>::State) -> <S as System>::State;

/// Pause `sys` at every level boundary, round-trip each checkpoint through
/// its snapshot bytes, and hold every continuation to the straight run.
fn assert_every_pause_resumes<Sys>(
    name: &str,
    sys: &Sys,
    canon: Option<Canon<Sys>>,
    seed: u64,
) where
    Sys: System,
    Sys::State: Encode + Persist,
    Sys::Action: Persist,
{
    let search = || {
        let search = Search::new(sys).seed(seed);
        match canon {
            Some(c) => search.canon(c),
            None => search,
        }
    };
    let model = model_fp(name, &[]);
    let straight = search().explore();

    // The straight run's checkpoint bytes at boundary 0, 1, 2, … until a
    // budget outlasts the space.
    let mut paused_at: Vec<Vec<u8>> = Vec::new();
    loop {
        match search().run_resumable(PauseBudget::levels(paused_at.len())) {
            Resumable::Paused(ckpt) => paused_at.push(Snapshot::new(model, ckpt).to_bytes()),
            Resumable::Done(report) => {
                assert_eq!(report, straight, "{name}: a budget past the space");
                break;
            }
        }
    }
    assert!(paused_at.len() > 3, "{name}: only {} boundaries", paused_at.len());

    for (level, bytes) in paused_at.iter().enumerate() {
        let load = || {
            let snap = Snapshot::<Sys::State, Sys::Action>::from_bytes(bytes);
            snap.unwrap_or_else(|e| panic!("{name}: level {level} does not decode: {e}")).ckpt
        };
        assert_eq!(
            Snapshot::new(model, load()).to_bytes(),
            *bytes,
            "{name}: level {level} decodes to a different checkpoint"
        );
        let finished = search().resume(load(), PauseBudget::never()).done();
        assert_eq!(
            finished.expect("an unbounded resume finishes"),
            straight,
            "{name}: resumed from level {level}"
        );
        for (later, expected) in paused_at.iter().enumerate().skip(level + 1) {
            let again = search().resume(load(), PauseBudget::levels(later)).paused();
            let again = again.expect("the straight run paused here");
            assert!(
                Snapshot::new(model, again).to_bytes() == *expected,
                "{name}: resumed from level {level} and paused at {later}: \
                 not the straight run's checkpoint"
            );
        }
    }
}

#[test]
fn token_ring_resumes_from_every_level() {
    // 63 states; a lone token circulates forever, so late levels are all
    // back edges.
    assert_every_pause_resumes("ring6", &TokenRing { n: 6 }, None, DEFAULT_SEED);
}

#[test]
fn rotation_quotient_resumes_from_every_level() {
    // 35 necklaces: every key the table holds is a canon hook's output, and
    // every successor is looked up by its representative's fingerprint.
    assert_every_pause_resumes("ring8/rot", &TokenRing { n: 8 }, Some(rotation_canon), DEFAULT_SEED);
}

#[test]
fn torus_resumes_from_every_level() {
    // 64 states — a key or two per shard, every one probed again each level.
    assert_every_pause_resumes("torus3x3", &Torus { n: 3, max: 3 }, None, DEFAULT_SEED);
    // 2401 states over 64 shards: shards cross the 32-entry doubling and
    // clusters run off the last slot — the capacity and wrap-order mutants
    // die here and on no smaller space.
    for seed in [DEFAULT_SEED, 7] {
        assert_every_pause_resumes("torus4x6", &Torus { n: 4, max: 6 }, None, seed);
    }
}
