//! # impossible-det
//!
//! In-tree deterministic infrastructure for the `impossible` workspace:
//! a seeded PRNG ([`DetRng`]) and a property-testing harness
//! ([`det_prop!`]). Together they replace the external `rand` and
//! `proptest` dependencies, so the whole workspace builds **offline with
//! an empty registry cache** — and, more importantly, so every randomized
//! run in the repository is a pure function of its seed.
//!
//! The paper this workspace reproduces insists that "it is not possible to
//! fake an impossibility proof": a refutation is only worth anything if it
//! can be replayed. That standard extends to randomized algorithms
//! (Ben-Or, Itai–Rodeh) and randomized adversaries (schedulers, lossy
//! channels): a counterexample found under randomness must be
//! reconstructible from a *seed*, not from whatever the OS entropy pool
//! happened to say.
//!
//! ## Seeding discipline
//!
//! * The generator is xoshiro256++ seeded via SplitMix64
//!   ([`DetRng::seed_from_u64`]). SplitMix64 expansion means *every* `u64`
//!   seed — including the sequential `0, 1, 2, ...` seeds that experiment
//!   sweeps use — yields a well-mixed, nonzero 256-bit state.
//! * Simulators take a `seed: u64` parameter and create their own
//!   generator(s) from it. Nothing in the workspace reads OS entropy,
//!   time, or thread identity; the build contains no other randomness
//!   source.
//! * There is no global RNG. A generator is always owned by the entity
//!   whose nondeterminism it models (a process's coin, a channel's loss,
//!   a scheduler's choices).
//!
//! ## Stream splitting
//!
//! When one simulation hosts several random entities, giving them
//! `seed`, `seed + 1`, ... correlates their streams (and collides across
//! runs with adjacent seeds). Instead:
//!
//! * [`DetRng::stream`]`(seed, i)` derives the `i`-th of a family of
//!   independent streams — use it for per-process private coins: both
//!   coordinates pass through the SplitMix64 finalizer before combining,
//!   so `(seed=1, i=2)` and `(seed=2, i=1)` differ.
//! * [`DetRng::split`] peels an independent child generator off a parent —
//!   use it when the number of entities is discovered dynamically.
//!
//! Both are deterministic: the whole tree of generators is a function of
//! the root seed.
//!
//! ## Replaying a failing property case
//!
//! Property tests declared with [`det_prop!`] draw each case's seed from a
//! stream keyed by the *test name*, so cases are stable under adding,
//! removing or reordering other tests. On failure the harness shrinks the
//! counterexample and prints a line of the form
//!
//! ```text
//! replay exactly: DET_SEED=1234567890123456789 cargo test the_test_name
//! ```
//!
//! Setting `DET_SEED` (decimal or `0x`-hex) makes that test run exactly
//! one case, generated from that seed — the failing one — regardless of
//! the configured case count. The same discipline applies to the
//! simulators themselves: every run result in the workspace quotes the
//! seed that produced it, and feeding the seed back reproduces the
//! transcript byte for byte (see the `determinism` integration test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prop;
pub mod rng;

pub use rng::{DetRng, SampleRange};
