//! # impossible
//!
//! An executable companion to Nancy Lynch's **"A Hundred Impossibility Proofs
//! for Distributed Computing"** (PODC 1989): the formal models, the proof
//! techniques as mechanical engines, and the algorithms that match the
//! surveyed lower bounds.
//!
//! This facade crate re-exports the workspace crates under stable names:
//!
//! * [`core`] — transition systems, executions, admissibility, and the proof
//!   engines (bivalence / scenario / chain / symmetry / pigeonhole / tasks).
//! * [`sharedmem`] — shared-memory model and mutual-exclusion algorithms.
//! * [`msgpass`] — synchronous & asynchronous message-passing substrates.
//! * [`consensus`] — Byzantine/crash/randomized consensus, approximate
//!   agreement, commit, and the consensus lower-bound refuters.
//! * [`clocksync`] — drifting clocks and the Lundelius–Lynch bound.
//! * [`election`] — ring and complete-graph leader election.
//! * [`registers`] — register constructions and the Herlihy hierarchy.
//! * [`datalink`] — lossy channels, ABP, Two Generals, message stealing.
//! * [`explore`] — the state-space search subsystem: fingerprint visited
//!   sets, symmetry canonicalization hooks, deterministic parallel
//!   frontiers, and the unified [`Search`](impossible_explore::Search)
//!   API every engine above explores through (see `docs/EXPLORE.md`).
//! * [`ckpt`] — checkpoint/restore for that search: versioned binary
//!   snapshots ([`Snapshot`](impossible_ckpt::Snapshot)) of paused runs,
//!   incremental re-exploration after a model edit, and the verdict cache +
//!   manifest runner behind `src/bin/check.rs` (see `docs/CKPT.md`).
//! * [`det`] — the in-tree deterministic infrastructure: seeded PRNG and
//!   property-testing harness (`det_prop!` with `DET_SEED` replay).
//!   Everything random in the workspace flows through it.
//! * [`obs`] — deterministic execution tracing: logical-clock
//!   [`Event`](impossible_obs::Event) records, the zero-cost
//!   [`NoopTracer`](impossible_obs::NoopTracer) default, bounded
//!   [`RingTracer`](impossible_obs::RingTracer) capture, JSONL dumps and
//!   [`trace_diff`](impossible_obs::trace_diff) — run-level observability
//!   for every engine above (see `docs/OBS.md` and `src/bin/trace.rs`).
//!
//! ## Quick start
//!
//! Refute a candidate 3-process Byzantine-agreement protocol with the
//! Figure 1 scenario argument, then watch a real algorithm succeed at n = 4:
//!
//! ```
//! use impossible::core::scenario::{RoundProtocol, ScenarioRing};
//! use impossible::consensus::eig::Eig;
//!
//! // EIG is correct for n > 3t; pretend to run it with n = 3, t = 1 and the
//! // scenario engine finds the contradiction mechanically.
//! let candidate = Eig::new(3, 1);
//! let verdict = ScenarioRing::classic(&candidate, 1).check();
//! assert!(verdict.is_contradiction());
//! ```

pub use impossible_ckpt as ckpt;
pub use impossible_clocksync as clocksync;
pub use impossible_consensus as consensus;
pub use impossible_core as core;
pub use impossible_datalink as datalink;
pub use impossible_det as det;
pub use impossible_election as election;
pub use impossible_explore as explore;
pub use impossible_msgpass as msgpass;
pub use impossible_obs as obs;
pub use impossible_registers as registers;
pub use impossible_sharedmem as sharedmem;
