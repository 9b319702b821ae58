//! # impossible-core
//!
//! Foundational models and *proof-technique engines* for the executable
//! companion to Nancy Lynch's survey **"A Hundred Impossibility Proofs for
//! Distributed Computing"** (PODC 1989).
//!
//! The survey's central observation is that the ~100 impossibility results of
//! distributed computing rest on a single idea — *the limitation imposed by
//! local knowledge* — refracted through a handful of proof techniques. This
//! crate makes the models and the techniques mechanical:
//!
//! * [`system`] — labelled transition systems with per-process action
//!   ownership, the common foundation the paper asks for ("it would be very
//!   nice if there were some body of common definitions ...").
//! * [`exec`] — executions and *admissibility*, which the paper calls
//!   "one of the most difficult aspects of this work".
//! * [`explore`] — explicit-state exploration of small systems.
//! * [`valence`] — the FLP *bivalence* engine (Figures 2–3 of the paper):
//!   valence classification, bivalent initial configurations, decider /
//!   critical configurations. (The admissible non-deciding execution is
//!   the lasso of `consensus::flp::check_candidate`'s
//!   `FlpVerdict::NonTerminating`, found by `explore::property`.)
//! * [`succ`] — compressed successor rows, the edge storage of the
//!   reachable graphs [`valence`] classifies (built by `impossible-explore`).
//! * [`row`] — fixed-capacity inline rows, the heap-free fields of small
//!   model states.
//! * [`scenario`] — the Fischer–Lynch–Merritt *scenario* composer (Figure 1):
//!   glue copies of a protocol into a ring and extract contradictory
//!   obligations.
//! * [`chain`] — *chain arguments* (the t+1-round and Two Generals bounds):
//!   chains of executions linked by per-process indistinguishability.
//! * [`symmetry`] — *symmetry* and comparison-equivalence of rings
//!   (Figure 4), driving the Ω(n log n) election bounds.
//! * [`task`] — decision tasks and the Moran–Wolfstahl / Biran–Moran–Zaks
//!   input-graph / decision-graph characterization of 1-fault solvability.
//! * [`knowledge`] — the epistemic layer (Halpern–Moses, Dwork–Moses):
//!   `K_p`, `E`, iterated and common knowledge over finite frames, with the
//!   "no common knowledge over uncertain channels" theorem executable.
//! * [`cert`] — [`cert::verify`], the one checker of the bad executions
//!   and lassos the survey's operational impossibility proofs construct
//!   (the scenario, chain and symmetry engines above return their own
//!   structured evidence).
//!
//! ## Quick start
//!
//! ```
//! use impossible_core::system::System;
//! use impossible_core::explore::Explorer;
//!
//! // A trivial two-counter system.
//! struct TwoCounters;
//! impl System for TwoCounters {
//!     type State = (u8, u8);
//!     type Action = usize; // which counter to bump
//!     fn initial_states(&self) -> Vec<Self::State> { vec![(0, 0)] }
//!     fn enabled(&self, s: &Self::State) -> Vec<usize> {
//!         let mut acts = Vec::new();
//!         if s.0 < 2 { acts.push(0); }
//!         if s.1 < 2 { acts.push(1); }
//!         acts
//!     }
//!     fn step(&self, s: &Self::State, a: &usize) -> Self::State {
//!         let mut t = *s;
//!         if *a == 0 { t.0 += 1 } else { t.1 += 1 }
//!         t
//!     }
//! }
//!
//! let report = Explorer::new(&TwoCounters).explore();
//! assert_eq!(report.num_states, 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod chain;
pub mod exec;
pub mod explore;
pub mod ids;
pub mod knowledge;
pub mod pigeonhole;
pub mod row;
pub mod scenario;
pub mod succ;
pub mod symmetry;
pub mod system;
pub mod task;
pub mod valence;

pub use exec::Execution;
pub use ids::ProcessId;
pub use system::System;
