//! # impossible-explore
//!
//! The workspace's state-space search subsystem. Every impossibility engine
//! here bottoms out in "exhaustively cover the reachable configuration
//! graph of a small instance" — valence classification (FLP, Figures 2–3),
//! mutex safety/deadlock/lockout checking, synthesis refutation, election
//! symmetry search. This crate makes that coverage cheap without giving up
//! the determinism discipline the repo is built on:
//!
//! * [`fingerprint`] — seeded 64-bit fingerprint visited-sets over a
//!   derive-free byte/word [`Encode`] trait, and the collision policy;
//! * [`canon`] — symmetry canonicalization hooks (plug
//!   [`impossible_core::symmetry`]'s permutation machinery into the visited
//!   set so each orbit is explored once), and the audit of their contract;
//! * [`pool`] — the deterministic fork-join worker pool: whole items
//!   claimed off an atomic counter, results merged in item order, so its
//!   output is identical for any worker count. One caller,
//!   `impossible-ckpt`'s manifest jobs; every search is single-threaded;
//! * [`search`] — the unified [`Search`] API: BFS shortest-witness search,
//!   with per-run counters exported as deterministic JSON
//!   ([`SearchStats`]); one partition expander and one commit step serve
//!   the resident level body and the spill route's;
//! * [`table`] — the open-addressing fingerprint tables behind the visited
//!   set: flat [`FpMap`] and [`ShardedFpMap`], sharded by the same
//!   `fp % partitions` function that splits frontiers, so a shard's next
//!   frontier is its own fresh-insert list and the spill route pages whole
//!   shards;
//! * [`graph`] — the one exact reachable-graph builder
//!   ([`Search::graph_from`]), interning states through a `Hash`-keyed
//!   index whose every match is confirmed by equality, behind the valence
//!   engine ([`Search::valence`]), the mutex checkers, the property layer
//!   and `impossible-ckpt`'s incremental re-exploration; the traversals
//!   over its result are `core::succ`'s;
//! * [`persist`] — the reversible little-endian [`Persist`] byte codec
//!   (moved here from `impossible-ckpt` so snapshots and spill share one
//!   format), plus [`page`] — delta+varint-compressed run and frontier
//!   pages;
//! * [`extmem`] — external-memory BFS: a [`SpillPolicy`] writes cold
//!   visited shards (and optionally frontier partitions) to deterministic
//!   per-shard run files and streams them back per level, keeping reports
//!   byte-identical to the resident engine while peak memory stays
//!   bounded;
//! * [`property`] — the temporal-property layer over that graph:
//!   [`always`](property::always) / [`never`](property::never) safety
//!   checks as reachability, [`eventually`](property::eventually) /
//!   [`leads_to`](property::leads_to) liveness checks as deterministic
//!   Tarjan SCC lasso detection, with admissibility and fairness
//!   constraints on the repeatable cycle;
//! * [`grid`] — a tunable synthetic system for benchmarks and the
//!   cross-engine equivalence suite.
//!
//! The legacy [`impossible_core::explore::Explorer`] remains as the simple
//! reference engine for [`Search::explore`] / [`Search::search`];
//! `tests/explore_equivalence.rs` (workspace root) pins agreement between
//! the two on a system from every model crate. See
//! `docs/EXPLORE.md` for the architecture and the determinism argument.

pub mod canon;
pub mod extmem;
pub mod fingerprint;
pub mod graph;
pub mod grid;
pub mod page;
pub mod persist;
pub mod pool;
pub mod property;
pub mod search;
pub mod stats;
pub mod table;

pub use extmem::SpillPolicy;
pub use fingerprint::{BatchScratch, Encode, Fingerprint, FpHasher};
pub use persist::{Persist, PersistError};
pub use graph::ReachableGraph;
pub use grid::Grid;
pub use pool::WorkerPool;
pub use property::{Checker, Counterexample, Lasso, Property, PropertyReport};
pub use search::{
    Parent, PauseBudget, Resumable, Search, SearchCheckpoint, SearchReport, DEFAULT_PARTITIONS,
    DEFAULT_SEED,
};
pub use stats::SearchStats;
pub use table::{Cap, FpMap, ShardedFpMap};

// Re-exports so downstream code can name the truncation cause and a graph's
// successor rows without also depending on `impossible-core` explicitly.
pub use impossible_core::explore::Truncation;
pub use impossible_core::succ::Succ;
