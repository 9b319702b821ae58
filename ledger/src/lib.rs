//! # impossible-ledger
//!
//! The performance ledger: real Lynch-'89 checks timed end to end and
//! layer by layer, from outside the engines. `LEDGER.md` beside this crate
//! is the guide; `ledger.sh` is the one command.
//!
//! The pure parts — order statistics, span self-time, the JSON
//! reader/writer and the comparison rule — are modules of their own so
//! `tests/ledger_math.rs` can pin them.

pub mod cli;
pub mod compare;
pub mod control;
pub mod expected;
pub mod harness;
pub mod json;
pub mod replay;
pub mod span;
pub mod stats;
pub mod workloads;
