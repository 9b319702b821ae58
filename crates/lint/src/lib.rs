//! `impossible-lint` — the determinism & hermeticity static-analysis gate.
//!
//! Every proof engine in this workspace (valence, scenario, chain, symmetry)
//! argues about *specific* executions: a bivalence proof exhibits a schedule,
//! a scenario proof glues two executions together, a chain proof walks an
//! indistinguishability chain. Those arguments are only sound if executions
//! are replayable — any hidden nondeterminism (hash-iteration order,
//! wall-clock reads, ambient randomness) silently invalidates them. The
//! `determinism` integration test checks this *dynamically*; this crate
//! proves it *statically*, by source inspection: no proof-engine or protocol
//! crate can even mention a nondeterminism source.
//!
//! The analyzer is hand-rolled (no `syn`, no `regex` — the workspace must
//! stay hermetic) and purely lexical: [`lex`] is a string-, comment- and
//! char-literal-aware lexer, so `"HashMap"` inside a string literal or a
//! comment never fires, and every rule reads the code / comment / doc
//! shadows it produces. Nothing here parses items, types or signatures:
//! what used to need that — is every field of a state type encoded, does a
//! `_traced` twin's signature match — is now the compiler's job (see
//! `encode-coverage` and `twin-drift` in [`rules`]).
//! The rules, what each denies and why, and the per-path scope table are
//! stated once, in [`docs/LINTS.md`](../../../docs/LINTS.md);
//! [`RULE_NAMES`] lists them in reporting order.
//!
//! Legitimate exceptions carry an inline waiver on (or immediately above)
//! the offending line, so every exception is visible and grep-able:
//!
//! ```text
//! // LINT-ALLOW: det-ambient -- CLI filter arguments, not protocol state
//! ```
//!
//! Diagnostics are rustc-style `file:line:col: deny(<rule>): ...` lines;
//! the binary (`cargo run -q -p impossible-lint --release -- --deny-all`)
//! exits nonzero on any diagnostic and runs as a tier-1 gate in
//! `scripts/verify.sh`.

pub mod lex;
pub mod manifest;
pub mod rules;
pub mod walk;

pub use rules::{lint_rust_source, Diagnostic, RULE_NAMES};
pub use walk::{
    check_waiver_doc_sync, lint_workspace, render_waiver_inventory, rules_for, WaiverRow,
    WorkspaceReport,
};
