//! # impossible-obs
//!
//! Deterministic execution tracing for every engine in the workspace.
//!
//! The paper's proof techniques all operate on *executions*: a bivalence
//! argument walks a chain of configurations, a scenario gluing compares two
//! runs step by step, a stretched diagram is an execution with its timing
//! re-drawn. Yet until this crate the engines only returned end-of-run
//! reports — when two runs disagreed (or a determinism pin broke) the
//! evidence was "bytes differ" and nothing else. `impossible-obs` makes the
//! run itself observable without giving up the determinism discipline the
//! repo is built on:
//!
//! * [`event`] — structured [`Event`] records stamped by a **logical**
//!   event counter (never a wall clock: the crate passes the `det-time`
//!   lint with no waivers), encoded as deterministic single-line JSONL;
//! * [`tracer`] — the [`Tracer`] sink trait, the zero-cost [`NoopTracer`]
//!   default every untraced entry point uses, and the bounded
//!   [`RingTracer`] that keeps the last *N* events of a run;
//! * [`diff`] — [`trace_diff`], which turns "two traces differ" into
//!   "first divergence at event *N*: left `level.exit {level: 7, …}`,
//!   right `truncate {cause: states}`".
//!
//! ## The determinism contract
//!
//! A trace is evidence only if re-running the same seed reproduces the same
//! bytes. Every instrumented engine therefore emits events **only from its
//! sequential control path** — never from a pool worker — so a search trace
//! is a pure function of `(system, bounds, seed, canon, partitions)`
//! (`crates/explore/tests/trace_determinism.rs`; that the requested worker
//! count never reaches it is pinned in `tests/determinism.rs`). Events carry
//! no wall-clock field at all; ordering is the logical `seq` stamp.
//!
//! ```
//! use impossible_obs::{trace_diff, RingTracer, TraceDiff, Tracer, Value};
//!
//! let mut a = RingTracer::new(16);
//! let mut b = RingTracer::new(16);
//! for t in [&mut a, &mut b] {
//!     t.record("demo", "start", vec![("seed", Value::U64(7))]);
//! }
//! a.record("demo", "level.exit", vec![("states", Value::U64(9))]);
//! b.record("demo", "level.exit", vec![("states", Value::U64(12))]);
//!
//! match trace_diff(a.events(), b.events()) {
//!     TraceDiff::Diverged { index, .. } => assert_eq!(index, 1),
//!     TraceDiff::Identical { .. } => unreachable!("runs diverge at event 1"),
//! }
//! ```
//!
//! See `docs/OBS.md` for the event model, the span/counter conventions the
//! engines follow, and the trace-diff workflow.

pub mod diff;
pub mod event;
pub mod tracer;

/// Emit one trace event through a `&mut dyn Tracer`, building the field
/// vector **only if the tracer is active** — the hot-loop emission form:
///
/// ```
/// use impossible_obs::{trace_event, RingTracer, NoopTracer};
///
/// fn level(tracer: &mut dyn impossible_obs::Tracer, depth: usize) {
///     trace_event!(tracer, "search", "level.enter", "level": depth, "frontier": 1usize);
/// }
///
/// level(&mut NoopTracer, 3); // inactive gate: no allocation, no event
/// let mut ring = RingTracer::new(8);
/// level(&mut ring, 3);
/// assert_eq!(ring.events()[0].kind, "level.enter");
/// ```
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $scope:literal, $kind:literal $(, $key:literal : $val:expr)* $(,)?) => {
        if $crate::Tracer::active(&*$tracer) {
            $crate::Tracer::record(
                $tracer,
                $scope,
                $kind,
                vec![$(($key, $crate::Value::from($val))),*],
            );
        }
    };
}

pub use diff::{trace_diff, TraceDiff};
pub use event::{escape_into, Event, Value};
pub use tracer::{NoopTracer, RingTracer, Tracer};
