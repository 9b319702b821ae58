//! Trace sinks: the [`Tracer`] trait, the zero-cost [`NoopTracer`], and the
//! bounded [`RingTracer`].
//!
//! Engines thread a `&mut dyn Tracer` through their hot loops and gate
//! every emission on [`Tracer::active`]:
//!
//! ```
//! use impossible_obs::{Tracer, Value};
//!
//! fn expand(tracer: &mut dyn Tracer, level: usize, frontier: usize) {
//!     if tracer.active() {
//!         tracer.record(
//!             "search",
//!             "level.enter",
//!             vec![("level", Value::from(level)), ("frontier", Value::from(frontier))],
//!         );
//!     }
//! }
//!
//! expand(&mut impossible_obs::NoopTracer, 0, 1); // free: the gate is false
//! ```
//!
//! With [`NoopTracer`] the gate is a constant `false`, so the field vector
//! is never built — the untraced path costs one predictable branch (the
//! ledger's `obs.traced_overhead_ratio` on `grid_w1` prices a traced run
//! against it).
//!
//! The sequence stamp is **logical**: each sink numbers the events it
//! accepts 0, 1, 2, …. No wall clock is read anywhere in this crate (the
//! `det-time` lint verifies that claim on every verify run).

use crate::event::{Event, Value};
use std::collections::VecDeque;

/// A sink for trace events.
///
/// Implementations stamp [`Event::seq`] themselves from a private logical
/// counter, so an event's position in a trace is a property of the run, not
/// of any clock.
pub trait Tracer {
    /// Is anyone listening? Hot paths check this before building fields.
    fn active(&self) -> bool;

    /// Record one event. Implementations that are not [`active`](Tracer::active)
    /// may drop it without cost.
    fn record(&mut self, scope: &'static str, kind: &'static str, fields: Vec<(&'static str, Value)>);
}

/// The default sink: discards everything, reports inactive.
///
/// An engine entry point records into `NoopTracer` unless given another
/// tracer — a builder's `.tracer(…)` setter (`Search`, `Checker`) or a
/// plain function's last argument (`run_benor`, `RingRunner::run`, …) —
/// so the zero-cost claim is structural: the only overhead on the untraced
/// path is the inlined `active()` check.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline(always)]
    fn active(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _: &'static str, _: &'static str, _: Vec<(&'static str, Value)>) {}
}

/// A bounded in-memory sink: keeps the **last** `capacity` events.
///
/// Long runs cannot exhaust memory; the trace keeps its most recent window
/// (usually the interesting part — where the runs diverged or truncated)
/// and counts what it had to evict in [`RingTracer::dropped`]. Sequence
/// numbers keep counting across evictions, so positions in a truncated
/// trace are still absolute run positions.
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl RingTracer {
    /// A sink keeping the last `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingTracer {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Events currently held, oldest first, as a contiguous slice.
    pub fn events(&mut self) -> &[Event] {
        self.buf.make_contiguous();
        self.buf.as_slices().0
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted to respect the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (held + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// The held events as deterministic JSONL, one line per event, each
    /// newline-terminated. Equal runs produce equal bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.buf {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Consume the sink, yielding the held events oldest first.
    pub fn into_events(self) -> Vec<Event> {
        self.buf.into_iter().collect()
    }
}

impl Tracer for RingTracer {
    #[inline]
    fn active(&self) -> bool {
        true
    }

    fn record(&mut self, scope: &'static str, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event {
            seq: self.next_seq,
            scope: scope.to_string(),
            kind: kind.to_string(),
            fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        self.next_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: &mut RingTracer, kind: &'static str) {
        t.record("test", kind, vec![("x", Value::U64(1))]);
    }

    #[test]
    fn noop_is_inactive_and_silent() {
        let mut t = NoopTracer;
        assert!(!t.active());
        t.record("test", "k", vec![]);
    }

    #[test]
    fn ring_keeps_the_last_capacity_events() {
        let mut t = RingTracer::new(3);
        for kind in ["a", "b", "c", "d", "e"] {
            ev(&mut t, kind);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 5);
        let kinds: Vec<&str> = t.events().iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["c", "d", "e"]);
        // Sequence numbers are absolute run positions, not buffer slots.
        assert_eq!(t.events()[0].seq, 2);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut t = RingTracer::new(0);
        ev(&mut t, "a");
        ev(&mut t, "b");
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].kind, "b");
    }

    #[test]
    fn jsonl_lines_round_trip() {
        let mut t = RingTracer::new(8);
        ev(&mut t, "a");
        ev(&mut t, "b");
        let jsonl = t.to_jsonl();
        let parsed: Vec<Event> = jsonl
            .lines()
            .map(|l| Event::parse_jsonl(l).expect("canonical line"))
            .collect();
        assert_eq!(parsed, t.into_events());
    }
}
