//! In-memory spans around calls into each layer.
//!
//! The harness records `{id, parent, name, start_ns, end_ns}` at every
//! layer boundary it can see from outside (the engines' public functions),
//! keeps them in memory and writes them out when the run ends. A layer's
//! self time is its span minus what its children cover.

use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the recorder (spans are numbered in opening order).
    pub id: u32,
    /// The span open when this one was opened.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `table.insert`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Collects spans for one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Run `f` `times` times and record a span for the fastest run only
    /// (interference only ever adds time). Returns the last result.
    pub fn time_fastest<R>(&mut self, name: &str, times: usize, mut f: impl FnMut() -> R) -> R {
        let mut best: Option<(u64, u64)> = None;
        let mut last = None;
        for _ in 0..times.max(1) {
            let start = self.now_ns();
            last = Some(f());
            let end = self.now_ns();
            if best.is_none_or(|(s, e)| end - start < e - s) {
                best = Some((start, end));
            }
        }
        let (start_ns, end_ns) = best.expect("ran at least once");
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        last.expect("ran at least once")
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        total_ns(&self.spans, name) as f64 / 1e9
    }
}

/// Total nanoseconds of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let me = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}
