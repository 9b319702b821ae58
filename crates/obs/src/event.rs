//! Structured trace events with deterministic single-line JSONL encoding.
//!
//! An [`Event`] is one observation of a run: a logical sequence number
//! (stamped by the tracer — **never** a wall-clock time; the workspace's
//! `det-time` lint holds in this crate with no waivers), the engine scope
//! that emitted it, an event kind, and an ordered list of named fields.
//! Field order is part of the event's identity: equal events encode to
//! equal bytes, which is what lets [`crate::trace_diff`] and the
//! trace-determinism tests compare runs byte-for-byte.
//!
//! The encoding follows the `SearchStats::to_json` style already pinned
//! elsewhere in the workspace: fixed key order (`seq`, `scope`, `kind`,
//! then the fields in emission order), no whitespace, integers undecorated,
//! strings minimally escaped. [`Event::parse_jsonl`] reads exactly that
//! canonical form back (it is a decoder for this encoder, not a general
//! JSON parser), so dumped traces round-trip through files for offline
//! diffing.

/// A field value. Everything a trace records is one of these four shapes;
/// keeping the set closed is what keeps the encoding deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unsigned counter / identifier.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Flag.
    Bool(bool),
    /// Short label (cause names, rendered vectors, …).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    fn encode_into(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
        }
    }
}

/// One trace event. See the module docs for the encoding contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Logical position in the run: 0, 1, 2, … as stamped by the tracer.
    pub seq: u64,
    /// The engine that emitted it (`"search"`, `"valence"`, `"benor"`, …).
    pub scope: String,
    /// What happened (`"level.enter"`, `"truncate"`, `"round"`, …).
    /// Span conventions (`*.enter` / `*.exit` pairs) live in `docs/OBS.md`.
    pub kind: String,
    /// Named payload, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Deterministic single-line JSON (no trailing newline): fixed key
    /// order, no whitespace variation. Equal events encode to equal bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"scope\":\"");
        escape_into(&self.scope, &mut out);
        out.push_str("\",\"kind\":\"");
        escape_into(&self.kind, &mut out);
        out.push('"');
        for (k, v) in &self.fields {
            out.push_str(",\"");
            escape_into(k, &mut out);
            out.push_str("\":");
            v.encode_into(&mut out);
        }
        out.push('}');
        out
    }

    /// Parse one canonical JSONL line produced by [`Event::to_jsonl`].
    ///
    /// Returns `None` on anything that encoder cannot have written: an
    /// event is returned only if it re-encodes to exactly `line`. So
    /// surrounding whitespace, a leading zero, `-0`, a `\u` escape of a
    /// printable character or a number out of its type's range is refused,
    /// and two lines never decode to one event. This is deliberately *not*
    /// a general JSON parser (no nesting, no floats, no reordered keys) —
    /// traces are our own artifact, and rejecting free-form input keeps the
    /// decoder small and the round-trip exact.
    pub fn parse_jsonl(line: &str) -> Option<Event> {
        let mut p = Parser {
            b: line.as_bytes(),
            i: 0,
        };
        p.expect(b'{')?;
        let seq = match (p.key()?.as_str(), p.value()?) {
            ("seq", Value::U64(v)) => v,
            _ => return None,
        };
        p.expect(b',')?;
        let scope = match (p.key()?.as_str(), p.value()?) {
            ("scope", Value::Str(s)) => s,
            _ => return None,
        };
        p.expect(b',')?;
        let kind = match (p.key()?.as_str(), p.value()?) {
            ("kind", Value::Str(s)) => s,
            _ => return None,
        };
        let mut fields = Vec::new();
        while p.peek() == Some(b',') {
            p.expect(b',')?;
            let k = p.key()?;
            let v = p.value()?;
            fields.push((k, v));
        }
        p.expect(b'}')?;
        let event = Event {
            seq,
            scope,
            kind,
            fields,
        };
        (event.to_jsonl() == line).then_some(event)
    }

    /// Render for humans: `seq scope kind {k: v, …}` — what the diff
    /// reporter and the trace CLI print.
    pub fn render(&self) -> String {
        let mut out = format!("#{} {} {}", self.seq, self.scope, self.kind);
        if !self.fields.is_empty() {
            out.push_str(" {");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(k);
                out.push_str(": ");
                match v {
                    Value::U64(x) => out.push_str(&x.to_string()),
                    Value::I64(x) => out.push_str(&x.to_string()),
                    Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
                    Value::Str(s) => out.push_str(s),
                }
            }
            out.push('}');
        }
        out
    }
}

/// JSON string escaping, appended to `out` without the surrounding quotes:
/// the canonical subset the encoder emits (`\"`, `\\`, `\n`, `\t`, `\r`,
/// `\u00XX` for the other control characters). The workspace's one escaper —
/// every hand-built JSON rendering (`PropertyReport::to_json`,
/// `ManifestReport::to_json`) goes through it.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Tiny cursor over the canonical encoding.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Option<()> {
        if self.peek() == Some(c) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    /// `"key":` — returns the key.
    fn key(&mut self) -> Option<String> {
        let k = self.string()?;
        self.expect(b':')?;
        Some(k)
    }

    /// A quoted string with the canonical escapes undone.
    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            if self.i + 4 >= self.b.len() {
                                return None;
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5]).ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 continuation bytes pass through.
                    let start = self.i;
                    while self
                        .b
                        .get(self.i)
                        .is_some_and(|&c| c != b'"' && c != b'\\')
                    {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).ok()?);
                }
            }
        }
    }

    /// A canonical value: integer, boolean, or string.
    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'"' => Some(Value::Str(self.string()?)),
            b't' => {
                self.literal(b"true")?;
                Some(Value::Bool(true))
            }
            b'f' => {
                self.literal(b"false")?;
                Some(Value::Bool(false))
            }
            b'-' => {
                let start = self.i;
                self.i += 1;
                self.digits()?;
                Some(Value::I64(self.number_from(start)?))
            }
            b'0'..=b'9' => {
                let start = self.i;
                self.digits()?;
                Some(Value::U64(self.number_from(start)?))
            }
            _ => None,
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Option<()> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Some(())
        } else {
            None
        }
    }

    /// Skip one or more ASCII digits.
    fn digits(&mut self) -> Option<()> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        (self.i > start).then_some(())
    }

    /// The number spelled from `start` to the cursor; `None` past its
    /// type's range.
    fn number_from<T: std::str::FromStr>(&self, start: usize) -> Option<T> {
        std::str::from_utf8(&self.b[start..self.i]).ok()?.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            seq: 42,
            scope: "search".into(),
            kind: "level.exit".into(),
            fields: vec![
                ("level".into(), Value::U64(7)),
                ("delta".into(), Value::I64(-3)),
                ("truncated".into(), Value::Bool(false)),
                ("cause".into(), Value::Str("none".into())),
            ],
        }
    }

    #[test]
    fn encoding_is_canonical() {
        assert_eq!(
            sample().to_jsonl(),
            "{\"seq\":42,\"scope\":\"search\",\"kind\":\"level.exit\",\
             \"level\":7,\"delta\":-3,\"truncated\":false,\"cause\":\"none\"}"
        );
    }

    #[test]
    fn round_trips_through_jsonl() {
        let e = sample();
        assert_eq!(Event::parse_jsonl(&e.to_jsonl()), Some(e));
    }

    #[test]
    fn round_trips_escapes() {
        let e = Event {
            seq: 0,
            scope: "x".into(),
            kind: "k".into(),
            fields: vec![("s".into(), Value::Str("a\"b\\c\nd\te\u{1}".into()))],
        };
        assert_eq!(Event::parse_jsonl(&e.to_jsonl()), Some(e));
    }

    #[test]
    fn rejects_non_canonical_input() {
        assert_eq!(Event::parse_jsonl(""), None);
        assert_eq!(Event::parse_jsonl("{}"), None);
        // Reordered keys are not the canonical encoding.
        assert_eq!(
            Event::parse_jsonl("{\"scope\":\"s\",\"seq\":1,\"kind\":\"k\"}"),
            None
        );
        // Trailing garbage.
        assert_eq!(
            Event::parse_jsonl("{\"seq\":1,\"scope\":\"s\",\"kind\":\"k\"}x"),
            None
        );
    }

    #[test]
    fn refuses_every_spelling_the_encoder_never_writes() {
        let line = |v: &str| format!("{{\"seq\":1,\"scope\":\"s\",\"kind\":\"k\",\"x\":{v}}}");
        // A signed field at the edge of its range decodes; one past it
        // used to flip sign or overflow the negation.
        let min = Event::parse_jsonl(&line("-9223372036854775808")).expect("i64::MIN");
        assert_eq!(min.fields[0].1, Value::I64(i64::MIN));
        for bad in [
            "-18446744073709551615",
            "-9223372036854775809",
            "18446744073709551616",
        ] {
            assert_eq!(Event::parse_jsonl(&line(bad)), None, "{bad}");
        }
        for bad in ["007", "-0", "\"\\u0041\""] {
            assert_eq!(Event::parse_jsonl(&line(bad)), None, "{bad}");
        }
        assert_eq!(
            Event::parse_jsonl("{\"seq\":007,\"scope\":\"s\",\"kind\":\"k\"}"),
            None
        );
        let canonical = sample().to_jsonl();
        for padded in [
            format!(" {canonical}"),
            format!("{canonical}\n"),
            format!("{canonical}\t"),
        ] {
            assert_eq!(Event::parse_jsonl(&padded), None, "{padded:?}");
        }
    }

    #[test]
    fn render_is_compact_and_readable() {
        assert_eq!(
            sample().render(),
            "#42 search level.exit {level: 7, delta: -3, truncated: false, cause: none}"
        );
    }
}
