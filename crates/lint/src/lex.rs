//! A tiny, dependency-free lexical classifier for Rust source.
//!
//! [`classify`] splits a source file into per-line *shadow strings*: for
//! every line it produces three strings of exactly the original byte length
//! in which each byte is either the original character (if it belongs to
//! that class) or a space. The three classes are
//!
//! * **code** — everything executable, including string/char delimiters,
//! * **comment** — ordinary `//` and `/* ... */` comment text (where
//!   `LINT-ALLOW` waivers live),
//! * **doc** — `///`, `//!`, `/** */`, `/*! */` documentation text (where
//!   the `doc-cite` rule looks).
//!
//! The *contents* of string, raw-string, byte-string and char literals
//! belong to none of the three classes, which is how rule patterns inside
//! strings are prevented from firing while byte columns stay exact: a match
//! at byte offset `k` of a shadow string is at column `k + 1` of the real
//! line.
//!
//! The lexer understands nested block comments, escapes inside string and
//! char literals, raw strings (`r"…"`, `r#"…"#`, `br#"…"#`), byte chars
//! (`b'x'`) and the lifetime-vs-char-literal ambiguity (`'a` vs `'a'`).

/// One source line split into same-length `code` / `comment` / `doc`
/// shadow strings (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ClassifiedLine {
    /// Executable source bytes; everything else is blanked to spaces.
    pub code: String,
    /// Non-doc comment bytes (including the `//` / `/* */` markers).
    pub comment: String,
    /// Doc-comment bytes (including the `///` / `//!` markers).
    pub doc: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    LineComment { doc: bool },
    Block { doc: bool, depth: u32 },
    Str,
    RawStr { hashes: u8 },
    Char,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Code,
    Comment,
    Doc,
    Literal,
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Classify `src` into per-line shadow strings.
pub fn classify(src: &str) -> Vec<ClassifiedLine> {
    let b = src.as_bytes();
    let mut out: Vec<ClassifiedLine> = Vec::new();
    let mut cur = ClassifiedLine::default();
    let mut mode = Mode::Code;

    let push = |cur: &mut ClassifiedLine, ch: u8, class: Class| {
        let c = ch as char;
        let (code, comment, doc) = match class {
            Class::Code => (c, ' ', ' '),
            Class::Comment => (' ', c, ' '),
            Class::Doc => (' ', ' ', c),
            Class::Literal => (' ', ' ', ' '),
        };
        cur.code.push(code);
        cur.comment.push(comment);
        cur.doc.push(doc);
    };

    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            out.push(std::mem::take(&mut cur));
            if let Mode::LineComment { .. } = mode {
                mode = Mode::Code;
            }
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    // `///x` is doc, `////` is plain; `//!` is doc.
                    let doc = match b.get(i + 2) {
                        Some(b'!') => true,
                        Some(b'/') => !matches!(b.get(i + 3), Some(b'/')),
                        _ => false,
                    };
                    mode = Mode::LineComment { doc };
                    let class = if doc { Class::Doc } else { Class::Comment };
                    push(&mut cur, c, class);
                    i += 1;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    // `/*!` and `/**x` are doc; `/**/` is an empty plain one.
                    let doc = match b.get(i + 2) {
                        Some(b'!') => true,
                        Some(b'*') => !matches!(b.get(i + 3), Some(b'/')),
                        _ => false,
                    };
                    mode = Mode::Block { doc, depth: 1 };
                    let class = if doc { Class::Doc } else { Class::Comment };
                    push(&mut cur, b'/', class);
                    push(&mut cur, b'*', class);
                    i += 2;
                } else if c == b'"' {
                    push(&mut cur, c, Class::Code);
                    mode = Mode::Str;
                    i += 1;
                } else if (c == b'r' || c == b'b')
                    && (i == 0 || !is_ident_byte(b[i - 1]))
                    && raw_or_byte_prefix(b, i).is_some()
                {
                    let (consumed, next) = raw_or_byte_prefix(b, i).expect("checked above");
                    for k in 0..consumed {
                        push(&mut cur, b[i + k], Class::Code);
                    }
                    mode = next;
                    i += consumed;
                } else if c == b'\'' {
                    if char_literal_starts(b, i) {
                        push(&mut cur, c, Class::Code);
                        mode = Mode::Char;
                    } else {
                        // A lifetime: the quote and the following identifier
                        // are ordinary code.
                        push(&mut cur, c, Class::Code);
                    }
                    i += 1;
                } else {
                    push(&mut cur, c, Class::Code);
                    i += 1;
                }
            }
            Mode::LineComment { doc } => {
                push(&mut cur, c, if doc { Class::Doc } else { Class::Comment });
                i += 1;
            }
            Mode::Block { doc, depth } => {
                let class = if doc { Class::Doc } else { Class::Comment };
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    mode = Mode::Block {
                        doc,
                        depth: depth + 1,
                    };
                    push(&mut cur, b'/', class);
                    push(&mut cur, b'*', class);
                    i += 2;
                } else if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    push(&mut cur, b'*', class);
                    push(&mut cur, b'/', class);
                    i += 2;
                    if depth == 1 {
                        mode = Mode::Code;
                    } else {
                        mode = Mode::Block {
                            doc,
                            depth: depth - 1,
                        };
                    }
                } else {
                    push(&mut cur, c, class);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == b'\\' {
                    push(&mut cur, c, Class::Literal);
                    i += 1;
                    if i < b.len() && b[i] != b'\n' {
                        push(&mut cur, b[i], Class::Literal);
                        i += 1;
                    }
                } else if c == b'"' {
                    push(&mut cur, c, Class::Code);
                    mode = Mode::Code;
                    i += 1;
                } else {
                    push(&mut cur, c, Class::Literal);
                    i += 1;
                }
            }
            Mode::RawStr { hashes } => {
                if c == b'"' && closes_raw(b, i, hashes) {
                    push(&mut cur, c, Class::Code);
                    for k in 0..hashes as usize {
                        push(&mut cur, b[i + 1 + k], Class::Code);
                    }
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                } else {
                    push(&mut cur, c, Class::Literal);
                    i += 1;
                }
            }
            Mode::Char => {
                if c == b'\\' {
                    push(&mut cur, c, Class::Literal);
                    i += 1;
                    if i < b.len() && b[i] != b'\n' {
                        push(&mut cur, b[i], Class::Literal);
                        i += 1;
                    }
                } else if c == b'\'' {
                    push(&mut cur, c, Class::Code);
                    mode = Mode::Code;
                    i += 1;
                } else {
                    push(&mut cur, c, Class::Literal);
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() {
        out.push(cur);
    }
    out
}

/// Does a raw/byte string literal start at `i`? Returns the prefix length
/// (through the opening quote) and the follow-up mode.
fn raw_or_byte_prefix(b: &[u8], i: usize) -> Option<(usize, Mode)> {
    let mut j = i;
    let mut saw_b = false;
    if b.get(j) == Some(&b'b') {
        saw_b = true;
        j += 1;
    }
    if b.get(j) == Some(&b'\'') && saw_b {
        // b'x' byte char: prefix `b'` then char-literal body.
        return Some((2, Mode::Char));
    }
    let saw_r = b.get(j) == Some(&b'r');
    if saw_r {
        j += 1;
    }
    let mut hashes = 0u8;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    match b.get(j) {
        Some(&b'"') if saw_r => Some((j - i + 1, Mode::RawStr { hashes })),
        Some(&b'"') if saw_b && hashes == 0 => Some((j - i + 1, Mode::Str)),
        _ => None,
    }
}

/// Does `"` at `i` close a raw string with `hashes` trailing `#`s?
fn closes_raw(b: &[u8], i: usize, hashes: u8) -> bool {
    (1..=hashes as usize).all(|k| b.get(i + k) == Some(&b'#'))
}

/// Disambiguate `'a'` (char literal) from `'a` (lifetime) at byte `i`.
fn char_literal_starts(b: &[u8], i: usize) -> bool {
    match b.get(i + 1) {
        None => false,
        Some(&b'\\') => true,
        Some(&n) if n.is_ascii_alphabetic() || n == b'_' => {
            // `'a'` is a char; `'a ` / `'a>` / `'a,` is a lifetime.
            b.get(i + 2) == Some(&b'\'')
        }
        Some(_) => true,
    }
}

/// The inline waiver syntax: `LINT-ALLOW: <rule>[, <rule>...] -- <reason>`.
///
/// Waivers are recognized only in *non-doc* comments: a doc comment that
/// merely documents the waiver syntax must not accidentally waive anything.
/// A waiver suppresses matching diagnostics on its own line; when the
/// waiver stands on a comment-only line it covers the following line
/// instead (the usual "waiver above the offending statement" layout). A
/// waiver without a `-- reason` is deliberately ignored: undocumented
/// exceptions are not exceptions.
#[derive(Debug, Default)]
pub struct Waivers {
    /// `(line, rule)` pairs that are waived.
    covered: std::collections::BTreeSet<(usize, String)>,
    /// Rules waived anywhere in the file (for file-scope rules).
    file_wide: std::collections::BTreeSet<String>,
}

impl Waivers {
    /// Is `rule` waived on `line` (1-based)?
    pub fn allows(&self, line: usize, rule: &str) -> bool {
        self.covered.contains(&(line, rule.to_string()))
    }

    /// Is `rule` waived anywhere in the file?
    pub fn allows_file(&self, rule: &str) -> bool {
        self.file_wide.contains(rule)
    }
}

/// One well-formed `LINT-ALLOW` occurrence, for inventory purposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverRecord {
    /// 1-based line the waiver comment is on.
    pub line: usize,
    /// The waived rule names, in written order.
    pub rules: Vec<String>,
    /// The mandatory `-- reason` text, trimmed.
    pub reason: String,
}

/// Extract every well-formed waiver occurrence (rule list + reason) from
/// classified source lines. This is what `--list-waivers` and the
/// `waiver-doc-sync` rule inventory; [`waivers`] derives its line
/// coverage from the same records so the two views can never disagree.
pub fn waiver_records(lines: &[ClassifiedLine]) -> Vec<WaiverRecord> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(pos) = line.comment.find("LINT-ALLOW:") else {
            continue;
        };
        let rest = &line.comment[pos + "LINT-ALLOW:".len()..];
        let Some((rules_part, reason)) = rest.split_once("--") else {
            continue;
        };
        if reason.trim().is_empty() {
            continue;
        }
        let rules: Vec<String> = rules_part
            .split(',')
            .map(str::trim)
            .filter(|r| !r.is_empty())
            .map(str::to_string)
            .collect();
        if rules.is_empty() {
            continue;
        }
        out.push(WaiverRecord {
            line: idx + 1,
            rules,
            reason: reason.trim().to_string(),
        });
    }
    out
}

/// Extract all well-formed waivers from classified source lines.
pub fn waivers(lines: &[ClassifiedLine]) -> Waivers {
    let mut w = Waivers::default();
    for rec in waiver_records(lines) {
        let own_line = lines[rec.line - 1].code.trim().is_empty();
        for rule in &rec.rules {
            w.covered.insert((rec.line, rule.clone()));
            if own_line {
                w.covered.insert((rec.line + 1, rule.clone()));
            }
            w.file_wide.insert(rule.clone());
        }
    }
    w
}
