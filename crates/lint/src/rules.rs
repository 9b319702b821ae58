//! The twelve lint rules and their source-level scanners.
//!
//! Each rule protects a proof technique (see `docs/LINTS.md`):
//! `det-order` keeps transcript-replay (bivalence/scenario) arguments
//! honest, `det-time` and `det-ambient` keep the adversary model airtight,
//! `det-float` keeps NaN out of the `Ord` discipline the engines rely on,
//! `hermetic-deps` keeps the offline build machine-checked, `doc-cite`
//! keeps rustdoc's strict-docs gate from regressing, and `map-coverage`
//! keeps `docs/PAPER_MAP.md` an exhaustive paper-to-module index. Two
//! rules guard contracts whose substance the compiler checks, and deny
//! only the way around it. `encode-coverage` denies a hand-written
//! `impl … Encode for`: the `impl_encode_enum!` / `impl_encode_struct!`
//! expansions are exhaustive, so a listing that skips a field (two states
//! merged in the fingerprint visited set) does not build, and a
//! hand-written impl is the one place a skipped field can still hide.
//! `twin-drift` holds `docs/OBS.md`'s zero-cost-twin contract to its
//! letter — beside every `fn foo_traced` a `fn foo` whose whole body is
//! `foo_traced(…, &mut NoopTracer)` — which leaves only the signature to
//! drift, and a drifted signature fails to build. `hash-eq` denies half
//! a derive: a type that derives one of `Hash` / `PartialEq` and writes
//! the other by hand, the one way a state's `Hash` can disagree with its
//! `Eq` (the exact graph builder dedups through both). Every rule reads
//! [`crate::lex`]'s shadows; none parses items, types or signatures. The
//! file-set-level rules live in [`crate::walk`]: `dead-pub` denies a
//! `pub` item no other file names, and `waiver-doc-sync` keeps the
//! waiver inventory in `docs/LINTS.md` machine-checked against the tree.

use crate::lex::{classify, is_ident_byte, waivers, ClassifiedLine, Waivers};

/// The names of all twelve rules, in reporting order.
pub const RULE_NAMES: [&str; 12] = [
    "det-order",
    "det-time",
    "det-ambient",
    "det-float",
    "hermetic-deps",
    "doc-cite",
    "map-coverage",
    "encode-coverage",
    "twin-drift",
    "hash-eq",
    "dead-pub",
    "waiver-doc-sync",
];

/// A single rustc-style finding: `path:line:col: deny(rule): message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// Human-readable explanation with the concrete offending token.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: deny({}): {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

impl Diagnostic {
    /// Canonical single-line JSON encoding (same hand-built style as
    /// `PropertyReport::to_json` in `impossible-explore`): fixed key
    /// order `path, line, col, rule, message`, no whitespace.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(self.message.len() + self.path.len() + 64);
        s.push_str("{\"path\":");
        push_json_str(&mut s, &self.path);
        s.push_str(",\"line\":");
        s.push_str(&self.line.to_string());
        s.push_str(",\"col\":");
        s.push_str(&self.col.to_string());
        s.push_str(",\"rule\":");
        push_json_str(&mut s, self.rule);
        s.push_str(",\"message\":");
        push_json_str(&mut s, &self.message);
        s.push('}');
        s
    }
}

/// Append `s` as a JSON string literal, escaping per RFC 8259.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `(rule, forbidden code patterns)` for the rules that are a substring
/// scan of the code shadow.
const CODE_PATTERNS: [(&str, &[&str]); 4] = [
    ("det-order", &["HashMap", "HashSet"]),
    ("det-time", &["Instant::now", "SystemTime"]),
    (
        "det-ambient",
        &[
            "thread::spawn",
            "thread::scope",
            "std::process",
            "std::env",
            "env::var",
            "env::args",
        ],
    ),
    ("encode-coverage", &["Encode for"]),
];

fn pattern_message(rule: &str, pattern: &str) -> String {
    match rule {
        "det-order" => format!(
            "`{pattern}` iterates in hash order, which varies between runs and \
             silently invalidates transcript-replay arguments; use the ordered \
             `BTree` equivalent"
        ),
        "det-time" => format!(
            "wall-clock read `{pattern}` is a hidden nondeterminism source; \
             model time explicitly (timed executors) or time the call from \
             outside, in the `ledger/` package"
        ),
        "det-ambient" => format!(
            "ambient authority `{pattern}` escapes the modeled schedule; all \
             nondeterminism must flow through the seeded `impossible-det` \
             adversary"
        ),
        _ => format!(
            "hand-written `impl … {pattern}`: an encoder that skips a field \
             merges distinct states in the fingerprint visited set, and \
             nothing checks a hand-written one; list the fields through \
             `impl_encode_struct!` / `impl_encode_enum!`, whose exhaustive \
             expansion the compiler checks, or waive with a reason"
        ),
    }
}

/// Run the given *source-level* rules over one Rust file.
///
/// `rules` contains rule names from [`RULE_NAMES`]; unknown names and the
/// file-set-level `map-coverage` rule are ignored here (coverage is checked
/// by [`crate::walk::lint_workspace`], which sees the whole file set).
/// Scope decisions (which rules apply to which paths) are the caller's job
/// — see [`crate::walk::rules_for`] — which is what makes the rules
/// directly testable on fixture snippets.
pub fn lint_rust_source(path: &str, src: &str, rules: &[&str]) -> Vec<Diagnostic> {
    let lines = classify(src);
    let w = waivers(&lines);
    let mut out = Vec::new();

    for (rule, patterns) in CODE_PATTERNS {
        if !rules.contains(&rule) {
            continue;
        }
        scan_code_patterns(path, &lines, &w, rule, patterns, &mut out);
    }
    if rules.contains(&"det-float") {
        scan_float_types(path, &lines, &w, &mut out);
    }
    if rules.contains(&"doc-cite") {
        scan_doc_citations(path, &lines, &w, &mut out);
    }
    if rules.contains(&"twin-drift") {
        scan_traced_twins(path, &lines, &w, &mut out);
    }
    if rules.contains(&"hash-eq") {
        scan_hash_eq(path, &lines, &w, &mut out);
    }
    out.sort();
    out
}

/// `det-float`: `f32` / `f64` type mentions in engine/protocol code.
///
/// NaN is the one value that breaks the total-`Ord` discipline
/// `det-order` exists for (`NaN != NaN` poisons `BTreeMap` invariants,
/// sort stability, and canonical state comparison), and float rounding
/// makes "the same computation" platform-shaped. Fires on type mentions
/// (`: f64`, `as f64`, `f64::INFINITY`) and suffixed literals
/// (`0.5f64`); an *unsuffixed* literal passed to an integer-backed API
/// has no `f64` token and is fine. One diagnostic per line (leftmost).
fn scan_float_types(
    path: &str,
    lines: &[ClassifiedLine],
    w: &Waivers,
    out: &mut Vec<Diagnostic>,
) {
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let b = line.code.as_bytes();
        let hit = ["f32", "f64"]
            .iter()
            .filter_map(|p| {
                let mut from = 0;
                while let Some(pos) = line.code[from..].find(p) {
                    let k = from + pos;
                    let prev_ok = k == 0
                        || (!b[k - 1].is_ascii_alphabetic() && b[k - 1] != b'_');
                    let next = b.get(k + p.len());
                    let next_ok =
                        !next.is_some_and(|&n| n.is_ascii_alphanumeric() || n == b'_');
                    if prev_ok && next_ok {
                        return Some((k, *p));
                    }
                    from = k + p.len();
                }
                None
            })
            .min();
        if let Some((col, pattern)) = hit {
            if !w.allows(lineno, "det-float") {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: lineno,
                    col: col + 1,
                    rule: "det-float",
                    message: format!(
                        "floating-point type `{pattern}` in an engine/protocol \
                         crate: NaN breaks the total-`Ord` state discipline and \
                         rounding is platform-shaped; use integer or fixed-point \
                         arithmetic (per-mille probabilities, `ilog2`/`isqrt` \
                         bounds) or waive with a reason"
                    ),
                });
            }
        }
    }
}

/// The file's code shadow as one string, lines joined by `\n`, and the
/// byte offset at which each line starts in it.
pub(crate) fn code_shadow(lines: &[ClassifiedLine]) -> (String, Vec<usize>) {
    let mut code = String::new();
    let mut starts = Vec::with_capacity(lines.len());
    for l in lines {
        starts.push(code.len());
        code.push_str(&l.code);
        code.push('\n');
    }
    (code, starts)
}

/// The identifier starting at byte `at` of `code` (empty if none).
pub(crate) fn ident_at(code: &str, at: usize) -> &str {
    let len = code.as_bytes()[at..].iter().take_while(|&&c| is_ident_byte(c)).count();
    &code[at..at + len]
}

/// Byte offsets of every word-bounded `word` in `code`.
pub(crate) fn word_positions<'c>(code: &'c str, word: &'c str) -> impl Iterator<Item = usize> + 'c {
    let b = code.as_bytes();
    code.match_indices(word).map(|(k, _)| k).filter(move |&k| {
        (k == 0 || !is_ident_byte(b[k - 1]))
            && !b.get(k + word.len()).is_some_and(|&c| is_ident_byte(c))
    })
}

/// The offset of the first non-whitespace byte at or after `at`.
pub(crate) fn skip_ws(code: &str, at: usize) -> usize {
    at + (code[at..].len() - code[at..].trim_start().len())
}

/// `(type name, derived trait names)` for every `#[derive(…)]` in `code`
/// that stands on a `struct`, `enum` or `union`; each trait by its last
/// path segment (`std::hash::Hash` is `Hash`). Attributes between the
/// derive and the item, and a `pub` / `pub(…)`, are skipped.
fn derived_traits(code: &str) -> Vec<(&str, Vec<&str>)> {
    let mut out = Vec::new();
    for (k, _) in code.match_indices("#[derive(") {
        let list_at = k + "#[derive(".len();
        let Some(len) = code[list_at..].find(')') else {
            continue;
        };
        let traits = code[list_at..list_at + len]
            .split(',')
            .map(|t| t.rsplit("::").next().unwrap_or_default().trim())
            .filter(|t| !t.is_empty())
            .collect();
        let mut at = skip_ws(code, list_at + len + 1);
        if code[at..].starts_with(']') {
            at = skip_ws(code, at + 1);
        }
        // Further attributes, then the visibility.
        while code[at..].starts_with("#[") {
            let mut depth = 0i32;
            let Some(end) = code[at..].bytes().position(|c| {
                depth += (c == b'[') as i32 - (c == b']') as i32;
                c == b']' && depth == 0
            }) else {
                break;
            };
            at = skip_ws(code, at + end + 1);
        }
        if ident_at(code, at) == "pub" {
            at = skip_ws(code, at + 3);
            if code[at..].starts_with('(') {
                at = skip_ws(code, at + code[at..].find(')').map_or(0, |e| e + 1));
            }
        }
        let keyword = ident_at(code, at);
        if matches!(keyword, "struct" | "enum" | "union") {
            let name = ident_at(code, skip_ws(code, at + keyword.len()));
            if !name.is_empty() {
                out.push((name, traits));
            }
        }
    }
    out
}

/// `(trait offset, trait name, type name)` for every hand-written
/// `impl … TRAIT for TYPE` header in `code`: the trait by its last path
/// segment, with no generic arguments (so `PartialEq<Vec<T>>`, an
/// equality with another type, is not `PartialEq`), the type by its last
/// path segment before any `<`. A `for<'a>` bound in the generics is not
/// the header's `for`.
fn impl_headers(code: &str) -> Vec<(usize, &str, &str)> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    for k in word_positions(code, "impl") {
        let end = code[k..].find(['{', ';']).map_or(code.len(), |e| k + e);
        let Some(for_at) = word_positions(&code[k..end], "for")
            .map(|f| k + f)
            .find(|&f| !code[f + 3..].trim_start().starts_with('<'))
        else {
            continue;
        };
        let head = code[k..for_at].trim_end();
        let trait_len = head.bytes().rev().take_while(|&c| is_ident_byte(c)).count();
        let trait_at = k + head.len() - trait_len;
        let after_path = trait_at > k && matches!(b[trait_at - 1], b':' | b'>' | b' ' | b'\n');
        if trait_len == 0 || !after_path {
            continue;
        }
        let mut ty_at = skip_ws(code, for_at + 3);
        let mut ty = ident_at(code, ty_at);
        while code[ty_at + ty.len()..].starts_with("::") {
            ty_at += ty.len() + 2;
            ty = ident_at(code, ty_at);
        }
        if !ty.is_empty() {
            out.push((trait_at, &code[trait_at..trait_at + trait_len], ty));
        }
    }
    out
}

/// `hash-eq`: in one file, a hand-written `impl … PartialEq for T` where
/// `T` derives `Hash`, or a hand-written `impl … Hash for T` where `T`
/// derives `PartialEq` — clippy's `derived_hash_with_manual_eq`, which the
/// tier-1 gate does not run.
///
/// The exact graph builder dedups states through `Hash` and `Eq` together
/// (`docs/EXPLORE.md`, "Fingerprint dedup and the collision policy"): a
/// `Hash` that tells equal states apart splits one state into two graph
/// nodes. Two derives agree by construction, and so can two impls written
/// side by side (`core::row::Row` hands both to its slice); a derive and a
/// hand-written impl are the mismatch this rule denies. Reported at the
/// hand-written trait name.
fn scan_hash_eq(path: &str, lines: &[ClassifiedLine], w: &Waivers, out: &mut Vec<Diagnostic>) {
    let (code, starts) = code_shadow(lines);
    let derived = derived_traits(&code);
    for (at, written, ty) in impl_headers(&code) {
        let derive = match written {
            "PartialEq" => "Hash",
            "Hash" => "PartialEq",
            _ => continue,
        };
        if !derived.iter().any(|(name, traits)| *name == ty && traits.contains(&derive)) {
            continue;
        }
        let line = starts.partition_point(|&s| s <= at);
        if !w.allows(line, "hash-eq") {
            out.push(Diagnostic {
                path: path.to_string(),
                line,
                col: at - starts[line - 1] + 1,
                rule: "hash-eq",
                message: format!(
                    "`{ty}` derives `{derive}` but writes `{written}` by hand: if \
                     they disagree, equal states hash apart and the exact graph \
                     builder, which dedups through `Hash` and `Eq`, splits them \
                     into two nodes; derive both, write both by hand (as \
                     `core::row::Row` does), or waive with a reason"
                ),
            });
        }
    }
}

/// Byte offset of every `fn NAME`'s `NAME` in `code`, in source order.
fn fn_names(code: &str) -> Vec<(&str, usize)> {
    // Not `fn(` (a pointer type), `fn $name` (a macro) or `…fn` (an identifier).
    word_positions(code, "fn")
        .map(|kw| skip_ws(code, kw + 2))
        .map(|at| (ident_at(code, at), at))
        .filter(|(name, _)| !name.is_empty())
        .collect()
}

/// Is the body of the fn whose signature continues at `sig` exactly
/// `[self.]TRACED(…, &mut NoopTracer)`? Purely lexical: the body opens at
/// the first `{` outside `(…)` / `[…]` (a `;` there first is a bodiless
/// declaration), and with whitespace removed — strings, chars and comments
/// are blank in the code shadow already — it must be that one call, its
/// closing parenthesis directly before the fn's closing brace.
fn delegates_to(sig: &str, traced: &str) -> bool {
    let mut depth = 0i32;
    let open = sig.bytes().position(|c| {
        depth += matches!(c, b'(' | b'[') as i32 - matches!(c, b')' | b']') as i32;
        depth == 0 && matches!(c, b'{' | b';')
    });
    let Some(open) = open.filter(|&o| sig.as_bytes()[o] == b'{') else {
        return false;
    };
    let body: String = sig[open + 1..].split_whitespace().collect();
    let call = body.strip_prefix("self.").unwrap_or(&body);
    let Some(rest) = call.strip_prefix(traced).and_then(|r| r.strip_prefix('(')) else {
        return false;
    };
    let mut depth = 1i32;
    let Some(close) = rest.bytes().position(|c| {
        depth += (c == b'(') as i32 - (c == b')') as i32;
        depth == 0
    }) else {
        return false;
    };
    let args = rest[..close].strip_suffix(',').unwrap_or(&rest[..close]);
    rest[close + 1..].starts_with('}')
        && (args == "&mutNoopTracer" || args.ends_with(",&mutNoopTracer"))
}

/// `twin-drift`: for every `fn X_traced` the same file holds a `fn X`
/// whose whole body is the single delegating call
/// `[self.]X_traced(…, &mut NoopTracer)`; the k-th `fn X_traced` of a file
/// pairs with its k-th `fn X`.
///
/// The zero-cost-twin contract (`docs/OBS.md`) is that the untraced form
/// *is* the traced form under the no-op tracer. A sibling with a body of
/// its own can run something else than what the trace shows; a sibling
/// that only delegates cannot, and whether its parameters and return type
/// still fit the traced signature is the compiler's to say. An orphan is
/// reported at the `_traced` name, a non-delegating sibling at its own.
fn scan_traced_twins(
    path: &str,
    lines: &[ClassifiedLine],
    w: &Waivers,
    out: &mut Vec<Diagnostic>,
) {
    let (code, starts) = code_shadow(lines);
    let fns = fn_names(&code);
    for (k, &(traced, traced_at)) in fns.iter().enumerate() {
        let Some(base) = traced.strip_suffix("_traced").filter(|b| !b.is_empty()) else {
            continue;
        };
        let nth = fns[..k].iter().filter(|f| f.0 == traced).count();
        let (at, message) = match fns.iter().filter(|f| f.0 == base).nth(nth) {
            None => (
                traced_at,
                format!(
                    "`{traced}` has no untraced twin `fn {base}` in this file; \
                     the zero-cost-twin contract (docs/OBS.md) wants \
                     `fn {base}(…) {{ {traced}(…, &mut NoopTracer) }}` beside it"
                ),
            ),
            Some(&(_, at)) if !delegates_to(&code[at..], traced) => (
                at,
                format!(
                    "`{base}` is not the single delegating call \
                     `{traced}(…, &mut NoopTracer)`: an untraced twin with a \
                     body of its own can run something else than what the \
                     trace shows (docs/OBS.md); delegate, or waive with a reason"
                ),
            ),
            Some(_) => continue,
        };
        let line = starts.partition_point(|&s| s <= at);
        if !w.allows(line, "twin-drift") {
            out.push(Diagnostic {
                path: path.to_string(),
                line,
                col: at - starts[line - 1] + 1,
                rule: "twin-drift",
                message,
            });
        }
    }
}

/// Emit at most one diagnostic per (line, rule): the leftmost match.
fn scan_code_patterns(
    path: &str,
    lines: &[ClassifiedLine],
    w: &Waivers,
    rule: &'static str,
    patterns: &[&str],
    out: &mut Vec<Diagnostic>,
) {
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let hit = patterns
            .iter()
            .filter_map(|p| line.code.find(p).map(|col| (col, *p)))
            .min();
        if let Some((col, pattern)) = hit {
            if !w.allows(lineno, rule) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: lineno,
                    col: col + 1,
                    rule,
                    message: pattern_message(rule, pattern),
                });
            }
        }
    }
}

/// `doc-cite`: bare `\[NN\]`-style citation brackets in rustdoc text.
///
/// Markdown treats `[54]` as a link reference, so rustdoc either renders a
/// broken link or (under `-D warnings` with strict lints) refuses the
/// build; the paper's citation style must be escaped. Skips fenced code
/// blocks, inline backtick spans, escaped brackets, and genuine link syntax
/// (`[54](…)` / `[54]: …`).
fn scan_doc_citations(
    path: &str,
    lines: &[ClassifiedLine],
    w: &Waivers,
    out: &mut Vec<Diagnostic>,
) {
    let mut in_fence = false;
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let text = strip_doc_marker(&line.doc);
        if text.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let masked = mask_backtick_spans(&line.doc);
        if let Some((col, cite)) = find_bare_citation(masked.as_bytes()) {
            if !w.allows(lineno, "doc-cite") {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: lineno,
                    col: col + 1,
                    rule: "doc-cite",
                    message: format!(
                        "bare citation `{cite}` is parsed as a markdown link \
                         reference; escape it as `\\[…\\]`"
                    ),
                });
            }
        }
    }
}

/// Drop the `///` / `//!` / `*` gutter from a doc shadow line.
fn strip_doc_marker(doc: &str) -> &str {
    doc.trim_start()
        .trim_start_matches(['/', '!', '*'])
        .trim_start_matches(' ')
}

/// Blank out `` `…` `` spans so code-ish text can't look like a citation.
fn mask_backtick_spans(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut inside = false;
    for c in s.chars() {
        if c == '`' {
            inside = !inside;
            out.push(' ');
        } else {
            out.push(if inside { ' ' } else { c });
        }
    }
    out
}

/// Find the first bare `[NN]` / `[NN, MM]` citation in a masked doc line.
/// Returns `(byte_col0, matched_text)`.
fn find_bare_citation(s: &[u8]) -> Option<(usize, String)> {
    let mut k = 0;
    while k < s.len() {
        if s[k] == b'[' && (k == 0 || s[k - 1] != b'\\') {
            if let Some(end) = citation_end(s, k) {
                let followed_by = s.get(end + 1);
                if followed_by != Some(&b'(') && followed_by != Some(&b':') {
                    let text = String::from_utf8_lossy(&s[k..=end]).into_owned();
                    return Some((k, text));
                }
                k = end;
            }
        }
        k += 1;
    }
    None
}

/// If `s[open..]` is `[NN(, MM)*]`, return the index of the closing `]`.
fn citation_end(s: &[u8], open: usize) -> Option<usize> {
    let mut j = open + 1;
    if !s.get(j)?.is_ascii_digit() {
        return None;
    }
    while j < s.len() {
        match s[j] {
            b'0'..=b'9' => j += 1,
            b',' => {
                j += 1;
                while s.get(j) == Some(&b' ') {
                    j += 1;
                }
                if !s.get(j)?.is_ascii_digit() {
                    return None;
                }
            }
            b']' => return Some(j),
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_in_string_or_comment_is_silent() {
        let src = r#"
fn main() {
    let s = "HashMap here is data, not code";
    // HashMap in a comment is prose, not code
    /* HashSet too */
}
"#;
        assert!(lint_rust_source("x.rs", src, &["det-order"]).is_empty());
    }

    #[test]
    fn pattern_in_code_fires_with_column() {
        let src = "use std::collections::HashMap;\n";
        let d = lint_rust_source("x.rs", src, &["det-order"]);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].line, d[0].col), (1, 23));
    }

    #[test]
    fn citation_edge_cases() {
        assert!(find_bare_citation(b"see [54] for details").is_some());
        assert!(find_bare_citation(b"see [54, 82] for details").is_some());
        assert!(find_bare_citation(br"see \[54\] for details").is_none());
        assert!(find_bare_citation(b"see [54](https://x) link").is_none());
        assert!(find_bare_citation(b"[54]: https://x").is_none());
        assert!(find_bare_citation(b"index [i] and [54a]").is_none());
    }
}
