//! The ten lint rules and their source-level scanners.
//!
//! Each rule protects a proof technique (see `docs/LINTS.md`):
//! `det-order` keeps transcript-replay (bivalence/scenario) arguments
//! honest, `det-time` and `det-ambient` keep the adversary model airtight,
//! `det-float` keeps NaN out of the `Ord` discipline the engines rely on,
//! `hermetic-deps` keeps the offline build machine-checked, `doc-cite`
//! keeps rustdoc's strict-docs gate from regressing, and `map-coverage`
//! keeps `docs/PAPER_MAP.md` an exhaustive paper-to-module index. Two
//! item-aware soundness rules ride on [`crate::parse`]: `encode-coverage`
//! audits that every field/variant of a type with a hand-written `Encode`
//! impl (or `impl_encode_enum!` listing) is actually consumed — a skipped
//! field merges distinct states in the fingerprint visited set — and
//! `twin-drift` machine-enforces the zero-cost-twin contract from
//! `docs/OBS.md`: every `foo_traced` needs a sibling `foo` whose
//! signature matches modulo the tracer parameter. The file-set-level
//! `waiver-doc-sync` rule (in [`crate::walk`]) keeps the waiver
//! inventory in `docs/LINTS.md` machine-checked against the tree.

use crate::lex::{classify, waivers, ClassifiedLine, Waivers};
use crate::parse::{parse_file, FieldsShape, FileItems, FnSig, TypeDef, TypeKind};
use std::collections::BTreeMap;

/// The names of all ten rules, in reporting order.
pub const RULE_NAMES: [&str; 10] = [
    "det-order",
    "det-time",
    "det-ambient",
    "det-float",
    "hermetic-deps",
    "doc-cite",
    "map-coverage",
    "encode-coverage",
    "twin-drift",
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

/// `(rule, forbidden code patterns)` for the three determinism rules.
const DET_PATTERNS: [(&str, &[&str]); 3] = [
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
];

fn det_message(rule: &str, pattern: &str) -> String {
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
        _ => format!(
            "ambient authority `{pattern}` escapes the modeled schedule; all \
             nondeterminism must flow through the seeded `impossible-det` \
             adversary"
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

    for (rule, patterns) in DET_PATTERNS {
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
    if rules.contains(&"encode-coverage") || rules.contains(&"twin-drift") {
        let items = parse_file(&lines);
        if rules.contains(&"encode-coverage") {
            check_encode_coverage(path, &items, &w, &mut out);
        }
        if rules.contains(&"twin-drift") {
            check_twin_drift(path, &items, &w, &mut out);
        }
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

/// `encode-coverage`: every field/variant of a locally-defined type with
/// a hand-written `impl Encode` (or `impl_encode_enum!` listing) must be
/// consumed by the impl.
///
/// A skipped field compiles silently but makes two states that differ
/// only there fingerprint identically — the visited set then merges
/// them, and every downstream witness, valence verdict, and lasso is
/// built on an unsound state graph. A *missing enum variant* in
/// `impl_encode_enum!` is worse still: the generated chained `if let`
/// simply writes nothing for it, not even a tag.
fn check_encode_coverage(
    path: &str,
    items: &FileItems,
    w: &Waivers,
    out: &mut Vec<Diagnostic>,
) {
    // Local type definitions by name; names defined more than once in
    // the file (e.g. test-local shadows) are ambiguous — skip those.
    let mut defs: BTreeMap<&str, &TypeDef> = BTreeMap::new();
    let mut dup: Vec<&str> = Vec::new();
    for td in &items.types {
        if defs.insert(td.name.as_str(), td).is_some() {
            dup.push(td.name.as_str());
        }
    }
    for name in dup {
        defs.remove(name);
    }

    for im in &items.encode_impls {
        let Some(def) = defs.get(im.type_name.as_str()) else {
            continue; // type defined elsewhere (or ambiguous): out of scope
        };
        let mut missing: Vec<String> = Vec::new();
        match &def.kind {
            TypeKind::Struct(FieldsShape::Named(fields)) => {
                for f in fields {
                    if !im.body_idents.contains(f) {
                        missing.push(format!("field `{f}`"));
                    }
                }
            }
            TypeKind::Struct(FieldsShape::Tuple(n)) => {
                for idx in 0..*n {
                    if !im.self_fields.contains(&idx.to_string()) {
                        missing.push(format!("field `.{idx}`"));
                    }
                }
            }
            TypeKind::Struct(FieldsShape::Unit) => {}
            TypeKind::Enum(variants) => {
                for v in variants {
                    if !im.body_idents.contains(&v.name) {
                        missing.push(format!("variant `{}`", v.name));
                        continue;
                    }
                    if let FieldsShape::Named(fields) = &v.shape {
                        for f in fields {
                            if !im.body_idents.contains(f) {
                                missing.push(format!("field `{}::{f}`", v.name));
                            }
                        }
                    }
                }
            }
        }
        if !missing.is_empty() && !w.allows(im.line, "encode-coverage") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: im.line,
                col: im.col,
                rule: "encode-coverage",
                message: format!(
                    "`impl Encode for {}` does not consume {}: states \
                     differing only there fingerprint identically, silently \
                     merging distinct states in the visited set (collision \
                     soundness hole); encode it or waive with a reason",
                    im.type_name,
                    missing.join(", "),
                ),
            });
        }
    }

    for mac in &items.encode_macros {
        let Some(def) = defs.get(mac.type_name.as_str()) else {
            continue;
        };
        let TypeKind::Enum(variants) = &def.kind else {
            continue;
        };
        let listed: Vec<&str> = mac.entries.iter().map(|e| e.variant.as_str()).collect();
        let missing: Vec<String> = variants
            .iter()
            .filter(|v| !listed.contains(&v.name.as_str()))
            .map(|v| format!("`{}`", v.name))
            .collect();
        if !missing.is_empty() && !w.allows(mac.line, "encode-coverage") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: mac.line,
                col: mac.col,
                rule: "encode-coverage",
                message: format!(
                    "`impl_encode_enum!({} …)` is missing variant{} {}: the \
                     generated encoder writes *nothing* (not even a tag) for \
                     an unlisted variant, so such values collide with every \
                     other state (fingerprint soundness hole); list every \
                     variant with a distinct tag",
                    mac.type_name,
                    if missing.len() == 1 { "" } else { "s" },
                    missing.join(", "),
                ),
            });
        }
        // Duplicate tags un-prefix the variant encodings just as badly.
        let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
        for e in &mac.entries {
            if let Some(prev) = seen.insert(e.tag.as_str(), e.variant.as_str()) {
                if !w.allows(mac.line, "encode-coverage") {
                    out.push(Diagnostic {
                        path: path.to_string(),
                        line: mac.line,
                        col: mac.col,
                        rule: "encode-coverage",
                        message: format!(
                            "`impl_encode_enum!({} …)` assigns tag `{}` to both \
                             `{prev}` and `{}`: the tag is the only thing \
                             separating variant encodings, so duplicates merge \
                             the two variants' fingerprints",
                            mac.type_name, e.tag, e.variant,
                        ),
                    });
                }
            }
        }
    }
}

/// `twin-drift`: every `foo_traced` must have an untraced sibling `foo`
/// (same impl block / same file scope) whose signature matches modulo
/// the tracer parameter.
///
/// The zero-cost-twin contract (`docs/OBS.md`) is what lets callers mix
/// traced and untraced paths and expect identical behaviour; a drifted
/// twin means the untraced wrapper silently runs something else than
/// what the trace shows.
fn check_twin_drift(path: &str, items: &FileItems, w: &Waivers, out: &mut Vec<Diagnostic>) {
    let mut deny = |f: &FnSig, msg: String| {
        if !w.allows(f.line, "twin-drift") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: f.line,
                col: f.col,
                rule: "twin-drift",
                message: msg,
            });
        }
    };
    for f in &items.fns {
        let Some(base) = f.name.strip_suffix("_traced").filter(|b| !b.is_empty()) else {
            continue;
        };
        let Some(twin) = items
            .fns
            .iter()
            .find(|t| t.name == base && t.owner == f.owner)
        else {
            deny(
                f,
                format!(
                    "`{}` has no untraced twin `{base}` in the same scope; the \
                     zero-cost-twin contract (docs/OBS.md) requires an untraced \
                     sibling whose signature matches modulo the tracer parameter",
                    f.name,
                ),
            );
            continue;
        };
        let reduced: Vec<&(String, String)> = f
            .params
            .iter()
            .filter(|(_, ty)| !ty.contains("Tracer"))
            .collect();
        if reduced.len() == f.params.len() {
            deny(
                f,
                format!(
                    "`{}` has no tracer parameter: a `_traced` twin must take \
                     a `&mut dyn Tracer` (or equivalent) that `{base}` omits",
                    f.name,
                ),
            );
            continue;
        }
        let drift = if f.receiver != twin.receiver {
            Some(format!(
                "receiver is `{}` but `{base}` takes `{}`",
                f.receiver, twin.receiver,
            ))
        } else if f.generics != twin.generics {
            Some(format!(
                "generics are `{}` but `{base}` has `{}`",
                f.generics, twin.generics,
            ))
        } else if f.ret != twin.ret {
            Some(format!(
                "returns `{}` but `{base}` returns `{}`",
                f.ret, twin.ret,
            ))
        } else if f.where_clause != twin.where_clause {
            Some(format!(
                "`where` clause `{}` differs from `{base}`'s `{}`",
                f.where_clause, twin.where_clause,
            ))
        } else if reduced.len() != twin.params.len() {
            Some(format!(
                "takes {} non-tracer parameter{} but `{base}` takes {}",
                reduced.len(),
                if reduced.len() == 1 { "" } else { "s" },
                twin.params.len(),
            ))
        } else {
            reduced
                .iter()
                .zip(&twin.params)
                .enumerate()
                .find(|(_, (a, b))| *a != b)
                .map(|(k, ((an, at), (bn, bt)))| {
                    format!(
                        "parameter {} is `{an}: {at}` but `{base}` has `{bn}: {bt}`",
                        k + 1,
                    )
                })
        };
        if let Some(what) = drift {
            deny(
                f,
                format!(
                    "`{}` drifts from its untraced twin `{base}`: {what}; the \
                     twins must stay signature-identical modulo the tracer \
                     parameter (docs/OBS.md)",
                    f.name,
                ),
            );
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
                    message: det_message(rule, pattern),
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
