//! Workspace walking, per-path rule scoping, and the file-set-level
//! `map-coverage` and `dead-pub` rules.
//!
//! The walker visits `crates/**`, `src/**` and `tests/**` in sorted order
//! (the linter itself must be deterministic), skipping `target/` output and
//! the linter's own `fixtures/` (which contain deliberate violations).
//! `examples/**`, `ledger/src/**` and `ledger/tests/**` are read too, but
//! only as `dead-pub` uses: no rule reports on them.
//!
//! # Scope table
//!
//! Rules apply per-path; exceptions are *structural* (documented here and
//! in `docs/LINTS.md`), everything else needs an inline waiver:
//!
//! * `det-order` — everywhere except `crates/det` (hosts the seeded PRNG
//!   and its distribution tests) and `crates/lint` (build-time tooling).
//! * `det-time` — everywhere except `crates/lint`: no workspace crate
//!   reads a wall clock (timing is the standalone `ledger/` package's job).
//! * `det-ambient` — everywhere except `crates/det/src/prop.rs` (the
//!   documented `DET_SEED` replay path) and `crates/lint` (the tool reads
//!   the file system and process arguments by design).
//! * `det-float` — `crates/**` only (binaries and integration tests under
//!   `src/` / `tests/` are drivers, not modeled state), minus the tooling
//!   exemptions above and minus the modules whose *subject matter* is a
//!   continuous quantity: `crates/clocksync/**` (drifting real-time
//!   clocks), `crates/msgpass/src/stretch.rs` (real-time shifting
//!   diagrams), `crates/registers/src/spec.rs` +
//!   `crates/registers/src/constructions.rs` (real-time atomicity specs),
//!   `crates/consensus/src/approx.rs` (approximate agreement over reals).
//! * `encode-coverage` — every Rust file except
//!   `crates/explore/src/fingerprint.rs`, the encoding's definition site:
//!   the primitive/collection impls and the two macros whose expansions
//!   are the only other `impl … Encode for` in the tree.
//! * `twin-drift` — every Rust file.
//! * `doc-cite` — every Rust file.
//! * `hermetic-deps` — every `Cargo.toml`.
//! * `map-coverage` — every `crates/*/src/**` module file except crate
//!   roots (`lib.rs`, `mod.rs`, `main.rs`).
//! * `dead-pub` — declarations in every `crates/*/src/**` file except
//!   `crates/lint/**`, minus `#[cfg(test)]` items; uses in every file read.
//! * `waiver-doc-sync` — the whole tree against `docs/LINTS.md`.

use crate::lex::{classify, is_ident_byte, waiver_records, waivers, ClassifiedLine};
use crate::manifest::{lint_manifest, manifest_waiver_records};
use crate::rules::{code_shadow, ident_at, lint_rust_source, skip_ws, word_positions, Diagnostic};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One row of the canonical waiver inventory: `(path, rule, count)`.
pub type WaiverRow = (String, String, usize);

/// Everything one `lint_workspace` pass saw and found.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// All findings, sorted by `(path, line, col)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of Rust source files scanned.
    pub rust_files: usize,
    /// Number of `Cargo.toml` manifests scanned.
    pub manifests: usize,
    /// The actual `LINT-ALLOW` inventory, sorted by `(path, rule)` —
    /// what `--list-waivers` prints and `waiver-doc-sync` checks
    /// `docs/LINTS.md` against.
    pub waivers: Vec<WaiverRow>,
}

/// The source-level rules that apply to the workspace-relative path `rel`
/// (forward-slash separated). `map-coverage` is scoped separately by
/// [`in_map_scope`] because it needs the whole file set.
pub fn rules_for(rel: &str) -> Vec<&'static str> {
    let mut rules = Vec::new();
    let tooling = rel.starts_with("crates/lint/");
    let det_crate = rel.starts_with("crates/det/");

    if !tooling && !det_crate {
        rules.push("det-order");
    }
    if !tooling {
        rules.push("det-time");
    }
    if !tooling && rel != "crates/det/src/prop.rs" {
        rules.push("det-ambient");
    }
    let float_exempt = !rel.starts_with("crates/")
        || tooling
        || det_crate
        || rel.starts_with("crates/clocksync/")
        || rel == "crates/msgpass/src/stretch.rs"
        || rel == "crates/registers/src/spec.rs"
        || rel == "crates/registers/src/constructions.rs"
        || rel == "crates/consensus/src/approx.rs";
    if !float_exempt {
        rules.push("det-float");
    }
    rules.push("doc-cite");
    if rel != "crates/explore/src/fingerprint.rs" {
        rules.push("encode-coverage");
    }
    rules.push("twin-drift");
    rules.push("hash-eq");
    rules
}

/// Does `rel` need a `docs/PAPER_MAP.md` entry? Crate roots are exempt —
/// the map indexes *modules*, and a crate root is just the module list.
pub fn in_map_scope(rel: &str) -> bool {
    if !rel.starts_with("crates/") || !rel.ends_with(".rs") || !rel.contains("/src/") {
        return false;
    }
    let stem = rel
        .rsplit('/')
        .next()
        .unwrap_or_default()
        .trim_end_matches(".rs");
    !matches!(stem, "lib" | "mod" | "main")
}

/// `crates/core/src/valence.rs` → `core::valence` — the exact token the
/// map must contain for the file to count as covered.
pub fn module_token(rel: &str) -> Option<String> {
    let rest = rel.strip_prefix("crates/")?;
    let (krate, tail) = rest.split_once("/src/")?;
    let module = tail.trim_end_matches(".rs").replace('/', "::");
    Some(format!("{krate}::{module}"))
}

/// Does `dead-pub` audit the `pub` items declared in `rel`? Library
/// sources only (`crates/*/src/**`), and not the linter's own.
fn in_dead_pub_scope(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .is_some_and(|(krate, rest)| krate != "lint" && rest.starts_with("src/"))
}

/// `(start, end)` byte spans of every `#[cfg(test)]` item in `code`: the
/// attribute through the `}` that closes the item's body, or through its
/// `;` when it has none (`(…)`, `[…]` and `{…}` nesting tracked).
fn cfg_test_spans(code: &str) -> Vec<(usize, usize)> {
    let b = code.as_bytes();
    code.match_indices("#[cfg(test)]")
        .map(|(k, attr)| {
            let mut depth = 0i32;
            let end = (k + attr.len()..b.len()).find(|&i| {
                depth += i32::from(matches!(b[i], b'(' | b'[' | b'{'))
                    - i32::from(matches!(b[i], b')' | b']' | b'}'));
                depth == 0 && matches!(b[i], b';' | b'}')
            });
            (k, end.map_or(b.len(), |i| i + 1))
        })
        .collect()
}

/// `code` with every `pub use …;` re-export blanked: naming an item in
/// a re-export is not using it.
fn without_reexports(code: &str) -> String {
    let mut out = code.as_bytes().to_vec();
    for kw in word_positions(code, "pub") {
        let mut at = kw + 3;
        if code[at..].starts_with('(') {
            at += code[at..].find(')').map_or(0, |e| e + 1);
        }
        at = skip_ws(code, at);
        if ident_at(code, at) == "use" {
            let end = code[at..].find(';').map_or(code.len(), |e| at + e + 1);
            for c in out[kw..end].iter_mut().filter(|c| **c != b'\n') {
                *c = b' ';
            }
        }
    }
    String::from_utf8(out).expect("blanking ASCII spans keeps UTF-8")
}

/// Every identifier in `code`.
fn idents(code: &str) -> BTreeSet<&str> {
    code.split(|c: char| !c.is_ascii() || !is_ident_byte(c as u8)).collect()
}

/// `(name offset, kind)` of every `pub fn` (`const` / `unsafe` / `async`
/// qualifiers skipped), `pub const`, `pub static` and `pub` named field
/// in `code`. A restricted `pub(…)` is not `pub`, and a macro's
/// `pub fn $name` names nothing.
fn pub_items(code: &str) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    'items: for kw in word_positions(code, "pub") {
        if code[kw + 3..].starts_with('(') {
            continue;
        }
        let mut at = skip_ws(code, kw + 3);
        let item = loop {
            let word = ident_at(code, at);
            let next = skip_ws(code, at + word.len());
            match (word, ident_at(code, next)) {
                ("fn", _) => break (next, "fn"),
                ("static", _) => break (next, "static"),
                ("const" | "unsafe" | "async", "fn" | "unsafe" | "async") => at = next,
                ("const", _) => break (next, "const"),
                (w, _)
                    if !w.is_empty()
                        && code[next..].starts_with(':')
                        && !code[next..].starts_with("::") =>
                {
                    break (at, "field")
                }
                _ => continue 'items,
            }
        };
        if !ident_at(code, item.0).is_empty() {
            out.push(item);
        }
    }
    out
}

/// `dead-pub`: a `pub fn`, `pub const`, `pub static` or `pub` named
/// field declared in a library source ([`in_dead_pub_scope`]) whose name
/// no *other* file of `files` has in its code shadow. A `pub use`
/// re-export is not a use, and comments, doc comments and string
/// literals are not code. `#[cfg(test)]` items are not audited, though
/// their code counts as uses of everything else. Lexical like every rule
/// here: an item shares its fate with every same-named identifier, so the
/// rule under-reports and never needs a type to decide.
fn check_dead_pub(files: &[(String, Vec<ClassifiedLine>)]) -> Vec<Diagnostic> {
    let shadows: Vec<(String, Vec<usize>)> = files.iter().map(|(_, l)| code_shadow(l)).collect();
    let used: Vec<String> = shadows.iter().map(|(code, _)| without_reexports(code)).collect();
    let named: Vec<BTreeSet<&str>> = used.iter().map(|code| idents(code)).collect();
    let mut files_naming: BTreeMap<&str, usize> = BTreeMap::new();
    for set in &named {
        for &id in set {
            *files_naming.entry(id).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    for (i, (rel, lines)) in files.iter().enumerate() {
        if !in_dead_pub_scope(rel) {
            continue;
        }
        let (code, starts) = &shadows[i];
        let tests = cfg_test_spans(code);
        let w = waivers(lines);
        for (at, kind) in pub_items(code) {
            if tests.iter().any(|&(from, to)| (from..to).contains(&at)) {
                continue;
            }
            let name = ident_at(code, at);
            let elsewhere = files_naming.get(name).copied().unwrap_or(0)
                - usize::from(named[i].contains(name));
            let line = starts.partition_point(|&s| s <= at);
            if elsewhere > 0 || w.allows(line, "dead-pub") {
                continue;
            }
            out.push(Diagnostic {
                path: rel.clone(),
                line,
                col: at - starts[line - 1] + 1,
                rule: "dead-pub",
                message: format!(
                    "{kind} `{name}` is `pub` but named in no other file of the \
                     workspace, its tests and examples or `ledger/`: delete \
                     it, narrow it to private or `pub(crate)` so rustc's \
                     `dead_code` decides, or waive with the paper claim and \
                     the test that reproduces it"
                ),
            });
        }
    }
    out
}

fn should_skip_dir(name: &str) -> bool {
    name == "target" || name == "fixtures" || name.starts_with('.')
}

fn collect(dir: &Path, want: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !should_skip_dir(name) {
                collect(&path, want, out);
            }
        } else if want(&path) {
            out.push(path);
        }
    }
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Run every rule over the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> WorkspaceReport {
    let mut diagnostics = Vec::new();
    let mut inventory: BTreeMap<(String, String), usize> = BTreeMap::new();

    // Rust sources under the three scanned roots.
    let mut rust: Vec<PathBuf> = Vec::new();
    for sub in ["crates", "src", "tests"] {
        collect(
            &root.join(sub),
            &|p| p.extension().is_some_and(|e| e == "rs"),
            &mut rust,
        );
    }

    // Manifests: the workspace root plus every crate manifest.
    let mut manifests: Vec<PathBuf> = vec![root.join("Cargo.toml")];
    collect(
        &root.join("crates"),
        &|p| p.file_name().is_some_and(|n| n == "Cargo.toml"),
        &mut manifests,
    );

    let map_src = std::fs::read_to_string(root.join("docs/PAPER_MAP.md")).unwrap_or_default();

    // Every file read, as `(path, classified lines)`: what `dead-pub`
    // counts uses in.
    let mut read: Vec<(String, Vec<ClassifiedLine>)> = Vec::new();
    for path in &rust {
        let rel = rel_str(root, path);
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        diagnostics.extend(lint_rust_source(&rel, &src, &rules_for(&rel)));
        let lines = classify(&src);
        for rec in waiver_records(&lines) {
            for rule in &rec.rules {
                *inventory.entry((rel.clone(), rule.clone())).or_default() += 1;
            }
        }
        if in_map_scope(&rel) {
            let token = module_token(&rel).unwrap_or_default();
            if !map_src.contains(&token) {
                let w = waivers(&lines);
                if !w.allows_file("map-coverage") {
                    diagnostics.push(Diagnostic {
                        path: rel.clone(),
                        line: 1,
                        col: 1,
                        rule: "map-coverage",
                        message: format!(
                            "module `{token}` is not indexed in docs/PAPER_MAP.md; \
                             add a row tying it to the paper (or waive with a \
                             reason)"
                        ),
                    });
                }
            }
        }
        read.push((rel, lines));
    }

    let mut use_only: Vec<PathBuf> = Vec::new();
    for sub in ["examples", "ledger/src", "ledger/tests"] {
        collect(
            &root.join(sub),
            &|p| p.extension().is_some_and(|e| e == "rs"),
            &mut use_only,
        );
    }
    for path in &use_only {
        if let Ok(src) = std::fs::read_to_string(path) {
            read.push((rel_str(root, path), classify(&src)));
        }
    }
    diagnostics.extend(check_dead_pub(&read));

    for path in &manifests {
        let rel = rel_str(root, path);
        if let Ok(src) = std::fs::read_to_string(path) {
            diagnostics.extend(lint_manifest(&rel, &src));
            for rec in manifest_waiver_records(&src) {
                for rule in &rec.rules {
                    *inventory.entry((rel.clone(), rule.clone())).or_default() += 1;
                }
            }
        }
    }

    let waiver_rows: Vec<WaiverRow> = inventory
        .into_iter()
        .map(|((path, rule), count)| (path, rule, count))
        .collect();

    let lints_doc = std::fs::read_to_string(root.join("docs/LINTS.md")).unwrap_or_default();
    diagnostics.extend(check_waiver_doc_sync(
        &lints_doc,
        &waiver_rows,
        rust.len(),
        manifests.len(),
    ));

    diagnostics.sort();
    WorkspaceReport {
        diagnostics,
        rust_files: rust.len(),
        manifests: manifests.len(),
        waivers: waiver_rows,
    }
}

/// Render the canonical waiver inventory block (what `--list-waivers`
/// prints): the marker-fenced markdown table `docs/LINTS.md` must embed
/// verbatim, followed by the canonical clean-tree example output line.
pub fn render_waiver_inventory(
    rows: &[WaiverRow],
    rust_files: usize,
    manifests: usize,
) -> String {
    let mut s = String::new();
    s.push_str("<!-- waiver-inventory:begin -->\n");
    s.push_str("| File | Rule | Count |\n|---|---|---|\n");
    for (path, rule, count) in rows {
        s.push_str(&format!("| `{path}` | `{rule}` | {count} |\n"));
    }
    s.push_str("<!-- waiver-inventory:end -->\n");
    s.push_str(&format!(
        "\nimpossible-lint: {rust_files} source files + {manifests} manifests \
         checked, 0 violations\n"
    ));
    s
}

/// Parse one `| `path` | `rule` | N |` inventory row.
fn parse_inventory_row(line: &str) -> Option<WaiverRow> {
    let trimmed = line.trim();
    if !trimmed.starts_with('|') {
        return None;
    }
    let cells: Vec<&str> = trimmed
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect();
    if cells.len() != 3 {
        return None;
    }
    let count: usize = cells[2].parse().ok()?;
    Some((
        cells[0].trim_matches('`').to_string(),
        cells[1].trim_matches('`').to_string(),
        count,
    ))
}

/// Parse the scanned-file counts out of an
/// `impossible-lint: N source files + M manifests checked …` line.
fn parse_counts_line(line: &str) -> Option<(usize, usize)> {
    let rest = line.split("impossible-lint: ").nth(1)?;
    let (n, rest) = rest.split_once(" source files + ")?;
    let (m, _) = rest.split_once(" manifests checked")?;
    Some((n.trim().parse().ok()?, m.trim().parse().ok()?))
}

/// `waiver-doc-sync`: fail when `docs/LINTS.md` drifts from the tree.
///
/// The waiver inventory is the audit surface for every exception the
/// other rules granted; a stale inventory means a reviewer reading the
/// doc sees fewer (or different) exceptions than the code actually
/// carries. The doc embeds a marker-fenced table
/// (`<!-- waiver-inventory:begin/end -->`) plus an example output line
/// with the scanned-file counts; both must match reality and both are
/// regenerable verbatim via `--list-waivers`.
pub fn check_waiver_doc_sync(
    doc: &str,
    rows: &[WaiverRow],
    rust_files: usize,
    manifests: usize,
) -> Vec<Diagnostic> {
    let diag = |line: usize, message: String| Diagnostic {
        path: "docs/LINTS.md".to_string(),
        line,
        col: 1,
        rule: "waiver-doc-sync",
        message,
    };
    let mut out = Vec::new();

    let mut begin = None;
    let mut end = None;
    for (idx, l) in doc.lines().enumerate() {
        if l.contains("waiver-inventory:begin") && begin.is_none() {
            begin = Some(idx + 1);
        } else if l.contains("waiver-inventory:end") && end.is_none() {
            end = Some(idx + 1);
        }
    }
    match (begin, end) {
        (Some(b), Some(e)) if b < e => {
            let doc_rows: Vec<(usize, WaiverRow)> = doc
                .lines()
                .enumerate()
                .skip(b)
                .take(e - b - 1)
                .filter_map(|(idx, l)| parse_inventory_row(l).map(|r| (idx + 1, r)))
                .collect();
            for (lineno, (path, rule, count)) in &doc_rows {
                match rows.iter().find(|(p, r, _)| p == path && r == rule) {
                    None => out.push(diag(
                        *lineno,
                        format!(
                            "stale inventory row: the tree has no `{rule}` waiver \
                             in `{path}`; regenerate with `--list-waivers`"
                        ),
                    )),
                    Some((_, _, actual)) if actual != count => out.push(diag(
                        *lineno,
                        format!(
                            "inventory row for `{path}` / `{rule}` says {count} \
                             waiver{} but the tree has {actual}; regenerate with \
                             `--list-waivers`",
                            if *count == 1 { "" } else { "s" },
                        ),
                    )),
                    _ => {}
                }
            }
            for (path, rule, count) in rows {
                if !doc_rows.iter().any(|(_, (p, r, _))| p == path && r == rule) {
                    out.push(diag(
                        e,
                        format!(
                            "`{rule}` waiver{} in `{path}` (×{count}) missing \
                             from the inventory; regenerate with `--list-waivers`",
                            if *count == 1 { "" } else { "s" },
                        ),
                    ));
                }
            }
        }
        _ => out.push(diag(
            1,
            "docs/LINTS.md has no machine-checked waiver inventory (a \
             `<!-- waiver-inventory:begin -->` … `<!-- waiver-inventory:end -->` \
             fenced table); paste the `--list-waivers` output"
                .to_string(),
        )),
    }

    let mut saw_counts = false;
    for (idx, l) in doc.lines().enumerate() {
        if let Some((n, m)) = parse_counts_line(l) {
            saw_counts = true;
            if (n, m) != (rust_files, manifests) {
                out.push(diag(
                    idx + 1,
                    format!(
                        "example output line claims {n} source files + {m} \
                         manifests but the tree has {rust_files} + {manifests}; \
                         regenerate with `--list-waivers`"
                    ),
                ));
            }
        }
    }
    if !saw_counts {
        out.push(diag(
            1,
            "docs/LINTS.md has no `impossible-lint: N source files + M \
             manifests checked` example line; paste the one `--list-waivers` \
             prints"
                .to_string(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_table_structural_exceptions() {
        // Engine crates get all det rules.
        let r = rules_for("crates/core/src/valence.rs");
        assert!(r.contains(&"det-order") && r.contains(&"det-time") && r.contains(&"det-ambient"));
        // The PRNG crate may use hash containers internally…
        assert!(!rules_for("crates/det/src/rng.rs").contains(&"det-order"));
        // …and only its DET_SEED replay path may read the environment.
        assert!(!rules_for("crates/det/src/prop.rs").contains(&"det-ambient"));
        assert!(rules_for("crates/det/src/rng.rs").contains(&"det-ambient"));
        // doc-cite applies everywhere, even to the linter itself.
        assert!(rules_for("crates/lint/src/lib.rs").contains(&"doc-cite"));
        // `Encode` impls are hand-written in the module that defines the
        // encoding and nowhere else.
        assert!(!rules_for("crates/explore/src/fingerprint.rs").contains(&"encode-coverage"));
        assert!(rules_for("crates/explore/src/search.rs").contains(&"encode-coverage"));
        assert!(rules_for("tests/explore_equivalence.rs").contains(&"encode-coverage"));
    }

    #[test]
    fn det_time_holds_for_every_path_outside_the_linter() {
        // No wall clock anywhere in the modeled workspace: the only
        // structural exemption is the linter, whose own sources and
        // fixtures spell the patterns it looks for.
        for rel in [
            "crates/core/src/valence.rs",
            "crates/det/src/lib.rs",
            "crates/det/src/prop.rs",
            "crates/det/src/rng.rs",
            "crates/explore/src/search.rs",
            "crates/obs/src/tracer.rs",
            "src/bin/experiments.rs",
            "tests/determinism.rs",
        ] {
            assert!(rules_for(rel).contains(&"det-time"), "{rel}");
        }
        assert!(!rules_for("crates/lint/src/rules.rs").contains(&"det-time"));
    }

    #[test]
    fn map_scope_and_tokens() {
        assert!(in_map_scope("crates/core/src/valence.rs"));
        assert!(in_map_scope("crates/sharedmem/src/algorithms/bakery.rs"));
        assert!(!in_map_scope("crates/core/src/lib.rs"));
        assert!(!in_map_scope("tests/determinism.rs"));
        assert_eq!(
            module_token("crates/sharedmem/src/algorithms/bakery.rs").unwrap(),
            "sharedmem::algorithms::bakery"
        );
    }
}
