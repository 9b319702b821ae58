//! Fixture tests pinning `impossible-lint` behaviour byte-for-byte.
//!
//! Each rule gets three guarantees: it fires at the exact expected
//! line/column, a `LINT-ALLOW` waiver (or a scope exception) suppresses
//! it, and matches inside strings or comments never fire. The fixtures
//! live in `tests/fixtures/`, which the workspace walker deliberately
//! skips — they contain violations on purpose.

use impossible_lint::lex::{classify, waivers};
use impossible_lint::manifest::lint_manifest;
use impossible_lint::walk::{in_map_scope, module_token};
use impossible_lint::{lint_rust_source, lint_workspace, rules_for};
use std::path::Path;

fn positions(diags: &[impossible_lint::Diagnostic]) -> Vec<(usize, usize)> {
    diags.iter().map(|d| (d.line, d.col)).collect()
}

#[test]
fn det_order_fires_at_exact_positions() {
    let src = include_str!("fixtures/det_order.rs");
    let d = lint_rust_source("fixtures/det_order.rs", src, &["det-order"]);
    // Line 1: the import; line 8: HashSet. Line 5 (string), line 3
    // (comment) stay silent; line 7 is waived by the comment on line 6.
    assert_eq!(positions(&d), vec![(1, 23), (8, 17)]);
    assert!(d.iter().all(|d| d.rule == "det-order"));
}

#[test]
fn det_time_fires_and_same_line_waiver_suppresses() {
    let src = include_str!("fixtures/det_time.rs");
    let d = lint_rust_source("fixtures/det_time.rs", src, &["det-time"]);
    // Only the Instant::now on line 2; the SystemTime on line 5 carries a
    // trailing same-line waiver, and lines 3–4 are comment/string text.
    assert_eq!(positions(&d), vec![(2, 24)]);
    // `crates/det` hosts the PRNG, not a timer: under its own scope row
    // the same clock read is still reported.
    let path = "crates/det/src/rng.rs";
    let d = lint_rust_source(path, src, &rules_for(path));
    assert_eq!(positions(&d), vec![(2, 24)]);
    assert_eq!(d[0].rule, "det-time");
}

#[test]
fn det_ambient_fires_leftmost_and_waiver_covers_next_line() {
    let src = include_str!("fixtures/det_ambient.rs");
    let d = lint_rust_source("fixtures/det_ambient.rs", src, &["det-ambient"]);
    // Line 2 reports the leftmost pattern (`std::env`, not `env::args`);
    // lines 3–4 catch both thread entry points (`spawn` and scoped);
    // line 6 is covered by the comment-only waiver on line 5.
    assert_eq!(positions(&d), vec![(2, 29), (3, 10), (4, 10)]);
}

#[test]
fn pool_waiver_is_audited_and_load_bearing() {
    // The worker pool is the one place allowed to touch OS threads; its
    // `thread::scope` rides on exactly one reasoned waiver. Strip the
    // waiver and the rule must re-arm — i.e. the waiver is load-bearing,
    // not dead annotation.
    let src = include_str!("../../explore/src/pool.rs");
    let d = lint_rust_source("crates/explore/src/pool.rs", src, &["det-ambient"]);
    assert!(d.is_empty(), "pool.rs waiver stopped covering: {d:?}");
    assert_eq!(src.matches("LINT-ALLOW: det-ambient").count(), 1);
    let stripped: String = src
        .lines()
        .filter(|l| !l.contains("LINT-ALLOW"))
        .map(|l| format!("{l}\n"))
        .collect();
    let d = lint_rust_source("crates/explore/src/pool.rs", &stripped, &["det-ambient"]);
    assert!(
        d.iter().any(|d| d.message.contains("thread::scope")),
        "det-ambient no longer catches an un-waivered thread::scope"
    );
}

#[test]
fn scope_exception_suppresses_without_waivers() {
    // The same violating fixture, linted under the rule set of a path
    // that is structurally exempt from det-order (the PRNG crate), is
    // clean — scope exceptions need no inline waivers.
    let src = include_str!("fixtures/det_order.rs");
    let rules = rules_for("crates/det/src/rng.rs");
    assert!(!rules.contains(&"det-order"));
    let d = lint_rust_source("x.rs", src, &rules);
    assert!(d.iter().all(|d| d.rule != "det-order"));
    assert!(d.is_empty());
}

#[test]
fn doc_cite_fires_on_bare_citations_only() {
    let src = include_str!("fixtures/doc_cite.rs");
    let d = lint_rust_source("fixtures/doc_cite.rs", src, &["doc-cite"]);
    // Line 1: bare single citation; line 10: bare multi-citation. The
    // escaped and linked forms (line 3), the fenced block (line 6) and
    // the backtick span (line 8) stay silent.
    assert_eq!(positions(&d), vec![(1, 24), (10, 11)]);
    assert!(d[0].message.contains("[55]"));
    assert!(d[1].message.contains("[54, 82]"));
}

#[test]
fn hermetic_deps_fires_per_entry_and_honors_toml_waivers() {
    let src = include_str!("fixtures/hermetic_bad.toml");
    let d = lint_manifest("fixtures/hermetic_bad.toml", src);
    // serde (registry), rand (registry table), foo (subtable without a
    // path key); tokio on line 8 is waived by the `#` comment on line 7.
    assert_eq!(positions(&d), vec![(5, 1), (6, 1), (10, 1)]);
    assert!(d.iter().all(|d| d.rule == "hermetic-deps"));
    let names: Vec<_> = d
        .iter()
        .map(|d| d.message.split('`').nth(1).unwrap())
        .collect();
    assert_eq!(names, vec!["serde", "rand", "foo"]);
}

#[test]
fn hermetic_deps_accepts_path_and_workspace_deps() {
    let src = include_str!("fixtures/hermetic_good.toml");
    assert!(lint_manifest("fixtures/hermetic_good.toml", src).is_empty());
}

#[test]
fn map_coverage_scope_tokens_and_file_wide_waiver() {
    assert!(in_map_scope("crates/consensus/src/flp.rs"));
    assert!(!in_map_scope("crates/consensus/src/lib.rs"));
    assert!(!in_map_scope("src/bin/experiments.rs"));
    assert_eq!(
        module_token("crates/consensus/src/flp.rs").unwrap(),
        "consensus::flp"
    );
    // A file-wide waiver is what exempts an unmapped module.
    let src = "// LINT-ALLOW: map-coverage -- fixture: internal helper module\n";
    let w = waivers(&classify(src));
    assert!(w.allows_file("map-coverage"));
    let no_reason = "// LINT-ALLOW: map-coverage --\n";
    assert!(!waivers(&classify(no_reason)).allows_file("map-coverage"));
}

#[test]
fn det_float_fires_on_type_mentions_and_suffixed_literals() {
    let src = include_str!("fixtures/det_float.rs");
    let d = lint_rust_source("fixtures/det_float.rs", src, &["det-float"]);
    // Line 1: the `f64` parameter type; line 6: the `0.5f64` suffix.
    // Comment (2) and string (3) text never fire, line 5 is waived by
    // line 4, and `buf64` / `f64ish` (line 7) are not `f64` tokens.
    assert_eq!(positions(&d), vec![(1, 19), (6, 16)]);
    assert!(d.iter().all(|d| d.rule == "det-float"));
}

#[test]
fn det_float_scope_is_engine_crates_minus_continuous_subjects() {
    assert!(rules_for("crates/election/src/hs.rs").contains(&"det-float"));
    assert!(rules_for("crates/consensus/src/flp.rs").contains(&"det-float"));
    // Modules whose subject matter is a continuous quantity are
    // structurally exempt…
    assert!(!rules_for("crates/clocksync/src/lundelius.rs").contains(&"det-float"));
    assert!(!rules_for("crates/consensus/src/approx.rs").contains(&"det-float"));
    assert!(!rules_for("crates/msgpass/src/stretch.rs").contains(&"det-float"));
    assert!(!rules_for("crates/registers/src/spec.rs").contains(&"det-float"));
    // …as are tooling and the driver layers outside crates/.
    assert!(!rules_for("crates/lint/src/rules.rs").contains(&"det-float"));
    assert!(!rules_for("src/bin/experiments.rs").contains(&"det-float"));
    assert!(!rules_for("tests/property_based.rs").contains(&"det-float"));
}

#[test]
fn encode_coverage_denies_hand_written_impls_only() {
    let src = include_str!("fixtures/encode_coverage.rs");
    let d = lint_rust_source("fixtures/encode_coverage.rs", src, &["encode-coverage"]);
    // Line 5: `Pair`'s impl names `b` in a `debug_assert!` and drops it —
    // what an identifier-occurrence audit let through. Line 11: an impl
    // for a type defined in another file. Neither is examined: a
    // hand-written impl is denied wherever it stands. The waived impl
    // (line 15), the two macro listings (18, 19), the comment (24) and
    // the string (25) stay silent.
    assert_eq!(positions(&d), vec![(5, 6), (11, 37)]);
    assert!(d.iter().all(|d| d.rule == "encode-coverage"));
    assert!(d[0].message.contains("impl_encode_struct!"));
    // The encoding's definition site is the one structural exemption.
    let path = "crates/explore/src/fingerprint.rs";
    assert!(lint_rust_source(path, src, &rules_for(path))
        .iter()
        .all(|d| d.rule != "encode-coverage"));
}

#[test]
fn hash_eq_denies_a_derive_beside_a_hand_written_twin() {
    let src = include_str!("fixtures/hash_eq.rs");
    let d = lint_rust_source("fixtures/hash_eq.rs", src, &["hash-eq"]);
    // Line 5: `PartialEq` by hand for a type deriving `Hash`. Line 16:
    // `Hash` by hand, by path, for a type deriving `PartialEq` by path
    // under a second attribute and `pub(crate)`, the header carrying a
    // `for<'a>` bound. Silent: both derived (1), both by hand (20, 25),
    // an equality with another type (30), the waived impl (38), the
    // comment, the string and the `for` loop in `prose`.
    assert_eq!(positions(&d), vec![(5, 6), (16, 20)]);
    assert!(d.iter().all(|d| d.rule == "hash-eq"));
    assert!(d[0].message.contains("`DerivesHash` derives `Hash` but writes `PartialEq` by hand"));
    assert!(d[1].message.contains("`DerivesEq` derives `PartialEq` but writes `Hash` by hand"));
}

#[test]
fn row_writes_both_and_a_derive_beside_them_fires() {
    // `core::row::Row` hands both `PartialEq` and `Hash` to its slice and
    // passes as written; deriving `PartialEq` beside its hand-written
    // `Hash` re-arms the rule at the `Hash` impl (the rule is lexical, so
    // the mutated text need not build).
    let path = "crates/core/src/row.rs";
    let src = include_str!("../../core/src/row.rs");
    assert!(rules_for(path).contains(&"hash-eq"));
    assert!(lint_rust_source(path, src, &["hash-eq"]).is_empty());
    let derived = src.replacen("#[derive(Clone, Copy)]", "#[derive(Clone, Copy, PartialEq)]", 1);
    let d = lint_rust_source(path, &derived, &["hash-eq"]);
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("`Row` derives `PartialEq` but writes `Hash` by hand"));
}

#[test]
fn twin_drift_wants_a_delegating_sibling_for_every_traced_fn() {
    let src = include_str!("fixtures/twin_drift.rs");
    let d = lint_rust_source("fixtures/twin_drift.rs", src, &["twin-drift"]);
    // Both `run` / `run_traced` pairs delegate (the second `run` pairs
    // with the second `run_traced`; its call is spread over lines with a
    // trailing comma) and stay silent, and the waived orphan on line 24
    // is covered by the comment above it. The orphan is reported at the
    // `_traced` name; a sibling that does not delegate — its own body
    // (10), work after the call (16), two calls (38), a bodiless
    // declaration that must not borrow the next fn's body (45) — at its own.
    // `fn $name_traced` in a macro and the `fn(u32)` pointer type (51) name
    // no fn and stay silent.
    assert_eq!(positions(&d), vec![(7, 8), (10, 8), (16, 8), (38, 8), (45, 8)]);
    assert!(d.iter().all(|d| d.rule == "twin-drift"));
    assert!(d[0].message.contains("no untraced twin `fn orphan`"));
    for (k, base) in [(1, "own_body"), (2, "more_work"), (3, "twice"), (4, "step")] {
        let want = format!("`{base}` is not the single delegating call `{base}_traced(");
        assert!(d[k].message.contains(&want), "{}", d[k].message);
    }
}

#[test]
fn live_twins_are_load_bearing_for_twin_drift() {
    // The rule is not vacuous on the tree: a live twin passes as written,
    // and giving its untraced form a body of its own — same signature, so
    // it would still build — re-arms it.
    let path = "crates/explore/src/search.rs";
    let src = include_str!("../../explore/src/search.rs");
    assert!(lint_rust_source(path, src, &["twin-drift"]).is_empty());
    let drifted = src.replacen(
        "self.explore_traced(&mut NoopTracer)",
        "self.explore_traced(&mut NoopTracer); unreachable!()",
        1,
    );
    let d = lint_rust_source(path, &drifted, &["twin-drift"]);
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("`explore` is not the single delegating call"));
}

#[test]
fn only_the_three_ledger_twins_remain() {
    // Every engine operation has one entry point; the three `_traced`
    // names left are the ones whose call shapes `ledger/` pins (ROADMAP
    // item 1(b) retires them). A new twin fails here. The walk is the
    // lint walker's (same roots, `target` / `fixtures` / hidden dirs
    // skipped), the scan reads the lexer's code shadow, so names in
    // strings, comments and docs do not count.
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && name != "fixtures" && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for sub in ["crates", "src", "tests"] {
        walk(&root.join(sub), &mut files);
    }
    assert_eq!(files.len(), lint_workspace(&root).rust_files, "the lint walker's file set");
    let mut twins = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("readable source");
        for line in classify(&src) {
            let words: Vec<&str> = line.code.split_whitespace().collect();
            for pair in words.windows(2).filter(|w| w[0] == "fn") {
                let name = pair[1].split(|c: char| !c.is_alphanumeric() && c != '_').next();
                if let Some(name) = name.filter(|n| n.ends_with("_traced")) {
                    twins.push(name.to_string());
                }
            }
        }
    }
    twins.sort();
    assert_eq!(
        twins,
        ["exhibit_flp_lasso_traced", "explore_traced", "run_manifest_traced"],
        "a `fn *_traced` other than the three the ledger calls"
    );
}

#[test]
fn dead_pub_fires_only_where_no_other_file_names_the_item() {
    // A fixture workspace with one planted case per clause of the rule.
    // Its other findings (it has no docs/LINTS.md) are other rules'.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dead_pub");
    let report = lint_workspace(&root);
    let dead: Vec<_> = report.diagnostics.iter().filter(|d| d.rule == "dead-pub").collect();
    let alpha = "crates/alpha/src/lib.rs";
    // Named nowhere else (3); only in beta's `pub use` (5); only in beta's
    // doc comment, comment and string literal (7); a field no other file
    // reads (14). Silent: called from beta's tests (9), read by the
    // ledger (11), read by beta's code (15), waived (19), `pub(crate)`
    // (21), `#[cfg(test)]` (25).
    let at: Vec<_> = dead.iter().map(|d| (d.path.as_str(), d.line, d.col)).collect();
    assert_eq!(at, vec![(alpha, 3, 8), (alpha, 5, 14), (alpha, 7, 12), (alpha, 14, 9)]);
    assert!(dead[0].message.starts_with("fn `unused_anywhere` is `pub` but named in no other file"));
    assert!(dead[3].message.starts_with("field `unread_field`"));
}

#[test]
fn diagnostic_json_is_canonical_single_line() {
    let src = include_str!("fixtures/det_time.rs");
    let d = lint_rust_source("crates/x/src/y.rs", src, &["det-time"]);
    let json = d[0].to_json();
    // Fixed key order, no whitespace, one line — the same hand-built
    // style as `PropertyReport::to_json`.
    assert!(json.starts_with(
        "{\"path\":\"crates/x/src/y.rs\",\"line\":2,\"col\":24,\
         \"rule\":\"det-time\",\"message\":\""
    ));
    assert!(json.ends_with("\"}"));
    assert!(!json.contains('\n'));
    // Escaping is RFC 8259: quotes, backslashes, control characters.
    let spiky = impossible_lint::Diagnostic {
        path: "a\"b\\c.rs".to_string(),
        line: 3,
        col: 7,
        rule: "det-order",
        message: "tab\there".to_string(),
    };
    assert_eq!(
        spiky.to_json(),
        "{\"path\":\"a\\\"b\\\\c.rs\",\"line\":3,\"col\":7,\
         \"rule\":\"det-order\",\"message\":\"tab\\there\"}"
    );
}

#[test]
fn waiver_doc_sync_round_trips_and_catches_drift() {
    use impossible_lint::{check_waiver_doc_sync, render_waiver_inventory};
    let rows = vec![
        ("crates/a/src/x.rs".to_string(), "det-ambient".to_string(), 2),
        ("crates/b/Cargo.toml".to_string(), "hermetic-deps".to_string(), 1),
    ];
    let doc = render_waiver_inventory(&rows, 119, 14);
    assert!(check_waiver_doc_sync(&doc, &rows, 119, 14).is_empty());

    // A drifted count is pinned to the stale row's own line (begin
    // marker, header, separator, then the first data row = line 4).
    let stale = doc.replace("| 2 |", "| 5 |");
    let d = check_waiver_doc_sync(&stale, &rows, 119, 14);
    assert_eq!(d.len(), 1);
    assert_eq!((d[0].line, d[0].rule), (4, "waiver-doc-sync"));
    assert!(d[0].message.contains("says 5 waivers but the tree has 2"));

    // A waiver the doc does not list is reported at the end marker.
    let mut more = rows.clone();
    more.push(("crates/c/src/y.rs".to_string(), "det-order".to_string(), 1));
    let d = check_waiver_doc_sync(&doc, &more, 119, 14);
    assert_eq!(d.len(), 1);
    assert!(d[0].message.contains("missing from the inventory"));

    // Wrong scanned-file counts fail even with a perfect table.
    let d = check_waiver_doc_sync(&doc, &rows, 120, 14);
    assert_eq!(d.len(), 1);
    assert!(d[0].message.contains("claims 119 source files + 14 manifests"));

    // No inventory at all: one diagnostic for the missing table and one
    // for the missing example line.
    let d = check_waiver_doc_sync("# LINTS\n", &rows, 119, 14);
    assert_eq!(d.len(), 2);
}

#[test]
fn diagnostic_display_is_rustc_style() {
    let src = include_str!("fixtures/det_time.rs");
    let d = lint_rust_source("crates/x/src/y.rs", src, &["det-time"]);
    let line = d[0].to_string();
    assert!(line.starts_with("crates/x/src/y.rs:2:24: deny(det-time): "));
}

#[test]
fn workspace_is_clean() {
    // The live tree must stay at zero violations even when the verify
    // gate itself is bypassed: this is the lint-on-every-`cargo test`
    // backstop.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root);
    let msgs: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(msgs.is_empty(), "workspace lint violations:\n{}", msgs.join("\n"));
    assert!(report.rust_files > 100, "walker saw only {} files", report.rust_files);
    assert!(report.manifests >= 12, "walker saw only {} manifests", report.manifests);
    // The waiver inventory is collected alongside: it must contain the
    // known load-bearing exceptions.
    assert!(report
        .waivers
        .iter()
        .any(|(p, r, _)| p == "crates/explore/src/pool.rs" && r == "det-ambient"));
    assert!(report
        .waivers
        .iter()
        .any(|(p, r, _)| p == "crates/core/src/pigeonhole.rs" && r == "det-float"));
}

#[test]
fn verify_script_invokes_the_linter() {
    // Self-check: the tier-1 gate actually runs this tool with
    // violations promoted to hard failures.
    let script = include_str!("../../../scripts/verify.sh");
    assert!(
        script.contains("-p impossible-lint") && script.contains("--deny-all"),
        "scripts/verify.sh no longer runs `impossible-lint --deny-all`"
    );
    // The gate self-checks that the newest rules are actually wired into
    // the binary it runs (via `--help`), and guards the ledger check on
    // its OK marker instead of trusting the exit code alone.
    for rule in [
        "det-float",
        "encode-coverage",
        "twin-drift",
        "hash-eq",
        "dead-pub",
        "waiver-doc-sync",
    ] {
        assert!(
            script.contains(rule),
            "scripts/verify.sh no longer self-checks rule `{rule}`"
        );
    }
    assert!(
        script.contains("ledger --check: OK (8 workloads"),
        "scripts/verify.sh no longer greps the ledger --check marker"
    );
}
