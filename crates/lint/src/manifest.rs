//! `hermetic-deps`: machine-check the offline build guarantee.
//!
//! The workspace promises to build with an *empty registry cache*: the
//! in-tree `impossible-det` crate replaced `rand`/`proptest`
//! precisely so that no network or vendored registry is ever needed. That
//! guarantee is one `cargo add` away from silently eroding, so this module
//! parses every `Cargo.toml` (a deliberately small, hand-rolled TOML subset
//! — section headers, `key = value` lines, comments) and denies any
//! dependency that is not a `path` dependency or a `workspace = true`
//! re-export of one.
//!
//! TOML waivers use the same syntax as Rust ones, behind `#` instead of
//! `//`: `# LINT-ALLOW: hermetic-deps -- <reason>`.

use crate::rules::Diagnostic;

/// Is `section` (e.g. `dependencies`, `workspace.dependencies`,
/// `target.'cfg(unix)'.dev-dependencies`) a table of dependency entries?
fn is_dep_table(section: &str) -> bool {
    section == "dependencies"
        || section == "dev-dependencies"
        || section == "build-dependencies"
        || section == "workspace.dependencies"
        || (section.starts_with("target.")
            && (section.ends_with(".dependencies")
                || section.ends_with(".dev-dependencies")
                || section.ends_with(".build-dependencies")))
}

/// If `section` is a *single-dependency* subtable like `dependencies.foo`,
/// return the dependency name.
fn dep_subtable(section: &str) -> Option<&str> {
    for prefix in [
        "dependencies.",
        "dev-dependencies.",
        "build-dependencies.",
        "workspace.dependencies.",
    ] {
        if let Some(name) = section.strip_prefix(prefix) {
            return Some(name);
        }
    }
    None
}

/// Does this `key = value` dependency entry resolve in-tree? `path`
/// dependencies do; `foo.workspace = true` / `{ workspace = true }` defer
/// to `[workspace.dependencies]`, which is itself checked.
fn entry_is_hermetic(key: &str, value: &str) -> bool {
    key.ends_with(".workspace")
        || value.contains("workspace")
        || has_path_key(value)
}

/// Is there a `path` *key* (`path = …`) inside `value`?
fn has_path_key(value: &str) -> bool {
    let b = value.as_bytes();
    let mut from = 0;
    while let Some(pos) = value[from..].find("path") {
        let k = from + pos;
        let before_ok = k == 0
            || matches!(b[k - 1], b'{' | b',' | b' ' | b'\t');
        let mut j = k + 4;
        while matches!(b.get(j), Some(b' ') | Some(b'\t')) {
            j += 1;
        }
        if before_ok && b.get(j) == Some(&b'=') {
            return true;
        }
        from = k + 4;
    }
    false
}

/// Split a raw TOML line into (content, comment) at the first `#` outside
/// a double-quoted string.
fn split_comment(line: &str) -> (&str, &str) {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return (&line[..i], &line[i..]),
            _ => {}
        }
        i += 1;
    }
    (line, "")
}

/// Every well-formed `# LINT-ALLOW:` occurrence in a manifest, for the
/// `waiver-doc-sync` inventory (same record shape as Rust sources).
pub fn manifest_waiver_records(src: &str) -> Vec<crate::lex::WaiverRecord> {
    let mut out = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let (_, comment) = split_comment(raw);
        let Some(pos) = comment.find("LINT-ALLOW:") else {
            continue;
        };
        let rest = &comment[pos + "LINT-ALLOW:".len()..];
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
        if !rules.is_empty() {
            out.push(crate::lex::WaiverRecord {
                line: idx + 1,
                rules,
                reason: reason.trim().to_string(),
            });
        }
    }
    out
}

fn deny(path: &str, line: usize, col: usize, name: &str) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line,
        col,
        rule: "hermetic-deps",
        message: format!(
            "dependency `{name}` is not a `path` dependency; the workspace \
             must build offline with an empty registry cache (use an in-tree \
             crate or `path = …`)"
        ),
    }
}

/// Lint one manifest. `path` is used only for diagnostics.
pub fn lint_manifest(path: &str, src: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut section = String::new();
    // A pending `[dependencies.foo]` subtable: (header line, name, hermetic).
    let mut pending: Option<(usize, String, bool)> = None;
    let mut waived_lines: Vec<usize> = Vec::new();

    let lines: Vec<&str> = src.lines().collect();
    for (idx, raw) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let (content, comment) = split_comment(raw);
        if let Some(pos) = comment.find("LINT-ALLOW:") {
            let rest = &comment[pos + "LINT-ALLOW:".len()..];
            if let Some((rules, reason)) = rest.split_once("--") {
                if rules.split(',').any(|r| r.trim() == "hermetic-deps")
                    && !reason.trim().is_empty()
                {
                    waived_lines.push(lineno);
                    if content.trim().is_empty() {
                        waived_lines.push(lineno + 1);
                    }
                }
            }
        }
        let trimmed = content.trim();
        if trimmed.starts_with('[') {
            // Entering a new section flushes any pending dependency subtable.
            if let Some((hline, name, ok)) = pending.take() {
                if !ok && !waived_lines.contains(&hline) {
                    out.push(deny(path, hline, 1, &name));
                }
            }
            section = trimmed
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim()
                .to_string();
            if let Some(name) = dep_subtable(&section) {
                pending = Some((lineno, name.to_string(), false));
            }
            continue;
        }
        if trimmed.is_empty() {
            continue;
        }
        if let Some((_, _, ok)) = pending.as_mut() {
            if let Some((key, _value)) = trimmed.split_once('=') {
                let key = key.trim();
                if key == "path" || key == "workspace" {
                    *ok = true;
                }
            }
            continue;
        }
        if is_dep_table(&section) {
            if let Some((key, value)) = trimmed.split_once('=') {
                let key = key.trim().trim_matches('"');
                if key.is_empty() {
                    continue;
                }
                if !entry_is_hermetic(key, value) && !waived_lines.contains(&lineno) {
                    let col = raw.find(key).map_or(1, |c| c + 1);
                    let name = key.trim_end_matches(".workspace");
                    out.push(deny(path, lineno, col, name));
                }
            }
        }
    }
    if let Some((hline, name, ok)) = pending.take() {
        if !ok && !waived_lines.contains(&hline) {
            out.push(deny(path, hline, 1, &name));
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_workspace_deps_pass() {
        let toml = r#"
[package]
name = "x"

[dependencies]
impossible-det = { path = "../det" }
impossible-core.workspace = true
other = { workspace = true }
"#;
        assert!(lint_manifest("Cargo.toml", toml).is_empty());
    }

    #[test]
    fn registry_and_git_deps_fail() {
        let toml = r#"[dependencies]
serde = "1.0"
rand = { version = "0.8", features = ["small_rng"] }
tokio = { git = "https://github.com/tokio-rs/tokio" }
"#;
        let d = lint_manifest("Cargo.toml", toml);
        assert_eq!(d.len(), 3);
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn dep_subtable_requires_path() {
        let toml = "[dependencies.foo]\nversion = \"1\"\n";
        assert_eq!(lint_manifest("Cargo.toml", toml).len(), 1);
        let ok = "[dependencies.foo]\npath = \"../foo\"\n";
        assert!(lint_manifest("Cargo.toml", ok).is_empty());
    }
}
