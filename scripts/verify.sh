#!/usr/bin/env bash
# Tier-1 verification gate for the `impossible` workspace.
#
# The workspace has zero external dependencies, so everything here must
# succeed offline with an empty registry cache. Run from the repo root:
#
#   ./scripts/verify.sh
#
# Ten stages: build, lint, clippy, tests (and their count floor), docs, check
# smoke, trace smoke, experiments smoke, examples smoke and the ledger
# (`ledger.sh --check`, then the ledger package's own tests) — the last is the only
# stage that touches timing code, and the ledger is the only place a
# measured number comes from.
# The check smoke drives only what crosses a process boundary (a manifest,
# the verdict cache file, a snapshot file); spilled == resident (every
# search runs on the calling thread, so the requested worker count is only
# recorded) is the tests stage's
# (crates/explore/tests/{extmem_spill,determinism}.rs) and, through the
# release binary, the ledger stage's `grid_spill`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline, no warnings) =="
# A warning fails the gate: an item narrowed to private that nothing
# calls is rustc's `dead_code` warning, and must not stay in the tree.
build_log="$(cargo build --release --offline --workspace 2>&1)" || {
    printf '%s\n' "$build_log" >&2
    exit 1
}
if printf '%s\n' "$build_log" | grep -q '^warning'; then
    printf '%s\n' "$build_log" | grep -A8 '^warning' >&2
    echo "error: the release build printed warnings" >&2
    exit 1
fi

echo "== impossible-lint (determinism & soundness, deny-all) =="
# Self-check: the gate must be running the full twelve-rule analyzer (the
# newest rules included), not a stale binary with fewer rules.
lint_help="$(cargo run -q -p impossible-lint --release --offline -- --help)"
for rule in det-float encode-coverage twin-drift hash-eq dead-pub waiver-doc-sync; do
    if ! printf '%s' "$lint_help" | grep -q "$rule"; then
        echo "error: impossible-lint --help does not list rule '$rule'" >&2
        exit 1
    fi
done
lint_start=$(date +%s%N)
cargo run -q -p impossible-lint --release --offline -- --deny-all
lint_end=$(date +%s%N)
echo "lint stage: $(( (lint_end - lint_start) / 1000000 )) ms wall"

echo "== clippy (every workspace crate, deny warnings) =="
# Library and binary code of every workspace crate is kept clippy-clean.
cargo clippy -q --offline --workspace -- -D warnings

echo "== tests (all crates, offline) =="
cargo test -q --offline --workspace
# The test-count floor: a change cannot lose tests unnoticed. Raise it
# when tests are added; lower it only with the removed tests named in
# CHANGES.md.
test_floor=731
test_count="$(cargo test -q --offline --workspace -- --list 2>/dev/null | grep -c ': test$')"
echo "tests listed: $test_count (floor $test_floor)"
if [ "$test_count" -lt "$test_floor" ]; then
    echo "error: $test_count tests listed, below the floor of $test_floor" >&2
    exit 1
fi

echo "== docs (no warnings allowed) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== check service smoke (manifest cache + refusals, cross-process resume) =="
check_tmp="$(mktemp -d)"
trap 'rm -rf "$check_tmp"' EXIT
# `ring 20` is the ledger's whole `ring_quotient20` instance (52 487
# necklaces, both liveness checks) through the release binary.
printf 'ring 4 evades-free\nquorum 3 0 nonterm\nring 20 evades-free\nring 20 greedy-elects\n' \
    > "$check_tmp/manifest.txt"
# First run: cold cache, every job computed. Its JSON line (labels, keys,
# verdicts, state and edge counts) is pinned like experiments_sha256 below.
check_cold_sha256=0fe29e9e877487c4005e61ffa38c74de8478c6c4e6ef2636aafeac6216f43ee6
first="$(./target/release/check manifest "$check_tmp/manifest.txt" --cache "$check_tmp/cache.txt")"
printf '%s\n' "$first" | tail -1
if ! printf '%s' "$first" | grep -q "check: OK (jobs=4 hits=0 misses=4)"; then
    echo "error: first check run was not a 4-job cold-cache run" >&2
    exit 1
fi
check_cold_got="$(printf '%s\n' "$first" | head -1 | sha256sum | cut -d' ' -f1)"
if [ "$check_cold_got" != "$check_cold_sha256" ]; then
    echo "error: cold check manifest JSON moved: sha256 $check_cold_got, pinned $check_cold_sha256" >&2
    echo "  if the new report is intended, update check_cold_sha256 in scripts/verify.sh" >&2
    exit 1
fi
# Second run over the unchanged manifest: served entirely from the cache.
second="$(./target/release/check manifest "$check_tmp/manifest.txt" --cache "$check_tmp/cache.txt")"
printf '%s\n' "$second" | tail -1
if ! printf '%s' "$second" | grep -q "check: OK (jobs=4 hits=4 misses=0)"; then
    echo "error: second check run was not served entirely from the verdict cache" >&2
    exit 1
fi
# Pause in one process, resume in a fresh one; the report must be
# byte-identical to the uninterrupted run.
./target/release/check snapshot "$check_tmp/probe.ckpt" > /dev/null
# The probe file's bytes are pinned: `Snapshot::save` streams the file a
# page at a time and checksums it by reading it back, and must still
# write exactly `to_bytes()`, the format's bytes.
check_probe_sha256=58ef54887bc7423a3e4c30ad30f97569a3ec52ddac76fa9e9a45450fae5ed871
check_probe_got="$(sha256sum < "$check_tmp/probe.ckpt" | cut -d' ' -f1)"
if [ "$check_probe_got" != "$check_probe_sha256" ]; then
    echo "error: check snapshot probe file moved: sha256 $check_probe_got, pinned $check_probe_sha256" >&2
    echo "  if the new snapshot bytes are intended, bump FORMAT_VERSION and update check_probe_sha256" >&2
    exit 1
fi
./target/release/check resume "$check_tmp/probe.ckpt" > "$check_tmp/resumed.txt"
./target/release/check straight > "$check_tmp/straight.txt"
if ! cmp -s "$check_tmp/resumed.txt" "$check_tmp/straight.txt"; then
    echo "error: cross-process resume diverged from the uninterrupted run:" >&2
    diff "$check_tmp/resumed.txt" "$check_tmp/straight.txt" >&2 || true
    exit 1
fi
# The straight line renders `SearchStats`, `peak_bytes` included, so its
# pin also holds the visited table's byte accounting (`FpMap::approx_bytes`,
# docs/EXPLORE.md "The visited table") end to end.
check_straight_sha256=665980d5bc5d463b5dc1c8f4880edf781dacbd894d05d00bcb96a484e97a993d
check_straight_got="$(sha256sum < "$check_tmp/straight.txt" | cut -d' ' -f1)"
if [ "$check_straight_got" != "$check_straight_sha256" ]; then
    echo "error: check straight moved: sha256 $check_straight_got, pinned $check_straight_sha256" >&2
    cat "$check_tmp/straight.txt" >&2
    echo "  if the new report is intended, update check_straight_sha256 in scripts/verify.sh" >&2
    exit 1
fi
# A parameter the model cannot hold is refused with its line number, not
# wrapped into a different model (`grid 2 256` used to run as max = 0).
printf 'ring 4 evades-free\ngrid 2 256 reaches-corner\n' > "$check_tmp/wide.txt"
if wide_err="$(./target/release/check manifest "$check_tmp/wide.txt" 2>&1 >/dev/null)"; then
    echo "error: check manifest accepted grid max 256" >&2
    exit 1
fi
if ! printf '%s' "$wide_err" | grep -q 'line 2: bad grid max `256`'; then
    echo "error: check manifest did not name the out-of-range grid max: $wide_err" >&2
    exit 1
fi
# A "holds" over a graph the state cap cut is no verdict: `grid 20 1` has
# 2^20 states against the binary's 400 000-state cap. The run must exit
# non-zero, name the job on an INCONCLUSIVE line, and cache nothing, so a
# rerun computes it again.
printf 'grid 20 1 reaches-corner\n' > "$check_tmp/cut.txt"
for run in 1 2; do
    if cut_out="$(./target/release/check manifest "$check_tmp/cut.txt" \
        --cache "$check_tmp/cut_cache.txt" 2> "$check_tmp/cut_err.txt")"; then
        echo "error: check manifest exited 0 on a holds the state cap cut" >&2
        exit 1
    fi
    if ! grep -q 'check: INCONCLUSIVE (jobs=1 inconclusive=1)' "$check_tmp/cut_err.txt" \
        || ! grep -q 'grid 20 1 reaches-corner' "$check_tmp/cut_err.txt"; then
        echo "error: run $run of the cut manifest did not report it INCONCLUSIVE:" >&2
        cat "$check_tmp/cut_err.txt" >&2
        exit 1
    fi
    if ! printf '%s' "$cut_out" | grep -q '"hits":0,"misses":1'; then
        echo "error: run $run of the cut manifest was served from the verdict cache" >&2
        exit 1
    fi
done
if grep -q 1de2a0bdc626e762 "$check_tmp/cut_cache.txt"; then
    echo "error: the cut verdict was cached" >&2
    exit 1
fi
# Every save above (the verdict caches, the snapshot) renames its temp file
# into place; none may be left behind.
leftover_tmp="$(find "$check_tmp" -name '*.tmp')"
if [ -n "$leftover_tmp" ]; then
    echo "error: a save left its temp file behind: $leftover_tmp" >&2
    exit 1
fi
echo "check smoke: OK (cold JSON sha256 pinned; cache hit on rerun; probe snapshot sha256 pinned; resumed == straight bytes, straight sha256 pinned; grid max 256 refused; cut holds inconclusive and uncached; no temp file left)"

echo "== trace smoke (every dump target deterministic and pinned; unknown target refused) =="
# Each target's stdout sha256 is pinned, as experiments_sha256 is below: a
# rerun only shows nondeterminism, while the pin also catches a drift in
# what a dump counts (the valence fixpoint's pops / changed, the property
# check's SCC counts). Update a value only when the dump is meant to move.
declare -A trace_sha256=(
    [search]=9c7ad77975a2d95aa41375837435d02fac8744faea61ea33c3d6db2898aed084
    [valence]=b7f88acdf0f51c11668335127a24bb50b0aed952a12ef1b805ff341128afab20
    [benor]=013ea0b686fc00e41e92f9b809c1de685f998d81feeee08e091f20443d239087
    [election]=3762c5f7bddb90cd5fcd3d9a1214233a7b1d9aa9a9bc191321c6c74fe7a88af4
    [property]=25a0b9bb762374934c11cada9751efd1e44d9078017fecf82eb7a71555b3f72c
)
for target in search valence benor election property; do
    ./target/release/trace dump "$target" > "$check_tmp/trace_a.jsonl"
    ./target/release/trace dump "$target" > "$check_tmp/trace_b.jsonl"
    if ! ./target/release/trace diff "$check_tmp/trace_a.jsonl" "$check_tmp/trace_b.jsonl" \
        | grep -q "traces identical"; then
        echo "error: two dumps of trace target '$target' differ" >&2
        exit 1
    fi
    trace_got="$(sha256sum < "$check_tmp/trace_a.jsonl" | cut -d' ' -f1)"
    if [ "$trace_got" != "${trace_sha256[$target]}" ]; then
        echo "error: trace dump '$target' moved: sha256 $trace_got, pinned ${trace_sha256[$target]}" >&2
        echo "  diff it against a parent build's \`trace dump $target\`; if the new dump is" >&2
        echo "  intended, update trace_sha256[$target] in scripts/verify.sh" >&2
        exit 1
    fi
done
if unknown_err="$(./target/release/trace dump no-such-target 2>&1 >/dev/null)"; then
    echo "error: trace dump accepted an unknown target" >&2
    exit 1
fi
if ! printf '%s' "$unknown_err" | grep -q 'unknown dump target `no-such-target`'; then
    echo "error: trace dump did not name the unknown target: $unknown_err" >&2
    exit 1
fi
echo "trace smoke: OK (5 targets identical on rerun, sha256 pinned; unknown target refused)"

echo "== experiments smoke (the paper-facing artefact: every id, deterministic, pinned) =="
# All 26 experiments (F1–F3, E1–E23), twice: the regenerated figures and
# tables must be byte-identical on rerun, none may go missing, and the
# bytes must be the pinned ones — which shortest witness a search returns
# depends on fingerprint order, so a change to an encoding, the hash or
# the level merge shows here without a parent build to diff against.
experiments_sha256=65e7e43f3fdeeb95f45c67f9f3dcfc52a80c04788d3ddd371b42d155bde32cc8
./target/release/experiments > "$check_tmp/experiments_a.txt"
./target/release/experiments > "$check_tmp/experiments_b.txt"
if ! cmp -s "$check_tmp/experiments_a.txt" "$check_tmp/experiments_b.txt"; then
    echo "error: two runs of the experiments binary differ:" >&2
    diff "$check_tmp/experiments_a.txt" "$check_tmp/experiments_b.txt" >&2 || true
    exit 1
fi
experiment_headers="$(grep -cE '^[FE][0-9]+:' "$check_tmp/experiments_a.txt" || true)"
if [ "$experiment_headers" != 26 ]; then
    echo "error: experiments printed $experiment_headers experiment headers, expected 26" >&2
    exit 1
fi
experiments_got="$(sha256sum < "$check_tmp/experiments_a.txt" | cut -d' ' -f1)"
if [ "$experiments_got" != "$experiments_sha256" ]; then
    echo "error: experiments stdout moved: sha256 $experiments_got, pinned $experiments_sha256" >&2
    echo "  to see what moved, build the parent commit in a second checkout and run" >&2
    echo "    diff <(path/to/parent/target/release/experiments) <(./target/release/experiments)" >&2
    echo "  if the new output is intended, update experiments_sha256 in scripts/verify.sh" >&2
    exit 1
fi
echo "experiments smoke: OK (26 experiments, identical on rerun, sha256 pinned)"

echo "== examples smoke (every example runs once; the mutex gallery pinned) =="
# `cargo test` builds examples but never runs them. Each one runs here once
# in release and must exit 0; their stdout is unpinned, except the mutex
# gallery's: it drives every §2.1 checker and the widest `MutexState`s
# (Bakery(4)'s 8 variables, OneBit(5)'s 5 processes) through
# `simulate_random`, so a state-layout change that moves a verdict, a count
# or a seeded schedule shows here.
gallery_sha256=e14bff03cb5a4d74ef94b1534b7642215334a2a677c23457689f92f2f521c1d0
examples_run=0
for example_src in examples/*.rs; do
    example="$(basename "$example_src" .rs)"
    if ! cargo run -q --release --offline --example "$example" > "$check_tmp/example.txt"; then
        echo "error: example $example exited non-zero" >&2
        exit 1
    fi
    examples_run=$((examples_run + 1))
    if [ "$example" = mutex_gallery ]; then
        gallery_got="$(sha256sum < "$check_tmp/example.txt" | cut -d' ' -f1)"
        if [ "$gallery_got" != "$gallery_sha256" ]; then
            echo "error: mutex_gallery stdout moved: sha256 $gallery_got, pinned $gallery_sha256" >&2
            exit 1
        fi
    fi
done
echo "examples smoke: OK ($examples_run examples exit 0; mutex gallery sha256 pinned)"

echo "== performance ledger --check (public API + every verdict and count) =="
# The ledger is its own package compiled against the engines' public API;
# `--check` runs all eight workloads once, small, traced and untraced, and
# compares every verdict and deterministic count with ledger/expected.txt.
ledger_out="$(bash ledger/ledger.sh --check)"
printf '%s\n' "$ledger_out"
if ! printf '%s' "$ledger_out" | grep -q "ledger --check: OK (8 workloads"; then
    echo "error: ledger.sh --check did not report 'ledger --check: OK (8 workloads, ...)'" >&2
    exit 1
fi

# The ledger's own tests (its statistics, the compare rule, "BENCHMARK.json
# metrics == harness tables"): the package is outside the workspace, so the
# tests stage above never runs them.
if ! ledger_tests="$(cargo test --release --offline --manifest-path ledger/Cargo.toml 2>&1)" \
    || ! printf '%s\n' "$ledger_tests" | grep '^test result: ok'; then
    printf '%s\n' "$ledger_tests" >&2
    echo "error: ledger package tests failed or printed no 'test result: ok'" >&2
    exit 1
fi

echo "verify: OK"
