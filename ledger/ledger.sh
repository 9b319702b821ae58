#!/usr/bin/env bash
# The performance ledger's one command (see LEDGER.md beside this file).
#
#   ledger/ledger.sh --seed N [--seconds S] [--out DIR]
#       Build once, run every workload in its own process (untraced for the
#       end-to-end metrics, then traced for the per-layer ones), print every
#       metric by name with its unit, verify every verdict, and write
#       DIR/results.json (default DIR: <target>/ledger). Exit 1 if any
#       operation failed.
#   ledger/ledger.sh --compare A.json B.json
#       Two results.json files against the bounds in BENCHMARK.json; exit 1
#       on any `regressed`.
#   ledger/ledger.sh --check
#       The same code path, one sample, small instances, all checks on.
#   ledger/ledger.sh --regen-expected
#       Print a fresh expected.txt (closed forms + the legacy explorer).
#   ledger/ledger.sh --workload W --seed N --seconds S --trace 0|1
#       One measured run, as BENCHMARK.json's `command` is invoked: the last
#       line of stdout is {"correct":…,"attempted":…,"failed":…,"metrics":…}.
#       BENCHMARK.json names four of the eight workloads (LEDGER.md says why);
#       every other mode here runs all eight.
#
# Run from the repository root. Everything is written under the cargo
# target directory (CARGO_TARGET_DIR if set, else ledger/target).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target_dir="${CARGO_TARGET_DIR:-$here/target}"
bin="$target_dir/release/ledger"
bench="$here/../BENCHMARK.json"
workloads=(mutex_dijkstra4 ring_quotient20 manifest_cold manifest_warm grid_w1 grid_w2 grid_spill grid_resume)

build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
}

# one_run <out-dir> <workload> <seed> <seconds> <trace> [extra flags…]
# Set-up time runs from process start and peak memory is read after exactly
# one operation, so both are measured in three processes (two that stop
# after set-up, then the measuring one) and reported as medians; a traced
# run reports neither and skips the extra two.
one_run() {
    local out="$1" w="$2" seed="$3" seconds="$4" trace="$5"
    shift 5
    local common=(run --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
                  --out "$out" --expected "$here/expected.txt" "$@")
    local extra=""
    if [ "$trace" = 0 ]; then
        local s1 s2
        s1="$("$bin" "${common[@]}" --setup-only)"
        s2="$("$bin" "${common[@]}" --setup-only)"
        extra="$s1,$s2"
    fi
    "$bin" "${common[@]}" --extra-setup "$extra"
}

mode="" seed="" seconds="" out="" workload="" trace="" cmp_a="" cmp_b=""
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --compare) mode=compare; cmp_a="$2"; cmp_b="$3"; shift 3 ;;
        --check) mode=check; shift ;;
        --regen-expected) mode=regen; shift ;;
        *) echo "ledger.sh: unknown argument '$1' (usage at the top of this file)" >&2; exit 2 ;;
    esac
done
if [ -z "$seconds" ]; then
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$bench")"
fi

build
case "$mode" in
    compare)
        exec "$bin" compare "$cmp_a" "$cmp_b" --bench "$bench" ;;
    regen)
        exec "$bin" regen-expected ;;
    check)
        out="$target_dir/ledger-check"
        for w in "${workloads[@]}"; do
            for t in 0 1; do
                line="$(one_run "$out" "$w" 1 1 "$t" --small --samples 1 | tail -n 1)"
                case "$line" in
                    '{"correct":true,'*) ;;
                    *) echo "ledger --check: $w (trace $t) failed: $line" >&2; exit 1 ;;
                esac
            done
        done
        echo "ledger --check: OK (${#workloads[@]} workloads, traced and untraced, every verdict and count verified)" ;;
    *)
        if [ -n "$workload" ]; then
            [ -n "$seed" ] && [ -n "$trace" ] || { echo "ledger.sh: --workload needs --seed and --trace" >&2; exit 2; }
            one_run "$target_dir/ledger" "$workload" "$seed" "$seconds" "$trace"
        elif [ -n "$seed" ]; then
            out="${out:-$target_dir/ledger}"
            for w in "${workloads[@]}"; do
                for t in 0 1; do
                    echo "ledger: $w (trace $t, seed $seed, $seconds s)" >&2
                    one_run "$out" "$w" "$seed" "$seconds" "$t" > /dev/null
                done
            done
            "$bin" report --out "$out" --seed "$seed" --rustc "$(rustc -V)" \
                --commit "$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
        else
            echo "ledger.sh: nothing to do (usage at the top of this file)" >&2
            exit 2
        fi ;;
esac
