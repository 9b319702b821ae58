#!/usr/bin/env bash
# Regenerate the committed benchmark baselines.
#
# Runs the crates/bench harnesses (release, offline) and moves their JSON
# outputs to the repo root, where they are committed:
#
#   BENCH_5.json — the search-subsystem perf trajectory: fingerprint engine
#                  vs the legacy explorer (must stay >= 2x on the 117k-state
#                  grid), graph-vs-search ratio (cap 1.5x), and the
#                  1/2/4/8-worker scaling curve over the sharded visited
#                  set. BENCH_3.json stays committed as the pre-sharding
#                  baseline.
#
# Usage:
#   ./scripts/bench.sh                 regenerate BENCH_5.json (full samples)
#   ./scripts/bench.sh --check         tier-1 smoke: 1 sample on a tiny grid
#                                      via the explore_check harness; fails
#                                      if the harness stops producing output;
#                                      writes nothing to the repo root
#   ./scripts/bench.sh [args...]       extra args forwarded to cargo bench
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--check" ]; then
    echo "== bench --check: explore_check smoke (1 sample, tiny grid) =="
    rm -f crates/bench/BENCH_check.json
    cargo bench -q --offline -p impossible-bench --bench explore_check
    if [ ! -f crates/bench/BENCH_check.json ]; then
        echo "error: explore_check produced no crates/bench/BENCH_check.json;" >&2
        echo "       the bench harness is silently broken" >&2
        exit 1
    fi
    for case in '"name":"check/search_grid_4x4_625_w2"' '"name":"check/property_grid_4x4_625"' '"name":"check/resume_grid_4x4_625"' '"name":"check/extmem_grid_4x4_625"'; do
        if ! grep -q "$case" crates/bench/BENCH_check.json; then
            echo "error: BENCH_check.json is missing expected case $case:" >&2
            cat crates/bench/BENCH_check.json >&2
            exit 1
        fi
    done
    rm -f crates/bench/BENCH_check.json
    echo "bench --check: OK"
    exit 0
fi

NPROC=$(nproc)
echo "== bench: explore (writes BENCH_5.json) =="
if [ "$NPROC" -eq 1 ]; then
    # On a single-core box the 2/4/8-worker rows measure contention, not
    # speedup; drop the harness's "scaling:" conclusions rather than let
    # them be quoted as parallel results.
    cargo bench -q --offline -p impossible-bench --bench explore -- "$@" \
        | { grep -v '^scaling:' || true; }
    echo "note: nproc=1 — scaling conclusions suppressed (no parallelism to measure)"
else
    cargo bench -q --offline -p impossible-bench --bench explore -- "$@"
fi

# Bench binaries write BENCH_<suite>.json into the package directory. If the
# bench produced nothing (filtered out, harness bug), fail loudly rather than
# silently re-reporting the stale committed baseline as if it were fresh.
if [ ! -f crates/bench/BENCH_5.json ]; then
    echo "error: bench run produced no crates/bench/BENCH_5.json;" >&2
    echo "       refusing to report the stale committed BENCH_5.json as fresh" >&2
    exit 1
fi
mv crates/bench/BENCH_5.json BENCH_5.json
# Stamp the core count into the committed baseline: a scaling curve is
# uninterpretable without knowing how many cores produced it.
sed -i "s/^{\"suite\":\"5\",/{\"suite\":\"5\",\"nproc\":$NPROC,/" BENCH_5.json
echo "machine: nproc=$NPROC (scaling curve is machine-limited below the worker count)"
echo "baseline: $(cat BENCH_5.json)"

echo "== bench: ckpt (writes BENCH_ckpt.json) =="
cargo bench -q --offline -p impossible-bench --bench ckpt -- "$@"
if [ ! -f crates/bench/BENCH_ckpt.json ]; then
    echo "error: bench run produced no crates/bench/BENCH_ckpt.json;" >&2
    echo "       refusing to report the stale committed BENCH_ckpt.json as fresh" >&2
    exit 1
fi
mv crates/bench/BENCH_ckpt.json BENCH_ckpt.json
echo "ckpt baseline: $(cat BENCH_ckpt.json)"

echo "== bench: extmem (writes BENCH_extmem.json) =="
cargo bench -q --offline -p impossible-bench --bench extmem -- "$@"
if [ ! -f crates/bench/BENCH_extmem.json ]; then
    echo "error: bench run produced no crates/bench/BENCH_extmem.json;" >&2
    echo "       refusing to report the stale committed BENCH_extmem.json as fresh" >&2
    exit 1
fi
mv crates/bench/BENCH_extmem.json BENCH_extmem.json
echo "extmem baseline: $(cat BENCH_extmem.json)"
