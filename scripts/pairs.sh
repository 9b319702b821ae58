#!/usr/bin/env bash
# Alternating parent/change pairs of ledger workloads — the measurement
# `ledger/LEDGER.md` and the choosing-metrics guide (§8) ask of every claim.
#
#   scripts/pairs.sh <parent-rev> <workload>[,<workload>…]|all [pairs=10] [seconds=26]
#
# `all` is BENCHMARK.json's workloads — the four rows every `perf_opt` PR
# owes. Both trees are built once; then each workload gets its own
# alternating pairs and its own summary table, one after the other.
#
# "Change" is this working tree as it stands when the script starts
# (uncommitted edits and untracked, non-ignored files included), copied
# once into <target>/pairs/change-src; "parent" is <parent-rev>, exported
# with `git archive` into <target>/pairs/parent-src (an archive, not `git
# worktree add`: it leaves nothing in .git to prune). Both copies are
# removed again on exit. Every pair runs from the two copies, never from
# the working tree: `ledger.sh` rebuilds its tree before each run, so an
# edit made while the pairs run would otherwise change the "change" side
# between pairs. Each copy builds its own ledger into its own
# CARGO_TARGET_DIR under <target>/pairs (kept, so a second invocation
# against the same parent is warm) and every run goes through that copy's
# own
#   ledger/ledger.sh --workload W --seed i --trace 0
# with seed i = pair number; odd pairs run the parent first, even pairs the
# change. Any run whose result line is not `"correct":true` fails the
# script. Prints the four end-to-end metrics per pair, then per metric both
# medians with quartiles (the ledger's rule: Python's exclusive
# `statistics.quantiles`), the difference of the medians in the metric's
# unit and in percent of the parent's (`peak_rss_mb` quartiles sit ≈ 0.1 MB
# apart, so the size of a gain is not readable off the IQR verdict), the
# no-regression verdict, pairs won, and whether §8's rule for a gain — the
# change wins ≥ 9/10 of all pairs, ties counting for neither, and the
# medians differ by more than the distance between the parent's quartiles —
# is met. The no-regression verdict reads the metric's `bound` from
# BENCHMARK.json's "end_to_end" list (read, never written) as a fraction b
# of the parent's median: "worse" when the change's median trails the
# parent's by more than b·median; else "unresolved" when the parent's IQR
# is wider than b·median, unless every change run beats every parent run;
# else "ok".
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/pairs.sh <parent-rev> <workload>[,<workload>...]|all [pairs=10] [seconds=26]" >&2
    exit 2
fi
rev="$1" pairs="${3:-10}" seconds="${4:-26}"
if [ "$2" = all ]; then
    mapfile -t workloads < <(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 } on' BENCHMARK.json \
        | sed -n 's/.*"name": *"\([^"]*\)".*/\1/p')
else
    IFS=, read -r -a workloads <<< "$2"
fi
[ "${#workloads[@]}" -gt 0 ] || { echo "pairs.sh: no workload in '$2'" >&2; exit 2; }
sha="$(git rev-parse --verify --quiet "$rev^{commit}")" || {
    echo "pairs.sh: '$rev' is not a commit" >&2
    exit 2
}

work="${CARGO_TARGET_DIR:-$PWD/target}/pairs"
parent_src="$work/parent-src"
change_src="$work/change-src"
rm -rf "$parent_src" "$change_src"
mkdir -p "$parent_src" "$change_src"
trap 'rm -rf "$parent_src" "$change_src"' EXIT
git archive "$sha" | tar -x -C "$parent_src"
# The working tree's files as they are now: tracked ones (a tracked file
# deleted from the tree is left out) and untracked ones .gitignore does not
# exclude. `tar` keeps their modification times, so cargo rebuilds in the
# kept change target exactly what differs from the last snapshot.
git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do
        if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
    done \
    | tar --null -T - -cf - | tar -x -C "$change_src"
echo "pairs.sh: change side is $PWD as of now (HEAD $(git rev-parse --short HEAD), $(git status --porcelain | wc -l) paths differ), snapshotted into $change_src" >&2
# The archive's files carry the commit's date, so cargo would take a target
# dir warmed by a different parent for up to date: keep it only for the
# same commit.
if [ "$(cat "$work/parent-target.sha" 2>/dev/null)" != "$sha" ]; then
    rm -rf "$work/parent-target"
    echo "$sha" > "$work/parent-target.sha"
fi

metrics=(verdict_s states_per_s peak_rss_mb setup_s)
units=(s 1/s MB s)
# Each metric's `bound`: the first one after its name in "end_to_end".
bounds=()
for m in "${metrics[@]}"; do
    b="$(awk -v m="$m" '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
        on && $0 ~ "\"name\": *\"" m "\"" { hit = 1 }
        hit && /"bound"/ { sub(/.*"bound": */, ""); sub(/[^0-9.eE+-].*/, ""); print; exit }' BENCHMARK.json)"
    [ -n "$b" ] || { echo "pairs.sh: BENCHMARK.json has no bound for $m" >&2; exit 2; }
    bounds+=("$b")
done

echo "pairs.sh: parent ${sha:0:7} vs the change snapshot, ${workloads[*]}, $pairs pairs x $seconds s" >&2
for side in parent change; do
    tree="$change_src"
    [ "$side" = parent ] && tree="$parent_src"
    CARGO_TARGET_DIR="$work/$side-target" \
        cargo build --release --offline --quiet --manifest-path "$tree/ledger/Cargo.toml" >&2
done

# run_side <parent|change> <seed>: one measured run of $workload; appends
# the four metrics, attempted and failed to the side's table and echoes them.
run_side() {
    local side="$1" seed="$2" tree="$change_src" line row="" m v
    [ "$side" = parent ] && tree="$parent_src"
    line="$(CARGO_TARGET_DIR="$work/$side-target" bash "$tree/ledger/ledger.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
    case "$line" in
        '{"correct":true,'*) ;;
        *) echo "pairs.sh: $side run (seed $seed) is not correct: $line" >&2; exit 1 ;;
    esac
    for m in "${metrics[@]}"; do
        v="$(printf '%s' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\)[,}].*/\1/p")"
        [ -n "$v" ] || { echo "pairs.sh: no $m in: $line" >&2; exit 1; }
        row+="$v"$'\t'
    done
    row+="$(printf '%s' "$line" | sed -n 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\).*/\1\t\2/p')"
    printf '%s\n' "$row" >> "$work/$side.tsv"
    printf '%s' "$row"
}

for workload in "${workloads[@]}"; do
    printf '\n== %s ==\n' "$workload"
    : > "$work/parent.tsv"
    : > "$work/change.tsv"
    printf 'pair\tfirst\tside\t%s\tattempted\tfailed\n' "$(IFS=$'\t'; echo "${metrics[*]}")"
    for i in $(seq 1 "$pairs"); do
        order=(parent change)
        [ $((i % 2)) -eq 0 ] && order=(change parent)
        for side in "${order[@]}"; do
            row="$(run_side "$side" "$i")" # an assignment, so a failed run stops the script
            printf '%s\t%s\t%s\t%s\n' "$i" "${order[0]}" "$side" "$row"
        done
    done

    # Summary: row k of parent.tsv and change.tsv are pair k's two runs.
    paste "$work/parent.tsv" "$work/change.tsv" | awk -F'\t' -v names="${metrics[*]}" -v units="${units[*]}" \
        -v bounds="${bounds[*]}" '
    function sort_into(src, dst, n,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[i]
        for (i = 2; i <= n; i++) {
            t = dst[i]
            for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
            dst[j + 1] = t
        }
    }
    # Quartile i (1..3) of sorted v[1..n], exclusive method.
    function quant(v, n, i,    m, j, d) {
        if (n == 1) return v[1]
        m = n + 1
        j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
        d = i * m - j * 4
        return (v[j] * (4 - d) + v[j + 1] * d) / 4
    }
    {
        n = NR
        for (c = 1; c <= 6; c++) { p[c, n] = $c + 0; q[c, n] = $(c + 6) + 0 }
    }
    END {
        split(names, name, " ")
        higher["states_per_s"] = 1
        split(units, unit, " ")
        split(bounds, bound, " ")
        printf "\n%-13s %-34s %-34s %-26s %-23s %9s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change - parent", "no regression (bound)", "pairs won", "gain by the 9/10 + IQR rule"
        for (c = 1; c <= 4; c++) {
            wins = 0; ties = 0
            for (k = 1; k <= n; k++) {
                a[k] = p[c, k]; b[k] = q[c, k]
                if (a[k] == b[k]) ties++
                else if ((b[k] > a[k]) == ((name[c] in higher) ? 1 : 0)) wins++
            }
            sort_into(a, sa, n); sort_into(b, sb, n)
            pm = quant(sa, n, 2); cm = quant(sb, n, 2)
            pq1 = quant(sa, n, 1); pq3 = quant(sa, n, 3)
            better = (name[c] in higher) ? (cm > pm) : (cm < pm)
            gap = cm - pm; if (gap < 0) gap = -gap
            met = (wins * 10 >= n * 9 && better && gap > pq3 - pq1) ? "met" : "not met"
            # No regression: the bound is a fraction of the parent median.
            tol = bound[c] * pm
            if (name[c] in higher) { trail = pm - cm; beats_all = sb[1] > sa[n] }
            else { trail = cm - pm; beats_all = sb[n] < sa[1] }
            if (trail > tol) nr = "worse"
            else if (pq3 - pq1 > tol && !beats_all) nr = "unresolved"
            else nr = "ok"
            printf "%-13s %-34s %-34s %-26s %-23s %6d/%-2d  %s\n", name[c],
                sprintf("%.6g [%.6g, %.6g]", pm, pq1, pq3),
                sprintf("%.6g [%.6g, %.6g]", cm, quant(sb, n, 1), quant(sb, n, 3)),
                sprintf("%+.6g %s, %+.1f%%", cm - pm, unit[c], (cm - pm) / pm * 100),
                sprintf("%s (%g%%)", nr, bound[c] * 100),
                wins, n, met (ties ? sprintf(" (%d ties)", ties) : "")
        }
        for (k = 1; k <= n; k++) { pa += p[5, k]; pf += p[6, k]; ca += q[5, k]; cf += q[6, k] }
        printf "operations failed/attempted: parent %d/%d, change %d/%d\n", pf, pa, cf, ca
    }'
done
