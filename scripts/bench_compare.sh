#!/bin/sh
# bench_compare.sh — the CI perf ratchet. Diffs a fresh bench.sh output
# against the checked-in baseline and fails on:
#
#   * >15% ns/op regression on any designated steady-state benchmark
#   * ANY allocs/op growth on a designated benchmark (0 allocs/op is an
#     acceptance criterion, not an aspiration)
#   * a designated benchmark missing from the fresh run (a silently
#     deleted benchmark must not pass the gate)
#
# It prints both files' "machine" fingerprints and a WARN line when they
# differ: ns/op deltas across machines are not comparable, but the
# verdict is the same either way.
#
#   ./scripts/bench_compare.sh BENCH_fresh.json [BENCH_baseline.json]
#   RATCHET_BENCHES="BenchmarkFoo BenchmarkBar" ...  # override the set
#   RATCHET_PCT=15 ...                               # override the threshold
#
# Only the designated set is ratcheted: figure-scale benchmarks rerun
# whole sweeps and are too noisy for a hard gate (bench-smoke keeps them
# visible). The baseline's numbers come from its "benchmarks" array
# (bench.sh output merged in at refresh time); "after" is accepted as a
# fallback for older baseline files. docs/PERFORMANCE.md describes the
# refresh procedure and the comparable-hardware assumption.
set -eu
cd "$(dirname "$0")/.."

fresh="${1:?usage: bench_compare.sh BENCH_fresh.json [BENCH_baseline.json]}"
base="${2:-BENCH_baseline.json}"
pct="${RATCHET_PCT:-15}"
benches="${RATCHET_BENCHES:-BenchmarkSimOpLoop BenchmarkSimOpLoopZipf BenchmarkMemTouch BenchmarkPebsObserve BenchmarkTimeSeriesObserve BenchmarkHistogramObserve BenchmarkTraceReplayBatch BenchmarkResultServeHit BenchmarkResultServe304}"

[ -r "$fresh" ] || { echo "bench_compare.sh: cannot read fresh file $fresh" >&2; exit 1; }
[ -r "$base" ] || { echo "bench_compare.sh: cannot read baseline $base" >&2; exit 1; }

# extract FILE -> "name ns_per_op allocs_per_op" per record, taken from the
# file's "benchmarks" array, falling back to "after". Records may span
# lines (hand-maintained baselines) or sit on one line (bench.sh output).
extract() {
    key="benchmarks"
    grep -q '"benchmarks":' "$1" || key="after"
    awk -v key="$key" '
        $0 ~ "\"" key "\": *\\[" { insec = 1; next }
        insec && /^ *\]/ { insec = 0 }
        insec {
            buf = buf " " $0
            while (match(buf, /\{[^{}]*\}/)) {
                rec = substr(buf, RSTART, RLENGTH)
                buf = substr(buf, RSTART + RLENGTH)
                name = ""; ns = ""; allocs = "0"
                if (match(rec, /"name": *"[^"]*"/)) {
                    name = substr(rec, RSTART, RLENGTH)
                    gsub(/.*: *"/, "", name); gsub(/"/, "", name)
                }
                if (match(rec, /"ns_per_op": *[0-9.eE+-]+/)) {
                    ns = substr(rec, RSTART, RLENGTH); sub(/.*: */, "", ns)
                }
                if (match(rec, /"allocs_per_op": *[0-9.eE+-]+/)) {
                    allocs = substr(rec, RSTART, RLENGTH); sub(/.*: */, "", allocs)
                }
                if (name != "" && ns != "") print name, ns, allocs
            }
        }' "$1"
}

# machine FILE -> the file's "machine" fingerprint, or a placeholder.
machine() {
    m=$(grep -o '"machine": *"[^"]*"' "$1" | head -n 1 | sed 's/^"machine": *"//; s/"$//')
    echo "${m:-(none recorded)}"
}
freshmachine=$(machine "$fresh")
basemachine=$(machine "$base")
echo "machine  fresh:    $freshmachine" >&2
echo "machine  baseline: $basemachine" >&2
if [ "$freshmachine" != "$basemachine" ]; then
    echo "WARN  machine fingerprints differ: ns/op deltas compare different hardware or toolchains" >&2
fi

freshdata=$(mktemp); basedata=$(mktemp)
trap 'rm -f "$freshdata" "$basedata"' EXIT
extract "$fresh" > "$freshdata"
extract "$base" > "$basedata"

[ -s "$basedata" ] || { echo "bench_compare.sh: no parsable records in baseline $base" >&2; exit 1; }
[ -s "$freshdata" ] || { echo "bench_compare.sh: no parsable records in fresh file $fresh" >&2; exit 1; }

fail=0
for b in $benches; do
    baserec=$(awk -v n="$b" '$1 == n { print; exit }' "$basedata")
    freshrec=$(awk -v n="$b" '$1 == n { print; exit }' "$freshdata")
    if [ -z "$baserec" ]; then
        echo "SKIP  $b: not in baseline yet (add it at the next baseline refresh)" >&2
        continue
    fi
    if [ -z "$freshrec" ]; then
        echo "FAIL  $b: designated benchmark missing from fresh run" >&2
        fail=1
        continue
    fi
    verdict=$(echo "$baserec $freshrec" | awk -v pct="$pct" '{
        bns = $2; ballocs = $3; fns = $5; fallocs = $6
        ratio = bns > 0 ? (fns / bns - 1) * 100 : 0
        if (fallocs > ballocs)
            printf "FAIL  %s: allocs/op grew %s -> %s\n", $1, ballocs, fallocs
        else if (ratio > pct)
            printf "FAIL  %s: ns/op %s -> %s (%+.1f%%, limit +%s%%)\n", $1, bns, fns, ratio, pct
        else
            printf "ok    %s: ns/op %s -> %s (%+.1f%%), allocs %s -> %s\n", $1, bns, fns, ratio, ballocs, fallocs
    }')
    echo "$verdict" >&2
    case "$verdict" in FAIL*) fail=1 ;; esac
done

if [ "$fail" != 0 ]; then
    echo "bench_compare.sh: perf ratchet FAILED against $base" >&2
    exit 1
fi
echo "bench_compare.sh: perf ratchet passed against $base" >&2
