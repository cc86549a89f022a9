#!/bin/sh
# bench.sh — run the micro + figure benchmarks with -benchmem and emit
# BENCH_<label>.json (one record per benchmark: iterations, ns/op,
# ops/sec, B/op, allocs/op), headed by a "machine" fingerprint: CPU,
# nproc, GOMAXPROCS, Go version and PGO setting. docs/PERFORMANCE.md
# explains how the files are used to track the performance trajectory
# across PRs.
#
#   ./scripts/bench.sh mylabel            # full run (3 iterations/benchmark)
#   BENCHTIME=1x ./scripts/bench.sh smoke # one iteration per benchmark
#   BENCH=SimOpLoop ./scripts/bench.sh loop  # restrict the pattern
#   PGO=off ./scripts/bench.sh nopgo      # -pgo value: off, auto, or a profile path
set -eu
cd "$(dirname "$0")/.."

label="${1:-local}"
benchtime="${BENCHTIME:-3x}"
pattern="${BENCH:-.}"
pgo="${PGO:-}"
out="BENCH_${label}.json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

pgoflag=""
if [ -n "$pgo" ]; then pgoflag="-pgo=$pgo"; fi

# The machine fingerprint, in the format of BENCH_trackers.json. With PGO
# unset, go test's default -pgo=auto applies.
cpu=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null | tr -d '"\\' || true)
[ -n "$cpu" ] || cpu=$(uname -m)
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
machine="$cpu, nproc $ncpu, GOMAXPROCS ${GOMAXPROCS:-$ncpu}, $(go env GOVERSION) $(go env GOOS)/$(go env GOARCH), PGO ${pgo:-auto}"

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" $pgoflag ./... | tee "$raw" >&2

awk -v label="$label" -v machine="$machine" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
    iters = $2
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    recs[n++] = sprintf("  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"ops_per_sec\": %.6g, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, iters, ns, 1e9 / ns, bytes == "" ? 0 : bytes, allocs == "" ? 0 : allocs)
}
END {
    printf "{\n \"label\": \"%s\",\n \"machine\": \"%s\",\n \"benchmarks\": [\n", label, machine
    for (i = 0; i < n; i++) printf "%s%s\n", recs[i], i < n - 1 ? "," : ""
    printf " ]\n}\n"
}' "$raw" > "$out"

# An empty benchmarks array means the pattern matched nothing or no
# benchmark line parsed — either way the file would poison downstream
# consumers (bench_compare.sh would "pass" against nothing), so fail
# loudly instead of writing it.
if ! grep -q '"name":' "$out"; then
    rm -f "$out"
    echo "bench.sh: no benchmark results for pattern '$pattern' (nothing matched, or no output parsed); not writing $out" >&2
    exit 1
fi

echo "wrote $out" >&2
