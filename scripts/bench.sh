#!/usr/bin/env sh
# Runs the Criterion bench suite offline and writes machine-readable
# results to BENCH_5.json at the repo root (override with COACHLM_BENCH_OUT;
# the number tracks the PR that last changed the suite's shape).
#
# Each bench binary appends one JSONL record per benchmark (median ns/iter
# plus throughput where declared) to the file named by COACHLM_BENCH_JSON —
# see the report hook in crates/compat/criterion. This script collects the
# records and wraps them into a single JSON document:
#
#   { "suite": ..., "benches": [ {"bench": id, "median_ns": N, ...}, ... ] }
#
# Usage: scripts/bench.sh [bench-name ...]
#   With no arguments, runs every bench target (microbench,
#   executor_scaling, ngram_scoring, crash_resume, revision_cache,
#   supervise). Pass
#   names to run a subset — the JSON output then covers only that subset.
#
# The revision_cache stress cell defaults to a 10M-pair workload; set
# COACHLM_CACHE_BENCH_PAIRS to shrink it for quick runs.
set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# Absolute path: cargo runs bench binaries with the package directory as
# CWD, so a relative path would land under crates/bench/.
jsonl="$(pwd)/target/bench_records.jsonl"
out="${COACHLM_BENCH_OUT:-BENCH_5.json}"
rm -f "$jsonl"
mkdir -p target

if [ "$#" -gt 0 ]; then
    benches="$*"
else
    benches="microbench executor_scaling ngram_scoring crash_resume revision_cache supervise"
fi

for name in $benches; do
    echo "==> cargo bench --bench $name"
    COACHLM_BENCH_JSON="$jsonl" \
        cargo bench --offline -q -p coachlm-bench --bench "$name"
done

{
    printf '{\n'
    printf '  "suite": "coachlm hot paths",\n'
    printf '  "benches": [\n'
    sed -e 's/^/    /' -e '$!s/$/,/' "$jsonl"
    printf '  ]\n'
    printf '}\n'
} > "$out"

count=$(wc -l < "$jsonl")
echo "==> wrote $out ($count benchmarks)"
