#!/usr/bin/env sh
# Full local CI: format check, lints, release build, tests.
#
# The workspace builds fully offline (all third-party dependencies are
# vendored under crates/compat/), so network access is never required —
# CARGO_NET_OFFLINE hard-fails any accidental registry round-trip.
set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release --workspace

# Static invariants: the token-level determinism & panic-safety catalogue
# (D1/D2/D3/P1/C1) plus the interprocedural analyses — nondeterminism
# taint reaching Stage::process/journal/digest sinks (T1) and fingerprint
# field coverage (F1). See DESIGN.md "Static invariants" and "Analyzer".
# Exit codes gate the run: 1 = findings, 3 = parse/IO errors (the tree
# could not be fully analyzed — treated as failure, not as clean). Parsed
# item trees are cached per content hash under target/coachlm-lint.cache,
# so warm CI runs re-analyze only files that changed.
echo "==> coachlm-lint (determinism, panic-safety & taint pass)"
cargo run --offline -p coachlm-lint --release -- --format json --out results/lint.json

echo "==> cargo test"
cargo test --offline --workspace -q

# Fault matrix: one chaos cell per (fault seed, schedule). Each cell checks
# the partition and thread-invariance properties of the fault-injection
# layer under a different deterministic fault pattern.
echo "==> fault matrix (3 fault seeds x 2 schedules)"
for seed in 11 29 53; do
    for sched in static dynamic; do
        echo "   -> seed=$seed schedule=$sched"
        COACHLM_FAULT_SEED=$seed COACHLM_SCHEDULE=$sched \
            cargo test --offline -q --test fault_injection fault_matrix_cell
    done
done

# Crash matrix: one cell per (seed, kill point, schedule). Each cell writes
# a journaled run, truncates the journal at the kill point, and checks that
# the resumed run is digest-identical to an uninterrupted one at several
# thread counts — the crash-consistency contract of the write-ahead journal.
echo "==> crash matrix (3 seeds x 3 kill points x 2 schedules)"
for seed in 11 29 53; do
    for kill in 25 50 90; do
        for sched in static dynamic; do
            echo "   -> seed=$seed kill=$kill% schedule=$sched"
            COACHLM_CRASH_SEED=$seed COACHLM_KILL_POINT=$kill COACHLM_SCHEDULE=$sched \
                cargo test --offline -q --test crash_resume crash_matrix_cell
        done
    done
done

# Streaming matrix: one cell per (seed, thread count, queue capacity).
# Each cell runs every ported chain through the pipeline-parallel
# streaming core — batch and sustained feeds, both schedules, faults and
# breaker active — and checks digest equality against the
# single-threaded reference. Thread count and queue depth are
# performance knobs only; any divergence here is a determinism bug.
echo "==> streaming matrix (3 seeds x 2 thread counts x 2 queue capacities)"
for seed in 11 29 53; do
    for threads in 2 8; do
        for queue in 16 256; do
            echo "   -> seed=$seed threads=$threads queue=$queue"
            COACHLM_STREAM_SEED=$seed COACHLM_THREADS=$threads COACHLM_QUEUE=$queue \
                cargo test --offline -q --test stream_equivalence stream_matrix_cell
        done
    done
done

# Cache/shard matrix: one cell per (seed, shard count, duplicate skew).
# Each cell runs a Zipfian-duplicated workload through the revision cache
# and the sharded driver — cached runs at both schedules and two thread
# counts, plus a sharded run — and checks digest equality against the
# uncached single-threaded reference. The cache and the shard fan-out are
# deployment knobs only; any divergence here is a determinism bug.
echo "==> cache/shard matrix (2 seeds x 2 shard counts x 2 skews)"
for seed in 11 53; do
    for shards in 2 8; do
        for skew in 0.4 1.3; do
            echo "   -> seed=$seed shards=$shards skew=$skew"
            COACHLM_CACHE_SEED=$seed COACHLM_SHARDS=$shards COACHLM_SKEW=$skew \
                cargo test --offline -q --test cache_shard cache_matrix_cell
        done
    done
done

# Tournament matrix: one cell per (seed, schedule, thread count). Each
# cell runs every registered strategy under chaos at the cell's executor
# config, checks digest equality against the single-threaded static
# reference, and verifies the debiased tournament matrix over the zoo's
# outputs is identical to the reference's. Strategy pipelines — including
# the looping Self-Review and auto-evol stages — must be execution-config
# invariant end to end.
echo "==> tournament matrix (2 seeds x 2 schedules x 2 thread counts)"
for seed in 11 53; do
    for sched in static dynamic; do
        for threads in 2 8; do
            echo "   -> seed=$seed schedule=$sched threads=$threads"
            COACHLM_TOURN_SEED=$seed COACHLM_TOURN_SCHEDULE=$sched COACHLM_TOURN_THREADS=$threads \
                cargo test --offline -q --test strategy_zoo tournament_matrix_cell
        done
    done
done

# Supervise matrix: one cell per (seed, shard count, kill point). Each
# cell runs the chaos chain with every shard in its own worker process —
# killing one worker early (clean frame boundary on the first frame),
# late (torn mid-frame write near the end of its partition), or not at
# all — and checks the merged digest against the in-process sharded
# reference, with restart counters proving the kill actually landed.
echo "==> supervise matrix (2 seeds x 2 shard counts x 3 kill points)"
for seed in 11 53; do
    for shards in 2 4; do
        for kill in early late none; do
            echo "   -> seed=$seed shards=$shards kill=$kill"
            COACHLM_SUPERVISE_SEED=$seed COACHLM_SUPERVISE_SHARDS=$shards COACHLM_SUPERVISE_KILL=$kill \
                cargo test --offline -q --test supervise_chaos
        done
    done
done

# Benchmark package: perfbench/ is its own cargo package outside the
# workspace, so the workspace steps above never compile it, yet it drives
# the same library entry points (batch_job_factory, run_batch_supervised).
echo "==> perfbench: cargo fmt --check, clippy, selftest"
cargo fmt --manifest-path perfbench/Cargo.toml --check
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
python3 perfbench/selftest.py

# Optional: regenerate BENCH_5.json from the Criterion suite. Off by
# default because benches dominate CI wall-clock; enable with COACHLM_BENCH=1.
if [ "${COACHLM_BENCH:-0}" = "1" ]; then
    echo "==> scripts/bench.sh"
    scripts/bench.sh
fi

echo "==> ci OK"
