#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs ``run.py --scale tiny`` untraced
and traced, and checks that each run is correct with no failed pairs and that
it reports exactly the metric names and units BENCHMARK.json declares
(``end_to_end`` untraced, ``per_layer`` traced). It also checks the traced
layer figures the workloads exist to show (one restart on ``isolated``, a
cache hit rate near 0.98 on ``dedup``, a threads=1 reference on ``platform``)
and that ``run.py`` fails without printing a result in a directory holding
only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            before = len(problems)
            out = run(w, trace)
            label = f"{w} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(declared[trace]))}")
            if trace == 1:
                v = {n: m["value"] for n, m in result["metrics"].items()}
                expect = {
                    "isolated": v.get("supervise.restarts") == 1,
                    "dedup": v.get("cache.hit_rate", 0) > 0.95,
                    "platform": v.get("executor.scaling_2v1", 0) > 0,
                    "alpha-point": v.get("student.tune_s", 0) > 0,
                }
                if not expect.get(w, True):
                    problems.append(f"{label}: layer figures off: {v}")
            print(("ok  " if len(problems) == before else "FAIL"), label)

    # A directory with only BENCHMARK.json and the benchmark's files has no
    # program to build: run.py must fail without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "platform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    if out.returncode == 0 or out.stdout.strip():
        problems.append(f"bare directory: exit {out.returncode}, "
                        f"stdout {out.stdout!r}")
    else:
        print("ok   bare directory fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
