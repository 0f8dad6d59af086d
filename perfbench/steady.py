#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [WORKLOAD ...]

Runs ``perfbench/run.py --trace 0`` once per seed on each named workload
(default: every workload in BENCHMARK.json) and prints, per metric, the
median, the first and third quartiles (``statistics.quantiles(n=4)``), the
spread (third minus first quartile, as a share of the median) and the
metric's bound from BENCHMARK.json. Each run's result line is appended to
``.bench_build/steady.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    opts = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "steady.jsonl"), "a")
    ok = True
    for w in opts.workloads:
        values = {}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}")
                ok = False
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            log.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            log.flush()
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            print(f"{w:12s} {name:12s} median {med:12.4f} q1 {q1:12.4f} "
                  f"q3 {q3:12.4f} spread {spread:7.2%} bound {bound}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
