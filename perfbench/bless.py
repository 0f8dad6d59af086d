#!/usr/bin/env python3
"""Rewrite perfbench/golden.txt with the current program's output digests.

Usage, from the repository root:

    python3 perfbench/bless.py [--seeds 11] [--first-seed 0]

Runs every workload once per seed at full size and records the digest its
first call printed. Run it only for a change that is meant to alter outputs,
and say why in the change's notes.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=11)
    ap.add_argument("--first-seed", type=int, default=0)
    opts = ap.parse_args()
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    lines = ["# workload seed digest (full sizes); written by bless.py"]
    for w in (w["name"] for w in spec["workloads"]):
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", "0", "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            digests = re.findall(r"digest ([0-9a-f]{16})", out.stderr)
            if out.returncode != 0 or not digests:
                print(f"{w} seed {seed}: no digest\n{out.stderr}")
                return 1
            if len(set(digests)) != 1:
                print(f"{w} seed {seed}: calls disagree: {sorted(set(digests))}")
                return 1
            lines.append(f"{w} {seed} {digests[0]}")
            print(lines[-1])
    with open(os.path.join(HERE, "golden.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
