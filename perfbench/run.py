#!/usr/bin/env python3
"""Build the CoachLM benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload alpha-point|platform|dedup|isolated \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

The binary is built with cargo into ``$CARGO_TARGET_DIR`` (default
``.bench_build``); build output goes to standard error. The binary then runs
with the same arguments; its journals and shard state live under
``$CARGO_TARGET_DIR/perfbench-tmp``, and the last line of its standard output
is the result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "coachlm-perfbench")
    tmp = os.path.join(target, "perfbench-tmp")
    # A child, not an exec: the binary reads its children's peak resident
    # set, which must cover its worker processes only, not the build.
    return subprocess.run([binary, *sys.argv[1:], "--tmp", tmp],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
