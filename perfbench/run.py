#!/usr/bin/env python3
"""Build the WearLock host-time benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fleet_steady|fleet_churn|session_direct> \
        --seed <n> --seconds <s> --trace <0|1> [--tiny]

The benchmark binary is built in release mode (offline, from the locked
dependency set) into $CARGO_TARGET_DIR, or `.bench_build` when that is
unset. Build output goes to stderr; the binary's stdout is passed
through, and its last line is the JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(os.path.abspath(target), "release", "wearlock-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
