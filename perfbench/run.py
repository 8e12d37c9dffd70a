#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

All arguments are passed to the `ipdb-perfbench` binary (see README.md).
Cargo's output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The build goes to `$CARGO_TARGET_DIR`, or to
`.bench_build` at the repository root when that is unset. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
            "--target-dir",
            target,
        ],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "ipdb-perfbench")
    return subprocess.run([binary, *sys.argv[1:]], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
