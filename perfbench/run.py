#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `molq` server binary and the
`perfbench` driver in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the driver, whose last stdout line is the JSON
result. Build output goes to stderr. Exits non-zero, without a result, when
the checkout holds no sources to build.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "molq-cli", "--bin", "molq"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        sys.exit("perfbench: no molq sources here; run from the root of a checkout")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--molq", os.path.join(release, "molq")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
