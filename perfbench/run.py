#!/usr/bin/env python3
"""Entry point of the antdensity end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `repro` and the `perfbench`
load generator from the checkout's sources (into $CARGO_TARGET_DIR,
default `.bench_build`), then runs one workload. Build output goes to
standard error; the last line of standard output is the result object.
Exits non-zero without a result if the sources are missing or the build
or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(cmd, env):
    # Cargo reports on stderr; keep stdout for the result line.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "bench")
    ):
        print("perfbench: no antdensity sources next to the benchmark", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    if not build(cargo + ["-p", "antdensity-bench", "--bin", "repro"], env):
        print("perfbench: building repro failed", file=sys.stderr)
        return 1
    if not build(cargo + ["--manifest-path", manifest], env):
        print("perfbench: building perfbench failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--repro",
        os.path.join(release, "repro"),
        "--work",
        os.path.join(ROOT, ".perfbench_work"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
