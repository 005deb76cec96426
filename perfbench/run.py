#!/usr/bin/env python3
"""Builds the eend benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) built against the repository's crates; it is
compiled into $CARGO_TARGET_DIR (default perfbench/target) and writes
run data and span traces under perfbench/out. Standard output ends with
one JSON result line whose metrics are exactly those BENCHMARK.json
lists for the mode: end_to_end with --trace 0, per_layer with --trace 1.
Anything else exits non-zero without a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv):
    if "--trace" not in argv or argv.index("--trace") + 1 >= len(argv):
        return fail("--trace 0|1 is required")
    trace = argv[argv.index("--trace") + 1] == "1"
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if build.returncode != 0:
        return fail(f"build failed with exit code {build.returncode}")

    binary = os.path.join(target, "release", "eend-perfbench")
    out_dir = os.path.join(HERE, "out")
    try:
        run = subprocess.run([binary, *argv, "--out", out_dir], stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"benchmark did not finish: {e}")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return fail(f"benchmark exited with code {run.returncode}")

    try:
        result = json.loads(lines[-1])
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return fail(f"last line is not a result: {e}")
    want = expected_metrics(trace)
    if emitted != want:
        extra = sorted(set(emitted) - set(want))
        missing = sorted(set(want) - set(emitted))
        return fail(f"metrics differ from BENCHMARK.json: extra {extra}, missing {missing}, "
                    f"or units differ")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
