#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload echo-fleet --seed 1 --seconds 20 --trace 0

The program is built with the checkout's own Go toolchain settings pinned
so that nothing outside the checkout is read or written beyond the Go
installation itself: the build cache, module cache and Go's config
directory all live under the build directory (CARGO_TARGET_DIR when set,
else .bench_build). Module downloads are disabled; the benchmark module
depends only on the repository module, through a local replace.

Standard output is the program's: human-readable metric lines, then one
JSON result object as the last line. The exit status is the program's, or
nonzero without a result when the checkout is incomplete or the build
fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds: float) -> float:
    """How long the program may run: a --trace 1 run measures for the
    budget and then some (a warm-up, a counting iteration and at least
    three iterations per half), so allow twice the budget plus a margin."""
    return 2 * seconds + 100


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for need in ("go.mod", "internal"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found next to {bench_dir}: "
                  "the benchmark builds the repository it sits in",
                  file=sys.stderr)
            return 2

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.abspath(build_dir)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOMODCACHE": os.path.join(build_dir, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly -buildvcs=false",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build_dir, "perfbench", "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench_dir, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=root, env=env,
                             timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
