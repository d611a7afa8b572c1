#!/usr/bin/env python3
"""Build and run the replay benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload victim-mix --seed 1 --seconds 10 --trace 0

Builds ./perfbench/replay with the Go toolchain into .bench_build/ (build
cache, temporary files and Go's config included, so nothing is written
outside the checkout), then runs it with the same arguments. The last line
of standard output is the benchmark's JSON result. Exits non-zero without a
result when the checkout holds no buildable module.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-replay")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("XDG_CONFIG_HOME", "config"), ("TMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["GOPROXY"] = "off"
    env["CGO_ENABLED"] = "0"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at %s; nothing to build" % ROOT, file=sys.stderr)
        return 2
    env = go_env()
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "./perfbench/replay"],
                               cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
