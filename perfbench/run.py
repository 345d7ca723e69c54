#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

Usage (from the checkout root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything the build writes (Go build cache, binary, run directories,
results) stays under .bench_build/ in the checkout. A checkout without
the simulator's sources fails the build, and the script exits non-zero
without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execve(binary, [binary, "-root", ROOT] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
