#!/usr/bin/env python3
"""Build the perfbench program from this checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload lu-traced --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py compare base.jsonl head.jsonl
    python3 perfbench/run.py refs --seeds 0-31

Every argument is passed to the program (see perfbench/README.md). The Go
build cache, temporary files, the go command's config directory and the
binary live in .bench_build/ under the repository root, so a run writes
nothing outside the checkout. run.py exits with the program's status; a
failed build exits 2 and prints no result.
"""
import os
import subprocess
import sys


def main():
    src = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(src)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        # The go command keeps its telemetry counters under the user config
        # directory; point that into the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
