#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload consensus-n128 --seed 1 --seconds 15 --trace 0

The benchmark is the Go module beside this file; it imports the library
from the parent directory. This script builds it with the Go toolchain on
PATH, keeping the build cache and every other file the toolchain writes
under .bench_build/ in the current directory, then runs the binary with
the given arguments and exits with its exit code. Its standard output is
passed through unchanged: the last line is the result object.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
