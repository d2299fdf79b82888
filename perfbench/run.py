#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

    python3 perfbench/run.py --workload fleet-solo --seed 1 --seconds 30 --trace 0

Arguments pass through to the perfbench binary (see main.go). The build
cache, temporary files, journals and span files all stay under
.bench_build/ in the checkout. The exit code is the build's when the
build fails, else the benchmark's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        # Keep freed heap pages mapped (MADV_FREE) so that repeated
        # set-ups and iterations reuse them instead of faulting fresh
        # pages in: fault time is kernel work whose cost follows the
        # host's memory state, not the program.
        GODEBUG=",".join(filter(None, [os.environ.get("GODEBUG"), "madvdontneed=0"])),
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        return build.returncode or 1
    args = [
        binary,
        "--state-dir", os.path.join(BUILD, "state"),
        "--trace-dir", os.path.join(BUILD, "traces"),
    ] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
