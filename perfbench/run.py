#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
the library and the benchmark from source into .bench_build/ (under a
minute on 4 cores); later calls only rebuild what changed. Build output goes to
stderr, so the benchmark's result stays the last line of stdout.
Exits non-zero, without a result, when the library sources are absent
or the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build():
    """Configure (once) and build the benchmark; return its path."""
    if not os.path.isfile(os.path.join("src", "exp", "sweep_runner.h")):
        sys.exit("perfbench: run from a checkout root holding src/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
