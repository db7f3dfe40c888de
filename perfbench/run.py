#!/usr/bin/env python3
"""Build the netcong benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ndt_month --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the library
from src/ plus the benchmark driver) into .bench_build; later calls only
let the build tool confirm it is up to date. All arguments go to the
driver unchanged. Build output goes to stderr, so the last line on stdout
is the driver's JSON result. The exit code is the driver's, or 1 when the
build fails (for example when src/ is missing).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", out, "--target", "netcong_perfbench",
                   "--parallel", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "netcong_perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
