#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload flow|explore|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the mhs library from ../src and
the benchmark driver (perfbench/CMakeLists.txt) into the build directory
named by $CARGO_TARGET_DIR (default .bench_build) the first time, then
runs one measurement. Build output goes to stderr; the driver's stdout,
whose last line is the JSON result, passes through unchanged. Exits
non-zero without a result when the sources are missing, the build fails
or the run overruns its time limit.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, env):
    """Runs a build step; on failure prints its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        sys.stderr.write("perfbench: '%s' failed\n" % " ".join(cmd))
    return proc.returncode == 0


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "flow.h")):
        sys.stderr.write("perfbench: no mhs sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return False
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_logged(configure, env):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", out, "-j", jobs], env)


def main(argv):
    out = build_dir()
    if not build(out):
        return 1
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "mhsbench")] + argv + ["--out", results]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
