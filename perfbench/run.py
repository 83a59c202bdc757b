#!/usr/bin/env python3
"""Builds the mdqa benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from anywhere; paths are taken relative to the repository root. The
build (a Release build of ../src plus the benchmark program, see
CMakeLists.txt) goes to $CARGO_TARGET_DIR when that is set, else to
.bench_build/ at the repository root; the first run configures and
compiles, later runs only check that the build is current. Build output
goes to stderr, so the last line of stdout is always the result object.
A traced run also writes its spans, as Chrome trace-event JSON, to
<build dir>/traces/. See README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("assess-batch", "assess-pooled", "session-updates", "serve-mixed")
DEFAULT_SEED = 1


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def git_sha():
    """HEAD of the repository this file sits in, or "unknown"."""
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", ROOT, *args],
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return ""
        return out.stdout.strip() if out.returncode == 0 else ""

    # A checkout that is not itself a repository must not report the SHA
    # of some enclosing one.
    top = git("rev-parse", "--show-toplevel")
    if not top or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    sha = git("rev-parse", "--short", "HEAD") or "unknown"
    return sha + "-dirty" if git("status", "--porcelain") else sha


def build(directory):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", directory, "--target", "mdqa_perf",
                  "--parallel", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops on shrunken inputs (the smoke test)")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must fit in 32 bits")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no mdqa sources next to perfbench/ (expected "
              "src/CMakeLists.txt at the repository root)", file=sys.stderr)
        return 2
    directory = build_dir()
    if not build(directory):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 3

    binary = os.path.join(directory, "mdqa_perf")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        traces = os.path.join(directory, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(binary, command)  # the benchmark replaces this process


if __name__ == "__main__":
    sys.exit(main())
