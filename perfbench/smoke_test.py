#!/usr/bin/env python3
"""The benchmark's own test: every workload, a few ops long, untraced and
traced, on shrunken inputs.

    python3 perfbench/smoke_test.py

Checks that each run exits 0 with every correctness gate passing, that
the last line holds exactly the metrics BENCHMARK.json names for the mode
(end-to-end untraced, per-layer traced) with their units, that the
untraced run prints the workload's figures by name and unit with an
error_rate of 0, and that the benchmark refuses to run, printing no
result, in a directory holding only BENCHMARK.json and perfbench/.
Builds through run.py first, so the first run compiles.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# The workload's own names for its figures (README.md), printed by an
# untraced run above the result line.
REPORTED = {
    "assess-batch": ["assess_ms_p50", "assess_ms_p90"],
    "assess-pooled": ["assess_ms_p50", "assess_ms_p90"],
    "session-updates": ["write_ms_p50", "write_ms_p90"],
    "serve-mixed": ["write_ms_p50", "write_ms_p90"],
}
COMMON = ["setup_s", "peak_rss_mb", "read_us_p50", "read_us_p90",
          "throughput_per_s", "error_rate"]


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_run(spec, workload, trace, failures):
    proc = run([RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and
            result["attempted"] >= 1):
        failures.append(f"{label}: gates failed: {result}\n{proc.stderr}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        failures.append(f"{label}: metrics {list(got)}")
    for m in wanted:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"] or not isinstance(
                entry.get("value"), (int, float)):
            failures.append(f"{label}: bad metric {m['name']}: {entry}")
    if trace:
        return
    printed = {}
    for line in lines[:-1]:
        match = re.match(r"\s+(\S+) = (\S+) (\S+)$", line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
    for name in REPORTED[workload] + COMMON:
        if name not in printed:
            failures.append(f"{label}: {name} not printed")
    if printed.get("error_rate", (1, ""))[0] != 0:
        failures.append(f"{label}: error_rate {printed.get('error_rate')}")


def check_refuses_without_sources(failures):
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run([os.path.join("perfbench", "run.py"), "--workload",
                "assess-batch", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("run.py did not refuse a directory without sources")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace, failures)
    check_refuses_without_sources(failures)
    for failure in failures:
        print("FAIL", failure)
    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
