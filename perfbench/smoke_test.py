#!/usr/bin/env python3
"""Smoke test of the tracesafed benchmark. Run from the checkout root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json briefly, with tracing off and on,
and asserts that each run passes its verdict checks and prints exactly the
metrics BENCHMARK.json names, each with its unit. Then runs one workload
with a deliberately wrong expected verdict and asserts that the run fails.
Exit status 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result


def check_metrics(result, wanted):
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(wanted):
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(set(wanted) - set(metrics)),
            sorted(set(metrics) - set(wanted))))
    for name, unit in wanted.items():
        m = metrics.get(name)
        if m is None:
            continue
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s has no numeric value" % name)
        if m.get("unit") != unit:
            problems.append("%s has unit %r, not %r" % (name, m.get("unit"),
                                                        unit))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc, result = run(w["name"], trace)
            label = "%s --trace %d" % (w["name"], trace)
            if proc.returncode != 0 or result is None:
                failures.append("%s: exit %d\n%s%s" % (
                    label, proc.returncode, proc.stdout[-2000:],
                    proc.stderr[-2000:]))
                continue
            problems = check_metrics(result, wanted[trace])
            if not result.get("correct") or result.get("failed") != 0:
                problems.append("verdict checks failed")
            if result.get("attempted", 0) < 1:
                problems.append("nothing attempted")
            for p in problems:
                failures.append("%s: %s" % (label, p))
            print("ok   " if not problems else "FAIL ", label, flush=True)

    # The checks must bite: a flipped expectation fails the run.
    proc, result = run("racelog-scan", 0, ["--corrupt-expectation"])
    caught = (proc.returncode != 0 and result is not None and
              result["correct"] is False and result["failed"] >= 1)
    print("ok   " if caught else "FAIL ", "a wrong expected verdict is caught",
          flush=True)
    if not caught:
        failures.append("--corrupt-expectation: exit %d, result %s" % (
            proc.returncode, result))

    for f in failures:
        print(f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
