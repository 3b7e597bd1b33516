#!/usr/bin/env python3
"""Builds and runs the tracesafed benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 10 --trace 0

The first run configures and builds the deployed daemon and tsbench
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build);
later runs only re-check the build. tsbench's report goes to stdout and
its last line is the JSON result. Exit status: tsbench's (0 = every
verdict checked out), 2 when the build or the arguments fail.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cold-mix", "repeat-hot", "racelog-scan")
# A run measures --seconds, plus set-up, generation and the oracle sample.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures once, then lets the build tool decide what is stale."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the daemon's and the benchmark's sources, so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "src"), BENCH_DIR,
            os.path.join(ROOT, "examples", "tracesafed.cpp")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                         if f.endswith((".h", ".cpp", ".txt", ".py")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt-expectation", action="store_true",
                        help="flip one expected verdict (the run must fail)")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "daemon", "Server.h")):
        fail("no TraceSafe sources next to perfbench/ (run from a checkout)")

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # One run at a time per checkout: runs share the build and would fight
    # over the daemon's socket and the CPUs.
    lock = open(os.path.join(out, "run.lock"), "w")
    fcntl.flock(lock, fcntl.LOCK_EX)
    build(out)
    run_dir = os.path.join(out, "run-" + args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    cmd = [os.path.join(out, "tsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(out, "tracesafed"),
           "--run-dir", run_dir,
           "--git-rev", git_revision(), "--source-digest", source_digest()]
    if args.corrupt_expectation:
        cmd.append("--corrupt-expectation")
    sys.stdout.flush()
    # Own process group: a timeout takes tsbench and its daemon down
    # together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s and was killed" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    # Journals and cache files of a racelog run hold every log it sent.
    shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(rc if rc >= 0 else 2)


if __name__ == "__main__":
    main()
