#!/usr/bin/env python3
"""Interleaved A/B comparison of two revisions on the perfbench workloads.

    python3 scripts/ab_perfbench.py PARENT CHANGE [--pairs 10]
        [--workload cold-mix] [--seconds 10] [--work-dir DIR] [--json OUT]
    python3 scripts/ab_perfbench.py --replay OUT

Each revision is exported with `git archive` into its own tree under
--work-dir and built there by perfbench/run.py, with its own
CARGO_TARGET_DIR, so the two builds share nothing. Then it runs --pairs
pairs per workload: pair i runs both trees at seed i, the parent first on
even i and the change first on odd i, so a host that drifts over the
sitting drifts under both sides alike. Every run is printed.

For every end-to-end metric of BENCHMARK.json the report gives each
side's median and quartiles, the median paired ratio change/parent, the
number of pairs the change won, and a sign-test interval for the median
ratio (distribution free: it only assumes the pairs are independent).
The verdict is `gain` when the whole interval is on the metric's better
side of 1, `regression` when it is on the worse side, and `unresolved`
otherwise, including when there are too few pairs for an interval at
all. `clear` says whether, over at least ten pairs, the change won at
least nine in ten and its median beats the parent's by more than the
parent's interquartile range.

--json writes every run and the summary; --replay re-reports such a file
without running anything. Exit status: 0, or 1 when a run failed a check.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIDENCE = 0.95


def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return None
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def quartiles(xs):
    """(Q1, Q3) by the median-of-halves rule."""
    s = sorted(xs)
    half = len(s) // 2
    if half == 0:
        return (None, None)
    return (median(s[:half]), median(s[len(s) - half:]))


def sign_test_interval(ratios, confidence=CONFIDENCE):
    """The distribution-free interval [r(k), r(n+1-k)] for the median of
    the ratios: the largest k whose two tails each hold at most
    (1 - confidence) / 2 of Binomial(n, 1/2). None when n is too small for
    any k >= 1 (fewer than 6 pairs at 95%)."""
    s = sorted(ratios)
    n = len(s)
    tail = (1 - confidence) / 2
    k, below = 0, 0.0
    while k < n // 2:
        below += math.comb(n, k) / 2 ** n  # P(X <= k) after this step
        if below > tail:
            break
        k += 1
    if k == 0:
        return None
    return (s[k - 1], s[n - k])


def verdict(interval, better):
    if interval is None:
        return "unresolved"
    lo, hi = interval
    if better == "higher":
        return "gain" if lo > 1 else "regression" if hi < 1 else "unresolved"
    return "gain" if hi < 1 else "regression" if lo > 1 else "unresolved"


def summarise(runs, spec):
    """runs: [{"pair", "side", "workload", "failed", "metrics"}]; spec: the
    end_to_end list of BENCHMARK.json. Returns one row per workload and
    metric that both sides reported in some pair."""
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        for m in spec:
            name = m["name"]
            parent, change, ratios = [], [], []
            wins = 0
            for sides in by_pair.values():
                a = sides.get("parent", {}).get(name)
                b = sides.get("change", {}).get(name)
                if not isinstance(a, (int, float)) or \
                        not isinstance(b, (int, float)) or a <= 0 or b <= 0:
                    continue
                parent.append(a)
                change.append(b)
                ratios.append(b / a)
                wins += (b > a) if m["better"] == "higher" else (b < a)
            if not ratios:
                continue
            interval = sign_test_interval(ratios)
            pq, cq = quartiles(parent), quartiles(change)
            iqr = None if pq[0] is None else pq[1] - pq[0]
            gap = median(change) - median(parent)
            if m["better"] == "lower":
                gap = -gap
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "better": m["better"], "pairs": len(ratios), "wins": wins,
                "parent_median": median(parent), "parent_quartiles": pq,
                "parent_iqr": iqr,
                "change_median": median(change), "change_quartiles": cq,
                "median_ratio": median(ratios),
                "interval": interval,
                "verdict": verdict(interval, m["better"]),
                "clear": len(ratios) >= 10 and 10 * wins >= 9 * len(ratios)
                and gap > iqr,
            })
    return rows


def fmt(x):
    if x is None:
        return "-"
    return "%.4g" % x


def report(rows, out=sys.stdout):
    print("%-13s %-24s %5s %5s %23s %23s %8s %16s %-10s %s" % (
        "workload", "metric", "pairs", "wins", "parent q1/med/q3",
        "change q1/med/q3", "ratio", "95% interval", "verdict", "clear"),
        file=out)
    for r in rows:
        iv = r["interval"]
        span = "-" if iv is None else "[%.3f,%.3f]" % iv
        sides = ["%s/%s/%s" % (fmt(q[0]), fmt(m), fmt(q[1])) for q, m in (
            (r["parent_quartiles"], r["parent_median"]),
            (r["change_quartiles"], r["change_median"]))]
        print("%-13s %-24s %5d %5d %23s %23s %8.3f %16s %-10s %s" % (
            r["workload"], r["metric"], r["pairs"], r["wins"], sides[0],
            sides[1], r["median_ratio"], span, r["verdict"],
            "yes" if r["clear"] else "no"), file=out)


def export_tree(rev, dest):
    """Exports rev to dest, unless dest already holds it (so a second
    invocation does not make its build stale)."""
    sha = subprocess.run(["git", "rev-parse", rev + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    if not sha:
        sys.exit("ab_perfbench: unknown revision %s" % rev)
    marker = os.path.join(dest, ".ab_revision")
    if os.path.exists(marker) and open(marker).read() == sha:
        return
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    extract = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or extract.returncode != 0:
        sys.exit("ab_perfbench: cannot export %s" % rev)
    with open(marker, "w") as f:
        f.write(sha)


def run_once(tree, target, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"failed": None, "metrics": {}, "rc": proc.returncode}
    metrics = {k: v.get("value") for k, v in result["metrics"].items()}
    return {"failed": result.get("failed"), "metrics": metrics,
            "rc": proc.returncode}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", nargs="?")
    p.add_argument("change", nargs="?")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--work-dir",
                   default=os.path.join(tempfile.gettempdir(), "ab_perfbench"))
    p.add_argument("--json")
    p.add_argument("--replay")
    args = p.parse_args()

    if args.replay:
        with open(args.replay) as f:
            record = json.load(f)
        runs, spec = record["runs"], record["end_to_end"]
    else:
        if not args.parent or not args.change:
            p.error("PARENT and CHANGE are required without --replay")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        spec = bench["end_to_end"]
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        trees = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            tree = os.path.join(args.work_dir, side)
            export_tree(rev, tree)
            trees[side] = (tree, os.path.join(args.work_dir, side + "-build"))
        runs = []
        for workload in workloads:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    tree, target = trees[side]
                    r = run_once(tree, target, workload, pair, args.seconds)
                    r.update(pair=pair, side=side, workload=workload)
                    runs.append(r)
                    m = r["metrics"]
                    print("%s pair %d %-6s rc=%s failed=%s qps=%s p50=%s "
                          "p99=%s rss=%s" % (
                              workload, pair, side, r["rc"], r["failed"],
                              fmt(m.get("throughput_qps")),
                              fmt(m.get("latency_p50_us")),
                              fmt(m.get("latency_p99_us")),
                              fmt(m.get("daemon_peak_rss_mb"))), flush=True)
    rows = summarise(runs, spec)
    report(rows)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"parent": args.parent, "change": args.change,
                       "end_to_end": spec, "runs": runs, "summary": rows},
                      f, indent=1)
    bad = [r for r in runs if r.get("rc") != 0 or r.get("failed") != 0]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
