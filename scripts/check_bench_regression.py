#!/usr/bin/env python3
"""Compare two BENCH_results.json files row by row, on their medians.

Usage: check_bench_regression.py BASELINE.json CURRENT.json

Rows are matched by benchmark name. Each file records, per row, the
median ns/op over its repetitions and the median absolute deviation of
those repetitions over the median (MAD, a fraction of the median). A
row regresses when its current median is slower than the baseline
median by more than SPREAD_FACTOR times the larger of the two MADs. The
script lists every comparison, flags regressions, and exits 1 if any
were found (2 on usage errors or a file without MADs).

Rows present on only one side are listed as added/removed but are never
failures: benches come and go with the code under test. Comparing
numbers recorded on different hosts or build types is usually
meaningless; mismatches in the host records are printed as warnings.
"""

import json
import sys

# A row's bound is 3 MADs. For normal noise the MAD estimates 0.674
# sigma, so the bound is about 2.0 sigma. With 5 repetitions the
# standard error of a median is about 1.25 * sigma / sqrt(5) = 0.56
# sigma, and the difference of two medians has a standard error of about
# 0.79 sigma: the bound is ~2.6 standard errors, a one-sided false alarm
# on pure normal noise in about 0.5% of rows. Taking the larger of the
# two files' MADs covers the noisier side. Unlike sigma (and so the CV),
# the MAD ignores the slowest repetitions, so one outlier on a shared
# host neither widens the bound nor moves the medians compared.
SPREAD_FACTOR = 3.0


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {r["name"]: r for r in doc.get("benchmarks", [])}
    if any("mad" not in r for r in rows.values()):
        raise ValueError(f"{path}: rows without a mad; re-record it with "
                         "scripts/merge_bench_json.py")
    return doc, rows


def fmt_ns(ns):
    for scale, unit in ((1e9, "s"), (1e6, "ms"), (1e3, "us")):
        if ns >= scale:
            return f"{ns / scale:.3f}{unit}"
    return f"{ns:.0f}ns"


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    try:
        base_doc, base = load(argv[1])
        cur_doc, cur = load(argv[2])
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2

    for field in ("host_name", "build_type", "num_cpus"):
        b = base_doc.get("host", {}).get(field)
        c = cur_doc.get("host", {}).get(field)
        if b != c:
            sys.stderr.write(f"warning: host {field} differs: "
                             f"baseline={b} current={c}\n")

    regressions = []
    for name in sorted(base.keys() & cur.keys()):
        b, c = base[name], cur[name]
        delta = (c["ns_per_op"] - b["ns_per_op"]) / b["ns_per_op"]
        bound = SPREAD_FACTOR * max(b["mad"], c["mad"])
        shown = (f"{name}: {fmt_ns(b['ns_per_op'])} -> "
                 f"{fmt_ns(c['ns_per_op'])} ({delta * 100:+.1f}%, "
                 f"bound {bound * 100:.1f}%)")
        mark = "!" if delta > bound else "+" if delta < -bound else " "
        if mark == "!":
            regressions.append(shown)
        print(f"{mark} {shown}")
    for name in sorted(base.keys() - cur.keys()):
        print(f"- {name}: removed")
    for name in sorted(cur.keys() - base.keys()):
        print(f"* {name}: added")

    print(f"\n{len(base.keys() & cur.keys())} rows compared, "
          f"{len(regressions)} regressed")
    for shown in regressions:
        print(f"  {shown}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
