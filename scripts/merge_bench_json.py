#!/usr/bin/env python3
"""Merge google-benchmark JSON outputs into one BENCH_results.json.

Usage: merge_bench_json.py OUT.json IN1.json [IN2.json ...]

Each input is one bench binary's --benchmark_out file, run with
--benchmark_repetitions=N (N >= 2), so that it holds one raw row per
repetition of every benchmark. The merged record keeps one row per
benchmark, computed from those raw rows: its median ns/op (and median
bytes/s where the bench reports bytes), the median absolute deviation
of its ns/op over the median (`mad`, a fraction of the median), and the
repetition count. The MAD is the spread check_bench_regression.py
gates on: unlike the coefficient of variation, one outlier repetition
cannot widen it. The engine configuration is parsed from the benchmark
name:

  *_oracle        the seed sequential exhaustive engine (no POR)
  *_nopor         the interned engine with sleep sets disabled
  *_por           the interned engine with sleep-set POR
  *_epoch         the racelog streaming detector's epoch engine (its
                  *_oracle sibling is the full-vector-clock engine)
  *_w1            the engine rows' width; every engine is sequential, so
                  it is always 1 (kept so row names stay comparable)

google-benchmark appends slash-separated qualifiers to the registered
name: numeric args (`bench/4`) stay part of the family, time selectors
(`.../real_time`) are dropped from it.

For every family that has an `_oracle` row and a reduced row (`_por`,
else `_epoch`), `speedups` records oracle median / reduced median.

The host record names the host, its core count and the revision, so
every row of one merge comes from one host and one tree: inputs from
different hosts are refused. Inputs recorded
from a debug build are refused: debug numbers in a baseline make every
later comparison lie.

The tables of docs/PERFORMANCE.md that quote the record are rendered
from it on every merge, so they cannot drift. A table is the text
between `<!-- BENCH_results.json rows REGEX -->` (every row whose name
matches REGEX) or `<!-- BENCH_results.json speedups -->` and the next
`<!-- end BENCH_results.json -->`. The file rendered is
docs/PERFORMANCE.md beside OUT.json, when there is one.
"""

import json
import os
import re
import subprocess
import sys

TIME_SELECTORS = {"real_time", "manual_time", "process_time", "cpu_time"}
ENGINE_SUFFIXES = (("_oracle", "oracle", False), ("_nopor", "interned", False),
                   ("_por", "interned", True), ("_epoch", "epoch", False))


def parse_name(name):
    """Extract (family, engine, por) from a benchmark name."""
    parts = name.split("/")
    base = re.sub(r"_w\d+$", "", parts[0])
    args = [q for q in parts[1:] if q not in TIME_SELECTORS]
    engine, por = "unknown", False
    for suffix, eng, p in ENGINE_SUFFIXES:
        if base.endswith(suffix):
            engine, por = eng, p
            base = base[: -len(suffix)]
            break
    return "/".join([base] + args), engine, por


def git_revision():
    """Short revision of the tree this script lives in, "-dirty" when the
    tree has uncommitted changes ("unknown" when git cannot say)."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        out = subprocess.run(
            ["git", "-C", repo, "describe", "--always", "--dirty",
             "--abbrev=7"],
            capture_output=True, text=True, timeout=10,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except OSError:
        return "unknown"


def to_ns(t, unit):
    return t * {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1)


def median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def rows_of(doc, source):
    """One row per benchmark of one input, from its raw repetition rows.
    Raises ValueError for a benchmark with fewer than two."""
    reps = {}
    for b in doc.get("benchmarks", []):
        run = b.get("run_name", b["name"])
        reps.setdefault(run, [])
        if b.get("run_type", "iteration") == "iteration":
            reps[run].append(b)
    rows = []
    for run, runs in reps.items():
        if len(runs) < 2:
            raise ValueError(
                f"{source}: {run} has {len(runs)} repetition rows; run the "
                "bench with --benchmark_repetitions=N, N >= 2")
        ns = [to_ns(b["real_time"], b.get("time_unit", "ns")) for b in runs]
        mid = median(ns)
        family, engine, por = parse_name(run)
        row = {
            "bench": source,
            "name": run,
            "family": family,
            "engine": engine,
            "por": por,
            "ns_per_op": mid,
            "mad": median(abs(x - mid) for x in ns) / mid,
            "repetitions": len(runs),
        }
        if all("bytes_per_second" in b for b in runs):
            row["bytes_per_second"] = median(b["bytes_per_second"]
                                             for b in runs)
        rows.append(row)
    return rows


def speedups_of(rows):
    by_family = {}
    for r in rows:
        by_family.setdefault(r["family"], {})[(r["engine"], r["por"])] = r
    speedups = {}
    for family, engines in sorted(by_family.items()):
        oracle = engines.get(("oracle", False))
        reduced = engines.get(("interned", True)) or engines.get(
            ("epoch", False))
        if not oracle or not reduced:
            continue
        speedups[family] = {
            "oracle_ns_per_op": oracle["ns_per_op"],
            "reduced_ns_per_op": reduced["ns_per_op"],
            "speedup": oracle["ns_per_op"] / reduced["ns_per_op"],
        }
    return speedups


def fmt_ns(ns):
    for scale, unit in ((1e9, "s"), (1e6, "ms"), (1e3, "µs")):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def render(merged, what):
    """The markdown table for one marker: `speedups` or `rows REGEX`."""
    h = merged["host"]
    lines = [f"Host `{h['host_name']}`, {h['num_cpus']} CPUs at "
             f"{h['mhz_per_cpu']} MHz, {h['build_type']} build of "
             f"`{h['revision']}`, {h['date']}: medians of "
             f"{h['repetitions']} repetitions.", ""]
    if what == "speedups":
        lines += ["| family | oracle | reduced | oracle / reduced |",
                  "|---|---|---|---|"]
        for fam, s in merged["speedups"].items():
            lines.append(f"| `{fam}` | {fmt_ns(s['oracle_ns_per_op'])} | "
                         f"{fmt_ns(s['reduced_ns_per_op'])} | "
                         f"{s['speedup']:.1f}x |")
    else:
        pattern = re.compile(what.split(" ", 1)[1])
        rows = [r for r in merged["benchmarks"] if pattern.search(r["name"])]
        mbs = any("bytes_per_second" in r for r in rows)
        lines += ["| row | median | MAD |" + (" throughput |" if mbs else ""),
                  "|---|---|---|" + ("---|" if mbs else "")]
        for r in rows:
            line = (f"| `{r['name']}` | {fmt_ns(r['ns_per_op'])} | "
                    f"{r['mad'] * 100:.1f}% |")
            if mbs:
                line += f" {r.get('bytes_per_second', 0) / 1e6:.0f} MB/s |"
            lines.append(line)
    return "\n".join(lines) + "\n"


def render_docs(merged, path):
    """Re-renders every marked table of \\p path; returns their count."""
    with open(path) as f:
        text = f.read()
    block = re.compile(r"(<!-- BENCH_results\.json (speedups|rows \S+) -->\n)"
                       r".*?(<!-- end BENCH_results\.json -->)", re.S)
    text, count = block.subn(
        lambda m: m.group(1) + render(merged, m.group(2)) + m.group(3), text)
    with open(path, "w") as f:
        f.write(text)
    return count


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    out_path, inputs = argv[1], argv[2:]

    rows = []
    context = {}
    hosts = set()
    try:
        for path in inputs:
            with open(path) as f:
                doc = json.load(f)
            context = doc.get("context", {})
            hosts.add((context.get("host_name"), context.get("num_cpus")))
            if len(hosts) > 1:
                raise ValueError(f"{path}: recorded on another host than "
                                 "the inputs before it")
            # The binary's own report of how the code under test was
            # compiled (TRACESAFE_BENCH_MAIN adds it); library_build_type
            # only describes the installed benchmark library.
            build_type = context.get("tracesafe_build_type",
                                     context.get("library_build_type", ""))
            if build_type == "debug":
                sys.stderr.write(
                    f"error: {path}: recorded from a debug build; its "
                    "timings are not comparable to release numbers. Re-run "
                    "the benches from a release build.\n")
                return 3
            source = context.get("executable", path).rsplit("/", 1)[-1]
            rows += rows_of(doc, source)
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2

    merged = {
        "schema": "tracesafe-bench-results-v3",
        "host": {
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "build_type": context.get("tracesafe_build_type",
                                      context.get("library_build_type")),
            "revision": git_revision(),
            "date": context.get("date", "")[:10],
            "repetitions": min((r["repetitions"] for r in rows), default=0),
        },
        "benchmarks": rows,
        "speedups": speedups_of(rows),
    }
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path}: {len(rows)} benchmarks, "
          f"{len(merged['speedups'])} speedups")

    docs = os.path.join(os.path.dirname(os.path.abspath(out_path)), "docs",
                        "PERFORMANCE.md")
    if os.path.exists(docs):
        print(f"rendered {render_docs(merged, docs)} tables in {docs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
