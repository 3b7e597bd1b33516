#!/usr/bin/env python3
"""Merge google-benchmark JSON outputs into one BENCH_results.json.

Usage: merge_bench_json.py [--allow-debug] OUT.json IN1.json [IN2.json ...]

Each input is one bench binary's --benchmark_out file. The merged record
keeps, per benchmark, the wall time in ns/op plus the engine configuration
parsed from the benchmark name:

  *_oracle        the seed sequential exhaustive engine (no POR)
  *_nopor         the interned engine with sleep sets disabled
  *_por           the interned engine with sleep-set POR
  *_epoch         the racelog streaming detector's epoch engine (its
                  *_oracle sibling is the full-vector-clock engine)
  *_w1            the engine rows' width; every engine is sequential, so
                  it is always 1 (kept so row names stay comparable)
  daemon_*        daemon throughput benches (engine "daemon")

google-benchmark appends slash-separated qualifiers to the registered
name — numeric args (`bench/4`), time selectors (`.../real_time`) and
thread counts (`.../threads:4`). These are parsed off before the engine
suffixes: `threads:N` sets the worker count, time selectors are dropped,
and numeric args stay part of the family, so
`daemon_query_warm_c4/real_time/threads:4` lands as family
`daemon_query_warm_c4`, engine `daemon`, workers 4.

For every (bench, query) family that has both an `_oracle` row and a
`_por_w1` row, a speedup entry oracle/por_w1 is emitted — the algorithmic
factor the engine benches claim (>= 4x on the race and behaviour
queries). Families
with an `_oracle` row and an `_epoch` row (the racelog detector) get the
same treatment: the entry records the epoch engine's speedup over the
full-vector-clock baseline.

Rows that report items_per_second (the daemon throughput benches set
items = queries) are additionally surfaced under a `daemon` section as a
queries/sec family, keyed by benchmark name; every `daemon_*_tcp` row is
then paired with its unix-transport sibling in a `daemon_transport`
section recording both rates and the tcp/unix ratio (the transport tax).
The memoisation-plane rows (daemon_query_warm, daemon_warm_restart,
daemon_dedup_burst32) are each priced against daemon_query_cold in a
`cache` section: per-query ns on both sides, the warm-over-cold speedup,
and the measured cache_hit_rate counter where the bench reports one —
check_bench_regression.py --cache-only gates on these speedups without
needing a baseline file. Rows that also report
bytes_per_second (the racelog benches: bytes = log bytes scanned, items
= events) are surfaced under a `racelog` section as MB/s + events/sec,
the family check_bench_regression.py gates on throughput.

Every row (and the host record) is stamped with the current git revision
so two result files can be diffed against known trees. Inputs recorded
from a debug build are refused unless --allow-debug is given — debug
numbers silently merged into a baseline make every later comparison lie.
"""

import json
import os
import re
import subprocess
import sys

TIME_SELECTORS = {"real_time", "manual_time", "process_time", "cpu_time"}


def parse_name(name):
    """Extract (family, engine, por, workers) from a benchmark name."""
    parts = name.split("/")
    base = parts[0]
    args = []
    workers = None
    for q in parts[1:]:
        if q in TIME_SELECTORS:
            continue
        if q.startswith("threads:"):
            workers = int(q.split(":", 1)[1])
            continue
        args.append(q)
    m = re.search(r"_w(\d+)$", base)
    if m:
        if workers is None:
            workers = int(m.group(1))
        base = base[: m.start()]
    if base.endswith("_oracle"):
        engine, por = "oracle", False
        base = base[: -len("_oracle")]
    elif base.endswith("_nopor"):
        engine, por = "interned", False
        base = base[: -len("_nopor")]
    elif base.endswith("_por"):
        engine, por = "interned", True
        base = base[: -len("_por")]
    elif base.endswith("_epoch"):
        engine, por = "epoch", False
        base = base[: -len("_epoch")]
    elif base.startswith("daemon_"):
        engine, por = "daemon", False
    else:
        engine, por = "unknown", False
    family = "/".join([base] + args)
    return family, engine, por, workers if workers is not None else 1


def git_revision():
    """Short revision of the tree this script lives in ("unknown" when the
    repo state cannot be read — merging still succeeds)."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        out = subprocess.run(
            ["git", "-C", repo, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except OSError:
        return "unknown"


def to_ns(t, unit):
    return t * {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1)


def main(argv):
    allow_debug = False
    args = []
    for a in argv[1:]:
        if a == "--allow-debug":
            allow_debug = True
        else:
            args.append(a)
    if len(args) < 2:
        sys.stderr.write(__doc__)
        return 2
    out_path, inputs = args[0], args[1:]
    revision = git_revision()

    rows = []
    context = {}
    for path in inputs:
        with open(path) as f:
            doc = json.load(f)
        context = doc.get("context", context)
        # Prefer the binary's own report of how the code under test was
        # compiled (TRACESAFE_BENCH_MAIN adds it); library_build_type only
        # describes the installed benchmark library.
        ctx = doc.get("context", {})
        build_type = ctx.get("tracesafe_build_type",
                             ctx.get("library_build_type", ""))
        if build_type == "debug":
            msg = (f"{path}: recorded from a debug build; its timings are "
                   "not comparable to release numbers")
            if not allow_debug:
                sys.stderr.write(
                    f"error: {msg}. Re-run the benches from a release "
                    "build, or pass --allow-debug to merge anyway.\n")
                return 3
            sys.stderr.write(f"warning: {msg} (merged anyway).\n")
        source = doc.get("context", {}).get("executable", path)
        source = source.rsplit("/", 1)[-1]
        for b in doc.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            family, engine, por, workers = parse_name(b["name"])
            row = {
                "bench": source,
                "name": b["name"],
                "family": family,
                "engine": engine,
                "por": por,
                "workers": workers,
                "ns_per_op": to_ns(b["real_time"], b.get("time_unit", "ns")),
                "iterations": b.get("iterations", 0),
                "revision": revision,
            }
            if "items_per_second" in b:
                row["items_per_second"] = b["items_per_second"]
            if "bytes_per_second" in b:
                row["bytes_per_second"] = b["bytes_per_second"]
            if "cache_hit_rate" in b:
                row["cache_hit_rate"] = b["cache_hit_rate"]
            rows.append(row)

    # Speedups: seed oracle vs the reduced engine. With
    # --benchmark_repetitions each configuration has several rows; take the
    # minimum ns/op per configuration (best-of-N, the standard way to shave
    # scheduler noise off wall-clock comparisons on a shared host).
    speedups = {}
    by_family = {}
    for r in rows:
        by_family.setdefault(r["family"], []).append(r)
    for family, rs in sorted(by_family.items()):
        oracle = [r for r in rs if r["engine"] == "oracle"]
        # The reduced side is the sleep-set POR engine where one exists,
        # else the racelog epoch engine (vs its full-vector-clock oracle).
        por = [r for r in rs if r["engine"] == "interned" and r["por"]]
        reduced = por or [r for r in rs if r["engine"] == "epoch"]
        if not oracle or not reduced:
            continue
        oracle_ns = min(r["ns_per_op"] for r in oracle)
        reduced_ns = min(r["ns_per_op"] for r in reduced)
        speedups[family] = {
            "oracle_ns_per_op": oracle_ns,
            "reduced_ns_per_op": reduced_ns,
            "speedup": oracle_ns / reduced_ns if reduced_ns else 0.0,
        }

    # Daemon throughput family: queries/sec for every row that counted its
    # items (best-of-N across repetitions, as above).
    daemon = {}
    for r in rows:
        if r["name"].startswith("daemon_") and "items_per_second" in r:
            key = r["name"]
            qps = r["items_per_second"]
            if key not in daemon or qps > daemon[key]["queries_per_second"]:
                daemon[key] = {"queries_per_second": qps,
                               "ns_per_op": r["ns_per_op"]}

    # Transport tax: every daemon_*_tcp row is paired with its unix
    # sibling (same shape, "_tcp" stripped) and the queries/sec ratio is
    # recorded, so "how much does TCP cost over loopback" is one lookup,
    # not a by-hand diff of two rows.
    transport = {}
    for key, tcp in daemon.items():
        base_name = key.split("/", 1)[0]
        if not base_name.endswith("_tcp"):
            continue
        unix_key = key.replace(base_name, base_name[: -len("_tcp")], 1)
        unix = daemon.get(unix_key)
        if not unix:
            continue
        transport[base_name[: -len("_tcp")]] = {
            "unix_queries_per_second": unix["queries_per_second"],
            "tcp_queries_per_second": tcp["queries_per_second"],
            "tcp_over_unix": (tcp["queries_per_second"] /
                              unix["queries_per_second"]
                              if unix["queries_per_second"] else 0.0),
        }

    # Memoisation-plane family: every warm-path daemon row is priced
    # against daemon_query_cold in per-query terms. The rows set
    # items = queries, so 1e9/items_per_second is ns per query whether an
    # iteration is one call (daemon_query_warm) or a 32-query burst
    # (daemon_dedup_burst32). These ratios come from one run on one host,
    # which makes them safe to gate on unconditionally — unlike the
    # cross-run diffs above. daemon_query_warm also carries the measured
    # cache_hit_rate counter, passed through for the gate's report.
    cache = {}
    warm_families = ("daemon_query_warm", "daemon_warm_restart",
                     "daemon_dedup_burst32")

    def per_query_ns(r):
        ips = r.get("items_per_second")
        return 1e9 / ips if ips else r["ns_per_op"]

    cold_rows = [r for r in rows
                 if r["name"].split("/", 1)[0] == "daemon_query_cold"]
    if cold_rows:
        cold_ns = min(per_query_ns(r) for r in cold_rows)
        for fam in warm_families:
            warm_rows = [r for r in rows
                         if r["name"].split("/", 1)[0] == fam]
            if not warm_rows:
                continue
            best = min(warm_rows, key=per_query_ns)
            warm_ns = per_query_ns(best)
            entry = {
                "cold_ns_per_query": cold_ns,
                "warm_ns_per_query": warm_ns,
                "queries_per_second": best.get("items_per_second", 0.0),
                "speedup": cold_ns / warm_ns if warm_ns else 0.0,
            }
            hit_rates = [r["cache_hit_rate"] for r in warm_rows
                         if "cache_hit_rate" in r]
            if hit_rates:
                entry["cache_hit_rate"] = max(hit_rates)
            cache[fam] = entry

    # Racelog throughput family: MB/s of log bytes scanned and events/sec
    # for every streaming-detector row (best-of-N across repetitions).
    racelog = {}
    for r in rows:
        if r["name"].startswith("racelog_") and "bytes_per_second" in r:
            key = r["name"]
            mbs = r["bytes_per_second"] / 1e6
            if key not in racelog or mbs > racelog[key]["mb_per_second"]:
                racelog[key] = {
                    "mb_per_second": mbs,
                    "events_per_second": r.get("items_per_second", 0.0),
                    "ns_per_op": r["ns_per_op"],
                }

    merged = {
        "schema": "tracesafe-bench-results-v1",
        "host": {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "build_type": context.get("tracesafe_build_type",
                                      context.get("library_build_type")),
            "revision": revision,
        },
        "benchmarks": rows,
        "speedups": speedups,
        "daemon": daemon,
        "daemon_transport": transport,
        "cache": cache,
        "racelog": racelog,
    }
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path}: {len(rows)} benchmarks, {len(speedups)} speedups")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
