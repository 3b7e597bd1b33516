#!/usr/bin/env python3
"""Smoke test of the bench record scripts on google-benchmark fixtures.

Runs scripts/merge_bench_json.py and scripts/check_bench_regression.py
on the small --benchmark_out files in tests/bench_fixtures (3 repetitions
each, with their aggregates) and on inputs it writes itself, and checks:

  * one row per benchmark with its median ns/op (and bytes/s), MAD and
    repetition count, from the raw repetition rows, and the oracle /
    reduced speedup on medians;
  * the marked tables of a docs/PERFORMANCE.md beside the output are
    rendered from the merged record;
  * a slowdown inside 3 MADs passes the regression check and one outside
    fails it, including a 40% slowdown of a row whose 3 CVs are 80%;
  * one outlier repetition leaves a row's MAD, and so its bound, as it
    was;
  * debug inputs, inputs without repetition rows and inputs from two
    hosts are refused.

Usage: bench_scripts_smoke.py  (exit 0 = all checks passed)
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPTS = os.path.join(os.path.dirname(HERE), "scripts")
FIXTURES = os.path.join(HERE, "bench_fixtures")


def run(script, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        capture_output=True, text=True)


def fixture(name):
    return os.path.join(FIXTURES, name)


def merge(tmp, name, source=None):
    out = os.path.join(tmp, name)
    r = run("merge_bench_json.py", out, source or fixture(name))
    assert r.returncode == 0, r.stderr
    return out


def write_reps(tmp, name, rows):
    """A --benchmark_out file of fixture-host with one raw row per
    repetition, in ms, of every {name: [repetitions]} entry of rows."""
    with open(fixture("base.json")) as f:
        context = json.load(f)["context"]
    benchmarks = [{"name": run, "run_name": run, "run_type": "iteration",
                   "repetitions": len(reps), "repetition_index": i,
                   "real_time": ms, "cpu_time": ms, "time_unit": "ms"}
                  for run, reps in rows.items()
                  for i, ms in enumerate(reps)]
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        json.dump({"context": context, "benchmarks": benchmarks}, f)
    return path


def check_mad_gate(tmp):
    """The gate bounds a row by 3 MADs, not 3 CVs."""
    # A shared-host row with two slow repetitions: CV 26.5%, so 3 CVs
    # would let a slowdown of up to 80% pass; its MAD is 79 / 643 =
    # 12.3%, so 3 MADs fail anything slower than 37%.
    race = [564, 643, 643, 870, 1046]
    assert abs(3 * statistics.stdev(race) / statistics.mean(race)
               - 0.795) < 0.005
    base = merge(tmp, "race_base.json", write_reps(
        tmp, "race_base_in.json", {"BM_race_independent_oracle": race}))
    with open(base) as f:
        row = json.load(f)["benchmarks"][0]
    assert row["ns_per_op"] == 643e6 and row["repetitions"] == 5, row
    assert abs(row["mad"] - 79 / 643) < 1e-12, row
    slower = merge(tmp, "race_slower.json", write_reps(
        tmp, "race_slower_in.json",
        {"BM_race_independent_oracle": [1.4 * ms for ms in race]}))
    bad = run("check_bench_regression.py", base, slower)
    assert bad.returncode == 1, bad.stdout + bad.stderr
    assert "! BM_race_independent_oracle" in bad.stdout, bad.stdout
    assert "+40.0%, bound 36.9%" in bad.stdout, bad.stdout

    # One outlier repetition (9 ms among 1 ms ones) leaves the MAD at
    # 1%, so a 5% slowdown still fails against it; its CV is 160%.
    clean = [0.98, 0.99, 1.0, 1.01, 1.02]
    outlier = [0.98, 0.99, 1.0, 1.01, 9.0]
    merged = {}
    for name, reps in (("clean", clean), ("outlier", outlier),
                       ("slower", [1.05 * ms for ms in clean])):
        merged[name] = merge(tmp, name + ".json", write_reps(
            tmp, name + "_in.json", {"BM_spread": reps}))
    mads = {}
    for name, path in merged.items():
        with open(path) as f:
            mads[name] = json.load(f)["benchmarks"][0]["mad"]
    assert abs(mads["clean"] - 0.01) < 1e-12, mads
    assert mads["outlier"] == mads["clean"], mads
    for baseline in ("clean", "outlier"):
        bad = run("check_bench_regression.py", merged[baseline],
                  merged["slower"])
        assert bad.returncode == 1, baseline + bad.stdout + bad.stderr
        assert "bound 3.0%" in bad.stdout, bad.stdout


def main():
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "docs"))
        docs = os.path.join(tmp, "docs", "PERFORMANCE.md")
        with open(docs, "w") as f:
            f.write("intro\n<!-- BENCH_results.json rows ^racelog_ -->\n"
                    "stale\n<!-- end BENCH_results.json -->\nmiddle\n"
                    "<!-- BENCH_results.json speedups -->\n"
                    "<!-- end BENCH_results.json -->\noutro\n")

        base = merge(tmp, "base.json")
        with open(base) as f:
            doc = json.load(f)
        assert doc["schema"] == "tracesafe-bench-results-v3"
        assert doc["host"]["host_name"] == "fixture-host"
        assert doc["host"]["num_cpus"] == 4
        rows = {r["name"]: r for r in doc["benchmarks"]}
        assert sorted(rows) == ["BM_demo_oracle", "BM_demo_por_w1",
                                "racelog_demo_epoch/1024/real_time"], rows
        por = rows["BM_demo_por_w1"]
        assert abs(por["ns_per_op"] - 1.0e6) < 1, por
        assert abs(por["mad"] - 0.05) < 1e-9, por
        assert por["repetitions"] == 3, por
        assert (por["family"], por["engine"], por["por"]) == \
            ("BM_demo", "interned", True), por
        scan = rows["racelog_demo_epoch/1024/real_time"]
        assert abs(scan["bytes_per_second"] - 1.0e9) < 1, scan
        assert scan["family"] == "racelog_demo/1024", scan
        assert "bytes_per_second" not in por
        s = doc["speedups"]["BM_demo"]
        assert abs(s["speedup"] - 10.0) < 1e-9, s

        with open(docs) as f:
            text = f.read()
        assert "stale" not in text, text
        assert "| `racelog_demo_epoch/1024/real_time` | 2 ms | 1.0% | " \
               "1000 MB/s |" in text, text
        assert "`BM_demo_por_w1`" not in text.split("middle")[0], text
        assert "| `BM_demo` | 10 ms | 1 ms | 10.0x |" in text, text
        assert "`fixture-host`, 4 CPUs" in text, text
        assert text.startswith("intro\n") and text.endswith("outro\n")

        ok = run("check_bench_regression.py", base,
                 merge(tmp, "within_spread.json"))
        assert ok.returncode == 0, ok.stdout + ok.stderr
        bad = run("check_bench_regression.py", base,
                  merge(tmp, "regressed.json"))
        assert bad.returncode == 1, bad.stdout + bad.stderr
        assert "1 regressed" in bad.stdout, bad.stdout
        assert "! BM_demo_por_w1" in bad.stdout, bad.stdout
        check_mad_gate(tmp)

        # A record in the CV-based v2 layout cannot be gated on.
        old = os.path.join(tmp, "v2.json")
        with open(base) as f:
            v2 = json.load(f)
        for r in v2["benchmarks"]:
            r["cv"] = r.pop("mad")
        with open(old, "w") as f:
            json.dump(v2, f)
        r = run("check_bench_regression.py", old, base)
        assert r.returncode == 2 and "without a mad" in r.stderr, r.stderr

        debug_out = os.path.join(tmp, "debug_results.json")
        r = run("merge_bench_json.py", debug_out, fixture("debug.json"))
        assert r.returncode == 3, r.stdout + r.stderr
        assert not os.path.exists(debug_out)

        with open(fixture("base.json")) as f:
            single = json.load(f)
        single["benchmarks"] = [b for b in single["benchmarks"]
                                if b["run_type"] == "aggregate"]
        single_in = os.path.join(tmp, "single.json")
        with open(single_in, "w") as f:
            json.dump(single, f)
        r = run("merge_bench_json.py", os.path.join(tmp, "x.json"),
                single_in)
        assert r.returncode == 2 and "0 repetition rows" in r.stderr, \
            r.stderr
        r = run("merge_bench_json.py", os.path.join(tmp, "x.json"),
                write_reps(tmp, "once.json", {"BM_once": [1.0]}))
        assert r.returncode == 2 and "1 repetition rows" in r.stderr, \
            r.stderr

        with open(fixture("base.json")) as f:
            other = json.load(f)
        other["context"]["host_name"] = "another-host"
        other_in = os.path.join(tmp, "other.json")
        with open(other_in, "w") as f:
            json.dump(other, f)
        r = run("merge_bench_json.py", os.path.join(tmp, "x.json"),
                fixture("base.json"), other_in)
        assert r.returncode == 2 and "another host" in r.stderr, r.stderr
    print("bench scripts smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
