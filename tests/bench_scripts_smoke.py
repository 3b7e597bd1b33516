#!/usr/bin/env python3
"""Smoke test of the bench record scripts on google-benchmark fixtures.

Runs scripts/merge_bench_json.py and scripts/check_bench_regression.py
on the small --benchmark_out files in tests/bench_fixtures (3 repetitions
each, with their median/cv aggregates) and checks:

  * one row per benchmark with its median ns/op (and bytes/s), CV and
    repetition count, and the oracle / reduced speedup on medians;
  * the marked tables of a docs/PERFORMANCE.md beside the output are
    rendered from the merged record;
  * a slowdown inside 3 CVs passes the regression check and one outside
    fails it;
  * debug inputs, inputs without aggregates and inputs from two hosts
    are refused.

Usage: bench_scripts_smoke.py  (exit 0 = all checks passed)
"""

import json
import os
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


def merge(tmp, name):
    out = os.path.join(tmp, name)
    r = run("merge_bench_json.py", out, fixture(name))
    assert r.returncode == 0, r.stderr
    return out


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
        assert doc["schema"] == "tracesafe-bench-results-v2"
        assert doc["host"]["host_name"] == "fixture-host"
        assert doc["host"]["num_cpus"] == 4
        rows = {r["name"]: r for r in doc["benchmarks"]}
        assert sorted(rows) == ["BM_demo_oracle", "BM_demo_por_w1",
                                "racelog_demo_epoch/1024/real_time"], rows
        por = rows["BM_demo_por_w1"]
        assert abs(por["ns_per_op"] - 1.0e6) < 1, por
        assert abs(por["cv"] - 0.05) < 1e-9, por
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

        debug_out = os.path.join(tmp, "debug_results.json")
        r = run("merge_bench_json.py", debug_out, fixture("debug.json"))
        assert r.returncode == 3, r.stdout + r.stderr
        assert not os.path.exists(debug_out)

        with open(fixture("base.json")) as f:
            single = json.load(f)
        single["benchmarks"] = [b for b in single["benchmarks"]
                                if b["run_type"] == "iteration"]
        single_in = os.path.join(tmp, "single.json")
        with open(single_in, "w") as f:
            json.dump(single, f)
        r = run("merge_bench_json.py", os.path.join(tmp, "x.json"),
                single_in)
        assert r.returncode == 2 and "median/cv" in r.stderr, r.stderr

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
