#!/bin/sh
# Build, test and run every bench + example; the one-button check.
set -e
cd "$(dirname "$0")/.."
# Release: the bench numbers merged into BENCH_results.json must come
# from an optimised build (merge_bench_json.py refuses debug inputs).
cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build
ctest --test-dir build --output-on-failure

# Benches: every row runs 5 times for at least 0.2 s each, and each
# binary writes its google-benchmark JSON. The merge script reduces each
# row to its median, CV and repetition count in BENCH_results.json, and
# re-renders the docs/PERFORMANCE.md tables that quote it.
mkdir -p build/bench_json
for b in build/bench/bench_*; do
  n=$(basename "$b")
  "$b" --benchmark_min_time=0.2 --benchmark_repetitions=5 \
    --benchmark_out="build/bench_json/$n.json" --benchmark_out_format=json
done
python3 scripts/merge_bench_json.py BENCH_results.json build/bench_json/*.json

# Opt-in perf-regression gate: set TRACESAFE_BENCH_BASELINE to a copy of
# an earlier BENCH_results.json to fail the run when a row's median got
# slower by more than the spread both files record for it. Off by
# default: a baseline from another host or sitting compares little.
if [ -n "${TRACESAFE_BENCH_BASELINE:-}" ]; then
  echo "===== bench regression check ====="
  python3 scripts/check_bench_regression.py \
    "$TRACESAFE_BENCH_BASELINE" BENCH_results.json
fi

for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  echo "===== $e ====="
  "$e"
done

# Sanitizer pass: rebuild with ASan+UBSan and drive the differential
# fuzzer for ~30 seconds, plus a Lemma 4/5 --semantic run (see
# docs/ROBUSTNESS.md). test_support runs the dispatched CRC-32 kernel's
# unaligned 16-byte loads at every length and offset against its
# portable oracle.
echo "===== sanitizer fuzz smoke ====="
cmake -B build-asan -G Ninja -DTRACESAFE_SANITIZE=ON
cmake --build build-asan --target fuzz_harness test_budget test_shrink \
  test_support
./build-asan/tests/test_budget
./build-asan/tests/test_shrink
./build-asan/tests/test_support
./build-asan/examples/fuzz_harness --programs 2000 --deadline-ms 30000 \
  --seed 1 --query-deadline-ms 3200
./build-asan/examples/fuzz_harness --programs 200 --deadline-ms 30000 \
  --inject --inject-every 1 --expect-failures --no-thin-air --seed 2 \
  --repro-dir build-asan/fuzz_repros
# The --semantic chain walk (verify/Theorems' verifyChainSteps) builds a
# traceset value per chain member and moves it along the chain.
./build-asan/examples/fuzz_harness --programs 200 --seed 7 --semantic \
  --no-thin-air --query-deadline-ms 3200

# Engine stage under ASan: the intern pools and the sleep-set memo free
# each slot table as soon as a larger one replaces it, and the reduced SC
# and TSO/PSO engines drive them through every growth; their
# oracle-equivalence suites run here (see docs/PERFORMANCE.md). The
# cross-engine and input suites drive the seed TSO machines of
# tests/TsoOracle on seeded random programs. The pair-certificate suite
# runs the rewrite certificate's diff and site walk against exploration.
echo "===== sanitizer engine smoke ====="
cmake --build build-asan --target test_intern test_parallel_enumerate \
  test_tso_parallel test_cross_engine test_input test_pair_certificates
./build-asan/tests/test_intern
./build-asan/tests/test_parallel_enumerate
./build-asan/tests/test_tso_parallel
./build-asan/tests/test_cross_engine
./build-asan/tests/test_input
./build-asan/tests/test_pair_certificates

# On-disk input stage under ASan: every suite that parses durable files —
# the record log itself (torn tails at every offset, a flipped bit in
# every record, foreign headers), the TSCS verdict store and the fuzz
# checkpoint journal (see docs/ROBUSTNESS.md, "Durable files").
echo "===== sanitizer on-disk input smoke ====="
cmake --build build-asan --target test_record_log test_cache_store \
  test_resume
./build-asan/tests/test_record_log
./build-asan/tests/test_cache_store
./build-asan/tests/test_resume

# Key builder stage under ASan: every query's verdict key is built from
# its raw token stream before anything parses it. The lexer/parser suite,
# the adversarial key cases (10k-deep braces, unterminated threads, stray
# bytes) and the metamorphic suite over generated programs, checked
# against the AST oracle (see docs/PERFORMANCE.md, "Canonical query
# keys").
echo "===== sanitizer key builder smoke ====="
cmake --build build-asan --target test_parser test_canonical \
  test_canonical_metamorphic
./build-asan/tests/test_parser
./build-asan/tests/test_canonical
./build-asan/tests/test_canonical_metamorphic

# Daemon stage under ASan: wire-protocol corruption matrix, the full
# in-process server suite (admission, idempotency, degradation, injected
# transport faults, backpressure, scheduling), and the kill -9/resume
# chaos smoke against a real ASan-built tracesafed — parameterised over
# BOTH transports: unix socket and TCP loopback on a pid-derived random
# port (see docs/PROTOCOL.md and docs/ROBUSTNESS.md).
echo "===== sanitizer daemon smoke ====="
cmake --build build-asan --target test_protocol test_daemon \
  test_daemon_chaos tracesafed fuzz_harness
./build-asan/tests/test_protocol
./build-asan/tests/test_daemon
./build-asan/tests/test_daemon_chaos

# End-to-end TCP batch smoke: a real tracesafed bound to an ephemeral
# loopback port (port 0; the kernel picks, the daemon announces it on
# stderr), driven by the fuzz harness, whose batch goes out as pipelined
# Submits on one connection (callBatch). SIGTERM at the end must produce
# the unified exit code 130.
echo "===== tcp batch smoke ====="
./build-asan/examples/tracesafed --listen 127.0.0.1:0 \
  2>build-asan/tracesafed.stderr &
dpid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on tcp 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
    build-asan/tracesafed.stderr | head -n1)
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "tracesafed never announced its TCP port"; \
  kill "$dpid" 2>/dev/null; exit 1; }
./build-asan/examples/fuzz_harness --programs 24 --seed 5 --no-thin-air \
  --server "127.0.0.1:$port"
kill -TERM "$dpid"
wait "$dpid" && drc=0 || drc=$?
[ "$drc" -eq 130 ] || { echo "tracesafed SIGTERM exit was $drc, want 130"; \
  exit 1; }

# Racelog stage under ASan: the log-format/engine suite (torn tails,
# flipped CRCs, injected detect faults), the epoch engine against the
# oracle and the enumerator, plus end-to-end generate+scan round trips
# through the CLI — the writer, CRC framing, and both engines touch every
# byte they produce (see docs/TRACELOG.md). The race-free log has ~131k
# distinct addresses, so its state table is sized once from the address
# sketch at well over 100k slots.
echo "===== sanitizer racelog smoke ====="
cmake --build build-asan --target test_racelog test_racelog_differential \
  racelog_scan
./build-asan/tests/test_racelog
./build-asan/tests/test_racelog_differential
./build-asan/examples/racelog_scan --gen mixed --events 200000 \
  --out build-asan/racelog_smoke.tsrl
./build-asan/examples/racelog_scan build-asan/racelog_smoke.tsrl \
  && rc=0 || rc=$?
[ "$rc" -eq 1 ] || { echo "expected races in the mixed log (rc=$rc)"; exit 1; }
./build-asan/examples/racelog_scan --gen racefree --events 2000000 \
  --out build-asan/racelog_racefree.tsrl
./build-asan/examples/racelog_scan build-asan/racelog_racefree.tsrl \
  && rc=0 || rc=$?
[ "$rc" -eq 0 ] || { echo "expected a race-free verdict (rc=$rc)"; exit 1; }

# ThreadSanitizer pass: rebuild with TSan and drive what still has
# threads. One query, one thread: every engine is sequential and a
# query's Budget has plain counters that only its own thread touches
# (other threads reach it through the CancelToken and the progress
# mirrors). Parallelism lives across queries only (see
# docs/PERFORMANCE.md): the daemon's workers and fuzz --jobs. This stage
# is the check that no other thread touches a Budget's counters.
echo "===== thread sanitizer parallel smoke ====="
cmake -B build-tsan -G Ninja -DTRACESAFE_TSAN=ON
cmake --build build-tsan --target test_daemon fuzz_harness
# The daemon suite: reader threads probe the verdict cache, append to the
# journal and fill the answered-verdict table while workers complete
# computed queries and the health tick streams heartbeats.
./build-tsan/tests/test_daemon
# Programs run on four job threads at once, each query with its own
# budget, intern pools and memo tables; this campaign is the check that
# no per-query structure is shared across jobs.
./build-tsan/examples/fuzz_harness --programs 100 --deadline-ms 60000 \
  --seed 3 --no-thin-air --query-deadline-ms 3200 --jobs 4 --semantic
# Chaos on job threads: seed 4 arms TaskRun/TaskStall, which the job
# threads contain themselves, plus a mid-campaign cancel and resume.
./build-tsan/examples/fuzz_harness --chaos --programs 40 --seed 4 \
  --no-thin-air --query-deadline-ms 3200

# UBSan pass: undefined-behaviour checking over the robustness stack —
# fault injection, degradation to the oracle engines (test_degrade, on
# the daemon's evaluateQuery path), journal resume, and a chaos campaign
# (random fault plan + mid-run cancel + resume; see docs/ROBUSTNESS.md) —
# plus the suites of the program-level SC route ([[P]] + the enumerator).
echo "===== ubsan robustness smoke ====="
cmake -B build-ubsan -G Ninja -DTRACESAFE_UBSAN=ON
cmake --build build-ubsan --target \
  test_failure test_degrade test_resume test_behaviour_cache \
  test_checks test_input test_cross_engine fuzz_harness
./build-ubsan/tests/test_failure
./build-ubsan/tests/test_degrade
./build-ubsan/tests/test_resume
./build-ubsan/tests/test_behaviour_cache
./build-ubsan/tests/test_checks
./build-ubsan/tests/test_input
./build-ubsan/tests/test_cross_engine
./build-ubsan/examples/fuzz_harness --chaos --chaos-rounds 2 \
  --programs 40 --seed 4 --no-thin-air --query-deadline-ms 3200
