//===----------------------------------------------------------------------===//
///
/// \file
/// tsbench — the tracesafed benchmark's load generator and tracer.
///
///   tsbench --workload NAME --seed N --seconds S --trace 0|1
///           --daemon PATH --run-dir DIR [--git-rev REV]
///           [--source-digest HEX] [--corrupt-expectation]
///
/// --trace 0 measures end to end: the deployed daemon (PATH) is started
/// in its durable configuration, set up several times, warmed, and driven
/// by a closed loop for S seconds; the end-to-end metrics come from the
/// client side and /proc. --trace 1 is the traced run: the same seeded
/// queries replayed in-process through each layer (Trace.h), then a short
/// daemon phase for the plumbing, admission-wait and counter metrics.
///
/// Every answer is checked (Check.h). The last stdout line is one JSON
/// object {correct, attempted, failed, metrics}; the exit code is 0 only
/// when every check passed. --corrupt-expectation flips one expected
/// verdict, so a run must then fail: the smoke test's proof that the
/// checks bite.
///
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Daemon.h"
#include "Loop.h"
#include "Report.h"
#include "Trace.h"
#include "Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sched.h>
#include <string>
#include <thread>
#include <unistd.h>

#ifndef TSBENCH_BUILD_TYPE
#define TSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TSBENCH_COMPILER
#define TSBENCH_COMPILER "unknown"
#endif

using namespace tsbench;
using namespace tracesafe::daemon;

namespace {

using Clock = std::chrono::steady_clock;

/// Daemon launches per run for set-up time (the median is reported).
constexpr unsigned SetupLaunches = 9;
/// Hypervisor steal above which a timed phase is measured again, and how
/// many times a run measures at most. Undisturbed phases on a 4-vCPU VM
/// show 0-2.5%.
constexpr double StealLimit = 0.03;
constexpr unsigned MaxAttempts = 3;
/// Oracle re-derivations per run: from the untimed and the timed phases.
constexpr size_t OracleFromUntimed = 12;
constexpr size_t OracleFromTimed = 20;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  int Trace = -1;
  std::string Daemon;
  std::string RunDir;
  std::string GitRev = "unknown";
  std::string SourceDigest = "unknown";
  bool CorruptExpectation = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--corrupt-expectation") {
      A.CorruptExpectation = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    else if (K == "--trace")
      A.Trace = std::atoi(V.c_str());
    else if (K == "--daemon")
      A.Daemon = V;
    else if (K == "--run-dir")
      A.RunDir = V;
    else if (K == "--git-rev")
      A.GitRev = V;
    else if (K == "--source-digest")
      A.SourceDigest = V;
    else
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0 && (A.Trace == 0 || A.Trace == 1) &&
         !A.Daemon.empty() && !A.RunDir.empty();
}

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

unsigned affinityCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) != 0)
    return 0;
  return static_cast<unsigned>(CPU_COUNT(&Set));
}

/// Failures and notes of one run, across all its phases.
struct Verdicts {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Notes;

  void fold(const LoopResult &L) {
    Attempted += L.Attempted;
    Failed += L.Failed;
    for (const std::string &N : L.FailureNotes)
      note(N);
  }
  void fail(const std::string &N) {
    ++Failed;
    note(N);
  }
  void note(const std::string &N) {
    if (Notes.size() < 8)
      Notes.push_back(N);
  }
};

/// One Stats (kind 7) snapshot; a missing one fails the run.
std::string statsSnapshot(const std::string &ClientName, Verdicts &V) {
  std::string Detail = tsbench::statsSnapshot(ClientName);
  if (Detail.find("completed=") == std::string::npos)
    V.fail("stats snapshot failed: " + Detail);
  return Detail;
}

/// Starts a daemon life and waits for its socket.
bool launch(DaemonProcess &D, Verdicts &V) {
  if (D.start() && D.waitReady(60))
    return true;
  V.fail("tracesafed did not come up:\n" + DaemonProcess::logTail());
  return false;
}

void stopDaemon(DaemonProcess &D, Verdicts &V) {
  int Rc = D.stop();
  if (Rc != 130)
    V.fail("tracesafed exited " + std::to_string(Rc) +
           " on SIGTERM (expected 130):\n" + DaemonProcess::logTail());
}

/// Life 0 starts from an empty cache file and answers the warm set, so
/// its verdicts are what every later launch preloads.
bool primeLife(const Workload &W, DaemonProcess &D,
               std::map<uint32_t, std::string> &Bases, LoopResult &Untimed,
               uint64_t Seed, Verdicts &V) {
  std::remove(CacheFileName);
  if (!launch(D, V))
    return false;
  answerAll(W, W.Warm, Bases, Untimed, "tsbench-prime", Seed);
  stopDaemon(D, V);
  return true;
}

/// Warm and lazy set-up of the final life, before timing.
void warmLife(const Workload &W, std::map<uint32_t, std::string> &Bases,
              LoopResult &Untimed, uint64_t Seed) {
  answerAll(W, W.Warm, Bases, Untimed, "tsbench-warm", Seed);
  answerAll(W, W.Lazy, Bases, Untimed, "tsbench-lazy", Seed);
}

/// Re-derives a sample of the answers whose value is not known by
/// construction with the reference oracle.
void oracleCheck(const Workload &W, const LoopResult &Untimed,
                 const LoopResult &Timed, Verdicts &V) {
  std::vector<std::pair<uint32_t, const QueryResponse *>> Sample;
  auto Take = [&](const LoopResult &L, size_t Max) {
    for (const auto &[Index, R] : L.OracleSample) {
      if (Max-- == 0)
        break;
      Sample.emplace_back(Index, &R);
    }
  };
  Take(Untimed, OracleFromUntimed);
  Take(Timed, OracleFromTimed);
  Clock::time_point T0 = Clock::now();
  size_t Checked = 0;
  for (const auto &[Index, R] : Sample) {
    std::optional<QueryResponse> Ref = oracleAnswer(W.Queries[Index].Req);
    if (!Ref)
      continue;
    ++Checked;
    if (Ref->Kind != R->Kind || Ref->Detail != R->Detail)
      V.fail("oracle mismatch on query " + std::to_string(Index) +
             ": daemon '" + R->str() + "', oracle '" + Ref->str() + "'");
  }
  std::printf("# oracle: %zu of %zu sampled answers re-derived (%.2f s)\n",
              Checked, Sample.size(), secondsSince(T0));
}

/// The daemon life serving timed load, and how much it has served.
struct Life {
  DaemonProcess &D;
  double ServedS = 0;
  unsigned Lives = 1;
};

/// Daemon counters the report reads as deltas across timed load.
constexpr const char *CounterKeys[] = {
    "completed",        "coalesced",          "overloaded",     "degraded",
    "persist-spilled",  "cache-query-hits",   "cache-query-misses"};

/// A timed closed loop and what the daemon and the host spent on it.
struct TimedPhase {
  LoopResult Loop;
  double CpuMs = 0;
  double PeakRssMb = 0;
  double BusyJiffies = 0;
  double StolenJiffies = 0;
  std::map<std::string, double> Counters; ///< Stats deltas, by key
};

/// Runs \p O's closed loop on \p L's daemon life. A workload with short
/// lives (Workload::LifeSeconds) continues on a fresh, warmed life whenever
/// the current one has served its share; restarts and warm-ups are not
/// timed. Latencies, counters and CPU cover the timed stretches only.
TimedPhase runTimed(const Workload &W, Life &L,
                    std::map<uint32_t, std::string> &Bases,
                    LoopResult &Untimed, LoopOptions O, uint64_t Seed,
                    Verdicts &V) {
  TimedPhase T;
  double Left = O.Seconds;
  for (unsigned Part = 0; Left > 1e-6; ++Part) {
    if (W.LifeSeconds > 0 && L.ServedS >= W.LifeSeconds - 1e-6) {
      stopDaemon(L.D, V);
      if (!launch(L.D, V))
        break;
      ++L.Lives;
      L.ServedS = 0;
      warmLife(W, Bases, Untimed, Seed);
    }
    LoopOptions S = O;
    S.Seconds = Left;
    if (W.LifeSeconds > 0)
      S.Seconds = std::min(Left, W.LifeSeconds - L.ServedS);
    S.Tag = O.Tag + "-" + std::to_string(Part);
    std::string Stats0 = statsSnapshot(S.Tag + "-stats-0", V);
    double Cpu0 = L.D.cpuMs();
    std::pair<double, double> Host0 = hostCpuJiffies();
    LoopResult R = runClosedLoop(W, Bases, S);
    std::pair<double, double> Host1 = hostCpuJiffies();
    T.CpuMs += L.D.cpuMs() - Cpu0;
    T.PeakRssMb = std::max(T.PeakRssMb, L.D.peakRssMb());
    std::string Stats1 = statsSnapshot(S.Tag + "-stats-1", V);
    T.BusyJiffies += Host1.first - Host0.first;
    T.StolenJiffies += Host1.second - Host0.second;
    for (const char *Key : CounterKeys)
      T.Counters[Key] +=
          double(statsValue(Stats1, Key)) - double(statsValue(Stats0, Key));
    Left -= S.Seconds;
    L.ServedS += S.Seconds;
    O.FirstEntry += R.Attempted; // the next stretch continues the stream
    for (double &At : R.DoneAtS)
      At += T.Loop.ElapsedS;
    T.Loop.ElapsedS += R.ElapsedS;
    merge(T.Loop, std::move(R));
  }
  return T;
}

//===----------------------------------------------------------------------===//
// --trace 0: end to end
//===----------------------------------------------------------------------===//

/// One measurement from a fresh daemon. Returns the share of the host's
/// CPU time the hypervisor stole during the timed phase (0 when the
/// daemon did not come up: that failure is in \p V already).
double endToEnd(const Args &A, const Workload &W, Metrics &M, Verdicts &V) {
  DaemonProcess D(A.Daemon);
  std::map<uint32_t, std::string> Bases;
  LoopResult Untimed;
  Clock::time_point PrimeStart = Clock::now();
  if (!primeLife(W, D, Bases, Untimed, A.Seed, V))
    return 0;
  const double PrimeS = secondsSince(PrimeStart);

  // Set-up: launch -> cache-file preload -> first answered query.
  Clock::time_point SetupStart = Clock::now();
  std::vector<double> SetupS;
  for (unsigned K = 0; K < SetupLaunches; ++K) {
    if (K)
      stopDaemon(D, V);
    Clock::time_point T0 = Clock::now();
    if (!launch(D, V))
      return 0;
    answerAll(W, {W.Warm[0]}, Bases, Untimed,
              "tsbench-setup-" + std::to_string(K), A.Seed);
    SetupS.push_back(secondsSince(T0));
  }
  const double SetupPhaseS = secondsSince(SetupStart);
  Clock::time_point WarmStart = Clock::now();
  warmLife(W, Bases, Untimed, A.Seed);
  std::printf("# phases: prime life %.2f s, %u set-up launches %.2f s, "
              "warm-up %.2f s\n",
              PrimeS, SetupLaunches, SetupPhaseS, secondsSince(WarmStart));

  LoopOptions LO;
  LO.Clients = W.Clients;
  LO.Seconds = A.Seconds;
  LO.Seed = A.Seed;
  LO.Tag = "tsbench-timed";
  Life Final{D};
  TimedPhase T = runTimed(W, Final, Bases, Untimed, LO, A.Seed, V);
  const LoopResult &L = T.Loop;
  stopDaemon(D, V);
  V.fold(Untimed);
  V.fold(L);
  oracleCheck(W, Untimed, L, V);

  std::printf("# timed phase: %llu attempted, %llu answered, %llu undecided, "
              "%llu failed in %.3f s over %u daemon %s; daemon "
              "completed=%.0f coalesced=%.0f overloaded=%.0f "
              "cache-query-hits=%.0f cache-query-misses=%.0f\n",
              (unsigned long long)L.Attempted, (unsigned long long)L.Answered,
              (unsigned long long)L.Undecided, (unsigned long long)L.Failed,
              L.ElapsedS, Final.Lives, Final.Lives == 1 ? "life" : "lives",
              T.Counters["completed"], T.Counters["coalesced"],
              T.Counters["overloaded"], T.Counters["cache-query-hits"],
              T.Counters["cache-query-misses"]);

  const double StealShare =
      ratio(T.StolenJiffies, T.BusyJiffies + T.StolenJiffies);
  std::printf("# host: %.1f%% of CPU time stolen by the hypervisor during "
              "the timed phase\n",
              100 * StealShare);
  std::vector<unsigned> PerSecond(static_cast<size_t>(L.ElapsedS) + 1);
  for (double At : L.DoneAtS)
    ++PerSecond[static_cast<size_t>(At)];
  std::printf("# verdicts per second:");
  for (unsigned N : PerSecond)
    std::printf(" %u", N);
  std::printf("\n");

  M.add("setup_s", percentile(SetupS, 0.5), "s", SetupS.size());
  M.add("throughput_qps", ratio(double(L.Answered), L.ElapsedS), "1/s",
        L.Answered);
  M.add("latency_p50_us", percentile(L.LatencyUs, 0.5), "us",
        L.LatencyUs.size());
  M.add("latency_p99_us", percentile(L.LatencyUs, 0.99), "us",
        L.LatencyUs.size());
  M.add("daemon_cpu_ms_per_query", ratio(T.CpuMs, double(L.Answered)), "ms",
        L.Answered);
  M.add("daemon_peak_rss_mb", T.PeakRssMb, "MiB");
  M.add("log_mb_per_s", ratio(double(L.PayloadBytes) / 1e6, L.ElapsedS),
        "MB/s", L.Answered);
  return StealShare;
}

//===----------------------------------------------------------------------===//
// --trace 1: per layer
//===----------------------------------------------------------------------===//

void traced(const Args &A, const Workload &W, Metrics &M, Verdicts &V) {
  InProcessResult IP = replayInProcess(W, 0.2 * A.Seconds);
  V.Attempted += 3 * IP.Replayed;
  std::printf("# in-process replays of %llu queries: evaluator %.1f ms, "
              "traced %.1f ms (spans %.1f ms), evaluator again %.1f ms\n",
              static_cast<unsigned long long>(IP.Replayed),
              IP.FirstEvalUs / 1e3, IP.TracedEvalUs / 1e3, IP.SpannedUs / 1e3,
              IP.SecondEvalUs / 1e3);
  if (IP.Mismatches) {
    V.Failed += IP.Mismatches;
    for (const std::string &N : IP.Notes)
      V.note(N);
  }

  DaemonProcess D(A.Daemon);
  std::map<uint32_t, std::string> Bases;
  LoopResult Untimed;
  if (!primeLife(W, D, Bases, Untimed, A.Seed, V) || !launch(D, V))
    return;
  warmLife(W, Bases, Untimed, A.Seed);
  Life Current{D};
  LoopOptions LO;
  LO.Clients = W.Clients;
  LO.Seed = A.Seed;
  LO.Seconds = 0.25 * A.Seconds;
  LO.Tag = "tsbench-plain";
  TimedPhase PlainPhase = runTimed(W, Current, Bases, Untimed, LO, A.Seed, V);
  const LoopResult &Plain = PlainPhase.Loop;
  LO.Seconds = 0.15 * A.Seconds;
  LO.FirstEntry = Plain.Attempted; // fresh queries, not the plain loop's
  LO.Streaming = true;
  LO.Tag = "tsbench-streaming";
  TimedPhase StreamedPhase =
      runTimed(W, Current, Bases, Untimed, LO, A.Seed, V);
  const LoopResult &Streamed = StreamedPhase.Loop;
  stopDaemon(D, V);
  V.fold(Untimed);
  V.fold(Plain);
  V.fold(Streamed);
  oracleCheck(W, Untimed, Plain, V);

  auto Delta = [&](const char *Key) {
    return PlainPhase.Counters[Key] + StreamedPhase.Counters[Key];
  };
  const LayerSpans &S = IP.Spans;
  const double N = double(IP.Replayed);
  auto P50 = [](const std::vector<double> &X) { return percentile(X, 0.5); };
  auto P99 = [](const std::vector<double> &X) { return percentile(X, 0.99); };
  auto HitRatio = [](uint64_t H, uint64_t Miss) {
    return ratio(double(H), double(H + Miss));
  };
  const auto &C = IP.CacheDelta;

  M.add("lang.parse_us.p50", P50(S.Parse), "us", S.Parse.size());
  M.add("verify.canonical_us.p50", P50(S.Canonical), "us",
        S.Canonical.size());
  M.add("verify.cache_probe_us.p50", P50(S.Probe), "us", S.Probe.size());
  M.add("verify.cache_insert_us.p50", P50(S.Insert), "us", S.Insert.size());
  M.add("verify.query_hit_ratio", HitRatio(C.QueryHits, C.QueryMisses),
        "ratio");
  M.add("verify.query_probes", double(C.QueryHits + C.QueryMisses), "count");
  M.add("verify.traceset_hit_ratio",
        HitRatio(C.TracesetHits, C.TracesetMisses), "ratio");
  M.add("verify.traceset_probes", double(C.TracesetHits + C.TracesetMisses),
        "count");
  M.add("verify.drf_hit_ratio", HitRatio(C.DrfHits, C.DrfMisses), "ratio");
  M.add("verify.drf_probes", double(C.DrfHits + C.DrfMisses), "count");
  M.add("verify.behaviours_hit_ratio",
        HitRatio(C.BehaviourHits, C.BehaviourMisses), "ratio");
  M.add("verify.behaviours_probes",
        double(C.BehaviourHits + C.BehaviourMisses), "count");
  M.add("verify.cache_bytes", double(IP.CacheBytes), "bytes");
  M.add("lang.traceset_us.p50", P50(S.Traceset), "us", S.Traceset.size());
  M.add("lang.traceset_us.p99", P99(S.Traceset), "us", S.Traceset.size());
  M.add("lang.traceset_visited", ratio(double(S.TracesetVisited), N),
        "visits/query");
  M.add("trace.drf_us.p50", P50(S.Drf), "us", S.Drf.size());
  M.add("trace.drf_us.p99", P99(S.Drf), "us", S.Drf.size());
  M.add("trace.behaviours_us.p50", P50(S.Behaviours), "us",
        S.Behaviours.size());
  M.add("trace.behaviours_us.p99", P99(S.Behaviours), "us",
        S.Behaviours.size());
  M.add("trace.visited", ratio(double(S.TraceVisited), N), "visits/query");
  M.add("verify.checks_us.p50", P50(S.Checks), "us", S.Checks.size());
  M.add("verify.checks_us.p99", P99(S.Checks), "us", S.Checks.size());
  M.add("racelog.scan_us.p50", P50(S.Scan), "us", S.Scan.size());
  M.add("racelog.scan_mb_per_s",
        ratio(double(S.ScanBytes) / 1e6, sum(S.Scan) / 1e6), "MB/s");
  M.add("daemon.codec_us.p50", P50(S.Codec), "us", S.Codec.size());
  M.add("daemon.wire_bytes_per_query", ratio(double(S.WireBytes), N),
        "bytes");
  const double PlumbingP50 = P50(Plain.LatencyUs) - P50(IP.EvaluateUs);
  M.add("daemon.plumbing_us.p50", PlumbingP50, "us", Plain.LatencyUs.size());
  M.add("daemon.dispatch_wait_us.p50", P50(Streamed.DispatchWaitUs), "us",
        Streamed.DispatchWaitUs.size());
  M.add("daemon.dispatch_wait_us.p99", P99(Streamed.DispatchWaitUs), "us",
        Streamed.DispatchWaitUs.size());
  M.add("daemon.coalesced", Delta("coalesced"), "count");
  M.add("daemon.overloaded", Delta("overloaded"), "count");
  M.add("daemon.degraded", Delta("degraded"), "count");
  M.add("daemon.persist_spilled", Delta("persist-spilled"), "count");
  M.add("client.retries", double(Plain.ClientRetries + Streamed.ClientRetries),
        "count");
  M.add("client.transport_errors",
        double(Plain.ClientTransportErrors + Streamed.ClientTransportErrors),
        "count");

  // Where one query's time goes: per-query means of each layer's spans,
  // the evaluator time no span covers, and the daemon's own share (round
  // trip minus in-process evaluation).
  const double EvalMean = mean(IP.EvaluateUs);
  const double Lang = (sum(S.Parse) + sum(S.Traceset)) / N;
  const double Verify =
      (sum(S.Canonical) + sum(S.Probe) + sum(S.Insert) + sum(S.Checks)) / N;
  const double Trace = (sum(S.Drf) + sum(S.Behaviours)) / N;
  const double Racelog = sum(S.Scan) / N;
  const double Daemon = std::max(0.0, mean(Plain.LatencyUs) - EvalMean);
  const double Unattributed = std::max(0.0, EvalMean - IP.SpannedUs / N);
  const double Total = Lang + Verify + Trace + Racelog + Daemon + Unattributed;
  const double EvalTotal = sum(IP.EvaluateUs);
  M.add("evaluate.unattributed_share",
        ratio(EvalTotal - IP.SpannedUs, EvalTotal), "ratio");
  M.add("tracing.overhead_ratio",
        ratio(IP.TracedEvalUs - EvalTotal, EvalTotal), "ratio");
  M.add("share.lang", ratio(Lang, Total), "ratio");
  M.add("share.verify", ratio(Verify, Total), "ratio");
  M.add("share.trace", ratio(Trace, Total), "ratio");
  M.add("share.racelog", ratio(Racelog, Total), "ratio");
  M.add("share.daemon", ratio(Daemon, Total), "ratio");
  M.add("share.unattributed", ratio(Unattributed, Total), "ratio");

  // The reason each workload exists, as a share of the same total.
  double Reason = 0;
  const char *Why = "";
  if (W.Name == "cold-mix") {
    Why = "exploration (traceset + enumeration + checks)";
    Reason = (sum(S.Traceset) + sum(S.Drf) + sum(S.Behaviours) +
              sum(S.Checks)) / N;
  } else if (W.Name == "repeat-hot") {
    Why = "parse + canonicalise + cache + daemon plumbing";
    Reason = (sum(S.Parse) + sum(S.Canonical) + sum(S.Probe) +
              sum(S.Insert)) / N + Daemon;
  } else {
    Why = "scan + codec and daemon plumbing";
    Reason = Racelog + Daemon;
  }
  const double ReasonShare = ratio(Reason, Total);
  M.add("workload.reason_share", ReasonShare, "ratio");
  std::printf("# workload check: %s = %.1f%% of a query's time -> %s\n", Why,
              100 * ReasonShare,
              ReasonShare >= 0.5 ? "the stated reason holds"
                                 : "REASON DOES NOT HOLD");

  const uint64_t DaemonAttempted = Plain.Attempted + Streamed.Attempted;
  M.add("error_ratio",
        ratio(double(Plain.Failed + Streamed.Failed), double(DaemonAttempted)),
        "ratio");
  M.add("undecided_ratio",
        ratio(double(Plain.Undecided + Streamed.Undecided),
              double(DaemonAttempted)),
        "ratio");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: tsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --daemon PATH --run-dir DIR [--git-rev REV] "
                 "[--source-digest HEX] [--corrupt-expectation]\n");
    return 2;
  }
  if (::chdir(A.RunDir.c_str()) != 0) {
    std::perror("tsbench: run directory");
    return 2;
  }
  Clock::time_point GenStart = Clock::now();
  Workload W;
  try {
    W = makeWorkload(A.Workload, A.Seed, A.Seconds);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "tsbench: %s\n", E.what());
    return 2;
  }
  if (A.CorruptExpectation)
    for (uint32_t Index : W.Stream) {
      Expect &Want = W.Queries[Index].Want;
      if (Want == Expect::None)
        continue;
      Want = Want == Expect::Proved ? Expect::Refuted : Expect::Proved;
      std::printf("# corrupted the expected verdict of query %u\n", Index);
      break;
    }

  std::string Flags;
  for (const std::string &F : daemonFlags())
    Flags += " " + F;
  std::printf("# workload: %s  seed: %llu  seconds: %u  trace: %d  "
              "clients: %u\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace, W.Clients);
  std::printf("# host: nproc=%u (affinity %u)  build: %s  compiler: %s\n",
              std::thread::hardware_concurrency(), affinityCpus(),
              TSBENCH_BUILD_TYPE, TSBENCH_COMPILER);
  std::printf("# revision: %s  source digest: %s\n", A.GitRev.c_str(),
              A.SourceDigest.c_str());
  std::printf("# daemon: tracesafed%s\n", Flags.c_str());
  std::printf("# inputs: digest %016llx, %zu distinct queries, %zu warm, "
              "%zu lazy, %zu-entry stream (generated in %.2f s)\n",
              static_cast<unsigned long long>(W.Digest), W.Queries.size(),
              W.Warm.size(), W.Lazy.size(), W.Stream.size(),
              secondsSince(GenStart));
  std::fflush(stdout);

  Metrics M;
  Verdicts V;
  if (A.Trace == 0) {
    // A timed phase the hypervisor took CPU from measures the host, not
    // the program: measure again from a fresh daemon, keeping the
    // attempt with the least steal. Every attempt's checks count.
    double LeastSteal = 2;
    for (unsigned Attempt = 1; Attempt <= MaxAttempts; ++Attempt) {
      Metrics Try;
      double Steal = endToEnd(A, W, Try, V);
      if (Steal < LeastSteal) {
        LeastSteal = Steal;
        M = std::move(Try);
      }
      if (LeastSteal <= StealLimit || Attempt == MaxAttempts)
        break;
      std::printf("# host steal %.1f%% > %.0f%%: measuring again\n",
                  100 * Steal, 100 * StealLimit);
    }
  } else
    traced(A, W, M, V);

  const bool Correct = V.Failed == 0 && V.Attempted > 0;
  for (const std::string &N : V.Notes)
    std::printf("# FAILURE: %s\n", N.c_str());
  std::printf("# metrics (%s):\n", A.Trace ? "per layer" : "end to end");
  M.printHuman(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(V.Attempted, 1)),
              static_cast<unsigned long long>(V.Failed), M.json().c_str());
  return Correct ? 0 : 1;
}
