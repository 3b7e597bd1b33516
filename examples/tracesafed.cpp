//===----------------------------------------------------------------------===//
///
/// \file
/// tracesafed — the long-lived verification daemon.
///
/// Serves DRF / behaviour / guarantee queries over a unix-domain socket
/// and/or a TCP listener, keeping the process-global caches warm across
/// clients. See docs/PROTOCOL.md for the wire format (streaming
/// progress, scheduling classes) and docs/ROBUSTNESS.md for the
/// admission/containment/durability/backpressure contract.
///
/// Usage:
///   tracesafed [--socket /tmp/ts.sock] [--listen host:port]
///              [--journal ts.journal] [--resume]
///              [--cache-file ts.cache] [--cache-cap-mb N]
///              [--queue-cap N] [--per-client-cap N] [--aging N]
///              [--outbound-cap-kb N] [--keepalive-ticks N]
///              [--ping-timeout-ticks N] [--workers N]
///              [--quota-deadline-ms N] [--quota-visited N]
///              [--quota-mem-mb N] [--fault-seed N] [--verbose]
///
/// Exit codes:
///   0    clean shutdown (never happens without a Stop source today)
///   1    fatal startup error (socket, EADDRINUSE, journal)
///   2    usage error
///   130  SIGINT/SIGTERM — journal flushed, in-flight queries cancelled
///        (their records stay orphaned, so --resume recomputes them)
///
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"
#include "support/Failure.h"
#include "support/Format.h"
#include "support/Signal.h"

#include <cstdio>
#include <limits>
#include <optional>
#include <string>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--socket PATH] [--listen HOST:PORT] [options]\n"
      "  --socket PATH          unix-domain socket to listen on\n"
      "  --listen HOST:PORT     TCP listener (port 0 = ephemeral; the\n"
      "                         bound port is printed to stderr)\n"
      "  --journal PATH         crash-recovery journal\n"
      "  --resume               replay the journal before serving and\n"
      "                         append to it (otherwise it starts over)\n"
      "  --cache-file PATH      persistent verdict cache (TSCS store):\n"
      "                         loaded on startup, fresh verdicts spilled\n"
      "  --cache-cap-mb N       verdict/behaviour cache byte cap\n"
      "                         (0 = built-in default)\n"
      "  --queue-cap N          global in-flight cap (default 64)\n"
      "  --per-client-cap N     per-client cap (default: fair share)\n"
      "  --aging N              batch aging threshold (default 4)\n"
      "  --outbound-cap-kb N    per-connection outbound queue cap\n"
      "                         (default 4096 KiB; slow clients are shed)\n"
      "  --keepalive-ticks N    keepalive ping after N 100ms ticks of\n"
      "                         silence (default 100; 0 = off)\n"
      "  --ping-timeout-ticks N reap after N ticks without a pong (50)\n"
      "  --workers N            query worker threads, one query each\n"
      "                         (default: hardware concurrency; at most\n"
      "                         %u)\n"
      "  --quota-deadline-ms N  per-query deadline ceiling (0 = none)\n"
      "  --quota-visited N      per-query visit ceiling (0 = none)\n"
      "  --quota-mem-mb N       per-query memory ceiling (0 = none)\n"
      "  --fault-seed N         arm a random daemon fault plan (tests)\n"
      "  --verbose              log lifecycle events to stderr\n",
      Argv0, MaxWorkers);
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Opts;
  uint64_t FaultSeed = 0;
  bool HaveFaultSeed = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Each flag's maximum is the range of its destination, after the
    // shift of an -mb or -kb flag.
    constexpr uint64_t U32 = std::numeric_limits<unsigned>::max();
    constexpr uint64_t U64 = std::numeric_limits<uint64_t>::max();
    auto NextValue = [&](uint64_t &Out, uint64_t Max) {
      if (I + 1 >= Argc || !parseCount(Argv[++I], Max, Out)) {
        std::fprintf(stderr, "%s: %s needs a number no larger than %llu\n",
                     Argv[0], Arg.c_str(),
                     static_cast<unsigned long long>(Max));
        return false;
      }
      return true;
    };
    auto NextPath = [&](std::string &Out) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s: %s needs a path\n", Argv[0], Arg.c_str());
        return false;
      }
      Out = Argv[++I];
      return true;
    };
    uint64_t N = 0;
    if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (Arg == "--socket") {
      if (!NextPath(Opts.SocketPath))
        return 2;
    } else if (Arg == "--listen") {
      if (!NextPath(Opts.ListenAddress))
        return 2;
    } else if (Arg == "--journal") {
      if (!NextPath(Opts.JournalPath))
        return 2;
    } else if (Arg == "--resume") {
      Opts.Resume = true;
    } else if (Arg == "--cache-file") {
      if (!NextPath(Opts.CacheFile))
        return 2;
    } else if (Arg == "--cache-cap-mb") {
      if (!NextValue(N, U64 >> 20))
        return 2;
      Opts.CacheCapBytes = N << 20;
    } else if (Arg == "--queue-cap") {
      if (!NextValue(N, U32) || N == 0)
        return 2;
      Opts.QueueCap = static_cast<unsigned>(N);
    } else if (Arg == "--per-client-cap") {
      if (!NextValue(N, U32))
        return 2;
      Opts.PerClientCap = static_cast<unsigned>(N);
    } else if (Arg == "--aging") {
      if (!NextValue(N, U32))
        return 2;
      Opts.AgingThreshold = static_cast<unsigned>(N);
    } else if (Arg == "--outbound-cap-kb") {
      if (!NextValue(N, U64 >> 10) || N == 0)
        return 2;
      Opts.OutboundCapBytes = N << 10;
    } else if (Arg == "--keepalive-ticks") {
      if (!NextValue(N, U32))
        return 2;
      Opts.KeepaliveTicks = static_cast<unsigned>(N);
    } else if (Arg == "--ping-timeout-ticks") {
      if (!NextValue(N, U32) || N == 0)
        return 2;
      Opts.PingTimeoutTicks = static_cast<unsigned>(N);
    } else if (Arg == "--workers") {
      if (!NextValue(N, MaxWorkers))
        return 2;
      Opts.Workers = static_cast<unsigned>(N);
    } else if (Arg == "--quota-deadline-ms") {
      if (!NextValue(N, std::numeric_limits<int64_t>::max()))
        return 2;
      Opts.QuotaCeiling.DeadlineMs = static_cast<int64_t>(N);
    } else if (Arg == "--quota-visited") {
      if (!NextValue(Opts.QuotaCeiling.MaxVisited, U64))
        return 2;
    } else if (Arg == "--quota-mem-mb") {
      if (!NextValue(N, U64 >> 20))
        return 2;
      Opts.QuotaCeiling.MaxMemoryBytes = N << 20;
    } else if (Arg == "--fault-seed") {
      if (!NextValue(FaultSeed, U64))
        return 2;
      HaveFaultSeed = true;
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", Argv[0], Arg.c_str());
      usage(Argv[0]);
      return 2;
    }
  }
  if (Opts.SocketPath.empty() && Opts.ListenAddress.empty()) {
    usage(Argv[0]);
    return 2;
  }

  static CancelToken Stop;
  installCancelOnSignal(Stop);
  Opts.Stop = &Stop;

  FaultPlan Plan;
  std::optional<FaultPlan::Scope> Armed;
  if (HaveFaultSeed) {
    Plan.randomizeDaemon(FaultSeed);
    std::fprintf(stderr, "[tracesafed] fault plan: %s\n",
                 Plan.describe().c_str());
    Armed.emplace(Plan);
  }

  ServerStats Stats;
  int Rc = runServer(Opts, &Stats);
  Armed.reset();
  if (Opts.Verbose)
    std::fprintf(stderr,
                 "[tracesafed] conns=%llu admitted=%llu completed=%llu "
                 "overloaded=%llu replayed=%llu resumed=%llu degraded=%llu "
                 "proto-errors=%llu accept-faults=%llu streamed=%llu "
                 "shed-slow=%llu reaped=%llu pings=%llu aged=%llu "
                 "stats-queries=%llu coalesced=%llu "
                 "persist-loaded=%llu persist-spilled=%llu\n",
                 static_cast<unsigned long long>(Stats.Connections),
                 static_cast<unsigned long long>(Stats.Admitted),
                 static_cast<unsigned long long>(Stats.Completed),
                 static_cast<unsigned long long>(Stats.Overloaded),
                 static_cast<unsigned long long>(Stats.Replayed),
                 static_cast<unsigned long long>(Stats.Resumed),
                 static_cast<unsigned long long>(Stats.Degraded),
                 static_cast<unsigned long long>(Stats.ProtoErrors),
                 static_cast<unsigned long long>(Stats.AcceptFaults),
                 static_cast<unsigned long long>(Stats.Streamed),
                 static_cast<unsigned long long>(Stats.SlowClientsShed),
                 static_cast<unsigned long long>(Stats.Reaped),
                 static_cast<unsigned long long>(Stats.PingsSent),
                 static_cast<unsigned long long>(Stats.AgedDispatches),
                 static_cast<unsigned long long>(Stats.StatsQueries),
                 static_cast<unsigned long long>(Stats.Coalesced),
                 static_cast<unsigned long long>(Stats.PersistLoaded),
                 static_cast<unsigned long long>(Stats.PersistSpilled));
  if (signalled())
    return ExitInterrupted;
  return Rc;
}
