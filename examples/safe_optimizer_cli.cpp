//===----------------------------------------------------------------------===//
///
/// \file
/// A small certified-optimiser command-line tool: reads a program in the
/// paper's language, greedily applies the Fig 10/11 rules, and *verifies
/// every step semantically* (Lemma 4/5) plus the end-to-end DRF and
/// thin-air guarantees before printing the optimised program.
///
/// Usage:
///   safe_optimizer_cli [file]            # default: a built-in demo
///   safe_optimizer_cli --rules=elim|reorder|all [--max-steps=N] [file]
///   safe_optimizer_cli --server=SOCKET [file]   # certify via tracesafed
///
/// With --server the end-to-end DRF and thin-air guarantees are checked by
/// a tracesafed daemon (warm caches, admission control, retry/backoff on
/// restarts) instead of in-process; the transformation chain itself is
/// still computed locally. Exit code 0 iff every verification passed; 130
/// when interrupted.
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "support/Signal.h"
#include "verify/Theorems.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace tracesafe;

namespace {

const char *DemoProgram = R"(
// Built-in demo: a lock-protected producer with redundant accesses.
thread {
  lock m;
  buf := 1;
  r1 := buf;
  r2 := buf;
  print r2;
  buf := r2;
  unlock m;
}
thread {
  lock m;
  r3 := buf;
  print r3;
  unlock m;
}
)";

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--rules=elim|reorder|all] [--max-steps=N] "
               "[--server=SOCKET|HOST:PORT] [--verbose] [file]\n",
               Argv0);
}

/// Remote certification: the guarantees a daemon can check (Theorems 1-5
/// end to end on the chain's endpoints). Step-wise semantic checks stay
/// local-only; with --server they are skipped, which the output says.
/// With \p Verbose, follows up with a Stats query and prints the daemon's
/// counter snapshot — the cache-*/coalesced/persist-* keys show whether
/// this certification was computed or served from the memoisation plane.
int certifyRemote(const std::string &Server, const Program &P,
                  const Program &Result, bool Verbose) {
  daemon::ClientOptions CO;
  daemon::setServerSpec(CO, Server);
  CO.Name = "safe-optimizer-" + std::to_string(::getpid());
  daemon::DaemonClient Client(CO);

  daemon::QueryRequest Pair[2];
  Pair[0].Kind = daemon::QueryKind::DrfGuarantee;
  Pair[0].Program = printProgram(P);
  Pair[0].Transformed = printProgram(Result);
  Pair[1] = Pair[0];
  Pair[1].Kind = daemon::QueryKind::ThinAir;

  std::vector<daemon::QueryResponse> V;
  try {
    V = Client.callBatch(Pair);
  } catch (const daemon::ProtocolError &E) {
    std::fprintf(stderr, "remote certification failed: %s\n", E.what());
    return signalled() ? ExitInterrupted : 1;
  }
  std::printf("DRF guarantee (remote):      %s\n", V[0].str().c_str());
  std::printf("thin-air guarantee (remote): %s\n", V[1].str().c_str());
  if (Verbose) {
    daemon::QueryRequest StatsQ;
    StatsQ.Kind = daemon::QueryKind::Stats;
    try {
      daemon::QueryResponse S = Client.call(StatsQ);
      std::printf("daemon stats: %s\n", S.Detail.c_str());
    } catch (const daemon::ProtocolError &E) {
      std::fprintf(stderr, "stats query failed: %s\n", E.what());
    }
  }
  bool Ok = V[0].Status == daemon::ResponseStatus::Ok &&
            V[1].Status == daemon::ResponseStatus::Ok &&
            V[0].Kind == VerdictKind::Proved &&
            V[1].Kind == VerdictKind::Proved;
  std::printf("verdict: %s\n", Ok ? "CERTIFIED (remote)" : "NOT certified");
  if (signalled())
    return ExitInterrupted;
  return Ok ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  RuleSet Rules = RuleSet::all();
  size_t MaxSteps = 16;
  std::string Source = DemoProgram;
  std::string SourceName = "<builtin demo>";
  std::string ServerSocket;
  bool Verbose = false;

  static CancelToken Stop;
  installCancelOnSignal(Stop);

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strncmp(Arg, "--server=", 9) == 0) {
      ServerSocket = Arg + 9;
    } else if (std::strcmp(Arg, "--verbose") == 0) {
      Verbose = true;
    } else if (std::strncmp(Arg, "--rules=", 8) == 0) {
      std::string Mode = Arg + 8;
      if (Mode == "elim")
        Rules = RuleSet::eliminationsOnly();
      else if (Mode == "reorder")
        Rules = RuleSet::reorderingsOnly();
      else if (Mode == "all")
        Rules = RuleSet::all();
      else {
        usage(argv[0]);
        return 1;
      }
    } else if (std::strncmp(Arg, "--max-steps=", 12) == 0) {
      MaxSteps = static_cast<size_t>(std::atoi(Arg + 12));
    } else if (Arg[0] == '-') {
      usage(argv[0]);
      return 1;
    } else {
      std::ifstream In(Arg);
      if (!In) {
        std::fprintf(stderr, "error: cannot open %s\n", Arg);
        return 1;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Source = Buf.str();
      SourceName = Arg;
    }
  }

  ParseResult Parsed = parseProgram(Source);
  if (!Parsed) {
    std::fprintf(stderr, "error: %s: %s\n", SourceName.c_str(),
                 Parsed.Error.c_str());
    return 1;
  }
  Program P = std::move(*Parsed.Prog);
  std::printf("== input (%s) ==\n%s\n", SourceName.c_str(),
              printProgram(P).c_str());

  TransformChain Chain = greedyChain(P, Rules, MaxSteps);
  if (Chain.Steps.empty()) {
    std::printf("no applicable transformations.\n");
    return 0;
  }
  std::printf("== applied %zu transformation(s) ==\n", Chain.Steps.size());
  for (const RewriteSite &S : Chain.Steps)
    std::printf("  %s\n", S.str().c_str());
  std::printf("\n== optimised program ==\n%s\n",
              printProgram(Chain.Result).c_str());

  std::printf("== certification ==\n");
  if (!ServerSocket.empty())
    return certifyRemote(ServerSocket, P, Chain.Result, Verbose);
  // An unlimited budget that carries the signal token into every search
  // of the certification, so SIGINT unwinds it within one check interval.
  Budget B(BudgetSpec{}, &Stop);
  TheoremCheckOptions Options;
  Options.attachBudget(B);
  TheoremCaseReport Report = checkTheoremsOnChain(P, Chain, Options);
  std::printf("%s\n", Report.summary().c_str());
  std::printf("verdict: %s\n",
              Report.allHold() ? "CERTIFIED" : "NOT certified");
  if (signalled())
    return ExitInterrupted;
  return Report.allHold() ? 0 : 1;
}
