//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing CLI for the optimisation pipeline.
///
/// Generates seeded random programs, pushes each through a random chain of
/// the paper's Fig 10/11 rewrite rules, and checks the DRF guarantee
/// (Theorems 1-4) and the out-of-thin-air guarantee (Theorem 5) on every
/// original/transformed pair under escalating budgets. Guarantee
/// violations are delta-debugged to a minimal program and written as
/// standalone `.tsl` repro files.
///
/// SIGINT/SIGTERM request cooperative cancellation: in-flight queries
/// unwind within one budget check interval, the partial summary is still
/// printed (and the JSON report written), and the process exits 130.
/// With --checkpoint the campaign journals every finished program index,
/// so --resume continues a killed campaign and produces the same report
/// as an uninterrupted run.
///
/// Exit codes:
///   0    clean run (no uninjected violations; with --expect-failures, at
///        least one injected failure was found and minimised; with
///        --chaos, the self-check passed)
///   1    violations found (or none found under --expect-failures, or a
///        --chaos self-check assertion failed)
///   2    usage error
///   130  cancelled by SIGINT/SIGTERM
///
/// Examples:
///   fuzz_harness --programs 500 --deadline-ms 30000 --seed 7
///   fuzz_harness --inject --expect-failures --repro-dir /tmp/repros
///   fuzz_harness --checkpoint run.journal --json report.json
///   fuzz_harness --resume run.journal --json report.json
///   fuzz_harness --chaos --programs 40 --seed 3
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "opt/Unsafe.h"
#include "support/Failure.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/Signal.h"
#include "verify/Fuzz.h"
#include "verify/ProgramGen.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

using namespace tracesafe;

namespace {

/// Requested by SIGINT/SIGTERM (via support/Signal), read by every query
/// budget.
CancelToken GCancel;

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --seed N            base RNG seed (default 1)\n"
      "  --programs N        programs to generate (default 500)\n"
      "  --deadline-ms N     whole-run wall-clock cap (default none)\n"
      "  --json PATH         write a JSON report to PATH\n"
      "  --repro-dir DIR     write minimised .tsl repros to DIR\n"
      "  --server SPEC       run the campaign as a thin client of a\n"
      "                      tracesafed daemon; SPEC is a unix socket\n"
      "                      path or HOST:PORT\n"
      "  --checkpoint PATH   journal finished indices to PATH\n"
      "  --resume PATH       continue a campaign from its journal (implies\n"
      "                      --checkpoint PATH)\n"
      "  --chaos             robustness self-check: run the campaign under\n"
      "                      a random fault plan, cancel it mid-flight,\n"
      "                      resume it, and assert the merged result is\n"
      "                      complete and sound\n"
      "  --chaos-rounds N    run N --chaos rounds with derived fault-plan\n"
      "                      seeds and print one aggregated report\n"
      "                      (implies --chaos)\n"
      "  --inject            route every Nth program through an unsafe pass\n"
      "  --inject-every N    injection period (default 5, implies --inject)\n"
      "  --expect-failures   exit 0 iff at least one failure was found and\n"
      "                      minimised (for harness self-tests)\n"
      "  --no-thin-air       skip the Theorem 5 check\n"
      "  --semantic          also verify every safe-chain step with the\n"
      "                      Lemma 4/5 semantic checkers\n"
      "  --jobs N            campaign threads, one program each at a time:\n"
      "                      1 sequential (default), 0 = hardware\n"
      "                      concurrency, N > 1 = exactly N\n"
      "  --threads N         generated threads per program (default 2)\n"
      "  --max-stmts N       max statements per generated thread (default 6)\n"
      "  --chain-steps N     max rewrite-rule applications (default 4)\n"
      "  --query-deadline-ms N  initial per-query budget deadline\n"
      "  --verbose           print every failure as it is found\n",
      Argv0);
}

void printFailures(const FuzzReport &Report, bool Verbose) {
  for (const FuzzFailure &F : Report.Failures) {
    if (!Verbose && F.Injected)
      continue;
    std::printf("%s failure (program %llu%s): %s\n"
                "  minimised %zu -> %zu statements%s%s\n",
                F.Property.c_str(),
                static_cast<unsigned long long>(F.ProgramIndex),
                F.Injected ? ", injected" : "", F.Detail.c_str(),
                F.OriginalStmts, F.ReducedStmts,
                F.ReproPath.empty() ? "" : ", repro: ",
                F.ReproPath.c_str());
    if (!Verbose || F.ReducedChain.empty())
      continue;
    std::printf("  chain %zu -> %zu steps: %s\n", F.ChainSteps,
                F.ReducedChainSteps, F.ReducedChain.c_str());
  }
}

/// --chaos: end-to-end robustness self-check. Arms a random fault plan
/// (allocation failures, throwing and stalling job threads, spurious
/// budget faults), runs the campaign with a watchdog that requests
/// cancellation mid-flight (simulating a kill), then resumes from the
/// journal — and asserts that the merged campaign (a) completed every
/// program, (b) never fabricated an uninjected violation, and (c) every
/// injected DRF failure it minimised re-verifies from its repro source
/// with faults disarmed.
int runChaos(FuzzOptions Options, uint64_t Seed,
             uint64_t *FaultsFired = nullptr) {
  Options.InjectUnsafe = true;
  if (Options.Jobs <= 1)
    Options.Jobs = 2; // Fault the job threads, not just in-query budgets.
  std::string Journal =
      (std::filesystem::temp_directory_path() /
       ("tracesafe_chaos_" + std::to_string(Seed) + "_" +
        std::to_string(::getpid()) + ".journal"))
          .string();
  Options.CheckpointPath = Journal;

  FaultPlan Plan;
  Plan.randomize(Seed);
  std::printf("chaos: %s\n", Plan.describe().c_str());

  FuzzReport Final;
  {
    FaultPlan::Scope Armed(Plan);

    // Phase 1: cancel mid-campaign, as an operator's Ctrl-C (or a crash
    // right after the last journal flush) would.
    CancelToken MidRun;
    std::thread Watchdog([&MidRun] {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      MidRun.request();
    });
    Options.Cancel = &MidRun;
    Options.Resume = false;
    FuzzReport First = runFuzz(Options);
    Watchdog.join();
    std::printf("chaos: phase 1 %s\n", First.summary().c_str());

    if (GCancel.requested()) {
      std::remove(Journal.c_str());
      return 130;
    }

    // Phase 2: resume what survives in the journal. If phase 1 finished
    // before the watchdog fired, this just replays the journal.
    Options.Cancel = &GCancel;
    Options.Resume = true;
    Final = runFuzz(Options);
    std::printf("chaos: phase 2 %s\n", Final.summary().c_str());
    std::printf("chaos: faults fired: %llu\n",
                static_cast<unsigned long long>(Plan.totalFired()));
  }
  if (FaultsFired)
    *FaultsFired = Plan.totalFired();
  std::remove(Journal.c_str());
  if (GCancel.requested())
    return 130;

  int Bad = 0;
  auto Check = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "chaos: FAILED: %s\n", What);
      ++Bad;
    }
  };
  Check(Final.ProgramsRun == Options.Programs,
        "campaign did not complete every program");
  Check(!Final.Cancelled && !Final.DeadlineHit,
        "resumed campaign ended early");
  Check(Final.uninjectedFailures() == 0,
        "fault containment fabricated an uninjected violation");

  // Oracle agreement, faults now disarmed: every minimised injected DRF
  // failure must re-verify from its recorded source under a generous
  // sequential budget.
  BudgetSpec Generous{/*DeadlineMs=*/10'000, /*MaxVisited=*/5'000'000,
                      /*MaxMemoryBytes=*/256u << 20};
  for (const FuzzFailure &F : Final.Failures) {
    if (!F.Injected || F.Property != "drf-guarantee")
      continue;
    ParseResult PR = parseProgram(F.ReducedSource);
    if (!PR) {
      Check(false, "recorded repro does not parse");
      continue;
    }
    std::optional<Program> T = applyFirstUnsafe(*PR.Prog);
    if (!T) {
      Check(false, "unsafe pass no longer applies to recorded repro");
      continue;
    }
    Budget B(Generous);
    ExecLimits Limits;
    Limits.Shared = &B;
    Check(checkDrfGuarantee(*PR.Prog, *T, Limits).outcome() ==
              GuaranteeOutcome::Violated,
          "minimised injected failure does not re-verify");
  }

  if (Bad == 0)
    std::printf("chaos: OK (%llu programs, %llu failures re-verified)\n",
                static_cast<unsigned long long>(Final.ProgramsRun),
                static_cast<unsigned long long>(Final.Failures.size()));
  return Bad == 0 ? 0 : 1;
}

/// --server: the campaign's generate-and-check loop as a thin client of a
/// tracesafed daemon (SOCKET path or HOST:PORT). Programs and transforms
/// are produced locally (the daemon is a verification service, not a
/// fuzzer); every guarantee query ships over the connection and retries
/// through the client library's backoff, so a daemon restart mid-campaign
/// only delays the batch. Queries are batch-class: a human waiting on an
/// interactive CLI preempts us at the daemon's admission queue. The batch
/// goes out pipelined on one connection (callBatch); after a transport
/// error only the unanswered queries are resubmitted.
int runRemote(const FuzzOptions &Options, const std::string &Server,
              bool Verbose) {
  daemon::ClientOptions CO;
  daemon::setServerSpec(CO, Server);
  CO.Name = "fuzz-harness-" + std::to_string(::getpid());
  daemon::DaemonClient Client(CO);

  Rng R(Options.Seed);
  std::vector<daemon::QueryRequest> Batch;
  std::vector<bool> IsInjected;
  std::vector<uint64_t> Origin;
  for (uint64_t I = 0; I < Options.Programs; ++I) {
    if (GCancel.requested())
      return ExitInterrupted;
    Program P = generateProgram(R, Options.Gen);
    bool Injected = false;
    std::optional<Program> T;
    if (Options.InjectUnsafe && Options.InjectEvery &&
        I % Options.InjectEvery == 0) {
      T = applyFirstUnsafe(P);
      Injected = T.has_value();
    }
    if (!T)
      T = greedyChain(P, RuleSet::all(), Options.MaxChainSteps).Result;

    daemon::QueryRequest Q;
    Q.Kind = daemon::QueryKind::DrfGuarantee;
    Q.Class = daemon::ClientClass::Batch;
    Q.Program = printProgram(P);
    Q.Transformed = printProgram(*T);
    Batch.push_back(Q);
    IsInjected.push_back(Injected);
    Origin.push_back(I);
    if (Options.CheckThinAir) {
      Q.Kind = daemon::QueryKind::ThinAir;
      Batch.push_back(Q);
      IsInjected.push_back(Injected);
      Origin.push_back(I);
    }
  }

  std::vector<daemon::QueryResponse> Verdicts;
  try {
    Verdicts = Client.callBatch(Batch);
  } catch (const daemon::ProtocolError &E) {
    std::fprintf(stderr, "remote campaign failed: %s\n", E.what());
    return GCancel.requested() ? ExitInterrupted : 1;
  }

  uint64_t Violations = 0, InjectedCaught = 0, Unknowns = 0, Degraded = 0;
  for (size_t I = 0; I < Verdicts.size(); ++I) {
    const daemon::QueryResponse &V = Verdicts[I];
    if (V.Degraded)
      ++Degraded;
    if (V.Status != daemon::ResponseStatus::Ok ||
        V.Kind == VerdictKind::Unknown) {
      ++Unknowns;
      continue;
    }
    if (V.Kind != VerdictKind::Refuted)
      continue;
    if (IsInjected[I]) {
      ++InjectedCaught;
      continue;
    }
    ++Violations;
    std::fprintf(stderr, "remote: program %llu violated a guarantee: %s\n",
                 static_cast<unsigned long long>(Origin[I]),
                 V.str().c_str());
  }
  if (Verbose)
    for (size_t I = 0; I < Verdicts.size(); ++I)
      std::printf("remote: #%llu %s\n",
                  static_cast<unsigned long long>(Origin[I]),
                  Verdicts[I].str().c_str());
  const daemon::DaemonClient::Stats &CS = Client.stats();
  std::printf("remote campaign: %llu programs, %zu queries, "
              "%llu violations, %llu injected caught, %llu unknown, "
              "%llu degraded (connects=%llu retries=%llu "
              "transport-errors=%llu)\n",
              static_cast<unsigned long long>(Options.Programs),
              Batch.size(), static_cast<unsigned long long>(Violations),
              static_cast<unsigned long long>(InjectedCaught),
              static_cast<unsigned long long>(Unknowns),
              static_cast<unsigned long long>(Degraded),
              static_cast<unsigned long long>(CS.Connects),
              static_cast<unsigned long long>(CS.Retries),
              static_cast<unsigned long long>(CS.TransportErrors));
  if (GCancel.requested())
    return ExitInterrupted;
  return Violations == 0 ? 0 : 1;
}

/// --chaos-rounds N: sweep N chaos self-checks over derived fault-plan
/// seeds (the campaign seed stays fixed, so every round shakes the same
/// workload with a different failure schedule) and aggregate one report.
/// Exit 0 iff every round passed; 130 as soon as the operator cancels.
int runChaosRounds(const FuzzOptions &Base, uint64_t Seed,
                   uint64_t Rounds) {
  uint64_t Passed = 0, Failed = 0, Faults = 0;
  for (uint64_t R = 0; R < Rounds; ++R) {
    uint64_t FaultSeed = mixSeeds(Seed + R);
    std::printf("chaos: === round %llu/%llu (fault seed %llu) ===\n",
                static_cast<unsigned long long>(R + 1),
                static_cast<unsigned long long>(Rounds),
                static_cast<unsigned long long>(FaultSeed));
    uint64_t Fired = 0;
    int Rc = runChaos(Base, FaultSeed, &Fired);
    if (Rc == 130)
      return 130;
    Faults += Fired;
    ++(Rc == 0 ? Passed : Failed);
  }
  std::printf("chaos: sweep %llu rounds: %llu passed, %llu failed, "
              "%llu faults fired\n",
              static_cast<unsigned long long>(Rounds),
              static_cast<unsigned long long>(Passed),
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Faults));
  return Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions Options;
  std::string JsonPath;
  std::string ServerSocket;
  bool ExpectFailures = false;
  bool Verbose = false;
  bool Chaos = false;
  uint64_t ChaosRounds = 0;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Each flag's maximum is the range of its destination.
    constexpr uint64_t U32 = std::numeric_limits<unsigned>::max();
    constexpr uint64_t U64 = std::numeric_limits<uint64_t>::max();
    constexpr uint64_t I64 = std::numeric_limits<int64_t>::max();
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
    } else if (Arg == "--seed") {
      if (!NextValue(Options.Seed, U64))
        return 2;
    } else if (Arg == "--programs") {
      if (!NextValue(Options.Programs, U64))
        return 2;
    } else if (Arg == "--deadline-ms") {
      if (!NextValue(N, I64))
        return 2;
      Options.DeadlineMs = static_cast<int64_t>(N);
    } else if (Arg == "--json") {
      if (!NextPath(JsonPath))
        return 2;
    } else if (Arg == "--repro-dir") {
      if (!NextPath(Options.ReproDir))
        return 2;
    } else if (Arg == "--server") {
      if (!NextPath(ServerSocket))
        return 2;
    } else if (Arg == "--checkpoint") {
      if (!NextPath(Options.CheckpointPath))
        return 2;
    } else if (Arg == "--resume") {
      if (!NextPath(Options.CheckpointPath))
        return 2;
      Options.Resume = true;
    } else if (Arg == "--chaos") {
      Chaos = true;
    } else if (Arg == "--chaos-rounds") {
      if (!NextValue(ChaosRounds, U64) || ChaosRounds == 0)
        return 2;
      Chaos = true;
    } else if (Arg == "--inject") {
      Options.InjectUnsafe = true;
    } else if (Arg == "--inject-every") {
      if (!NextValue(N, U32))
        return 2;
      Options.InjectUnsafe = true;
      Options.InjectEvery = static_cast<unsigned>(N);
    } else if (Arg == "--expect-failures") {
      ExpectFailures = true;
    } else if (Arg == "--no-thin-air") {
      Options.CheckThinAir = false;
    } else if (Arg == "--semantic") {
      Options.CheckSemanticSteps = true;
    } else if (Arg == "--jobs") {
      if (!NextValue(N, U32))
        return 2;
      Options.Jobs = static_cast<unsigned>(N);
    } else if (Arg == "--threads") {
      if (!NextValue(N, U32))
        return 2;
      Options.Gen.Threads = static_cast<unsigned>(N);
    } else if (Arg == "--max-stmts") {
      if (!NextValue(N, U32))
        return 2;
      Options.Gen.MaxStmtsPerThread = static_cast<unsigned>(N);
    } else if (Arg == "--chain-steps") {
      if (!NextValue(N, std::numeric_limits<size_t>::max()))
        return 2;
      Options.MaxChainSteps = N;
    } else if (Arg == "--query-deadline-ms") {
      if (!NextValue(N, I64))
        return 2;
      Options.Escalation.Initial.DeadlineMs = static_cast<int64_t>(N);
    } else if (Arg == "--verbose") {
      Verbose = true;
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", Argv[0], Arg.c_str());
      usage(Argv[0]);
      return 2;
    }
  }

  installCancelOnSignal(GCancel);

  if (!ServerSocket.empty())
    return runRemote(Options, ServerSocket, Verbose);

  if (Chaos)
    return ChaosRounds > 1
               ? runChaosRounds(Options, Options.Seed, ChaosRounds)
               : runChaos(Options, Options.Seed);

  Options.Cancel = &GCancel;
  FuzzReport Report = runFuzz(Options);

  std::printf("%s\n", Report.summary().c_str());
  printFailures(Report, Verbose);

  if (!JsonPath.empty()) {
    std::ofstream Os(JsonPath);
    if (!Os) {
      std::fprintf(stderr, "%s: cannot write %s\n", Argv[0],
                   JsonPath.c_str());
      return 2;
    }
    Os << Report.toJson();
  }

  if (Report.Cancelled)
    return 130;

  if (ExpectFailures) {
    // Harness self-test mode: the run is a success iff the pipeline found
    // at least one failure AND produced a minimised repro for it.
    for (const FuzzFailure &F : Report.Failures)
      if (F.ReducedStmts > 0 && F.ReducedStmts <= F.OriginalStmts)
        return 0;
    std::fprintf(stderr, "expected failures, found none\n");
    return 1;
  }
  return Report.uninjectedFailures() == 0 ? 0 : 1;
}
