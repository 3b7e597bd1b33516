//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming race-detection CLI over TSRL binary event logs.
///
/// Two modes:
///  - generator: `--gen racefree|mixed|lockheavy --out FILE` writes a
///    seeded synthetic log (racelog/Synth.h) for benchmarking or as scan
///    input;
///  - scanner: positional FILE arguments are scanned with the streaming
///    happens-before detector (racelog/Detect.h) under the usual budget
///    flags. A torn or truncated tail demotes a race-free verdict to
///    undecided; races found are definitive either way.
///
/// With no arguments a small self-contained demo runs: a mixed synthetic
/// log is generated in memory, scanned with both the epoch engine and the
/// full-vector-clock oracle, and the agreeing reports are printed.
///
/// Exit codes:
///   0    all scanned logs race-free (or generator/demo ran clean)
///   1    at least one scanned log contains races
///   2    usage error, unreadable file, or unusable log header
///   130  cancelled by SIGINT/SIGTERM
///
/// Examples:
///   racelog_scan --gen mixed --events 1000000 --out /tmp/mixed.tsrl
///   racelog_scan /tmp/mixed.tsrl
///   racelog_scan --oracle --max-visited 100000 /tmp/mixed.tsrl
///
//===----------------------------------------------------------------------===//

#include "racelog/Detect.h"
#include "racelog/Synth.h"
#include "support/Failure.h"
#include "support/Format.h"
#include "support/Signal.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace tracesafe;
using namespace tracesafe::racelog;

namespace {

/// Requested by SIGINT/SIGTERM (via support/Signal), read by every scan
/// budget.
CancelToken GCancel;

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] [LOG.tsrl...]\n"
      "scan options:\n"
      "  --oracle            full-vector-clock engine instead of epochs\n"
      "  --max-races N       cap on reported races (default 64)\n"
      "  --deadline-ms N     wall-clock budget for each scan\n"
      "  --max-visited N     event budget for each scan\n"
      "  --max-memory-mb N   state-memory budget for each scan\n"
      "  --fault-seed N      run under a random fault plan (robustness\n"
      "                      demo: injected faults surface as undecided)\n"
      "generator options:\n"
      "  --gen KIND          write a synthetic log instead of scanning;\n"
      "                      KIND is racefree, mixed (racy) or lockheavy\n"
      "  --out FILE          output path (required with --gen)\n"
      "  --events N          approximate event count (default 1048576)\n"
      "  --threads N         generator threads (default 8)\n"
      "  --locations N       distinct data addresses (default 16384)\n"
      "  --seed N            generator seed (default 1)\n",
      Argv0);
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (!In.good() && !In.eof())
    return std::nullopt;
  return Buf.str();
}

void printReport(const char *Name, const RaceLogReport &R) {
  const char *V = R.verdict() == VerdictKind::Refuted  ? "RACY"
                  : R.verdict() == VerdictKind::Proved ? "race-free"
                                                       : "undecided";
  std::printf("%-24s %-10s %s\n", Name, V, R.str().c_str());
}

/// The no-argument demo: generate a small mixed log in memory and show
/// the epoch engine and the oracle agreeing on it.
int runDemo() {
  SynthOptions SO;
  SO.Events = 200'000;
  SO.Threads = 4;
  SO.Locations = 1 << 10;
  std::string Log = makeMixedLog(SO);
  std::printf("demo: synthetic mixed log, %zu bytes\n", Log.size());

  RaceLogReport RE = scanRaceLog(Log);
  printReport("epoch engine", RE);
  if (signalled())
    return ExitInterrupted;

  RaceLogOptions Oracle;
  Oracle.Epochs = false;
  RaceLogReport RO = scanRaceLog(Log, Oracle);
  printReport("full-clock oracle", RO);
  if (signalled())
    return ExitInterrupted;

  if (RE.verdict() != RO.verdict() ||
      RE.Stats.RacyLocations != RO.Stats.RacyLocations) {
    std::fprintf(stderr, "error: engines disagree\n");
    return 1;
  }
  std::printf("engines agree: %llu racy locations\n",
              static_cast<unsigned long long>(RE.Stats.RacyLocations));
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  installCancelOnSignal(GCancel);

  std::string GenKind, OutPath;
  SynthOptions SO;
  RaceLogOptions RO;
  BudgetSpec Spec;
  uint64_t FaultSeed = 0;
  bool HaveFaultSeed = false;
  std::vector<std::string> Files;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto needValue = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", A.c_str());
        return nullptr;
      }
      return argv[++I];
    };
    // Each flag's maximum is the range of its destination, after the
    // shift of an -mb flag.
    constexpr uint64_t U32 = std::numeric_limits<uint32_t>::max();
    constexpr uint64_t U64 = std::numeric_limits<uint64_t>::max();
    auto needUnsigned = [&](uint64_t &Out, uint64_t Max) {
      const char *V = needValue();
      if (!V || !parseCount(V, Max, Out)) {
        if (V)
          std::fprintf(stderr,
                       "error: bad value for %s: %s (a number no larger "
                       "than %llu)\n",
                       A.c_str(), V, static_cast<unsigned long long>(Max));
        return false;
      }
      return true;
    };
    uint64_t U = 0;
    if (A == "--help" || A == "-h") {
      usage(argv[0]);
      return 0;
    } else if (A == "--gen") {
      const char *V = needValue();
      if (!V)
        return 2;
      GenKind = V;
    } else if (A == "--out") {
      const char *V = needValue();
      if (!V)
        return 2;
      OutPath = V;
    } else if (A == "--events") {
      if (!needUnsigned(SO.Events, U64))
        return 2;
    } else if (A == "--threads") {
      if (!needUnsigned(U, U32))
        return 2;
      SO.Threads = static_cast<uint32_t>(U);
    } else if (A == "--locations") {
      if (!needUnsigned(U, U32))
        return 2;
      SO.Locations = static_cast<uint32_t>(U);
    } else if (A == "--seed") {
      if (!needUnsigned(SO.Seed, U64))
        return 2;
    } else if (A == "--oracle") {
      RO.Epochs = false;
    } else if (A == "--max-races") {
      if (!needUnsigned(U, std::numeric_limits<size_t>::max()))
        return 2;
      RO.MaxRaces = static_cast<size_t>(U);
    } else if (A == "--deadline-ms") {
      if (!needUnsigned(U, std::numeric_limits<int64_t>::max()))
        return 2;
      Spec.DeadlineMs = static_cast<int64_t>(U);
    } else if (A == "--max-visited") {
      if (!needUnsigned(Spec.MaxVisited, U64))
        return 2;
    } else if (A == "--max-memory-mb") {
      if (!needUnsigned(U, U64 >> 20))
        return 2;
      Spec.MaxMemoryBytes = U << 20;
    } else if (A == "--fault-seed") {
      if (!needUnsigned(FaultSeed, U64))
        return 2;
      HaveFaultSeed = true;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown option %s\n", A.c_str());
      usage(argv[0]);
      return 2;
    } else {
      Files.push_back(A);
    }
  }

  // Generator mode.
  if (!GenKind.empty()) {
    if (OutPath.empty()) {
      std::fprintf(stderr, "error: --gen needs --out FILE\n");
      return 2;
    }
    std::string Log;
    if (GenKind == "racefree")
      Log = makeRaceFreeLog(SO);
    else if (GenKind == "mixed" || GenKind == "racy")
      Log = makeMixedLog(SO);
    else if (GenKind == "lockheavy")
      Log = makeLockHeavyLog(SO);
    else {
      std::fprintf(stderr, "error: unknown --gen kind: %s\n",
                   GenKind.c_str());
      return 2;
    }
    std::ofstream Out(OutPath, std::ios::binary | std::ios::trunc);
    Out.write(Log.data(), static_cast<std::streamsize>(Log.size()));
    if (!Out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
      return 2;
    }
    std::printf("wrote %s: %s, %zu bytes\n", OutPath.c_str(),
                GenKind.c_str(), Log.size());
    return signalled() ? ExitInterrupted : 0;
  }

  if (Files.empty())
    return runDemo();

  FaultPlan Plan;
  std::optional<FaultPlan::Scope> PlanScope;
  if (HaveFaultSeed) {
    Plan.randomize(FaultSeed);
    PlanScope.emplace(Plan);
  }

  bool AnyRaces = false;
  for (const std::string &Path : Files) {
    std::optional<std::string> Bytes = readFile(Path);
    if (!Bytes) {
      std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
      return 2;
    }
    // Each scan gets a fresh budget so one huge log cannot starve the
    // rest of the batch; the cancel token is shared.
    Budget B(Spec, &GCancel);
    RaceLogOptions O = RO;
    O.Shared = &B;
    RaceLogReport R = scanRaceLog(*Bytes, O);
    if (signalled())
      return ExitInterrupted;
    if (!R.FormatOk) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                   R.FormatError.c_str());
      return 2;
    }
    printReport(Path.c_str(), R);
    AnyRaces |= !R.Races.empty();
  }
  return AnyRaces ? 1 : 0;
}
