//===----------------------------------------------------------------------===//
///
/// \file
/// E2 — Fig 1 (elimination example). Reproduces the figure's claims and
/// measures the cost of traceset generation, behaviour enumeration and the
/// semantic elimination check.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "semantics/Elimination.h"

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

const char *Fig1Original = R"(
thread { x := 2; y := 1; x := 1; }
thread { r1 := y; print r1; r1 := x; r2 := x; print r2; }
)";

const char *Fig1Transformed = R"(
thread { y := 1; x := 1; }
thread { r1 := y; print r1; r1 := x; r2 := r1; print r2; }
)";

void claims() {
  header("E2 / Fig 1", "overwritten-write + redundant-read elimination");
  Program O = parseOrDie(Fig1Original);
  Program T = parseOrDie(Fig1Transformed);
  std::set<Behaviour> BO = programBehaviours(O);
  std::set<Behaviour> BT = programBehaviours(T);
  claim("original cannot output 1 then 0", BO.count({1, 0}) == 0);
  claim("transformed can output 1 then 0", BT.count({1, 0}) == 1);
  claim("both programs are racy (no DRF violation)",
        !isProgramDrf(O) && !isProgramDrf(T));
  std::vector<Value> D = defaultDomainFor(O, 3);
  TransformCheckResult R =
      checkElimination(programTraceset(O, D), programTraceset(T, D));
  claim("transformed traceset IS a semantic elimination of the original",
        R.Verdict == CheckVerdict::Holds);
}

void benchTracesetGeneration(benchmark::State &State) {
  Program O = parseOrDie(Fig1Original);
  std::vector<Value> D = defaultDomainFor(O, static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    Traceset T = programTraceset(O, D);
    benchmark::DoNotOptimize(T.size());
  }
  State.counters["domain"] = static_cast<double>(D.size());
  Traceset T = programTraceset(O, D);
  State.counters["traces"] = static_cast<double>(T.size());
}
BENCHMARK(benchTracesetGeneration)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void benchBehaviours(benchmark::State &State) {
  Program O = parseOrDie(Fig1Original);
  for (auto _ : State) {
    std::set<Behaviour> B = programBehaviours(O);
    benchmark::DoNotOptimize(B.size());
  }
}
BENCHMARK(benchBehaviours);

void benchEliminationCheck(benchmark::State &State) {
  Program O = parseOrDie(Fig1Original);
  Program T = parseOrDie(Fig1Transformed);
  std::vector<Value> D =
      defaultDomainFor(O, static_cast<size_t>(State.range(0)));
  Traceset TO = programTraceset(O, D);
  Traceset TT = programTraceset(T, D);
  for (auto _ : State) {
    TransformCheckResult R = checkElimination(TO, TT);
    benchmark::DoNotOptimize(R.Verdict);
  }
  State.counters["traces_checked"] = static_cast<double>(
      checkElimination(TO, TT).TracesChecked);
}
BENCHMARK(benchEliminationCheck)->Arg(3)->Arg(4);

void benchRaceDetection(benchmark::State &State) {
  Program O = parseOrDie(Fig1Original);
  for (auto _ : State) {
    RaceReport R = findProgramRace(O);
    benchmark::DoNotOptimize(R.HasRace);
  }
}
BENCHMARK(benchRaceDetection);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
