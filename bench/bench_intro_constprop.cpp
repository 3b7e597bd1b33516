//===----------------------------------------------------------------------===//
///
/// \file
/// E1 — the §1 introduction example. Sequential consistency never prints
/// 1; gcc-4.1.2-style constant propagation makes the program print 1; with
/// volatile flags the program is DRF and the propagation violates the DRF
/// guarantee. Measures the behaviour analysis of the motivating program.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "opt/Unsafe.h"
#include "verify/Checks.h"

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

const char *IntroRacy = R"(
thread {
  data := 1;
  flagReq := 1;
  r1 := flagResp;
  if (r1 == 1) { r2 := data; print r2; } else { skip; }
}
thread {
  r3 := flagReq;
  if (r3 == 1) { data := 2; flagResp := 1; } else { skip; }
}
)";

const char *IntroVolatile = R"(
volatile flagReq, flagResp;
thread {
  data := 1;
  flagReq := 1;
  r1 := flagResp;
  if (r1 == 1) { r2 := data; print r2; } else { skip; }
}
thread {
  r3 := flagReq;
  if (r3 == 1) { data := 2; flagResp := 1; } else { skip; }
}
)";

void claims() {
  header("E1 / §1", "introduction example (request/response)");
  Program Racy = parseOrDie(IntroRacy);
  Program Volatile = parseOrDie(IntroVolatile);
  claim("the program cannot print 1 in any interleaving",
        programBehaviours(Racy).count({1}) == 0 &&
            programBehaviours(Volatile).count({1}) == 0);
  claim("it can print 2 (the intended handshake)",
        programBehaviours(Volatile).count({2}) == 1);
  claim("plain flags: racy; volatile flags: DRF (§3)",
        !isProgramDrf(Racy) && isProgramDrf(Volatile));
  std::vector<ConstPropSite> Sites = findUnsafeConstProp(Volatile);
  claim("constant propagation finds the data:=1 -> print data site",
        !Sites.empty());
  if (!Sites.empty()) {
    Program T = applyUnsafeConstProp(Volatile, Sites.front());
    claim("the optimised DRF program CAN print 1 (new behaviour)",
          programCanOutput(T, 1));
    DrfGuaranteeReport G = exploreDrfGuarantee(Volatile, T);
    claim("the DRF guarantee flags the violation", !G.holds());
  }
}

void benchBehaviourAnalysis(benchmark::State &State) {
  Program P = parseOrDie(IntroVolatile);
  for (auto _ : State)
    benchmark::DoNotOptimize(programBehaviours(P).size());
}
BENCHMARK(benchBehaviourAnalysis);

void benchDrfCheck(benchmark::State &State) {
  Program P = parseOrDie(IntroVolatile);
  for (auto _ : State)
    benchmark::DoNotOptimize(findProgramRace(P).HasRace);
}
BENCHMARK(benchDrfCheck);

void benchConstPropPipeline(benchmark::State &State) {
  Program P = parseOrDie(IntroVolatile);
  for (auto _ : State) {
    std::vector<ConstPropSite> Sites = findUnsafeConstProp(P);
    Program T = applyUnsafeConstProp(P, Sites.front());
    benchmark::DoNotOptimize(T.threadCount());
  }
}
BENCHMARK(benchConstPropPipeline);

void benchGuaranteeEndToEnd(benchmark::State &State) {
  Program P = parseOrDie(IntroVolatile);
  Program T = applyUnsafeConstProp(P, findUnsafeConstProp(P).front());
  for (auto _ : State) {
    DrfGuaranteeReport G = exploreDrfGuarantee(P, T);
    benchmark::DoNotOptimize(G.holds());
  }
}
BENCHMARK(benchGuaranteeEndToEnd);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
