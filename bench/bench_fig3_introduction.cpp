//===----------------------------------------------------------------------===//
///
/// \file
/// E4 — Fig 3 (irrelevant read introduction). The introduction step is the
/// unsound one; the subsequent cross-acquire elimination is individually
/// safe; the combination gives a DRF program a new behaviour.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "opt/Unsafe.h"
#include "semantics/Reordering.h"

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

const char *StageA = R"(
thread { lock m; x := 1; r3 := y; print r3; unlock m; }
thread { lock m; y := 1; r4 := x; print r4; unlock m; }
)";

const char *StageC = R"(
thread { r1 := y; lock m; x := 1; print r1; unlock m; }
thread { r2 := x; lock m; y := 1; print r2; unlock m; }
)";

Program stageB() {
  Program A = parseOrDie(StageA);
  ListPath T0, T1;
  T0.Tid = 0;
  T1.Tid = 1;
  Program B =
      introduceRead(A, T0, 0, Symbol::intern("r1"), Symbol::intern("y"));
  return introduceRead(B, T1, 0, Symbol::intern("r2"), Symbol::intern("x"));
}

void claims() {
  header("E4 / Fig 3", "irrelevant read introduction");
  Program A = parseOrDie(StageA);
  Program B = stageB();
  Program C = parseOrDie(StageC);
  claim("(a) is data race free", isProgramDrf(A));
  claim("(a) cannot print two zeros",
        programBehaviours(A).count({0, 0}) == 0);
  std::vector<Value> D = defaultDomainFor(A, 2);
  Traceset TA = programTraceset(A, D);
  Traceset TB = programTraceset(B, D);
  Traceset TC = programTraceset(C, D);
  claim("(a)->(b) read introduction is NOT an elimination",
        checkElimination(TA, TB).Verdict == CheckVerdict::Fails);
  claim("(a)->(b) nor an elimination+reordering",
        checkEliminationThenReordering(TA, TB).Verdict ==
            CheckVerdict::Fails);
  claim("(b) is racy", !isProgramDrf(B));
  claim("(b)->(c) cross-acquire read elimination IS an elimination",
        checkElimination(TB, TC).Verdict == CheckVerdict::Holds);
  claim("(c) prints two zeros under SC",
        programBehaviours(C).count({0, 0}) == 1);
}

void benchIntroduceRead(benchmark::State &State) {
  Program A = parseOrDie(StageA);
  ListPath T0;
  T0.Tid = 0;
  for (auto _ : State) {
    Program B = introduceRead(A, T0, 0, Symbol::intern("r1"),
                              Symbol::intern("y"));
    benchmark::DoNotOptimize(B.threadCount());
  }
}
BENCHMARK(benchIntroduceRead);

void benchIntroductionRefutation(benchmark::State &State) {
  // How long does it take the checker to *refute* the introduction?
  Program A = parseOrDie(StageA);
  Program B = stageB();
  std::vector<Value> D = defaultDomainFor(A, 2);
  Traceset TA = programTraceset(A, D);
  Traceset TB = programTraceset(B, D);
  for (auto _ : State) {
    TransformCheckResult R = checkElimination(TA, TB);
    benchmark::DoNotOptimize(R.Verdict);
  }
}
BENCHMARK(benchIntroductionRefutation);

void benchCrossAcquireElimination(benchmark::State &State) {
  Program B = stageB();
  Program C = parseOrDie(StageC);
  std::vector<Value> D = defaultDomainFor(B, 2);
  Traceset TB = programTraceset(B, D);
  Traceset TC = programTraceset(C, D);
  for (auto _ : State) {
    TransformCheckResult R = checkElimination(TB, TC);
    benchmark::DoNotOptimize(R.Verdict);
  }
}
BENCHMARK(benchCrossAcquireElimination);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
