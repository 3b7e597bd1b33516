//===----------------------------------------------------------------------===//
///
/// \file
/// E3 — Fig 2 (reordering example). Pure reordering fails, elimination
/// followed by reordering holds; measures the de-permutation search and
/// the composite checker.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "semantics/Reordering.h"

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

const char *Fig2Original = R"(
thread { r1 := x; y := r1; }
thread { r2 := y; x := 1; print r2; }
)";

const char *Fig2Transformed = R"(
thread { r1 := x; y := r1; }
thread { x := 1; r2 := y; print r2; }
)";

void claims() {
  header("E3 / Fig 2", "read-write reordering");
  Program O = parseOrDie(Fig2Original);
  Program T = parseOrDie(Fig2Transformed);
  claim("original cannot print 1",
        programBehaviours(O).count({1}) == 0);
  claim("transformed can print 1",
        programBehaviours(T).count({1}) == 1);
  std::vector<Value> D = defaultDomainFor(O, 2);
  Traceset TO = programTraceset(O, D);
  Traceset TT = programTraceset(T, D);
  claim("pure reordering FAILS (the [S,W[x=1]] prefix has no witness, §4)",
        checkReordering(TO, TT).Verdict == CheckVerdict::Fails);
  claim("elimination-then-reordering HOLDS (wildcard-read trick, §4)",
        checkEliminationThenReordering(TO, TT).Verdict ==
            CheckVerdict::Holds);
}

void benchPureReorderingCheck(benchmark::State &State) {
  Program O = parseOrDie(Fig2Original);
  Program T = parseOrDie(Fig2Transformed);
  std::vector<Value> D = defaultDomainFor(O, 2);
  Traceset TO = programTraceset(O, D);
  Traceset TT = programTraceset(T, D);
  for (auto _ : State) {
    TransformCheckResult R = checkReordering(TO, TT);
    benchmark::DoNotOptimize(R.Verdict);
  }
}
BENCHMARK(benchPureReorderingCheck);

void benchCompositeCheck(benchmark::State &State) {
  Program O = parseOrDie(Fig2Original);
  Program T = parseOrDie(Fig2Transformed);
  std::vector<Value> D =
      defaultDomainFor(O, static_cast<size_t>(State.range(0)));
  Traceset TO = programTraceset(O, D);
  Traceset TT = programTraceset(T, D);
  for (auto _ : State) {
    TransformCheckResult R = checkEliminationThenReordering(TO, TT);
    benchmark::DoNotOptimize(R.Verdict);
  }
}
BENCHMARK(benchCompositeCheck)->Arg(2)->Arg(3)->Arg(4);

void benchBehaviourDiff(benchmark::State &State) {
  Program O = parseOrDie(Fig2Original);
  Program T = parseOrDie(Fig2Transformed);
  for (auto _ : State) {
    std::set<Behaviour> BO = programBehaviours(O);
    std::set<Behaviour> BT = programBehaviours(T);
    size_t NewCount = 0;
    for (const Behaviour &B : BT)
      NewCount += BO.count(B) == 0;
    benchmark::DoNotOptimize(NewCount);
  }
}
BENCHMARK(benchBehaviourDiff);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
