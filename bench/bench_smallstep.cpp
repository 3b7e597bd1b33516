//===----------------------------------------------------------------------===//
///
/// \file
/// E8 — Fig 6-8 infrastructure: parser round-trips, small-step throughput,
/// agreement of [[P]]'s executions with the all-volatile TSO machine, and
/// the |domain|^reads ablation from DESIGN.md decision 1.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "TsoOracle.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "trace/Enumerate.h"

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

const char *Workload = R"(
volatile flag;
thread {
  data := 1;
  data2 := 2;
  flag := 1;
}
thread {
  r1 := flag;
  if (r1 == 1) { r2 := data; r3 := data2; print r2; print r3; }
  else { print 0; }
}
)";

void claims() {
  header("E8 / Fig 6-8", "language infrastructure");
  Program P = parseOrDie(Workload);
  ParseResult Back = parseProgram(printProgram(P));
  claim("printer/parser round-trip", Back && P.equals(*Back.Prog));
  Program Fenced = P;
  for (SymbolId Loc : P.locations())
    Fenced.markVolatile(Loc);
  claim("[[P]] executions agree with the all-volatile TSO machine",
        programBehaviours(P) == oracleTsoBehaviours(Fenced));
  claim("the message-passing workload is DRF (volatile flag)",
        isProgramDrf(P));
}

void benchParse(benchmark::State &State) {
  for (auto _ : State) {
    ParseResult R = parseProgram(Workload);
    benchmark::DoNotOptimize(R.Prog->threadCount());
  }
}
BENCHMARK(benchParse);

void benchPrint(benchmark::State &State) {
  Program P = parseOrDie(Workload);
  for (auto _ : State)
    benchmark::DoNotOptimize(printProgram(P).size());
}
BENCHMARK(benchPrint);

void benchSmallStepThroughput(benchmark::State &State) {
  Program P = parseOrDie("thread { while (r9 == 0) { r1 := 1; r2 := r1; "
                         "skip; } }");
  LangContext Ctx(P, {0});
  size_t Steps = 0;
  for (auto _ : State) {
    ThreadState S = initialThreadState(P, 0);
    for (int I = 0; I < 256 && !S.done(); ++I) {
      std::vector<Step> Next = possibleSteps(S, Ctx);
      S = std::move(Next[0].Next);
      ++Steps;
    }
    benchmark::DoNotOptimize(S.done());
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
}
BENCHMARK(benchSmallStepThroughput);

/// Ablation: traceset size and generation time vs |domain| (decision 1).
void benchDomainAblation(benchmark::State &State) {
  Program P = parseOrDie("thread { r1 := x; r2 := x; r3 := y; print r1; }");
  std::vector<Value> D;
  for (Value V = 0; V < State.range(0); ++V)
    D.push_back(V);
  size_t Traces = 0;
  for (auto _ : State) {
    Traceset T = programTraceset(P, D);
    Traces = T.size();
    benchmark::DoNotOptimize(Traces);
  }
  State.counters["traces"] = static_cast<double>(Traces);
}
BENCHMARK(benchDomainAblation)->DenseRange(1, 6);

void benchTracesetExecutor(benchmark::State &State) {
  Program P = parseOrDie(Workload);
  std::vector<Value> D = defaultDomainFor(P, 2);
  for (auto _ : State) {
    Traceset T = programTraceset(P, D);
    benchmark::DoNotOptimize(collectBehaviours(T).size());
  }
}
BENCHMARK(benchTracesetExecutor);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
