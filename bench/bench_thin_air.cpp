//===----------------------------------------------------------------------===//
///
/// \file
/// E11 — §5's out-of-thin-air guarantee (Lemmas 2/3, Theorem 5). The 42
/// example, origin preservation under rule chains, and the audit cost.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "opt/Pipeline.h"
#include "verify/Checks.h"

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

const char *CopyExchange = R"(
thread { r2 := y; x := r2; print r2; }
thread { r1 := x; y := r1; }
)";

void claims() {
  header("E11 / §5", "out-of-thin-air guarantee");
  Program P = parseOrDie(CopyExchange);
  claim("the §5 program does not contain 42", !P.containsConstant(42));
  ThinAirReport R = exploreThinAir(P, P, 42);
  claim("no execution reads/writes/outputs 42 (Lemma 3)", R.holds());
  claim("[[P]] has no origin for 42 (Lemma 6)", !R.OrigHasOrigin);
  // Theorem 5 over exhaustive 1- and 2-step rule chains.
  size_t Chains = 0, Ok = 0;
  for (const RewriteSite &S1 :
       findRewriteSites(P, RuleSet::withExtensions())) {
    Program P1 = applyRewrite(P, S1);
    ++Chains;
    Ok += exploreThinAir(P, P1, 42).holds();
    for (const RewriteSite &S2 :
         findRewriteSites(P1, RuleSet::withExtensions())) {
      Program P2 = applyRewrite(P1, S2);
      ++Chains;
      Ok += exploreThinAir(P, P2, 42).holds();
    }
  }
  claim("Theorem 5 on all " + std::to_string(Chains) +
            " exhaustive 1/2-step chains",
        Chains > 0 && Ok == Chains);
}

void benchOriginScan(benchmark::State &State) {
  Program P = parseOrDie(CopyExchange);
  std::vector<Value> D = defaultDomainFor(P);
  D.push_back(42);
  Traceset T = programTraceset(P, D);
  for (auto _ : State)
    benchmark::DoNotOptimize(T.hasOriginFor(42));
  State.counters["traces"] = static_cast<double>(T.size());
}
BENCHMARK(benchOriginScan);

void benchThinAirAudit(benchmark::State &State) {
  Program P = parseOrDie(CopyExchange);
  for (auto _ : State) {
    ThinAirReport R = exploreThinAir(P, P, 42);
    benchmark::DoNotOptimize(R.holds());
  }
}
BENCHMARK(benchThinAirAudit);

void benchAuditUnderChains(benchmark::State &State) {
  Program P = parseOrDie(CopyExchange);
  Rng R(7);
  TransformChain Chain = randomChain(P, RuleSet::withExtensions(),
                                     static_cast<size_t>(State.range(0)), R);
  for (auto _ : State) {
    ThinAirReport Rep = exploreThinAir(P, Chain.Result, 42);
    benchmark::DoNotOptimize(Rep.holds());
  }
  State.counters["chain_len"] = static_cast<double>(Chain.Steps.size());
}
BENCHMARK(benchAuditUnderChains)->Arg(1)->Arg(2)->Arg(4);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
