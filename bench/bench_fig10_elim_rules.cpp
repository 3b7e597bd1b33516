//===----------------------------------------------------------------------===//
///
/// \file
/// E9 — Fig 10 syntactic eliminations. Verifies Lemma 4 / Theorem 3 for
/// each rule on a representative program (the rule application is a
/// semantic elimination; DRF + behaviours preserved on DRF inputs), and
/// measures site discovery and application.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "opt/DataflowOpt.h"
#include "opt/Pipeline.h"
#include "opt/Rewrite.h"
#include "semantics/Elimination.h"
#include "verify/Checks.h"

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

struct RuleExample {
  RuleKind Rule;
  const char *Source;
};

const RuleExample Examples[] = {
    {RuleKind::ERaR,
     "thread { lock m; r1 := x; skip; r2 := x; print r2; unlock m; }"},
    {RuleKind::ERaW,
     "thread { lock m; x := 5; skip; r2 := x; print r2; unlock m; }"},
    {RuleKind::EWaR,
     "thread { lock m; r1 := x; skip; x := r1; unlock m; }"},
    {RuleKind::EWbW,
     "thread { lock m; x := 1; skip; x := 2; unlock m; }"},
    {RuleKind::EIr, "thread { lock m; r1 := x; r1 := 3; unlock m; }"},
};

void claims() {
  header("E9 / Fig 10", "syntactic eliminations are semantic eliminations");
  for (const RuleExample &Ex : Examples) {
    Program P = parseOrDie(Ex.Source);
    std::vector<RewriteSite> Sites;
    for (const RewriteSite &S : findRewriteSites(P))
      if (S.Rule == Ex.Rule)
        Sites.push_back(S);
    if (Sites.empty()) {
      claim(ruleName(Ex.Rule) + ": site found", false);
      continue;
    }
    Program T = applyRewrite(P, Sites.front());
    std::vector<Value> D = defaultDomainFor(P, 2);
    TransformCheckResult R =
        checkElimination(programTraceset(P, D), programTraceset(T, D));
    claim(ruleName(Ex.Rule) + ": semantic elimination (Lemma 4)",
          R.Verdict == CheckVerdict::Holds);
    DrfGuaranteeReport G = exploreDrfGuarantee(P, T);
    claim(ruleName(Ex.Rule) + ": DRF guarantee (Theorem 3)",
          G.OriginalDrf && G.holds());
  }
  // §2.1's dataflow claim: the analysis-based CSE/constprop/dead-store
  // pass is a chain of semantic eliminations.
  Program P = parseOrDie(
      "thread { lock m; x := 1; x := 2; r1 := x; r2 := x; x := r2; "
      "print r2; unlock m; }");
  std::vector<Program> ChainPrograms;
  DataflowOptReport Report;
  Program Out = runDataflowOpt(P, &Report, &ChainPrograms);
  std::vector<Value> D = defaultDomainFor(P, 2);
  bool AllSteps = true;
  Traceset Prev = programTraceset(ChainPrograms.front(), D);
  for (size_t K = 1; K < ChainPrograms.size(); ++K) {
    Traceset Next = programTraceset(ChainPrograms[K], D);
    AllSteps &= checkElimination(Prev, Next).Verdict == CheckVerdict::Holds;
    Prev = std::move(Next);
  }
  claim("dataflow CSE/constprop/dead-store pass: " +
            std::to_string(Report.total()) +
            " rewrites, every step a semantic elimination (§2.1)",
        Report.total() > 0 && AllSteps);
  claim("dataflow pass upholds the DRF guarantee",
        exploreDrfGuarantee(P, Out).holds());
}

void benchSiteDiscovery(benchmark::State &State) {
  // A long straight-line block full of elimination opportunities.
  std::string Src = "thread { lock m; ";
  for (int I = 0; I < State.range(0); ++I)
    Src += "x := " + std::to_string(I) + "; r1 := x; ";
  Src += "unlock m; }";
  Program P = parseOrDie(Src);
  size_t Sites = 0;
  for (auto _ : State) {
    Sites = findRewriteSites(P, RuleSet::eliminationsOnly()).size();
    benchmark::DoNotOptimize(Sites);
  }
  State.counters["sites"] = static_cast<double>(Sites);
}
BENCHMARK(benchSiteDiscovery)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void benchApplyRewrite(benchmark::State &State) {
  Program P = parseOrDie(Examples[0].Source);
  RewriteSite Site = findRewriteSites(P, RuleSet::eliminationsOnly())[0];
  for (auto _ : State) {
    Program T = applyRewrite(P, Site);
    benchmark::DoNotOptimize(T.threadCount());
  }
}
BENCHMARK(benchApplyRewrite);

/// Ablation: the single-sweep dataflow pass vs. the quadratic
/// rewrite-site fixpoint, on a long block of forwarding opportunities.
std::string longBlock(int N) {
  std::string Src = "thread { lock m; ";
  for (int I = 0; I < N; ++I)
    Src += "x := " + std::to_string(I) + "; r1 := x; ";
  Src += "unlock m; }";
  return Src;
}

void benchDataflowPass(benchmark::State &State) {
  Program P = parseOrDie(longBlock(static_cast<int>(State.range(0))));
  size_t Rewrites = 0;
  for (auto _ : State) {
    DataflowOptReport Report;
    Program Out = runDataflowOpt(P, &Report);
    Rewrites = Report.total();
    benchmark::DoNotOptimize(Out.threadCount());
  }
  State.counters["rewrites"] = static_cast<double>(Rewrites);
}
BENCHMARK(benchDataflowPass)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void benchGreedyRuleFixpoint(benchmark::State &State) {
  Program P = parseOrDie(longBlock(static_cast<int>(State.range(0))));
  size_t Steps = 0;
  for (auto _ : State) {
    TransformChain Chain =
        greedyChain(P, RuleSet::eliminationsOnly(), 256);
    Steps = Chain.Steps.size();
    benchmark::DoNotOptimize(Chain.Result.threadCount());
  }
  State.counters["rewrites"] = static_cast<double>(Steps);
}
BENCHMARK(benchGreedyRuleFixpoint)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void benchLemma4Verification(benchmark::State &State) {
  const RuleExample &Ex = Examples[static_cast<size_t>(State.range(0))];
  Program P = parseOrDie(Ex.Source);
  RewriteSite Site;
  for (const RewriteSite &S : findRewriteSites(P))
    if (S.Rule == Ex.Rule)
      Site = S;
  Program T = applyRewrite(P, Site);
  std::vector<Value> D = defaultDomainFor(P, 2);
  Traceset TP = programTraceset(P, D);
  Traceset TT = programTraceset(T, D);
  for (auto _ : State) {
    TransformCheckResult R = checkElimination(TP, TT);
    benchmark::DoNotOptimize(R.Verdict);
  }
  State.SetLabel(ruleName(Ex.Rule));
}
BENCHMARK(benchLemma4Verification)->DenseRange(0, 4);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
