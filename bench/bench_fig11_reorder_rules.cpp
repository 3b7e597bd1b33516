//===----------------------------------------------------------------------===//
///
/// \file
/// E10 — Fig 11 syntactic reorderings. Verifies Lemma 5 / Theorem 4 for
/// each rule (the application is a reordering of an elimination of the
/// original traceset; DRF guarantee holds end to end), and measures the
/// composite checker per rule.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "opt/Rewrite.h"
#include "semantics/Reordering.h"
#include "verify/Checks.h"

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

struct RuleExample {
  RuleKind Rule;
  const char *Source;
};

/// DRF hosts for each reordering rule (single-threaded or lock/volatile
/// protected so the Theorem 4 claim is non-vacuous).
const RuleExample Examples[] = {
    {RuleKind::RRR, "thread { r1 := x; r2 := y; print r1; print r2; }"},
    {RuleKind::RWW, "thread { x := 1; y := 2; }"},
    {RuleKind::RWR, "thread { x := 1; r2 := y; print r2; }"},
    {RuleKind::RRW, "thread { r1 := x; y := 2; print r1; }"},
    {RuleKind::RWL, "thread { x := 1; lock m; r1 := x; unlock m; }"},
    {RuleKind::RRL, "thread { r1 := x; lock m; print r1; unlock m; }"},
    {RuleKind::RUW, "thread { lock m; r1 := x; unlock m; x := 1; }"},
    {RuleKind::RUR, "thread { lock m; x := 1; unlock m; r1 := x; }"},
    {RuleKind::RXR, "thread { print r1; r2 := x; print r2; }"},
    {RuleKind::RXW, "thread { print r1; x := 1; }"},
};

void claims() {
  header("E10 / Fig 11",
         "syntactic reorderings are elimination-then-reordering");
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
    TransformCheckResult R = checkEliminationThenReordering(
        programTraceset(P, D), programTraceset(T, D));
    claim(ruleName(Ex.Rule) + ": elimination+reordering (Lemma 5)",
          R.Verdict == CheckVerdict::Holds);
    DrfGuaranteeReport G = exploreDrfGuarantee(P, T);
    claim(ruleName(Ex.Rule) + ": DRF guarantee (Theorem 4)",
          G.OriginalDrf && G.holds());
  }
}

void benchLemma5Verification(benchmark::State &State) {
  const RuleExample &Ex = Examples[static_cast<size_t>(State.range(0))];
  Program P = parseOrDie(Ex.Source);
  RewriteSite Site;
  bool Found = false;
  for (const RewriteSite &S : findRewriteSites(P))
    if (S.Rule == Ex.Rule && !Found) {
      Site = S;
      Found = true;
    }
  Program T = applyRewrite(P, Site);
  std::vector<Value> D = defaultDomainFor(P, 2);
  Traceset TP = programTraceset(P, D);
  Traceset TT = programTraceset(T, D);
  for (auto _ : State) {
    TransformCheckResult R = checkEliminationThenReordering(TP, TT);
    benchmark::DoNotOptimize(R.Verdict);
  }
  State.SetLabel(ruleName(Ex.Rule));
}
BENCHMARK(benchLemma5Verification)->DenseRange(0, 9);

void benchReorderSiteDiscovery(benchmark::State &State) {
  std::string Src = "thread { ";
  for (int I = 0; I < State.range(0); ++I)
    Src += "x" + std::to_string(I) + " := 1; r" + std::to_string(I) +
           " := y" + std::to_string(I) + "; ";
  Src += "}";
  Program P = parseOrDie(Src);
  size_t Sites = 0;
  for (auto _ : State) {
    Sites = findRewriteSites(P, RuleSet::reorderingsOnly()).size();
    benchmark::DoNotOptimize(Sites);
  }
  State.counters["sites"] = static_cast<double>(Sites);
}
BENCHMARK(benchReorderSiteDiscovery)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
