//===----------------------------------------------------------------------===//
///
/// \file
/// The pair checks' two routes (verify/Checks.h). Claims: a Fig 10 rewrite
/// of a DRF program gets the Theorems 3/4 certificate, a two-step chain
/// does not and falls back to exploration, and the thin-air check settles
/// a program without the constant or an `input` by the Lemma 2-3 bound;
/// every route reports the Detail fields exploration reports. Rows time
/// check* against explore* on the same pairs: the certified route, and
/// the uncertified one (the failed attempt plus the fallback).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lang/Parser.h"
#include "opt/Pipeline.h"
#include "opt/Rewrite.h"
#include "verify/Checks.h"

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

/// Three lock-disciplined threads, the shape of the daemon's cold pairs.
const char *Source = R"(
thread { lock m; r0 := x0; r1 := x0; x1 := r1; print r1; unlock m; }
thread { lock m; x0 := 1; r2 := x1; unlock m; print r2; }
thread { lock m; x1 := 2; r0 := x0; unlock m; }
)";

Program original() { return parseOrDie(Source); }

/// E-RAR on the first thread: r1 := x0 becomes r1 := r0.
Program oneRewrite() {
  Program P = original();
  for (const RewriteSite &S : findRewriteSites(P))
    if (S.Rule == RuleKind::ERaR)
      return applyRewrite(P, S);
  return P;
}

Program twoStepChain() { return greedyChain(original(), {}, 2).Result; }

bool sameDetail(const DrfGuaranteeReport &A, const DrfGuaranteeReport &B) {
  return A.outcome() == B.outcome() && A.OriginalDrf == B.OriginalDrf &&
         A.TransformedDrf == B.TransformedDrf &&
         A.BehavioursPreserved == B.BehavioursPreserved;
}

void claims() {
  header("Pair checks", "Theorems 3/4 and Lemmas 2-3 answer before search");
  Program P = original();
  DrfGuaranteeReport Cert = checkDrfGuarantee(P, oneRewrite());
  DrfGuaranteeReport Expl = exploreDrfGuarantee(P, oneRewrite());
  claim("a Fig 10 rewrite of a DRF program is certified (Rule route)",
        Cert.Route == CheckRoute::Rule);
  claim("the certificate reports exploration's Detail (Holds)",
        sameDetail(Cert, Expl) && Expl.holds());
  DrfGuaranteeReport Chain = checkDrfGuarantee(P, twoStepChain());
  DrfGuaranteeReport ChainExpl = exploreDrfGuarantee(P, twoStepChain());
  claim("a two-step chain is not certified and falls back to search",
        Chain.Route == CheckRoute::Search && sameDetail(Chain, ChainExpl) &&
            Chain.Comparison.Equal == ChainExpl.Comparison.Equal);
  Value C = freshConstantFor(P);
  ThinAirReport Bound = checkThinAir(P, oneRewrite(), C);
  ThinAirReport Searched = exploreThinAir(P, oneRewrite(), C);
  claim("thin air without the constant or input is bounded (Syntactic)",
        Bound.Route == CheckRoute::Syntactic);
  claim("the bound reports exploration's Detail (outputs=0 origin=0)",
        Searched.holds() && !Searched.TransformedOutputs &&
            !Searched.TransformedHasOrigin && Bound.holds() &&
            !Bound.TransformedOutputs && !Bound.TransformedHasOrigin);
}

template <DrfGuaranteeReport (*Check)(const Program &, const Program &,
                                      ExecLimits)>
void drfPair(benchmark::State &State, Program T) {
  Program P = original();
  for (auto _ : State)
    benchmark::DoNotOptimize(Check(P, T, {}).holds());
}

void drf_certified_check(benchmark::State &S) {
  drfPair<checkDrfGuarantee>(S, oneRewrite());
}
void drf_certified_explore(benchmark::State &S) {
  drfPair<exploreDrfGuarantee>(S, oneRewrite());
}
void drf_chain_check(benchmark::State &S) {
  drfPair<checkDrfGuarantee>(S, twoStepChain());
}
void drf_chain_explore(benchmark::State &S) {
  drfPair<exploreDrfGuarantee>(S, twoStepChain());
}
BENCHMARK(drf_certified_check)->Unit(benchmark::kMicrosecond);
BENCHMARK(drf_certified_explore)->Unit(benchmark::kMicrosecond);
BENCHMARK(drf_chain_check)->Unit(benchmark::kMicrosecond);
BENCHMARK(drf_chain_explore)->Unit(benchmark::kMicrosecond);

template <ThinAirReport (*Check)(const Program &, const Program &, Value,
                                 ExecLimits, ExploreLimits)>
void thinAirPair(benchmark::State &State) {
  Program P = original();
  Program T = oneRewrite();
  Value C = freshConstantFor(P);
  for (auto _ : State)
    benchmark::DoNotOptimize(Check(P, T, C, {}, {}).holds());
}

void thin_air_bound_check(benchmark::State &S) { thinAirPair<checkThinAir>(S); }
void thin_air_bound_explore(benchmark::State &S) {
  thinAirPair<exploreThinAir>(S);
}
BENCHMARK(thin_air_bound_check)->Unit(benchmark::kMicrosecond);
BENCHMARK(thin_air_bound_explore)->Unit(benchmark::kMicrosecond);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
