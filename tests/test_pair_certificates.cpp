//===----------------------------------------------------------------------===//
///
/// \file
/// Differential suite for the pair-check certificates of verify/Checks.h:
/// checkDrfGuarantee's Fig 10/11 rewrite certificate (Theorems 3/4 with
/// Lemmas 4-6) and checkThinAir's constant/input bound (Lemmas 2-3),
/// against the exploration they replace.
///
/// Wherever check* certifies and explore* is complete, explore* must say
/// Holds with the same Detail fields; wherever check* does not certify it
/// must report exactly what explore* reports. An unsafe transformation
/// (opt/Unsafe.h) must never get a rewrite certificate. A disagreement is
/// a counterexample to the paper or a checker bug, never a flake.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/DataflowOpt.h"
#include "opt/Pipeline.h"
#include "opt/Unsafe.h"
#include "support/Symbol.h"
#include "verify/Checks.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

struct Tally {
  unsigned Pairs = 0;
  unsigned Rule = 0;
  unsigned Syntactic = 0;
  unsigned Compared = 0; ///< certified, with a complete exploration
  unsigned Unsafe = 0;
};

/// The DRF guarantee both ways. Detail fields are what the daemon prints:
/// orig-drf, trans-drf and preserved.
void expectDrfAgreement(const Program &O, const Program &T, bool Unsafe,
                        const std::string &Label, Tally &Seen) {
  DrfGuaranteeReport C = checkDrfGuarantee(O, T);
  DrfGuaranteeReport E = exploreDrfGuarantee(O, T);
  EXPECT_EQ(E.Route, CheckRoute::Search) << Label;
  ASSERT_NE(C.Route, CheckRoute::Syntactic) << Label;
  if (C.Route == CheckRoute::Rule) {
    ++Seen.Rule;
    EXPECT_FALSE(Unsafe) << "an unsafe pair was certified\n" << Label;
    EXPECT_EQ(C.outcome(), GuaranteeOutcome::Holds) << Label;
    EXPECT_FALSE(C.Truncated) << Label;
    if (E.Truncated)
      return;
    ++Seen.Compared;
    EXPECT_EQ(E.outcome(), GuaranteeOutcome::Holds) << Label;
  } else {
    EXPECT_EQ(C.Truncated, E.Truncated) << Label;
    EXPECT_EQ(C.NewBehaviour, E.NewBehaviour) << Label;
    EXPECT_EQ(C.Comparison.Equal, E.Comparison.Equal) << Label;
  }
  EXPECT_EQ(C.outcome(), E.outcome()) << Label;
  EXPECT_EQ(C.OriginalDrf, E.OriginalDrf) << Label;
  EXPECT_EQ(C.TransformedDrf, E.TransformedDrf) << Label;
  EXPECT_EQ(C.BehavioursPreserved, E.BehavioursPreserved) << Label;
}

/// The thin-air guarantee both ways, for the daemon's constant. Detail
/// fields: outputs and origin; OrigHasOrigin is compared too.
void expectThinAirAgreement(const Program &O, const Program &T,
                            const std::string &Label, Tally &Seen) {
  Value C = freshConstantFor(O);
  ThinAirReport Cert = checkThinAir(O, T, C);
  ThinAirReport E = exploreThinAir(O, T, C);
  EXPECT_EQ(E.Route, CheckRoute::Search) << Label;
  ASSERT_NE(Cert.Route, CheckRoute::Rule) << Label;
  if (Cert.Route == CheckRoute::Syntactic) {
    ++Seen.Syntactic;
    EXPECT_EQ(Cert.outcome(), GuaranteeOutcome::Holds) << Label;
    if (E.Truncated)
      return;
    ++Seen.Compared;
    EXPECT_EQ(E.outcome(), GuaranteeOutcome::Holds) << Label;
  } else if (E.Truncated) {
    return; // A bound side skips a search that would have truncated.
  }
  EXPECT_EQ(Cert.outcome(), E.outcome()) << Label;
  EXPECT_EQ(Cert.TransformedOutputs, E.TransformedOutputs) << Label;
  EXPECT_EQ(Cert.TransformedHasOrigin, E.TransformedHasOrigin) << Label;
  EXPECT_EQ(Cert.OrigHasOrigin, E.OrigHasOrigin) << Label;
  EXPECT_FALSE(Cert.Truncated) << Label;
}

void expectAgreement(const Program &O, const Program &T, bool Unsafe,
                     const char *Source, Tally &Seen) {
  ++Seen.Pairs;
  Seen.Unsafe += Unsafe;
  std::string Label = std::string(Source) + ":\n" + printProgram(O) +
                      "=>\n" + printProgram(T);
  expectDrfAgreement(O, T, Unsafe, Label, Seen);
  expectThinAirAgreement(O, T, Label, Seen);
}

/// Is \p T one safe rewrite of \p P, by brute force over every site?
bool isSomeSafeRewrite(const Program &P, const Program &T) {
  for (const RewriteSite &S : findRewriteSites(P))
    if (applyRewrite(P, S).equals(T))
      return true;
  return false;
}

/// The opt/Unsafe transformations of \p P. Each is applied where it
/// applies; an output that happens to equal a safe rewrite (an unsafe
/// constant propagation that meets E-RAW's side conditions) is no unsafe
/// pair and is left out.
std::vector<Program> unsafePairs(const Program &P, Rng &R) {
  std::vector<Program> Out;
  std::set<SymbolId> Locs = P.locations();
  if (!Locs.empty()) {
    ListPath Thread;
    Thread.Tid = static_cast<ThreadId>(R.below(P.threadCount()));
    size_t Index = R.below(P.thread(Thread.Tid).size() + 1);
    Out.push_back(introduceRead(P, Thread, Index, Symbol::intern("r9"),
                                *Locs.begin()));
  }
  for (const ConstPropSite &S : findUnsafeConstProp(P))
    Out.push_back(applyUnsafeConstProp(P, S));
  for (const LockPair &L : findLockPairs(P))
    Out.push_back(elideLockPair(P, L));
  std::erase_if(Out,
                [&](const Program &T) { return isSomeSafeRewrite(P, T); });
  return Out;
}

/// Generated programs: all four disciplines, with and without `input`,
/// 2-4 threads (shorter threads at 4, so exploration stays complete).
template <class Fn> void forEachGenerated(unsigned Seeds, Fn &&Visit) {
  for (GenDiscipline D :
       {GenDiscipline::Racy, GenDiscipline::LockDiscipline,
        GenDiscipline::VolatileLocations, GenDiscipline::Mixed})
    for (bool Input : {false, true})
      for (unsigned Threads = 2; Threads <= 4; ++Threads)
        for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
          GenOptions G;
          G.Discipline = D;
          G.AllowInput = Input;
          G.Threads = Threads;
          G.MaxStmtsPerThread = Threads == 4 ? 3 : 5;
          Rng R(Seed * 1000 + Threads * 10 + Input);
          Program P = generateProgram(R, G);
          Visit(P, R);
        }
}

TEST(PairCertificates, AgreeWithExplorationOnGeneratedPairs) {
  Tally Seen;
  forEachGenerated(4, [&](const Program &P, Rng &R) {
    std::vector<RewriteSite> Sites = findRewriteSites(P);
    for (size_t K = 0; K < Sites.size() && K < 4; ++K)
      expectAgreement(P, applyRewrite(P, Sites[R.below(Sites.size())]),
                      false, "single rewrite", Seen);
    for (size_t Steps : {2, 3})
      expectAgreement(P, randomChain(P, RuleSet::all(), Steps, R).Result,
                      false, "random chain", Seen);
    expectAgreement(P, greedyChain(P, RuleSet::all()).Result, false,
                    "greedy chain", Seen);
    expectAgreement(P, runDataflowOpt(P), false, "dataflow", Seen);
    expectAgreement(P, P, false, "identity", Seen);
    for (const Program &T : unsafePairs(P, R))
      expectAgreement(P, T, true, "unsafe", Seen);
  });
  EXPECT_GT(Seen.Rule, 0u);
  EXPECT_GT(Seen.Syntactic, 0u);
  EXPECT_GT(Seen.Compared, Seen.Pairs / 4);
  EXPECT_GT(Seen.Unsafe, 0u);
  std::printf("pairs=%u rule=%u syntactic=%u compared=%u unsafe=%u\n",
              Seen.Pairs, Seen.Rule, Seen.Syntactic, Seen.Compared,
              Seen.Unsafe);
}

TEST(PairCertificates, EverySingleRewriteOfAProvedDrfProgramCertifies) {
  // The certificate finds the rewritten list by diffing O against T; a
  // miss here would be a diff that lost the site. The printed-and-parsed
  // form is what the daemon receives.
  unsigned Certified = 0;
  forEachGenerated(3, [&](const Program &P, Rng &) {
    Verdict<Interleaving> Drf = checkProgramDrf(P);
    for (const RewriteSite &S : findRewriteSites(P)) {
      Program T = applyRewrite(P, S);
      for (const Program &Sent : {T, parseOrDie(printProgram(T))}) {
        DrfGuaranteeReport Rep = checkDrfGuarantee(P, Sent);
        if (!Drf.isProved()) {
          EXPECT_EQ(Rep.Route, CheckRoute::Search) << S.str();
          continue;
        }
        EXPECT_EQ(Rep.Route, CheckRoute::Rule)
            << S.str() << "\n" << printProgram(P) << "=>\n"
            << printProgram(Sent);
        Certified += Rep.Route == CheckRoute::Rule;
      }
    }
  });
  EXPECT_GT(Certified, 100u);
}

TEST(PairCertificates, ACertificateChargesOneVisitPerSiteTried) {
  Program O = parseOrDie("thread { lock m; r1 := x; r2 := x; x := r2; "
                         "unlock m; }\n"
                         "thread { lock m; x := 1; r3 := y; unlock m; }");
  ListPath Thread0;
  std::vector<RewriteSite> Sites = findRewriteSitesIn(O, Thread0);
  ASSERT_GE(Sites.size(), 2u);
  BudgetSpec Spec{0, 1'000'000, 0};
  Budget Race(Spec);
  ExecLimits RaceLimits;
  RaceLimits.Shared = &Race;
  RaceLimits.InputDomain = defaultDomainFor(O);
  ASSERT_FALSE(ScProgram(O, RaceLimits).race().HasRace);
  for (size_t K = 0; K < Sites.size(); ++K) {
    Program T = applyRewrite(O, Sites[K]);
    size_t Tried = 1;
    while (!applyRewrite(O, Sites[Tried - 1]).equals(T))
      ++Tried;
    Budget B(Spec);
    ExecLimits L;
    L.Shared = &B;
    DrfGuaranteeReport Rep = checkDrfGuarantee(O, T, L);
    EXPECT_EQ(Rep.Route, CheckRoute::Rule) << Sites[K].str();
    EXPECT_EQ(B.visited(), Race.visited() + Tried) << Sites[K].str();
  }
  // A two-step chain (E-WAR, then R-RR) is no single rewrite: the miss
  // tries every site of the differing list, and then explores.
  Program Two = parseOrDie("thread { lock m; r2 := x; r1 := x; unlock m; }\n"
                           "thread { lock m; x := 1; r3 := y; unlock m; }");
  Budget B(Spec);
  ExecLimits L;
  L.Shared = &B;
  EXPECT_EQ(checkDrfGuarantee(O, Two, L).Route, CheckRoute::Search);
  EXPECT_GT(B.visited(), Race.visited() + Sites.size());
}

TEST(PairCertificates, AVisitCapStopsTheSiteSearch) {
  // The race search spends the cap, so no site is tried: the report is
  // exploration's Unknown, never a certificate.
  Program O = parseOrDie("thread { lock m; r1 := x; r2 := x; unlock m; }\n"
                         "thread { lock m; x := 1; unlock m; }");
  Program T = parseOrDie("thread { lock m; r1 := x; r2 := r1; unlock m; }\n"
                         "thread { lock m; x := 1; unlock m; }");
  Budget B(BudgetSpec{0, 3, 0});
  ExecLimits L;
  L.Shared = &B;
  DrfGuaranteeReport Rep = checkDrfGuarantee(O, T, L);
  EXPECT_EQ(Rep.Route, CheckRoute::Search);
  EXPECT_EQ(Rep.outcome(), GuaranteeOutcome::Unknown);
  EXPECT_EQ(checkDrfGuarantee(O, T).Route, CheckRoute::Rule);
}

TEST(PairCertificates, CertificatesNeedProofsAndStayOffTheOracle) {
  Program Racy = parseOrDie("thread { r1 := x; r2 := x; print r2; }\n"
                            "thread { x := 1; }");
  Program RacyT = parseOrDie("thread { r1 := x; r2 := r1; print r2; }\n"
                             "thread { x := 1; }");
  DrfGuaranteeReport R = checkDrfGuarantee(Racy, RacyT);
  EXPECT_EQ(R.Route, CheckRoute::Search); // Racy O: vacuous, as explored.
  EXPECT_FALSE(R.OriginalDrf);
  EXPECT_FALSE(R.TransformedDrf);

  Program O = parseOrDie("thread { lock m; r1 := x; r2 := x; unlock m; }\n"
                         "thread { lock m; x := 1; unlock m; }");
  Program T = parseOrDie("thread { lock m; r1 := x; r2 := r1; unlock m; }\n"
                         "thread { lock m; x := 1; unlock m; }");
  EXPECT_EQ(checkDrfGuarantee(O, T).Route, CheckRoute::Rule);
  ExecLimits Oracle;
  Oracle.ExhaustiveOracle = true;
  EXPECT_EQ(checkDrfGuarantee(O, T, Oracle).Route, CheckRoute::Search);
  EXPECT_EQ(checkThinAir(O, T, 42, Oracle).Route, CheckRoute::Search);

  // Declaring a location volatile changes the program: no certificate.
  Program VolatileT = T;
  VolatileT.markVolatile("x");
  EXPECT_EQ(checkDrfGuarantee(O, VolatileT).Route, CheckRoute::Search);
  // An extension rule (R-RX) is not one of the paper's rules.
  Program E = parseOrDie("thread { lock m; r2 := x; print r1; unlock m; }\n"
                         "thread { lock m; x := 1; unlock m; }");
  Program ET = parseOrDie("thread { lock m; print r1; r2 := x; unlock m; }\n"
                          "thread { lock m; x := 1; unlock m; }");
  EXPECT_EQ(checkDrfGuarantee(E, ET).Route, CheckRoute::Search);
}

TEST(PairCertificates, TheThinAirBoundNeedsNeitherInputNorTheConstant) {
  Program O = parseOrDie("thread { r1 := x; y := r1; print r1; }\n"
                         "thread { x := 1; }");
  EXPECT_EQ(checkThinAir(O, O, 42).Route, CheckRoute::Syntactic);
  // T has the constant: T is searched (and outputs it).
  Program Leaky = parseOrDie("thread { r1 := 42; print r1; }");
  ThinAirReport L = checkThinAir(O, Leaky, 42);
  EXPECT_EQ(L.Route, CheckRoute::Search);
  EXPECT_TRUE(L.TransformedOutputs);
  EXPECT_EQ(L.outcome(), GuaranteeOutcome::Violated);
  // An input can carry the constant into a trace: both sides searched.
  Program In = parseOrDie("thread { input r1; x := r1; }");
  ThinAirReport I = checkThinAir(In, In, 42);
  EXPECT_EQ(I.Route, CheckRoute::Search);
  ThinAirReport IE = exploreThinAir(In, In, 42);
  EXPECT_EQ(I.OrigHasOrigin, IE.OrigHasOrigin);
  EXPECT_EQ(I.TransformedHasOrigin, IE.TransformedHasOrigin);
  EXPECT_TRUE(IE.TransformedHasOrigin);
}

} // namespace
