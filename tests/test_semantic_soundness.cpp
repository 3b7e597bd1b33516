//===----------------------------------------------------------------------===//
///
/// \file
/// Theorems 1 and 2 at the *traceset* level: whenever the checker certifies
/// T' as an elimination (or reordering of an elimination) of a data race
/// free T, then T' is data race free and every behaviour of T' is a
/// behaviour of T — computed with the traceset execution enumerator on
/// the checked tracesets themselves, so this exercises the semantic layer
/// end to end.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Printer.h"
#include "opt/Rewrite.h"
#include "semantics/Reordering.h"
#include "trace/Enumerate.h"
#include "verify/ProgramGen.h"
#include "verify/Theorems.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

struct Case {
  uint64_t Seed;
  GenDiscipline Discipline;
};

class SemanticSoundness : public ::testing::TestWithParam<Case> {};

TEST_P(SemanticSoundness, CertifiedStepsPreserveDrfAndBehaviours) {
  GenOptions Options;
  Options.Discipline = GetParam().Discipline;
  Options.MaxStmtsPerThread = 4;
  Options.Locations = 2;
  Rng R(GetParam().Seed);
  Program P = generateProgram(R, Options);
  std::vector<Value> D = defaultDomainFor(P, 2);
  ExploreStats GenStats;
  Traceset T = programTraceset(P, D, {}, &GenStats);
  ASSERT_FALSE(GenStats.Truncated);

  RaceReport Race = findAdjacentRace(T);
  ASSERT_FALSE(Race.Stats.Truncated);
  if (Race.HasRace)
    GTEST_SKIP() << "racy seed: Theorems 1/2 are vacuous";
  std::set<Behaviour> Base = collectBehaviours(T);

  size_t StepsChecked = 0;
  for (const RewriteSite &Site : findRewriteSites(P)) {
    Program Q = applyRewrite(P, Site);
    Traceset TQ = programTraceset(Q, D);
    TransformCheckResult Check =
        isEliminationRule(Site.Rule)
            ? checkElimination(T, TQ)
            : checkEliminationThenReordering(T, TQ);
    ASSERT_EQ(Check.Verdict, CheckVerdict::Holds)
        << Site.str() << " on\n" << printProgram(P);

    // Theorem 2/1 conclusions at the traceset level.
    RaceReport QRace = findAdjacentRace(TQ);
    ASSERT_FALSE(QRace.Stats.Truncated);
    EXPECT_FALSE(QRace.HasRace)
        << Site.str() << " broke DRF on\n" << printProgram(P);
    for (const Behaviour &B : collectBehaviours(TQ))
      EXPECT_TRUE(Base.count(B))
          << Site.str() << " introduced a behaviour on\n" << printProgram(P);
    ++StepsChecked;
  }
  // Some seeds have no applicable sites; that is fine, but record it.
  SUCCEED() << StepsChecked << " steps checked";
}

std::vector<Case> cases() {
  std::vector<Case> Out;
  for (uint64_t Seed = 1; Seed <= 15; ++Seed) {
    Out.push_back(Case{Seed, GenDiscipline::LockDiscipline});
    Out.push_back(Case{Seed, GenDiscipline::VolatileLocations});
  }
  return Out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticSoundness,
                         ::testing::ValuesIn(cases()),
                         [](const auto &Info) {
                           const Case &C = Info.param;
                           std::string D =
                               C.Discipline == GenDiscipline::LockDiscipline
                                   ? "locked"
                                   : "volatile";
                           return D + "_seed" +
                                  std::to_string(C.Seed);
                         });

} // namespace
