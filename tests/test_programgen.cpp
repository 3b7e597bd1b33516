//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the random program generator: structural well-formedness,
/// printer round-trips, and DRF-by-construction for the disciplined modes.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

class GenSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GenSeeds, ProgramsRoundTripThroughThePrinter) {
  for (GenDiscipline D : {GenDiscipline::Racy, GenDiscipline::LockDiscipline,
                          GenDiscipline::VolatileLocations}) {
    GenOptions Options;
    Options.Discipline = D;
    Rng R(GetParam());
    Program P = generateProgram(R, Options);
    EXPECT_EQ(P.threadCount(), Options.Threads);
    ParseResult Back = parseProgram(printProgram(P));
    ASSERT_TRUE(Back) << Back.Error << "\n" << printProgram(P);
    EXPECT_TRUE(P.equals(*Back.Prog));
  }
}

TEST_P(GenSeeds, LockDisciplineImpliesDataRaceFreedom) {
  GenOptions Options;
  Options.Discipline = GenDiscipline::LockDiscipline;
  Options.MaxStmtsPerThread = 5;
  Rng R(GetParam());
  Program P = generateProgram(R, Options);
  EXPECT_TRUE(isProgramDrf(P)) << printProgram(P);
}

TEST_P(GenSeeds, MixedDisciplineImpliesDataRaceFreedom) {
  GenOptions Options;
  Options.Discipline = GenDiscipline::Mixed;
  Options.MaxStmtsPerThread = 5;
  Rng R(GetParam());
  Program P = generateProgram(R, Options);
  EXPECT_TRUE(isProgramDrf(P)) << printProgram(P);
}

TEST_P(GenSeeds, VolatileDisciplineImpliesDataRaceFreedom) {
  GenOptions Options;
  Options.Discipline = GenDiscipline::VolatileLocations;
  Options.MaxStmtsPerThread = 5;
  Rng R(GetParam());
  Program P = generateProgram(R, Options);
  for (SymbolId Loc : P.locations())
    EXPECT_TRUE(P.isVolatile(Loc));
  EXPECT_TRUE(isProgramDrf(P)) << printProgram(P);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenSeeds,
                         ::testing::Range<uint64_t>(1, 26));

TEST(Gen, Deterministic) {
  GenOptions Options;
  Rng A(5), B(5);
  EXPECT_TRUE(generateProgram(A, Options).equals(generateProgram(B, Options)));
}

TEST(Gen, RespectsStatementBudget) {
  GenOptions Options;
  Options.MinStmtsPerThread = 2;
  Options.MaxStmtsPerThread = 4;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    Program P = generateProgram(R, Options);
    for (ThreadId T = 0; T < P.threadCount(); ++T)
      EXPECT_GE(P.thread(T).size(), 2u);
  }
}

TEST(Gen, RacyModeActuallyRacesSometimes) {
  GenOptions Options;
  Options.Discipline = GenDiscipline::Racy;
  size_t Racy = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    if (!isProgramDrf(generateProgram(R, Options)))
      ++Racy;
  }
  EXPECT_GT(Racy, 0u);
}

} // namespace
