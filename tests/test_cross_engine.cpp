//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-engine consistency properties (DESIGN.md decisions 2 and 3):
///
///  - the SC behaviours of [[P]] (programBehaviours) equal those of the
///    seed TSO machine run on P with every location volatile — a machine
///    that fences every access and reads real memory, so it runs SC, and
///    shares no code with the traceset enumerator;
///  - the adjacent-conflict race definition agrees with the
///    happens-before race definition;
///  - the reduced program-level race search agrees with the seed
///    enumerator's.
///
/// Checked over a handwritten corpus and seeded random programs.
///
//===----------------------------------------------------------------------===//

#include "TsoOracle.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "trace/Enumerate.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

void expectEnginesAgree(const Program &P, const std::string &Label) {
  ExecStats ScStats;
  std::set<Behaviour> Sc = programBehaviours(P, {}, &ScStats);
  ASSERT_FALSE(ScStats.Truncated) << Label;

  Program Fenced = P;
  for (SymbolId Loc : P.locations())
    Fenced.markVolatile(Loc);
  ExecStats MachineStats;
  std::set<Behaviour> FromMachine =
      oracleTsoBehaviours(Fenced, {}, &MachineStats);
  ASSERT_FALSE(MachineStats.Truncated) << Label;
  EXPECT_EQ(Sc, FromMachine) << Label << ":\n" << printProgram(P);

  Traceset T = programTraceset(P, defaultDomainFor(P, 2));
  RaceReport Adjacent = findAdjacentRace(T);
  RaceReport Hb = findHappensBeforeRace(T);
  ASSERT_FALSE(Adjacent.Stats.Truncated) << Label;
  ASSERT_FALSE(Hb.Stats.Truncated) << Label;
  EXPECT_EQ(Adjacent.HasRace, Hb.HasRace)
      << Label << ": the two §3 race definitions disagree on\n"
      << printProgram(P);

  ExecLimits Oracle;
  Oracle.ExhaustiveOracle = true;
  RaceReport Reduced = findProgramRace(P);
  RaceReport Seed = findProgramRace(P, Oracle);
  ASSERT_FALSE(Reduced.Stats.Truncated) << Label;
  ASSERT_FALSE(Seed.Stats.Truncated) << Label;
  EXPECT_EQ(Reduced.HasRace, Seed.HasRace)
      << Label << ": reduced and seed race searches disagree on\n"
      << printProgram(P);
}

class CorpusAgreement : public ::testing::TestWithParam<const char *> {};

TEST_P(CorpusAgreement, EnginesAgree) {
  expectEnginesAgree(parseOrDie(GetParam()), "corpus");
}

INSTANTIATE_TEST_SUITE_P(
    Handwritten, CorpusAgreement,
    ::testing::Values(
        "thread { x := 1; } thread { r1 := x; print r1; }",
        "thread { x := 2; y := 1; x := 1; } "
        "thread { r1 := y; print r1; r1 := x; r2 := x; print r2; }",
        "thread { r1 := x; y := r1; } "
        "thread { r2 := y; x := 1; print r2; }",
        "thread { lock m; x := 1; r3 := y; print r3; unlock m; } "
        "thread { lock m; y := 1; r4 := x; print r4; unlock m; }",
        "volatile v; thread { x := 1; v := 1; } "
        "thread { r1 := v; if (r1 == 1) { r2 := x; print r2; } "
        "else { skip; } }",
        "thread { unlock m; x := 1; } thread { lock m; unlock m; }",
        "thread { if (r1 == 0) { print 0; } else { print 1; } }",
        "thread { r1 := x; r2 := x; if (r1 == r2) { print 1; } "
        "else { print 2; } } thread { x := 1; }"));

struct GenCase {
  uint64_t Seed;
  GenDiscipline Discipline;
};

class RandomAgreement : public ::testing::TestWithParam<GenCase> {};

TEST_P(RandomAgreement, EnginesAgree) {
  GenOptions Options;
  Options.Discipline = GetParam().Discipline;
  Options.MaxStmtsPerThread = 4;
  Options.Locations = 2;
  Rng R(GetParam().Seed);
  Program P = generateProgram(R, Options);
  expectEnginesAgree(P, "seed " + std::to_string(GetParam().Seed));
}

std::vector<GenCase> genCases() {
  std::vector<GenCase> Out;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    for (GenDiscipline D : {GenDiscipline::Racy, GenDiscipline::LockDiscipline,
                            GenDiscipline::VolatileLocations,
                            GenDiscipline::Mixed})
      Out.push_back(GenCase{Seed, D});
  return Out;
}

INSTANTIATE_TEST_SUITE_P(Seeded, RandomAgreement,
                         ::testing::ValuesIn(genCases()),
                         [](const auto &Info) {
                           const GenCase &C = Info.param;
                           std::string D =
                               C.Discipline == GenDiscipline::Racy ? "racy"
                               : C.Discipline == GenDiscipline::LockDiscipline
                                   ? "locked"
                               : C.Discipline == GenDiscipline::Mixed
                                   ? "mixed"
                                   : "volatile";
                           return D + "_seed" + std::to_string(C.Seed);
                         });

} // namespace
