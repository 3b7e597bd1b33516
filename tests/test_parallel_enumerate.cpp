//===----------------------------------------------------------------------===//
///
/// \file
/// Equivalence suite for the reduced enumeration engine, plus the fuzz
/// campaign's determinism across --jobs.
///
/// The reduced engine (interned states + sleep-set and source-set POR)
/// must be verdict-identical to the seed's exhaustive enumerator on every
/// query: same behaviour sets, same race verdicts. Visited counts are
/// *not* compared — partial order reduction exists precisely to visit
/// less. Parallelism lives across queries only: the campaign test runs
/// programs on several pool workers and must match the sequential run.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "trace/Enumerate.h"
#include "verify/Fuzz.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace tracesafe;

namespace {

/// Programs covering the interesting interaction shapes: races, lock
/// discipline, volatiles, loops and branching.
const char *const Corpus[] = {
    // Fig 2 shape: racy copy + racy write-back.
    "thread { r0 := x; y := r0; }\n"
    "thread { r1 := y; x := 1; print r1; }\n",
    // Lock-disciplined message passing (DRF).
    "thread { sync m { x := 1; } }\n"
    "thread { sync m { r0 := x; } print r0; }\n",
    // Volatile flag handoff.
    "volatile f;\n"
    "thread { x := 1; f := 1; }\n"
    "thread { r0 := f; if (r0 == 1) { r1 := x; print r1; } else { skip; } }\n",
    // Three threads, one location.
    "thread { x := 1; }\n"
    "thread { x := 2; }\n"
    "thread { r0 := x; print r0; }\n",
    // Loop (truncated at the action bound) + race.
    "thread { while (r0 == 0) { r0 := x; } print r0; }\n"
    "thread { x := 1; }\n",
    // Nested locks, no race.
    "thread { sync m { sync n { x := 1; } } }\n"
    "thread { sync m { r0 := x; } print r0; }\n",
};

Traceset tracesetFor(const std::string &Source, unsigned MaxActions = 10) {
  Program P = parseOrDie(Source);
  ExploreLimits L;
  L.MaxActions = MaxActions;
  return programTraceset(P, defaultDomainFor(P, 2), L);
}

EnumerationLimits limitsFor(bool Oracle = false) {
  EnumerationLimits L;
  L.ExhaustiveOracle = Oracle;
  return L;
}

/// Asserts the reduced engine agrees with the seed oracle on behaviours
/// and the race verdict, and that no search truncated.
void expectEquivalent(const Traceset &T, const std::string &Tag) {
  EnumerationStats OracleStats, ReducedStats;
  std::set<Behaviour> Want =
      collectBehaviours(T, limitsFor(/*Oracle=*/true), &OracleStats);
  std::set<Behaviour> Got = collectBehaviours(T, limitsFor(), &ReducedStats);
  ASSERT_FALSE(OracleStats.Truncated) << Tag;
  ASSERT_FALSE(ReducedStats.Truncated) << Tag;
  EXPECT_EQ(Want, Got) << Tag;

  RaceReport WantRace = findAdjacentRace(T, limitsFor(/*Oracle=*/true));
  RaceReport GotRace = findAdjacentRace(T, limitsFor());
  ASSERT_FALSE(WantRace.Stats.Truncated) << Tag;
  ASSERT_FALSE(GotRace.Stats.Truncated) << Tag;
  EXPECT_EQ(WantRace.HasRace, GotRace.HasRace) << Tag;
  if (GotRace.HasRace) {
    EXPECT_TRUE(GotRace.Witness.isExecutionOf(T))
        << Tag << ": race witness is not an execution: "
        << GotRace.Witness.str();
  }
}

TEST(ParallelEnumerate, PorMatchesOracleOnCorpus) {
  for (size_t I = 0; I < std::size(Corpus); ++I)
    expectEquivalent(tracesetFor(Corpus[I]),
                     "corpus[" + std::to_string(I) + "]");
}

TEST(ParallelEnumerate, ExamplePrograms) {
  // Every shipped example program, parsed from disk.
  std::filesystem::path Dir = TRACESAFE_EXAMPLES_DIR;
  size_t Found = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".tsl")
      continue;
    ++Found;
    std::ifstream In(Entry.path());
    ASSERT_TRUE(In) << Entry.path();
    std::stringstream Ss;
    Ss << In.rdbuf();
    // Shallow action bound: the examples contain loops, and the oracle
    // side of the comparison has no reduction to lean on.
    Traceset T = tracesetFor(Ss.str(), /*MaxActions=*/7);
    expectEquivalent(T, Entry.path().filename().string());
  }
  EXPECT_GE(Found, 4u) << "example programs missing from " << Dir;
}

TEST(ParallelEnumerate, RandomProgramSweep) {
  // Seeded generator sweep across all disciplines; equivalence must hold
  // on programs nobody hand-picked.
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Rng R(Seed);
    GenOptions G;
    G.Discipline = static_cast<GenDiscipline>(Seed % 4);
    Program P = generateProgram(R, G);
    ExploreLimits L;
    L.MaxActions = 9;
    Traceset T = programTraceset(P, defaultDomainFor(P, 2), L);
    expectEquivalent(T, "seed " + std::to_string(Seed));
  }
}

TEST(ParallelEnumerate, SleepSetsOffStillMatches) {
  // POR disabled exercises the interned engine without pruning.
  Traceset T = tracesetFor(Corpus[3]);
  EnumerationLimits NoPor = limitsFor();
  NoPor.SleepSets = false;
  EXPECT_EQ(collectBehaviours(T, limitsFor(/*Oracle=*/true)),
            collectBehaviours(T, NoPor));
  EXPECT_EQ(findAdjacentRace(T, limitsFor(/*Oracle=*/true)).HasRace,
            findAdjacentRace(T, NoPor).HasRace);
}

TEST(ParallelEnumerate, SourceSetsOffStillMatches) {
  // Source-set grouping layered on sleep sets is sound and optional; every
  // on/off combination must agree with the oracle.
  for (size_t I = 0; I < std::size(Corpus); ++I) {
    Traceset T = tracesetFor(Corpus[I]);
    std::set<Behaviour> Want =
        collectBehaviours(T, limitsFor(/*Oracle=*/true));
    for (bool Sleep : {true, false})
      for (bool Source : {true, false}) {
        EnumerationLimits L = limitsFor();
        L.SleepSets = Sleep;
        L.SourceSets = Source;
        EXPECT_EQ(Want, collectBehaviours(T, L))
            << "corpus[" << I << "] sleep=" << Sleep
            << " source=" << Source;
      }
  }
}

TEST(ParallelEnumerate, SourceSetsPruneDisjointThreadGroups) {
  // Threads touching disjoint locations are the best case for source-set
  // grouping: scheduling between the groups is irrelevant, and the search
  // should commit to one group at a time instead of interleaving them.
  Traceset T = tracesetFor("thread { x := 1; r0 := x; print r0; }\n"
                           "thread { y := 1; r1 := y; print r1; }\n");
  EnumerationStats With, Without;
  EnumerationLimits On = limitsFor();
  EnumerationLimits Off = limitsFor();
  Off.SourceSets = false;
  std::set<Behaviour> A = collectBehaviours(T, On, &With);
  std::set<Behaviour> B = collectBehaviours(T, Off, &Without);
  EXPECT_EQ(A, B);
  EXPECT_LE(With.Visited, Without.Visited)
      << "source sets explored more than plain sleep sets";
}

TEST(ParallelEnumerate, RaceVerdictSourceSetMatrixMatchesOracle) {
  // The race query now runs under source-set reduction too (see the
  // soundness argument in trace/Enumerate.cpp): across the corpus and a
  // seeded random sweep, every (sleep × source) combination must return
  // the oracle's race verdict.
  std::vector<std::pair<std::string, Traceset>> Suite;
  for (size_t I = 0; I < std::size(Corpus); ++I)
    Suite.emplace_back("corpus[" + std::to_string(I) + "]",
                       tracesetFor(Corpus[I]));
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Rng R(Seed);
    GenOptions G;
    G.Discipline = static_cast<GenDiscipline>(Seed % 4);
    Program P = generateProgram(R, G);
    ExploreLimits L;
    L.MaxActions = 9;
    Suite.emplace_back("seed " + std::to_string(Seed),
                       programTraceset(P, defaultDomainFor(P, 2), L));
  }
  for (const auto &[Tag, T] : Suite) {
    RaceReport Want = findAdjacentRace(T, limitsFor(/*Oracle=*/true));
    ASSERT_FALSE(Want.Stats.Truncated) << Tag;
    for (bool Sleep : {true, false})
      for (bool Source : {true, false}) {
        EnumerationLimits L = limitsFor();
        L.SleepSets = Sleep;
        L.SourceSets = Source;
        RaceReport Got = findAdjacentRace(T, L);
        ASSERT_FALSE(Got.Stats.Truncated)
            << Tag << " sleep=" << Sleep << " source=" << Source;
        EXPECT_EQ(Want.HasRace, Got.HasRace)
            << Tag << " sleep=" << Sleep << " source=" << Source;
        if (Got.HasRace) {
          EXPECT_TRUE(Got.Witness.isExecutionOf(T))
              << Tag << ": witness is not an execution";
        }
      }
  }
}

TEST(ParallelEnumerate, RaceSourceSetsPruneDisjointThreadGroups) {
  // Disjoint-location threads cannot race; the source-set-restricted
  // race search should prove it while exploring no more states than the
  // sleep-set-only search.
  Traceset T = tracesetFor("thread { x := 1; r0 := x; print r0; }\n"
                           "thread { y := 1; r1 := y; print r1; }\n");
  EnumerationLimits On = limitsFor();
  EnumerationLimits Off = limitsFor();
  Off.SourceSets = false;
  RaceReport With = findAdjacentRace(T, On);
  RaceReport Without = findAdjacentRace(T, Off);
  EXPECT_FALSE(With.HasRace);
  EXPECT_FALSE(Without.HasRace);
  EXPECT_LE(With.Stats.Visited, Without.Stats.Visited)
      << "race-query source sets explored more than plain sleep sets";
}

TEST(ParallelEnumerate, SemanticStepCheckerCleanOnSafeChains) {
  // Satellite (a): Lemma 4/5 verified per chain step; safe chains must
  // never produce a semantic-step failure.
  FuzzOptions O;
  O.Seed = 7;
  O.Programs = 8;
  O.CheckThinAir = false;
  O.CheckSemanticSteps = true;
  FuzzReport R = runFuzz(O);
  for (const FuzzFailure &F : R.Failures)
    EXPECT_NE(F.Property, "semantic-step") << F.Detail;
  EXPECT_GT(R.ChecksRun, R.ProgramsRun) << "semantic checks did not run";
}

} // namespace
