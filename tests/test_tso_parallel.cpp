//===----------------------------------------------------------------------===//
///
/// \file
/// Equivalence tests for the interned TSO/PSO engine
/// (tso/BufferedEngine.cpp) against the seed exhaustive machines, kept as
/// a test-only oracle (tests/TsoOracle.h).
///
/// The headline guarantee: behaviour sets are byte-identical with and
/// without store-buffer partial-order reduction, and equal to the oracle
/// — on the full litmus corpus and on randomised programs, for the
/// machines and for their machine-minus-SC subtractions. Also checks
/// that the reduction actually reduces (visit counts), and that budget
/// exhaustion degrades to an honest truncation instead of a wrong answer.
///
//===----------------------------------------------------------------------===//

#include "TsoOracle.h"

#include "lang/Parser.h"
#include "support/Budget.h"
#include "support/Rng.h"
#include "tso/Litmus.h"
#include "tso/TsoMachine.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

TsoLimits limits(bool UseReduction) {
  TsoLimits L;
  L.UseReduction = UseReduction;
  return L;
}

using MachineFn = std::set<Behaviour> (*)(const Program &, TsoLimits,
                                           ExecStats *);

/// Asserts the engine, with and without reduction, agrees with the oracle
/// on \p P for one model.
void expectMatrixAgrees(const Program &P, const std::string &Name,
                        MachineFn Model, MachineFn Oracle) {
  std::set<Behaviour> Want = Oracle(P, {}, nullptr);
  for (bool Reduce : {true, false}) {
    std::set<Behaviour> Got = Model(P, limits(Reduce), nullptr);
    EXPECT_EQ(Got, Want) << Name << ": reduction=" << Reduce;
  }
}

/// Asserts the machine-minus-SC subtractions (reduced machine and reduced
/// SC engine) agree with the all-oracle pair on \p P for both models.
/// Returns the reduced TSO-only and PSO-only sets.
std::pair<std::set<Behaviour>, std::set<Behaviour>>
expectOnlyAgrees(const Program &P, const std::string &Name) {
  std::set<Behaviour> TsoOnly = tsoOnlyBehaviours(P, limits(true));
  std::set<Behaviour> PsoOnly = psoOnlyBehaviours(P, limits(true));
  EXPECT_EQ(TsoOnly, oracleTsoOnlyBehaviours(P)) << Name << " (TSO)";
  EXPECT_EQ(PsoOnly, oraclePsoOnlyBehaviours(P)) << Name << " (PSO)";
  return {TsoOnly, PsoOnly};
}

/// A seeded store-buffering shape over locations x, y and z: every
/// thread starts with a write and ends with a printed read of another
/// location, with up to two random writes or printed reads in between.
/// A write followed by a read of another location is the SB pattern TSO
/// reorders; two writes to different locations are the MP pattern only
/// PSO reorders.
Program storeBufferShape(Rng &R) {
  const char *const Locs[] = {"x", "y", "z"};
  std::string Src;
  unsigned Reg = 0;
  auto Read = [&](uint64_t Loc) {
    std::string Rn = "r" + std::to_string(Reg++);
    Src += Rn + " := " + Locs[Loc] + "; print " + Rn + "; ";
  };
  auto Write = [&](uint64_t Loc) {
    Src += std::string(Locs[Loc]) + " := " + std::to_string(R.range(1, 2)) +
           "; ";
  };
  for (int T = 0; T < 2; ++T) {
    const uint64_t First = R.below(3);
    Src += "thread { ";
    Write(First);
    for (uint64_t K = R.below(3); K > 0; --K) {
      if (R.chance(1, 2))
        Write(R.below(3));
      else
        Read(R.below(3));
    }
    Read((First + 1 + R.below(2)) % 3);
    Src += "}\n";
  }
  return parseOrDie(Src);
}

TEST(TsoParallel, LitmusCorpusMatchesOracle) {
  for (const LitmusTest &T : litmusTests()) {
    Program P = parseOrDie(T.Source);
    expectMatrixAgrees(P, T.Name + " (TSO)", tsoBehaviours,
                       oracleTsoBehaviours);
    expectMatrixAgrees(P, T.Name + " (PSO)", psoBehaviours,
                       oraclePsoBehaviours);
  }
}

TEST(TsoParallel, TsoOnlyBehavioursMatchOracle) {
  // The subtraction path (machine minus SC) runs both engines; the
  // reduced pair must match the oracle pair.
  for (const LitmusTest &T : litmusTests())
    expectOnlyAgrees(parseOrDie(T.Source), T.Name);
}

TEST(TsoParallel, RandomisedProgramsMatchOracle) {
  // Small shapes keep the oracle fast; disciplines rotate so fenced
  // (volatile/lock) and unfenced store-buffer paths are all exercised.
  const GenDiscipline Disciplines[] = {
      GenDiscipline::Racy, GenDiscipline::LockDiscipline,
      GenDiscipline::VolatileLocations, GenDiscipline::Mixed};
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Rng R(Seed * 0x9E3779B97F4A7C15ULL);
    GenOptions G;
    G.Discipline = Disciplines[Seed % 4];
    G.MaxStmtsPerThread = 4;
    G.AllowIf = false; // keep tracesets small enough for the oracle
    Program P = generateProgram(R, G);
    std::string Name = "seed " + std::to_string(Seed);
    expectMatrixAgrees(P, Name + " (TSO)", tsoBehaviours,
                       oracleTsoBehaviours);
    expectMatrixAgrees(P, Name + " (PSO)", psoBehaviours,
                       oraclePsoBehaviours);
    expectOnlyAgrees(P, Name);
  }

  // ProgramGen's programs above have empty TSO-only and PSO-only sets;
  // seeded store-buffer shapes check the subtractions on non-empty sets.
  unsigned TsoBites = 0, PsoBites = 0;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    Rng R(mixSeeds(0x5B, Seed));
    Program P = storeBufferShape(R);
    std::string Name = "shape " + std::to_string(Seed);
    expectMatrixAgrees(P, Name + " (TSO)", tsoBehaviours,
                       oracleTsoBehaviours);
    expectMatrixAgrees(P, Name + " (PSO)", psoBehaviours,
                       oraclePsoBehaviours);
    auto [TsoOnly, PsoOnly] = expectOnlyAgrees(P, Name);
    TsoBites += !TsoOnly.empty();
    PsoBites += PsoOnly.size() > TsoOnly.size();
  }
  EXPECT_GT(TsoBites, 0u) << "no shape had a TSO-only behaviour";
  EXPECT_GT(PsoBites, 0u) << "no shape had a PSO-only, non-TSO behaviour";
}

TEST(TsoParallel, ReductionPrunesStatesWithoutChangingTheAnswer) {
  // The classic SB shape maximises commutable drain/step pairs; sleep sets
  // must visit strictly fewer nodes and report the same set.
  Program P = parseOrDie(R"(
thread { x := 1; r1 := y; print r1; }
thread { y := 1; r2 := x; print r2; }
)");
  ExecStats Reduced, Full;
  std::set<Behaviour> A = tsoBehaviours(P, limits(true), &Reduced);
  std::set<Behaviour> B = tsoBehaviours(P, limits(false), &Full);
  EXPECT_EQ(A, B);
  EXPECT_LT(Reduced.Visited, Full.Visited)
      << "sleep-set POR did not prune any store-buffer interleavings";
}

TEST(TsoParallel, BufferBoundEdgesMatchOracle) {
  // The flat per-thread buffer array sizes its stride from
  // min(MaxBufferedStores, MaxActionsPerThread); the tight bounds (1 =
  // every store drains before the next, 2 = one pending reorder window)
  // are where an off-by-one in the packed drain/append logic would show.
  // The answer must track the oracle at the *same* bound.
  Program P = parseOrDie(R"(
thread { x := 1; x := 2; r1 := y; print r1; }
thread { y := 1; y := 2; r2 := x; print r2; }
)");
  for (size_t Bound : {size_t(1), size_t(2), size_t(8)}) {
    TsoLimits O;
    O.MaxBufferedStores = Bound;
    std::set<Behaviour> WantTso = oracleTsoBehaviours(P, O);
    std::set<Behaviour> WantPso = oraclePsoBehaviours(P, O);
    for (bool Reduce : {true, false}) {
      TsoLimits L = limits(Reduce);
      L.MaxBufferedStores = Bound;
      EXPECT_EQ(tsoBehaviours(P, L, nullptr), WantTso)
          << "TSO bound=" << Bound << " reduction=" << Reduce;
      EXPECT_EQ(psoBehaviours(P, L, nullptr), WantPso)
          << "PSO bound=" << Bound << " reduction=" << Reduce;
    }
  }
}

TEST(TsoParallel, SharedBudgetExhaustionIsReportedNotWrong) {
  Program P = parseOrDie(R"(
thread { x := 1; x := 2; r1 := y; print r1; }
thread { y := 1; y := 2; r2 := x; print r2; }
)");
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/10,
                      /*MaxMemoryBytes=*/0});
  TsoLimits L = limits(true);
  L.Shared = &B;
  ExecStats Stats;
  std::set<Behaviour> Got = tsoBehaviours(P, L, &Stats);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.Reason, TruncationReason::StateCap);
  // A truncated answer must still be a subset of the true set.
  std::set<Behaviour> Want = tsoBehaviours(P);
  for (const Behaviour &Beh : Got)
    EXPECT_TRUE(Want.count(Beh));
}

TEST(TsoParallel, CancellationUnwindsPromptly) {
  Program P = parseOrDie(R"(
thread { x := 1; x := 2; r1 := y; print r1; }
thread { y := 1; y := 2; r2 := x; print r2; }
)");
  CancelToken Cancel;
  Cancel.request();
  Budget B(BudgetSpec{}, &Cancel);
  TsoLimits L = limits(true);
  L.Shared = &B;
  ExecStats Stats;
  tsoBehaviours(P, L, &Stats);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.Reason, TruncationReason::Cancelled);
}

} // namespace
