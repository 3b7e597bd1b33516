//===----------------------------------------------------------------------===//
///
/// \file
/// Equivalence tests for the interned TSO/PSO engine
/// (tso/BufferedEngine.cpp) against the seed exhaustive machines kept as
/// oracles (TsoLimits::ExhaustiveOracle).
///
/// The headline guarantee: behaviour sets are byte-identical with and
/// without store-buffer partial-order reduction, and equal to the oracle
/// — on the full litmus corpus and on randomised programs. Also checks
/// that the reduction actually reduces (visit counts), and that budget
/// exhaustion degrades to an honest truncation instead of a wrong answer.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "support/Budget.h"
#include "tso/Litmus.h"
#include "tso/PsoMachine.h"
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

TsoLimits oracle() {
  TsoLimits L;
  L.ExhaustiveOracle = true;
  return L;
}

/// Asserts the engine, with and without reduction, agrees with the oracle
/// on \p P for one model.
void expectMatrixAgrees(
    const Program &P, const std::string &Name,
    std::set<Behaviour> (*Model)(const Program &, TsoLimits, ExecStats *)) {
  std::set<Behaviour> Want = Model(P, oracle(), nullptr);
  for (bool Reduce : {true, false}) {
    std::set<Behaviour> Got = Model(P, limits(Reduce), nullptr);
    EXPECT_EQ(Got, Want) << Name << ": reduction=" << Reduce;
  }
}

TEST(TsoParallel, LitmusCorpusMatchesOracle) {
  for (const LitmusTest &T : litmusTests()) {
    Program P = parseOrDie(T.Source);
    expectMatrixAgrees(P, T.Name + " (TSO)", tsoBehaviours);
    expectMatrixAgrees(P, T.Name + " (PSO)", psoBehaviours);
  }
}

TEST(TsoParallel, TsoOnlyBehavioursMatchOracle) {
  // The subtraction path (TSO minus SC) runs both engines; the reduced
  // pair must match the oracle pair.
  for (const LitmusTest &T : litmusTests()) {
    Program P = parseOrDie(T.Source);
    std::set<Behaviour> Want = tsoOnlyBehaviours(P, oracle());
    EXPECT_EQ(tsoOnlyBehaviours(P, limits(true)), Want) << T.Name;
    std::set<Behaviour> PsoWant = psoOnlyBehaviours(P, oracle());
    EXPECT_EQ(psoOnlyBehaviours(P, limits(true)), PsoWant) << T.Name;
  }
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
    expectMatrixAgrees(P, Name + " (TSO)", tsoBehaviours);
    expectMatrixAgrees(P, Name + " (PSO)", psoBehaviours);
  }
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
    TsoLimits O = oracle();
    O.MaxBufferedStores = Bound;
    std::set<Behaviour> WantTso = tsoBehaviours(P, O, nullptr);
    std::set<Behaviour> WantPso = psoBehaviours(P, O, nullptr);
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
