//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the program-level SC queries of lang/Explore.h
/// ([[P]] plus the execution enumerator): behaviours, mutual
/// exclusion, race detection, and limit handling.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

TEST(ProgramSc, SequentialProgramHasOneMaximalBehaviour) {
  Program P = parseOrDie("thread { print 1; print 2; print 3; }");
  std::set<Behaviour> Bs = programBehaviours(P);
  // Prefix-closed: {}, {1}, {1,2}, {1,2,3}.
  EXPECT_EQ(Bs.size(), 4u);
  EXPECT_TRUE(Bs.count(Behaviour{1, 2, 3}));
}

TEST(ProgramSc, InterleavingsMixOutputs) {
  Program P = parseOrDie("thread { print 1; } thread { print 2; }");
  std::set<Behaviour> Bs = programBehaviours(P);
  EXPECT_TRUE(Bs.count(Behaviour{1, 2}));
  EXPECT_TRUE(Bs.count(Behaviour{2, 1}));
}

TEST(ProgramSc, ReadsSeeSharedMemory) {
  Program P = parseOrDie(R"(
thread { x := 1; }
thread { r1 := x; print r1; }
)");
  std::set<Behaviour> Bs = programBehaviours(P);
  EXPECT_TRUE(Bs.count(Behaviour{0}));
  EXPECT_TRUE(Bs.count(Behaviour{1}));
  EXPECT_FALSE(Bs.count(Behaviour{2}));
}

TEST(ProgramSc, LocksSerialiseCriticalSections) {
  Program P = parseOrDie(R"(
thread { lock m; x := 1; r1 := x; print r1; unlock m; }
thread { lock m; x := 2; r2 := x; print r2; unlock m; }
)");
  std::set<Behaviour> Bs = programBehaviours(P);
  // Each thread always reads its own write back.
  EXPECT_TRUE(Bs.count(Behaviour{1, 2}));
  EXPECT_TRUE(Bs.count(Behaviour{2, 1}));
  EXPECT_FALSE(Bs.count(Behaviour{2, 2}));
  EXPECT_FALSE(Bs.count(Behaviour{1, 1}));
}

TEST(ProgramSc, ReentrantLocking) {
  Program P = parseOrDie(
      "thread { lock m; lock m; print 1; unlock m; unlock m; }");
  EXPECT_TRUE(programBehaviours(P).count(Behaviour{1}));
}

TEST(ProgramSc, EUlkDoesNotReleaseOthersLocks) {
  // Thread 1's unlock of an unheld monitor is silent; it must not free
  // thread 0's lock, so print 2 can only follow print 1.
  Program P = parseOrDie(R"(
thread { lock m; print 1; lock m2; unlock m2; print 9; unlock m; }
thread { unlock m; lock m; print 2; unlock m; }
)");
  std::set<Behaviour> Bs = programBehaviours(P);
  bool Saw219 = false;
  for (const Behaviour &B : Bs) {
    auto It1 = std::find(B.begin(), B.end(), 1);
    auto It2 = std::find(B.begin(), B.end(), 2);
    auto It9 = std::find(B.begin(), B.end(), 9);
    // Thread 0 holds m from before print 1 until after print 9, so print 2
    // can never land strictly between them.
    EXPECT_FALSE(It1 != B.end() && It2 != B.end() && It9 != B.end() &&
                 It1 < It2 && It2 < It9)
        << "print 2 escaped into thread 0's critical section";
    Saw219 |= B == Behaviour{2, 1, 9};
  }
  EXPECT_TRUE(Saw219) << "thread 1 should be able to take the lock first";
}

TEST(ProgramSc, WhileLoopOnSharedFlagTerminates) {
  Program P = parseOrDie(R"(
thread { flag := 1; }
thread { r1 := flag; while (r1 != 1) { r1 := flag; } print r1; }
)");
  ExecLimits Limits;
  Limits.MaxActionsPerThread = 8;
  ExecStats Stats;
  std::set<Behaviour> Bs = programBehaviours(P, Limits, &Stats);
  EXPECT_TRUE(Bs.count(Behaviour{1}));
  // The spin loop exceeds the per-thread action bound on some paths.
  EXPECT_TRUE(Stats.Truncated);
}

TEST(ProgramSc, RaceDetectionFindsAdjacentConflicts) {
  Program Racy = parseOrDie("thread { x := 1; } thread { r1 := x; }");
  RaceReport R = findProgramRace(Racy);
  EXPECT_TRUE(R.HasRace);
  ASSERT_GE(R.Witness.size(), 2u);
  const Event &A = R.Witness[R.Witness.size() - 2];
  const Event &B = R.Witness[R.Witness.size() - 1];
  EXPECT_TRUE(A.Act.conflictsWith(B.Act));
  EXPECT_NE(A.Tid, B.Tid);
}

TEST(ProgramSc, ReadReadSharingIsNotARace) {
  Program P = parseOrDie("thread { r1 := x; } thread { r2 := x; }");
  EXPECT_TRUE(isProgramDrf(P));
}

TEST(ProgramSc, VolatileRacesDoNotCount) {
  Program P = parseOrDie("volatile x; thread { x := 1; } thread { r1 := x; }");
  EXPECT_TRUE(isProgramDrf(P));
}

TEST(ProgramSc, LockProtectionPreventsRaces) {
  Program P = parseOrDie(R"(
thread { lock m; x := 1; unlock m; }
thread { lock m; r1 := x; unlock m; }
)");
  EXPECT_TRUE(isProgramDrf(P));
}

TEST(ProgramSc, SameThreadConflictsAreNotRaces) {
  Program P = parseOrDie("thread { x := 1; r1 := x; x := 2; }");
  EXPECT_TRUE(isProgramDrf(P));
}

TEST(ProgramSc, VisitedStatsAccumulate) {
  Program P = parseOrDie("thread { x := 1; } thread { y := 1; }");
  ExecStats Stats;
  programBehaviours(P, {}, &Stats);
  EXPECT_GT(Stats.Visited, 0u);
  EXPECT_FALSE(Stats.Truncated);
}

} // namespace
