//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the traceset execution enumerator: executions, maximal
/// executions, behaviour collection, and both data-race definitions.
///
//===----------------------------------------------------------------------===//

#include "trace/Enumerate.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

SymbolId X() { return Symbol::intern("x"); }
SymbolId Y() { return Symbol::intern("y"); }
SymbolId M() { return Symbol::intern("m"); }

/// Fig 2's original traceset over {0,1}: thread 0 copies x into y; thread
/// 1 reads y, writes x:=1, prints what it read.
Traceset fig2Original() {
  Traceset T({0, 1});
  for (Value V : {0, 1})
    T.insert(Trace{Action::mkStart(0), Action::mkRead(X(), V),
                   Action::mkWrite(Y(), V)});
  for (Value V : {0, 1})
    T.insert(Trace{Action::mkStart(1), Action::mkRead(Y(), V),
                   Action::mkWrite(X(), 1), Action::mkExternal(V)});
  return T;
}

TEST(Enumerate, AllExecutionsAreExecutions) {
  Traceset T = fig2Original();
  size_t Count = 0;
  EnumerationStats S = forEachExecution(T, [&](const Interleaving &I) {
    EXPECT_TRUE(I.isExecutionOf(T)) << I.str();
    ++Count;
    return true;
  });
  EXPECT_FALSE(S.Truncated);
  EXPECT_GT(Count, 0u);
}

TEST(Enumerate, MaximalExecutionsCannotBeExtended) {
  Traceset T = fig2Original();
  size_t Count = 0;
  forEachMaximalExecution(T, [&](const Interleaving &I) {
    // Both threads ran to completion (3 + 4 actions; reads are always
    // enabled with the memory value, so nothing can be stuck).
    EXPECT_EQ(I.size(), 7u) << I.str();
    ++Count;
    return true;
  });
  EXPECT_GT(Count, 0u);
}

TEST(Enumerate, BehavioursOfFig2ExcludePrint1) {
  // §2.1: the original program cannot print 1.
  std::set<Behaviour> Bs = collectBehaviours(fig2Original());
  EXPECT_TRUE(Bs.count(Behaviour{}));
  EXPECT_TRUE(Bs.count(Behaviour{0}));
  EXPECT_FALSE(Bs.count(Behaviour{1}));
}

TEST(Enumerate, ReadsOnlySeeMostRecentWrites) {
  // A traceset whose only read value 1 requires the write first.
  Traceset T({0, 1});
  T.insert(Trace{Action::mkStart(0), Action::mkWrite(X(), 1)});
  T.insert(Trace{Action::mkStart(1), Action::mkRead(X(), 1),
                 Action::mkExternal(1)});
  // The read of 1 is only enabled after the write: behaviour {1} exists,
  // but no execution reads 1 from the initial memory.
  std::set<Behaviour> Bs = collectBehaviours(T);
  EXPECT_TRUE(Bs.count(Behaviour{1}));
  forEachExecution(T, [&](const Interleaving &I) {
    EXPECT_TRUE(I.isSequentiallyConsistent());
    return true;
  });
}

TEST(Enumerate, LocksAreExclusive) {
  // Two threads both lock m and print inside the critical section; the
  // prints can appear in either order but never interleave with a held
  // lock.
  Traceset T({0, 1});
  T.insert(Trace{Action::mkStart(0), Action::mkLock(M()),
                 Action::mkExternal(0), Action::mkUnlock(M())});
  T.insert(Trace{Action::mkStart(1), Action::mkLock(M()),
                 Action::mkExternal(1), Action::mkUnlock(M())});
  forEachExecution(T, [&](const Interleaving &I) {
    EXPECT_TRUE(I.respectsMutualExclusion()) << I.str();
    return true;
  });
  std::set<Behaviour> Bs = collectBehaviours(T);
  EXPECT_TRUE(Bs.count(Behaviour{0, 1}));
  EXPECT_TRUE(Bs.count(Behaviour{1, 0}));
}

TEST(Enumerate, AdjacentRaceFoundOnRacyTraceset) {
  Traceset T = fig2Original(); // x and y are both racy.
  RaceReport R = findAdjacentRace(T);
  EXPECT_FALSE(R.Stats.Truncated);
  ASSERT_TRUE(R.HasRace);
  // The witness ends in the racing pair.
  ASSERT_GE(R.Witness.size(), 2u);
  const Event &A = R.Witness[R.Witness.size() - 2];
  const Event &B = R.Witness[R.Witness.size() - 1];
  EXPECT_NE(A.Tid, B.Tid);
  EXPECT_TRUE(A.Act.conflictsWith(B.Act));
}

TEST(Enumerate, HappensBeforeRaceAgreesOnExamples) {
  EXPECT_EQ(findAdjacentRace(fig2Original()).HasRace,
            findHappensBeforeRace(fig2Original()).HasRace);
  // Lock-protected: race free under both definitions.
  Traceset Locked({0, 1});
  Locked.insert(Trace{Action::mkStart(0), Action::mkLock(M()),
                      Action::mkWrite(X(), 1), Action::mkUnlock(M())});
  for (Value V : {0, 1})
    Locked.insert(Trace{Action::mkStart(1), Action::mkLock(M()),
                        Action::mkRead(X(), V), Action::mkUnlock(M())});
  EXPECT_FALSE(findAdjacentRace(Locked).HasRace);
  EXPECT_FALSE(findHappensBeforeRace(Locked).HasRace);
  EXPECT_TRUE(isDataRaceFree(Locked));
}

TEST(Enumerate, MaxEventsBoundsEachThreadInEverySearch) {
  // Two four-action threads racing on x: every maximal execution has
  // eight events, but no thread has more than four. MaxEvents bounds each
  // thread's trace, so at 8 all three race searches run to completion and
  // agree, as the two race definitions must.
  auto W = [](const char *Loc) {
    return Action::mkWrite(Symbol::intern(Loc), 1);
  };
  Traceset T({0, 1});
  T.insert(Trace{Action::mkStart(0), W("a"), W("b"), W("x")});
  T.insert(Trace{Action::mkStart(1), W("c"), W("d"), W("x")});
  EnumerationLimits Limits;
  Limits.MaxEvents = 8;
  RaceReport Hb = findHappensBeforeRace(T, Limits);
  EXPECT_TRUE(Hb.HasRace);
  EXPECT_FALSE(Hb.Stats.Truncated);
  for (bool Oracle : {false, true}) {
    Limits.ExhaustiveOracle = Oracle;
    RaceReport Adjacent = findAdjacentRace(T, Limits);
    EXPECT_TRUE(Adjacent.HasRace) << "oracle " << Oracle;
    EXPECT_FALSE(Adjacent.Stats.Truncated) << "oracle " << Oracle;
  }

  // At 3 no thread can finish: every search stops short of the race on x
  // and says so.
  Limits.MaxEvents = 3;
  Limits.ExhaustiveOracle = false;
  Hb = findHappensBeforeRace(T, Limits);
  EXPECT_FALSE(Hb.HasRace);
  EXPECT_EQ(Hb.Stats.Reason, TruncationReason::DepthCap);
  RaceReport Adjacent = findAdjacentRace(T, Limits);
  EXPECT_FALSE(Adjacent.HasRace);
  EXPECT_EQ(Adjacent.Stats.Reason, TruncationReason::DepthCap);
}

TEST(Enumerate, VolatileAccessesDoNotRace) {
  Traceset T({0, 1});
  T.insert(Trace{Action::mkStart(0), Action::mkWrite(X(), 1, true)});
  for (Value V : {0, 1})
    T.insert(Trace{Action::mkStart(1), Action::mkRead(X(), V, true)});
  EXPECT_FALSE(findAdjacentRace(T).HasRace);
  EXPECT_FALSE(findHappensBeforeRace(T).HasRace);
}

TEST(Enumerate, VisitorCanStopEarly) {
  size_t Count = 0;
  forEachExecution(fig2Original(), [&](const Interleaving &) {
    ++Count;
    return false;
  });
  EXPECT_EQ(Count, 1u);
}

TEST(Enumerate, TruncationIsReported) {
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/3,
                      /*MaxMemoryBytes=*/0});
  EnumerationLimits Limits;
  Limits.Shared = &B;
  EnumerationStats S =
      forEachExecution(fig2Original(), [](const Interleaving &) {
        return true;
      }, Limits);
  EXPECT_TRUE(S.Truncated);
  EXPECT_EQ(S.Reason, TruncationReason::StateCap);
}

TEST(Enumerate, BlockedThreadsEndMaximalExecutionsEarly) {
  // Thread 0 never unlocks; once it holds m, thread 1 can never lock, so
  // maximal executions where 0 went first have no events of thread 1
  // beyond its start.
  Traceset T({0, 1});
  T.insert(Trace{Action::mkStart(0), Action::mkLock(M()),
                 Action::mkExternal(1)});
  T.insert(Trace{Action::mkStart(1), Action::mkLock(M()),
                 Action::mkExternal(2)});
  bool SawBlockedShape = false;
  forEachMaximalExecution(T, [&](const Interleaving &I) {
    // Exactly one thread gets the lock in every maximal execution.
    size_t Locks = 0;
    for (const Event &E : I)
      Locks += E.Act.isLock();
    EXPECT_EQ(Locks, 1u) << I.str();
    SawBlockedShape = true;
    return true;
  });
  EXPECT_TRUE(SawBlockedShape);
  // Both prints are individually reachable, never both.
  std::set<Behaviour> Bs = collectBehaviours(T);
  EXPECT_TRUE(Bs.count(Behaviour{1}));
  EXPECT_TRUE(Bs.count(Behaviour{2}));
  EXPECT_FALSE(Bs.count(Behaviour{1, 2}));
  EXPECT_FALSE(Bs.count(Behaviour{2, 1}));
}

TEST(Enumerate, BehaviourCollectionReportsTruncation) {
  Traceset T = fig2Original();
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/2,
                      /*MaxMemoryBytes=*/0});
  EnumerationLimits Limits;
  Limits.Shared = &B;
  EnumerationStats Stats;
  collectBehaviours(T, Limits, &Stats);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.Reason, TruncationReason::StateCap);
}

TEST(Enumerate, EmptyTracesetHasOnlyEmptyBehaviour) {
  Traceset T;
  std::set<Behaviour> Bs = collectBehaviours(T);
  EXPECT_EQ(Bs, (std::set<Behaviour>{{}}));
}

} // namespace
