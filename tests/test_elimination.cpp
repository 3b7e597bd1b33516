//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the semantic elimination relation (§4): trace-level
/// subsequence checking, the wildcard-witness search, and the paper's §4
/// traceset example.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "semantics/Elimination.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

SymbolId X() { return Symbol::intern("x"); }
SymbolId Y() { return Symbol::intern("y"); }
SymbolId M() { return Symbol::intern("m"); }

TEST(EliminationTrace, PaperExampleRestriction) {
  // §4: from [S(0), W[x=1], R[y=*], R[x=1], X(1), L[m], W[x=2], W[x=1],
  // U[m]] one elimination is [S(0), W[x=1], X(1), L[m], W[x=1], U[m]].
  Trace T{Action::mkStart(0),       Action::mkWrite(X(), 1),
          Action::mkWildcardRead(Y()), Action::mkRead(X(), 1),
          Action::mkExternal(1),    Action::mkLock(M()),
          Action::mkWrite(X(), 2),  Action::mkWrite(X(), 1),
          Action::mkUnlock(M())};
  Trace TPrime{Action::mkStart(0), Action::mkWrite(X(), 1),
               Action::mkExternal(1), Action::mkLock(M()),
               Action::mkWrite(X(), 1), Action::mkUnlock(M())};
  EXPECT_TRUE(isEliminationOfTrace(T, TPrime));
}

TEST(EliminationTrace, IdentityAndEmpty) {
  Trace T{Action::mkStart(0), Action::mkWrite(X(), 1)};
  EXPECT_TRUE(isEliminationOfTrace(T, T));
  EXPECT_TRUE(isEliminationOfTrace(Trace(), Trace()));
  // Dropping everything requires everything to be eliminable; a start
  // action never is.
  EXPECT_FALSE(isEliminationOfTrace(T, Trace()));
}

TEST(EliminationTrace, CannotDropNonEliminable) {
  // Dropping a lock is never allowed.
  Trace T{Action::mkStart(0), Action::mkLock(M()), Action::mkUnlock(M())};
  Trace TPrime{Action::mkStart(0), Action::mkUnlock(M())};
  EXPECT_FALSE(isEliminationOfTrace(T, TPrime));
}

TEST(EliminationTrace, KeptActionsMustMatchExactly) {
  Trace T{Action::mkStart(0), Action::mkWrite(X(), 1)};
  Trace TPrime{Action::mkStart(0), Action::mkWrite(X(), 2)};
  EXPECT_FALSE(isEliminationOfTrace(T, TPrime));
  // Order must be preserved (t' = t|S keeps relative order).
  Trace T2{Action::mkStart(0), Action::mkWrite(X(), 1),
           Action::mkWrite(Y(), 2)};
  Trace Swapped{Action::mkStart(0), Action::mkWrite(Y(), 2),
                Action::mkWrite(X(), 1)};
  EXPECT_FALSE(isEliminationOfTrace(T2, Swapped));
}

TEST(EliminationTrace, ProperOnlyRejectsLastActionDrops) {
  // Dropping a trailing write is a (non-proper) last-write elimination.
  Trace T{Action::mkStart(0), Action::mkExternal(1), Action::mkWrite(X(), 1)};
  Trace TPrime{Action::mkStart(0), Action::mkExternal(1)};
  EXPECT_TRUE(isEliminationOfTrace(T, TPrime));
  EXPECT_FALSE(isEliminationOfTrace(T, TPrime, /*ProperOnly=*/true));
}

TEST(EliminationWitness, FindsWildcardWitnessWithDroppedIndices) {
  // Orig: r1 := y; x := 1   — the read is irrelevant.
  Program O = parseOrDie("thread { r1 := y; x := 1; }");
  Traceset TO = programTraceset(O, {0, 1});
  Trace TPrime{Action::mkStart(0), Action::mkWrite(X(), 1)};
  std::vector<size_t> Dropped;
  bool Truncated = false;
  std::optional<Trace> W = findEliminationWitness(TO, TPrime, {}, &Truncated,
                                                  false, &Dropped);
  ASSERT_TRUE(W.has_value());
  EXPECT_FALSE(Truncated);
  ASSERT_EQ(Dropped.size(), 1u);
  EXPECT_TRUE((*W)[Dropped[0]].isWildcard());
  EXPECT_TRUE(TO.belongsTo(*W));
  EXPECT_TRUE(isEliminationOfTrace(*W, TPrime));
}

TEST(EliminationWitness, NoWitnessForIntroducedActions) {
  Program O = parseOrDie("thread { x := 1; }");
  Traceset TO = programTraceset(O, {0, 1});
  // A write the program never performs.
  Trace TPrime{Action::mkStart(0), Action::mkWrite(Y(), 1)};
  EXPECT_FALSE(findEliminationWitness(TO, TPrime).has_value());
}

TEST(EliminationTraceset, PaperSection4TracesetExample) {
  // §4: the traceset of "x:=1; print 1; lock m; x:=1; unlock m;" is an
  // elimination of the traceset of
  // "x:=1; r1:=y; r2:=x; print r2; if (r2!=0) {lock m; x:=2; x:=r2;
  //  unlock m;}".
  Program O = parseOrDie(R"(
thread {
  x := 1;
  r1 := y;
  r2 := x;
  print r2;
  if (r2 != 0) { lock m; x := 2; x := r2; unlock m; } else { skip; }
}
)");
  Program T = parseOrDie(R"(
thread {
  x := 1;
  print 1;
  lock m;
  x := 1;
  unlock m;
}
)");
  std::vector<Value> Domain = defaultDomainFor(O, 3);
  Traceset TO = programTraceset(O, Domain);
  Traceset TT = programTraceset(T, Domain);
  TransformCheckResult R = checkElimination(TO, TT);
  EXPECT_EQ(R.Verdict, CheckVerdict::Holds)
      << "counterexample: " << R.Counterexample.str();
}

TEST(EliminationTraceset, IdentityIsAnElimination) {
  Program P = parseOrDie("thread { r1 := x; y := r1; print r1; }");
  Traceset T = programTraceset(P, {0, 1});
  EXPECT_EQ(checkElimination(T, T).Verdict, CheckVerdict::Holds);
}

TEST(EliminationTraceset, WriteIntroductionFails) {
  Program O = parseOrDie("thread { r1 := x; }");
  Program T = parseOrDie("thread { r1 := x; y := 1; }");
  Traceset TO = programTraceset(O, {0, 1});
  Traceset TT = programTraceset(T, {0, 1});
  TransformCheckResult R = checkElimination(TO, TT);
  EXPECT_EQ(R.Verdict, CheckVerdict::Fails);
}

TEST(EliminationTraceset, ValueChangeFails) {
  Program O = parseOrDie("thread { x := 1; }");
  Program T = parseOrDie("thread { x := 2; }");
  Traceset TO = programTraceset(O, {0, 1, 2});
  Traceset TT = programTraceset(T, {0, 1, 2});
  EXPECT_EQ(checkElimination(TO, TT).Verdict, CheckVerdict::Fails);
}

TEST(EliminationTraceset, EliminationAcrossLoneAcquireHolds) {
  // The Fig 3 (b)->(c) shape in isolation: reuse a pre-lock read after the
  // acquire.
  Program O = parseOrDie(
      "thread { r1 := y; lock m; r2 := y; print r2; unlock m; }");
  Program T = parseOrDie(
      "thread { r1 := y; lock m; r2 := r1; print r2; unlock m; }");
  std::vector<Value> Domain = {0, 1};
  Traceset TO = programTraceset(O, Domain);
  Traceset TT = programTraceset(T, Domain);
  EXPECT_EQ(checkElimination(TO, TT).Verdict, CheckVerdict::Holds);
}

TEST(EliminationTraceset, EliminationAcrossReleaseAcquirePairFails) {
  // With a full unlock/lock pair between the reads, Definition 1 forbids
  // the reuse — and rightly: another thread may write y in between.
  Program O = parseOrDie(
      "thread { lock m; r1 := y; unlock m; lock m; r2 := y; print r2; "
      "unlock m; }");
  Program T = parseOrDie(
      "thread { lock m; r1 := y; unlock m; lock m; r2 := r1; print r2; "
      "unlock m; }");
  std::vector<Value> Domain = {0, 1};
  Traceset TO = programTraceset(O, Domain);
  Traceset TT = programTraceset(T, Domain);
  EXPECT_EQ(checkElimination(TO, TT).Verdict, CheckVerdict::Fails);
}

TEST(EliminationTraceset, TruncationYieldsUnknown) {
  Program O = parseOrDie("thread { r1 := y; x := 1; }");
  Program T = parseOrDie("thread { x := 1; }");
  Traceset TO = programTraceset(O, {0, 1});
  Traceset TT = programTraceset(T, {0, 1});
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/1, // Absurdly small.
                      /*MaxMemoryBytes=*/0});
  EliminationSearchLimits Limits;
  Limits.Shared = &B;
  TransformCheckResult R = checkElimination(TO, TT, Limits);
  EXPECT_EQ(R.Verdict, CheckVerdict::Unknown);
  EXPECT_EQ(B.reason(), TruncationReason::StateCap);
}

TEST(EliminationTraceset, CancelledBudgetYieldsUnknown) {
  // Every trace of [[P]] needs its own witness search, so checking [[P]]
  // against itself charges far more than one budget check interval (256
  // visits): a token requested before the check starts is observed.
  Program P = parseOrDie(
      "thread { r1 := x; r2 := y; r3 := x; r4 := y; z := 1; print r1; }");
  Traceset TS = programTraceset(P, {0, 1});
  ASSERT_EQ(checkElimination(TS, TS).Verdict, CheckVerdict::Holds);

  CancelToken Stop;
  Stop.request();
  Budget B(BudgetSpec{}, &Stop);
  EliminationSearchLimits Limits;
  Limits.Shared = &B;
  TransformCheckResult R = checkElimination(TS, TS, Limits);
  EXPECT_EQ(R.Verdict, CheckVerdict::Unknown);
  EXPECT_EQ(B.reason(), TruncationReason::Cancelled);
}

TEST(EliminationWitness, MaxExtraBoundIsRespectedAndRaisable) {
  // Eliminating seven irrelevant reads needs seven insertions: the default
  // bound (6) must answer Unknown, a raised bound must find the witness.
  std::string Src = "thread { ";
  for (int I = 0; I < 7; ++I)
    Src += "r1 := y; ";
  Src += "x := 1; }";
  Program O = parseOrDie(Src);
  Program T = parseOrDie("thread { x := 1; }");
  Traceset TO = programTraceset(O, {0, 1});
  Traceset TT = programTraceset(T, {0, 1});
  EliminationSearchLimits Tight; // MaxExtra = 6.
  TransformCheckResult R1 = checkElimination(TO, TT, Tight);
  EXPECT_EQ(R1.Verdict, CheckVerdict::Unknown);
  EliminationSearchLimits Loose;
  Loose.MaxExtra = 8;
  TransformCheckResult R2 = checkElimination(TO, TT, Loose);
  EXPECT_EQ(R2.Verdict, CheckVerdict::Holds)
      << "counterexample: " << R2.Counterexample.str();
}

TEST(EliminationWitness, InstanceCapReportsUnknown) {
  // Four wildcard reads over a domain of 3 values exceed a cap of 16
  // instances.
  Program O = parseOrDie(
      "thread { r1 := y; r1 := y; r1 := y; r1 := y; x := 1; }");
  Program T = parseOrDie("thread { x := 1; }");
  std::vector<Value> D = {0, 1, 2};
  Traceset TO = programTraceset(O, D);
  Traceset TT = programTraceset(T, D);
  EliminationSearchLimits Tight;
  Tight.MaxInstances = 16;
  EXPECT_EQ(checkElimination(TO, TT, Tight).Verdict, CheckVerdict::Unknown);
  EliminationSearchLimits Loose;
  Loose.MaxInstances = 256;
  EXPECT_EQ(checkElimination(TO, TT, Loose).Verdict, CheckVerdict::Holds);
}

TEST(EliminationTraceset, VerdictNames) {
  EXPECT_EQ(checkVerdictName(CheckVerdict::Holds), "holds");
  EXPECT_EQ(checkVerdictName(CheckVerdict::Fails), "fails");
  EXPECT_EQ(checkVerdictName(CheckVerdict::Unknown), "unknown");
}

} // namespace
