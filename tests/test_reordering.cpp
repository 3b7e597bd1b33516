//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for semantic reordering (§4): reordering functions,
/// de-permutations of prefixes (Fig 4's worked example), and the
/// traceset-level checker including the roach-motel cases.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "semantics/Reordering.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

SymbolId X() { return Symbol::intern("x"); }
SymbolId Y() { return Symbol::intern("y"); }
SymbolId M() { return Symbol::intern("m"); }

TEST(Depermutation, Fig4WorkedExample) {
  // t' = [S(0), W[x=1], R[y=1], X(1)], f = {(0,0),(1,2),(2,1),(3,3)}.
  Trace TPrime{Action::mkStart(0), Action::mkWrite(X(), 1),
               Action::mkRead(Y(), 1), Action::mkExternal(1)};
  Permutation F = {0, 2, 1, 3};
  EXPECT_TRUE(isReorderingFunction(TPrime, F));
  // n = 4: full de-permutation swaps the middle two.
  EXPECT_EQ(depermute(TPrime, F),
            (Trace{Action::mkStart(0), Action::mkRead(Y(), 1),
                   Action::mkWrite(X(), 1), Action::mkExternal(1)}));
  // n = 3: first three source elements at targets 0,2,1.
  EXPECT_EQ(depermutePrefix(TPrime, F, 3),
            (Trace{Action::mkStart(0), Action::mkRead(Y(), 1),
                   Action::mkWrite(X(), 1)}));
  // n = 2: [S(0), W[x=1]] — exactly the trace §4 had to add via an
  // irrelevant-read elimination.
  EXPECT_EQ(depermutePrefix(TPrime, F, 2),
            (Trace{Action::mkStart(0), Action::mkWrite(X(), 1)}));
  // n = 1 and n = 0.
  EXPECT_EQ(depermutePrefix(TPrime, F, 1), (Trace{Action::mkStart(0)}));
  EXPECT_EQ(depermutePrefix(TPrime, F, 0), Trace());
}

TEST(ReorderingFunction, RejectsNonReorderablSwaps) {
  // Swapping a write with a later conflicting read of the same location.
  Trace TPrime{Action::mkStart(0), Action::mkRead(X(), 1),
               Action::mkWrite(X(), 1)};
  Permutation Swap = {0, 2, 1};
  EXPECT_FALSE(isReorderingFunction(TPrime, Swap));
  EXPECT_TRUE(isReorderingFunction(TPrime, identityPermutation(3)));
}

TEST(ReorderingFunction, RoachMotelDirectionality) {
  // t' = [S, L[m], W[x=1]]: the write was moved *into* the lock (it
  // followed the lock in t' but preceded it in t). f maps the lock later:
  // f = {(0,0),(1,2),(2,1)} requires t'_2 (W) reorderable with t'_1 (L):
  // access-with-later-acquire — allowed.
  Trace In{Action::mkStart(0), Action::mkLock(M()), Action::mkWrite(X(), 1)};
  EXPECT_TRUE(isReorderingFunction(In, {0, 2, 1}));
  // The opposite: t' = [S, W[x=1], U[m]] with the write having been moved
  // *out* of the lock (it preceded the unlock in t', followed it in t):
  // requires t'_2 (U) reorderable with t'_1 (W) — release with later
  // access — allowed too (that is R-UW's direction).
  Trace Out{Action::mkStart(0), Action::mkWrite(X(), 1),
            Action::mkUnlock(M())};
  EXPECT_TRUE(isReorderingFunction(Out, {0, 2, 1}));
  // But moving a read *before* an acquire it followed: t' = [S, R, L] with
  // f = {(0,0),(1,2),(2,1)} requires t'_2 (L) reorderable with t'_1 (R):
  // acquires reorder with nothing.
  Trace Escape{Action::mkStart(0), Action::mkRead(X(), 0),
               Action::mkLock(M())};
  EXPECT_FALSE(isReorderingFunction(Escape, {0, 2, 1}));
}

TEST(FindDepermutation, IdentityWhenTraceIsPresent) {
  Traceset T({0, 1});
  T.insert(Trace{Action::mkStart(0), Action::mkWrite(X(), 1),
                 Action::mkWrite(Y(), 1)});
  auto Contains = [&](const Trace &Tr) { return T.contains(Tr); };
  Trace TPrime{Action::mkStart(0), Action::mkWrite(X(), 1),
               Action::mkWrite(Y(), 1)};
  std::optional<Permutation> F = findDepermutation(TPrime, Contains);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(*F, identityPermutation(3));
}

TEST(FindDepermutation, FindsTheSwap) {
  Traceset T({0, 1});
  T.insert(Trace{Action::mkStart(0), Action::mkWrite(X(), 1),
                 Action::mkWrite(Y(), 2)});
  // Also the prefix with only the y-write must exist for the de-permuted
  // prefix of length 2... it does not, so expect failure first:
  Trace TPrime{Action::mkStart(0), Action::mkWrite(Y(), 2),
               Action::mkWrite(X(), 1)};
  auto Contains = [&](const Trace &Tr) { return T.contains(Tr); };
  EXPECT_FALSE(findDepermutation(TPrime, Contains).has_value());
  // Add the missing prefix [S, W[y=2]] (as the paper does via elimination)
  // and the search succeeds.
  T.insert(Trace{Action::mkStart(0), Action::mkWrite(Y(), 2)});
  std::optional<Permutation> F = findDepermutation(TPrime, Contains);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(*F, (Permutation{0, 2, 1}));
}

TEST(CheckReordering, IdentityHolds) {
  Program P = parseOrDie("thread { r1 := x; y := r1; print r1; }");
  Traceset T = programTraceset(P, {0, 1});
  EXPECT_EQ(checkReordering(T, T).Verdict, CheckVerdict::Holds);
}

TEST(CheckReordering, IndependentWritesSwap) {
  Program O = parseOrDie("thread { x := 1; y := 2; print 3; }");
  Program T = parseOrDie("thread { y := 2; x := 1; print 3; }");
  std::vector<Value> D = {0, 1, 2, 3};
  TransformCheckResult R =
      checkReordering(programTraceset(O, D), programTraceset(T, D));
  // The prefix [S, W[y=2]] of the transformed thread has no de-permutation
  // into the original traceset (the original must write x first), so the
  // *pure* reordering fails — exactly the §4 phenomenon...
  EXPECT_EQ(R.Verdict, CheckVerdict::Fails);
  // ...while the composite with eliminations succeeds (the x-write is a
  // redundant last write in the witness for that prefix).
  TransformCheckResult R2 = checkEliminationThenReordering(
      programTraceset(O, D), programTraceset(T, D));
  EXPECT_EQ(R2.Verdict, CheckVerdict::Holds)
      << "counterexample: " << R2.Counterexample.str();
}

TEST(CheckReordering, ConflictingSwapFails) {
  Program O = parseOrDie("thread { x := 1; r1 := x; print r1; }");
  Program T = parseOrDie("thread { r1 := x; x := 1; print r1; }");
  std::vector<Value> D = {0, 1};
  TransformCheckResult R = checkEliminationThenReordering(
      programTraceset(O, D), programTraceset(T, D));
  EXPECT_NE(R.Verdict, CheckVerdict::Holds);
}

TEST(CheckReordering, RoachMotelIntoLockHolds) {
  // R-WL's semantics: x:=1 moves after the lock.
  Program O = parseOrDie("thread { x := 1; lock m; print 0; unlock m; }");
  Program T = parseOrDie("thread { lock m; x := 1; print 0; unlock m; }");
  std::vector<Value> D = {0, 1};
  TransformCheckResult R = checkEliminationThenReordering(
      programTraceset(O, D), programTraceset(T, D));
  EXPECT_EQ(R.Verdict, CheckVerdict::Holds)
      << "counterexample: " << R.Counterexample.str();
}

TEST(CheckReordering, EscapingTheLockFails) {
  // The reverse roach-motel — moving the write *out* in front of the lock
  // — is not a reordering (acquires move across nothing).
  Program O = parseOrDie("thread { lock m; x := 1; print 0; unlock m; }");
  Program T = parseOrDie("thread { x := 1; lock m; print 0; unlock m; }");
  std::vector<Value> D = {0, 1};
  TransformCheckResult R = checkEliminationThenReordering(
      programTraceset(O, D), programTraceset(T, D));
  EXPECT_NE(R.Verdict, CheckVerdict::Holds);
}

TEST(CheckReordering, PureReorderingHoldsWhenPrefixesExist) {
  // A hand-built traceset containing the needed de-permuted prefix: the
  // pure (no-elimination) reordering relation then holds.
  SymbolId X = Symbol::intern("x"), Y = Symbol::intern("y");
  Traceset T({0, 1});
  T.insert(Trace{Action::mkStart(0), Action::mkWrite(X, 1),
                 Action::mkWrite(Y, 1)});
  T.insert(Trace{Action::mkStart(0), Action::mkWrite(Y, 1)}); // The prefix.
  Traceset TPrime({0, 1});
  TPrime.insert(Trace{Action::mkStart(0), Action::mkWrite(Y, 1),
                      Action::mkWrite(X, 1)});
  EXPECT_EQ(checkReordering(T, TPrime).Verdict, CheckVerdict::Holds);
}

TEST(CheckReordering, TruncationYieldsUnknown) {
  Program O = parseOrDie("thread { x := 1; y := 2; print 3; }");
  Program T = parseOrDie("thread { y := 2; x := 1; print 3; }");
  std::vector<Value> D = {0, 1, 2, 3};
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/1,
                      /*MaxMemoryBytes=*/0});
  ReorderingSearchLimits Tight;
  Tight.Shared = &B;
  TransformCheckResult R = checkEliminationThenReordering(
      programTraceset(O, D), programTraceset(T, D), {}, Tight);
  EXPECT_EQ(R.Verdict, CheckVerdict::Unknown);
  EXPECT_EQ(B.reason(), TruncationReason::StateCap);
}

TEST(CheckReordering, UnlockDeferredAfterWriteHolds) {
  // R-UW's semantics: unlock m; x:=1  ->  x:=1; unlock m.
  Program O = parseOrDie("thread { lock m; print 0; unlock m; x := 1; }");
  Program T = parseOrDie("thread { lock m; print 0; x := 1; unlock m; }");
  std::vector<Value> D = {0, 1};
  TransformCheckResult R = checkEliminationThenReordering(
      programTraceset(O, D), programTraceset(T, D));
  EXPECT_EQ(R.Verdict, CheckVerdict::Holds)
      << "counterexample: " << R.Counterexample.str();
}

} // namespace
