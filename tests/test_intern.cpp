//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for span interning and the sleep-set memo: idempotence,
/// collision safety, real-byte budget charging, dense insertion-order ids
/// across table growth, and the subset-prune rule.
///
//===----------------------------------------------------------------------===//

#include "support/Intern.h"

#include <gtest/gtest.h>

#include <vector>

using namespace tracesafe;

namespace {

TEST(InternPool, FirstInsertThenHit) {
  InternPool P;
  uint64_t W[] = {1, 2, 3};
  InternPool::Result A = P.intern(W, 3);
  EXPECT_TRUE(A.Inserted);
  InternPool::Result B = P.intern(W, 3);
  EXPECT_FALSE(B.Inserted);
  EXPECT_EQ(A.Id, B.Id);
  EXPECT_EQ(P.size(), 1u);
}

TEST(InternPool, DistinctSpansDistinctIds) {
  InternPool P;
  uint64_t A[] = {1, 2, 3};
  uint64_t B[] = {1, 2, 4};
  uint64_t C[] = {1, 2};
  uint32_t Ia = P.intern(A, 3).Id;
  uint32_t Ib = P.intern(B, 3).Id;
  uint32_t Ic = P.intern(C, 2).Id;
  EXPECT_NE(Ia, Ib);
  EXPECT_NE(Ia, Ic);
  EXPECT_NE(Ib, Ic);
  EXPECT_EQ(P.size(), 3u);
}

TEST(InternPool, EmptySpanInterns) {
  // The root state of the POR search interns an empty sleep signature.
  InternPool P;
  InternPool::Result A = P.intern(nullptr, 0);
  EXPECT_TRUE(A.Inserted);
  InternPool::Result B = P.intern(nullptr, 0);
  EXPECT_FALSE(B.Inserted);
  EXPECT_EQ(A.Id, B.Id);
  auto [Ptr, Len] = P.view(A.Id);
  EXPECT_EQ(Len, 0u);
  (void)Ptr;
}

TEST(InternPool, ViewRoundTrips) {
  InternPool P;
  std::vector<uint64_t> W = {42, 0, ~0ULL, 7};
  uint32_t Id = P.intern(W.data(), W.size()).Id;
  auto [Ptr, Len] = P.view(Id);
  ASSERT_EQ(Len, W.size());
  for (size_t I = 0; I < W.size(); ++I)
    EXPECT_EQ(Ptr[I], W[I]);
}

TEST(InternPool, ViewStaysValidAcrossGrowth) {
  InternPool P;
  uint64_t First[] = {0xABCDEF};
  uint32_t Id = P.intern(First, 1).Id;
  const uint64_t *Before = P.view(Id).first;
  // Force many arena chunks and table rehashes.
  for (uint64_t I = 0; I < 50'000; ++I) {
    uint64_t W[] = {I, I * 3, I * 7};
    P.intern(W, 3);
  }
  auto [After, Len] = P.view(Id);
  EXPECT_EQ(After, Before) << "arena chunks must never move";
  ASSERT_EQ(Len, 1u);
  EXPECT_EQ(After[0], 0xABCDEFu);
}

TEST(InternPool, IdsAreDenseInInsertionOrder) {
  // The engines' visit counts and charged bytes follow from ids being the
  // insertion index, through every table growth.
  InternPool P;
  for (uint64_t I = 0; I < 5'000; ++I) {
    uint64_t W[] = {I * 0x9E3779B97F4A7C15ULL, I};
    InternPool::Result R = P.intern(W, 2);
    ASSERT_TRUE(R.Inserted);
    ASSERT_EQ(R.Id, I);
  }
  for (uint64_t I = 0; I < 5'000; ++I) {
    uint64_t W[] = {I * 0x9E3779B97F4A7C15ULL, I};
    InternPool::Result R = P.intern(W, 2);
    ASSERT_FALSE(R.Inserted);
    ASSERT_EQ(R.Id, I);
  }
}

TEST(InternPool, ChargesRealBytesToBudget) {
  BudgetSpec Spec;
  Spec.MaxMemoryBytes = 64 * 1024 * 1024;
  Budget B(Spec);
  InternPool P(&B);
  for (uint64_t I = 0; I < 10'000; ++I) {
    uint64_t W[] = {I, I + 1};
    P.intern(W, 2);
  }
  // The pool must have charged at least its span storage (2 words x 10k
  // spans), and its own accounting must agree with a sane lower bound.
  EXPECT_GE(P.bytes(), 10'000u * 2 * sizeof(uint64_t));
  EXPECT_FALSE(B.exhausted());
}

TEST(InternPool, BudgetExhaustionIsFlaggedNotFatal) {
  BudgetSpec Spec;
  Spec.MaxMemoryBytes = 16 * 1024; // far less than 100k spans need
  Budget B(Spec);
  InternPool P(&B);
  for (uint64_t I = 0; I < 100'000; ++I) {
    uint64_t W[] = {I, I ^ 0x5555, I << 7};
    P.intern(W, 3);
  }
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.reason(), TruncationReason::MemoryCap);
  // The pool itself stays coherent after exhaustion.
  uint64_t W[] = {1, 0x5554, 1ULL << 7};
  EXPECT_FALSE(P.intern(W, 3).Inserted);
}

TEST(SleepMemo, SubsetPruneRule) {
  InternPool Sigs;
  SleepMemo Memo(Sigs);
  uint64_t E1[] = {10};
  uint64_t E12[] = {10, 20};
  uint64_t E2[] = {20};
  uint32_t S1 = Sigs.intern(E1, 1).Id;
  uint32_t S12 = Sigs.intern(E12, 2).Id;
  uint32_t S2 = Sigs.intern(E2, 1).Id;
  uint32_t SEmpty = Sigs.intern(nullptr, 0).Id;

  // First visit with {10,20} explores.
  EXPECT_TRUE(Memo.shouldExplore(/*StateId=*/7, S12));
  // Revisit with a superset-or-equal sleep is covered: {10,20} ⊆ {10,20}.
  EXPECT_FALSE(Memo.shouldExplore(7, S12));
  // Smaller sleep {10} allows MORE transitions -> must re-explore.
  EXPECT_TRUE(Memo.shouldExplore(7, S1));
  // Now {10} is recorded; {10,20} is a superset -> covered.
  EXPECT_FALSE(Memo.shouldExplore(7, S12));
  // {20} is not a superset of {10} -> explore.
  EXPECT_TRUE(Memo.shouldExplore(7, S2));
  // Empty sleep is a subset of nothing recorded except itself -> explore,
  // and afterwards it dominates everything.
  EXPECT_TRUE(Memo.shouldExplore(7, SEmpty));
  EXPECT_FALSE(Memo.shouldExplore(7, S1));
  EXPECT_FALSE(Memo.shouldExplore(7, S2));
  EXPECT_FALSE(Memo.shouldExplore(7, S12));
  EXPECT_FALSE(Memo.shouldExplore(7, SEmpty));

  // Distinct states do not interfere.
  EXPECT_TRUE(Memo.shouldExplore(8, S12));
}

TEST(SleepMemo, RecordsSurviveTableGrowth) {
  InternPool Sigs;
  SleepMemo Memo(Sigs);
  uint64_t W[] = {5};
  uint32_t Sig = Sigs.intern(W, 1).Id;
  for (uint32_t S = 0; S < 5'000; ++S)
    ASSERT_TRUE(Memo.shouldExplore(S, Sig)) << "state " << S;
  for (uint32_t S = 0; S < 5'000; ++S)
    ASSERT_FALSE(Memo.shouldExplore(S, Sig)) << "state " << S;
}

} // namespace
