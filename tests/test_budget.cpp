//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the unified budget/verdict layer: Budget accounting, graceful
/// truncation of the engines (no asserts, structured Unknown verdicts),
/// cancellation and poisoning.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "support/Budget.h"
#include "trace/Enumerate.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace tracesafe;

namespace {

//===----------------------------------------------------------------------===//
// Budget accounting
//===----------------------------------------------------------------------===//

TEST(Budget, UnlimitedSpecNeverExhausts) {
  Budget B((BudgetSpec()));
  for (int I = 0; I < 10'000; ++I)
    ASSERT_TRUE(B.charge(1024));
  EXPECT_FALSE(B.exhausted());
  EXPECT_EQ(B.reason(), TruncationReason::None);
  EXPECT_EQ(B.visited(), 10'000u);
}

TEST(Budget, StateCapIsStickyAndReported) {
  Budget B(BudgetSpec{0, /*MaxVisited=*/10, 0});
  for (int I = 0; I < 10; ++I)
    ASSERT_TRUE(B.charge()) << "charge " << I;
  EXPECT_FALSE(B.charge());
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.reason(), TruncationReason::StateCap);
  // Sticky: keeps failing, and stops counting.
  uint64_t Snapshot = B.visited();
  EXPECT_FALSE(B.charge());
  EXPECT_EQ(B.visited(), Snapshot);
}

TEST(Budget, MemoryCapFires) {
  Budget B(BudgetSpec{0, 0, /*MaxMemoryBytes=*/100});
  EXPECT_TRUE(B.charge(64));
  EXPECT_FALSE(B.charge(64));
  EXPECT_EQ(B.reason(), TruncationReason::MemoryCap);
}

TEST(Budget, DeadlineFires) {
  Budget B(BudgetSpec{/*DeadlineMs=*/1, 0, 0});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The clock is only consulted every 256 charges, so spin a little.
  bool Exhausted = false;
  for (int I = 0; I < 1'000 && !Exhausted; ++I)
    Exhausted = !B.charge();
  EXPECT_TRUE(Exhausted);
  EXPECT_EQ(B.reason(), TruncationReason::Deadline);
}

TEST(Budget, MergeReasonPrefersSpecific) {
  EXPECT_EQ(mergeReason(TruncationReason::None, TruncationReason::Deadline),
            TruncationReason::Deadline);
  EXPECT_EQ(mergeReason(TruncationReason::StateCap, TruncationReason::None),
            TruncationReason::StateCap);
  EXPECT_EQ(mergeReason(TruncationReason::StateCap,
                        TruncationReason::Deadline),
            TruncationReason::StateCap);
}

//===----------------------------------------------------------------------===//
// Exact charge accounting (the warmth-invariance contract)
//===----------------------------------------------------------------------===//

TEST(Budget, VisitedIsExactForAnyChargeCount) {
  // visited() is the number of charges, for any count: the BehaviourCache
  // replays it as the recorded cost of a verdict.
  for (uint64_t N : {1u, 63u, 64u, 65u, 255u, 256u, 257u, 1000u}) {
    Budget B(BudgetSpec{});
    for (uint64_t I = 0; I < N; ++I)
      ASSERT_TRUE(B.charge());
    EXPECT_EQ(B.visited(), N) << "charges=" << N;
  }
}

TEST(Budget, StateCapFiresAtTheExactCharge) {
  // With MaxVisited = 100, charges 1..100 succeed and charge 101 fails.
  BudgetSpec Spec;
  Spec.MaxVisited = 100;
  Budget B(Spec);
  for (int I = 0; I < 100; ++I)
    ASSERT_TRUE(B.charge()) << "charge " << (I + 1);
  EXPECT_FALSE(B.charge());
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.reason(), TruncationReason::StateCap);
  EXPECT_EQ(B.visited(), 101u);
}

TEST(Budget, BytesChargeHonoursMemoryCap) {
  BudgetSpec Spec;
  Spec.MaxMemoryBytes = 10'000;
  Budget B(Spec);
  int Ok = 0;
  while (B.charge(1'000) && Ok < 1'000)
    ++Ok;
  EXPECT_EQ(Ok, 10); // the 11th kilobyte breaches the cap
  EXPECT_EQ(B.reason(), TruncationReason::MemoryCap);
}

TEST(Verdict, Helpers) {
  Verdict<int> P = Verdict<int>::proved();
  EXPECT_TRUE(P.isProved());
  EXPECT_FALSE(P.Witness.has_value());

  Verdict<int> R = Verdict<int>::refuted(42);
  EXPECT_TRUE(R.isRefuted());
  ASSERT_TRUE(R.Witness.has_value());
  EXPECT_EQ(*R.Witness, 42);

  Verdict<int> U = Verdict<int>::unknown(TruncationReason::Deadline);
  EXPECT_TRUE(U.isUnknown());
  EXPECT_EQ(U.Reason, TruncationReason::Deadline);
}

//===----------------------------------------------------------------------===//
// Graceful truncation in the engines
//===----------------------------------------------------------------------===//

/// Three threads spinning on shared *volatile* flags: tiny to write down,
/// race free by construction (volatile accesses never race), and with an
/// interleaving space far beyond any small budget — the memo key includes
/// per-thread action counts, so loops multiply states combinatorially. A
/// DRF query on it can only end two ways: exhaustion of a huge search, or
/// a truncated Unknown.
Program explodingProgram() {
  return parseOrDie(R"(
volatile x, y;
thread {
  while (r0 == 0) { r0 := x; x := 1; x := 2; y := r0; r0 := y; x := 0; }
}
thread {
  while (r1 == 0) { r1 := y; y := 1; y := 2; x := r1; r1 := x; y := 0; }
}
thread {
  while (r2 == 0) { r2 := x; x := r2; r2 := y; y := r2; x := 2; y := 2; }
}
)");
}

TEST(Truncation, ProgramDrfReturnsUnknownOnStateCap) {
  Budget B(BudgetSpec{0, /*MaxVisited=*/500, 0});
  ExecLimits Limits;
  Limits.Shared = &B;
  Verdict<Interleaving> V = checkProgramDrf(explodingProgram(), Limits);
  // Pre-budget code asserted on truncation here; now it must report a
  // structured Unknown (never a Proved claim from a truncated search).
  ASSERT_TRUE(V.isUnknown());
  EXPECT_NE(V.Reason, TruncationReason::None);
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.reason(), TruncationReason::StateCap);
}

TEST(Truncation, ExplodingProgramMeetsDeadline) {
  // The acceptance bar from the robustness issue: an exploding state space
  // must come back as Unknown within (about) the configured deadline —
  // no hang, no assert, no wrong answer.
  BudgetSpec Spec{/*DeadlineMs=*/200, 0, 0};
  Budget B(Spec);
  ExecLimits Limits;
  Limits.Shared = &B;
  auto Start = std::chrono::steady_clock::now();
  Verdict<Interleaving> V = checkProgramDrf(explodingProgram(), Limits);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  ASSERT_TRUE(V.isUnknown());
  // Generous slack over the 200ms deadline: the clock is polled every 256
  // charges and CI machines wobble, but seconds would mean a hang.
  EXPECT_LT(ElapsedMs, 5'000);
  // The wall-clock deadline — not a state cap — is what stopped the query.
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.reason(), TruncationReason::Deadline);
}

TEST(Truncation, IsProgramDrfIsConservativeNotAsserting) {
  // Pre-budget code asserted !Truncated here (compiled out in release
  // builds, i.e. silently wrong). Now: false, because nothing was proved.
  Budget B(BudgetSpec{0, /*MaxVisited=*/200, 0});
  ExecLimits Limits;
  Limits.Shared = &B;
  Program P = explodingProgram();
  bool Drf = isProgramDrf(P, Limits);
  Verdict<Interleaving> V = checkProgramDrf(P, Limits);
  if (V.isUnknown()) {
    EXPECT_FALSE(Drf);
  }
}

TEST(Truncation, TracesetDrfReturnsUnknownOnTinyBudget) {
  Program P = parseOrDie("thread { r0 := x; x := 1; y := r0; }\n"
                         "thread { r1 := y; y := 1; x := r1; }");
  Traceset T = programTraceset(P, defaultDomainFor(P));
  Budget B(BudgetSpec{0, /*MaxVisited=*/3, 0});
  EnumerationLimits Limits;
  Limits.Shared = &B;
  Verdict<Interleaving> V = checkDataRaceFreedom(T, Limits);
  EXPECT_FALSE(V.isProved());
  EXPECT_FALSE(isDataRaceFree(T, Limits)); // Conservative, no assert.
}

TEST(Truncation, TracesetGenerationChargesSharedBudget) {
  Program P = parseOrDie("thread { r0 := x; x := r0; r1 := y; y := r1; }");
  Budget B(BudgetSpec{0, /*MaxVisited=*/5, 0});
  ExploreLimits Limits;
  Limits.Shared = &B;
  ExploreStats Stats;
  programTraceset(P, defaultDomainFor(P), Limits, &Stats);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.Reason, TruncationReason::StateCap);
  EXPECT_TRUE(B.exhausted());
}

TEST(Truncation, ExhaustiveRunsStillProve) {
  // Sanity: with room to breathe the same queries stay definitive.
  Program Drf = parseOrDie("thread { lock m; x := 1; unlock m; }\n"
                           "thread { lock m; r0 := x; unlock m; }");
  Budget B(BudgetSpec{/*DeadlineMs=*/10'000, 1'000'000, 0});
  ExecLimits Limits;
  Limits.Shared = &B;
  EXPECT_TRUE(checkProgramDrf(Drf, Limits).isProved());

  Program Racy = parseOrDie("thread { x := 1; }\nthread { r0 := x; }");
  Verdict<Interleaving> V = checkProgramDrf(Racy, ExecLimits{});
  ASSERT_TRUE(V.isRefuted());
  EXPECT_TRUE(V.Witness.has_value());
}

//===----------------------------------------------------------------------===//
// Cancellation and poisoning
//===----------------------------------------------------------------------===//

TEST(Budget, CancelTokenObservedWithinOneCheckInterval) {
  CancelToken Cancel;
  Cancel.request();
  Budget B(BudgetSpec{}, &Cancel);
  // The token is only consulted every 256 charges; it must stop the
  // budget no later than the first check.
  int Allowed = 0;
  while (B.charge() && Allowed < 10'000)
    ++Allowed;
  EXPECT_LT(Allowed, 256);
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.reason(), TruncationReason::Cancelled);
  // Sticky after the token is observed.
  EXPECT_FALSE(B.charge());
}

TEST(Budget, CancelTokenResetRearms) {
  CancelToken Cancel;
  Cancel.request();
  EXPECT_TRUE(Cancel.requested());
  Cancel.reset();
  EXPECT_FALSE(Cancel.requested());
  Budget B(BudgetSpec{}, &Cancel);
  for (int I = 0; I < 1'000; ++I)
    ASSERT_TRUE(B.charge());
}

TEST(Budget, ChargeBytesHonoursDeadline) {
  Budget B(BudgetSpec{/*DeadlineMs=*/1, 0, 0});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Unlike charge(), chargeBytes consults the clock on every call — a
  // memory-only growth phase must not run past the wall clock.
  EXPECT_FALSE(B.chargeBytes(64));
  EXPECT_EQ(B.reason(), TruncationReason::Deadline);
}

TEST(Budget, ChargeBytesHonoursCancellation) {
  CancelToken Cancel;
  Cancel.request();
  Budget B(BudgetSpec{}, &Cancel);
  EXPECT_FALSE(B.chargeBytes(64));
  EXPECT_EQ(B.reason(), TruncationReason::Cancelled);
}

TEST(Budget, PoisonIsStickyAndFirstWriterWins) {
  Budget B((BudgetSpec()));
  ASSERT_TRUE(B.charge());
  B.poison(TruncationReason::EngineFault);
  EXPECT_FALSE(B.charge());
  EXPECT_FALSE(B.chargeBytes(1));
  EXPECT_EQ(B.reason(), TruncationReason::EngineFault);
  B.poison(TruncationReason::Deadline); // must not overwrite
  EXPECT_EQ(B.reason(), TruncationReason::EngineFault);
}

TEST(Budget, CancelledAndEngineFaultHaveNames) {
  EXPECT_STREQ(truncationReasonName(TruncationReason::Cancelled),
               "cancelled");
  EXPECT_STREQ(truncationReasonName(TruncationReason::EngineFault),
               "engine-fault");
}

} // namespace
