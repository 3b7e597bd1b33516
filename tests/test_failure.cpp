//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for deterministic fault injection: FaultPlan trigger semantics,
/// and — the robustness contract — every injected engine fault surfacing
/// as a contained Unknown(EngineFault) verdict, never a crash and never a
/// wrong answer, with the engines immediately reusable afterwards.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "support/Failure.h"
#include "trace/Enumerate.h"
#include "tso/BufferedEngine.h"
#include "verify/Fuzz.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

Traceset tracesetFor(const std::string &Source) {
  Program P = parseOrDie(Source);
  ExploreLimits L;
  L.MaxActions = 10;
  return programTraceset(P, defaultDomainFor(P, 2), L);
}

/// Racy two-thread program: plenty of interleavings, definitive Refuted.
const char *const RacySource = "thread { r0 := x; y := r0; x := 2; }\n"
                               "thread { r1 := y; x := 1; print r1; }\n";

/// Lock-disciplined program: definitive Proved.
const char *const DrfSource =
    "thread { sync m { x := 1; x := 2; } }\n"
    "thread { sync m { r0 := x; } print r0; }\n";

TEST(FaultPlan, FiresOnExactHitWindow) {
  FaultPlan Plan;
  Plan.arm(FaultSite::InternAlloc, /*FireAt=*/3, /*Repeat=*/2);
  // Hits 1,2 pass; 3,4 fire; 5+ pass again.
  EXPECT_FALSE(Plan.shouldFire(FaultSite::InternAlloc));
  EXPECT_FALSE(Plan.shouldFire(FaultSite::InternAlloc));
  EXPECT_TRUE(Plan.shouldFire(FaultSite::InternAlloc));
  EXPECT_TRUE(Plan.shouldFire(FaultSite::InternAlloc));
  EXPECT_FALSE(Plan.shouldFire(FaultSite::InternAlloc));
  EXPECT_EQ(Plan.hits(FaultSite::InternAlloc), 5u);
  EXPECT_EQ(Plan.fired(FaultSite::InternAlloc), 2u);
  EXPECT_EQ(Plan.totalFired(), 2u);
  // Unarmed sites never fire and do not count hits.
  EXPECT_FALSE(Plan.shouldFire(FaultSite::TaskRun));
  EXPECT_EQ(Plan.fired(FaultSite::TaskRun), 0u);
}

TEST(FaultPlan, NoPlanInstalledIsInert) {
  ASSERT_EQ(FaultPlan::active(), nullptr);
  EXPECT_FALSE(faultPoint(FaultSite::BudgetCharge));
  EXPECT_NO_THROW(faultThrowBadAlloc(FaultSite::InternAlloc));
  EXPECT_NO_THROW(faultThrowInjected(FaultSite::TaskRun));
}

TEST(FaultPlan, ScopeInstallsAndRestores) {
  FaultPlan Plan;
  Plan.arm(FaultSite::TaskRun, 1);
  {
    FaultPlan::Scope Armed(Plan);
    EXPECT_EQ(FaultPlan::active(), &Plan);
    EXPECT_THROW(faultThrowInjected(FaultSite::TaskRun), InjectedFault);
  }
  EXPECT_EQ(FaultPlan::active(), nullptr);
}

TEST(FaultPlan, RandomizeIsDeterministicAndArmsSomething) {
  FaultPlan A, B;
  A.randomize(42);
  B.randomize(42);
  EXPECT_EQ(A.describe(), B.describe());
  EXPECT_NE(A.describe(), "none");
  // Re-randomizing resets the counters.
  A.shouldFire(FaultSite::InternAlloc);
  A.randomize(43);
  EXPECT_EQ(A.hits(FaultSite::InternAlloc), 0u);
}

TEST(FaultInjection, InternAllocFaultIsContainedSequential) {
  Traceset T = tracesetFor(RacySource);
  FaultPlan Plan;
  Plan.arm(FaultSite::InternAlloc, 1); // first intern throws bad_alloc
  FaultPlan::Scope Armed(Plan);
  Verdict<Interleaving> V = checkDataRaceFreedom(T);
  EXPECT_TRUE(V.isUnknown());
  EXPECT_EQ(V.Reason, TruncationReason::EngineFault);
  EXPECT_GE(Plan.fired(FaultSite::InternAlloc), 1u);
}

TEST(FaultInjection, RepeatedInternAllocFaultIsContained) {
  Traceset T = tracesetFor(RacySource);
  FaultPlan Plan;
  Plan.arm(FaultSite::InternAlloc, 1, /*Repeat=*/1'000'000);
  FaultPlan::Scope Armed(Plan);
  Verdict<Interleaving> V = checkDataRaceFreedom(T);
  EXPECT_TRUE(V.isUnknown());
  EXPECT_EQ(V.Reason, TruncationReason::EngineFault);
}

TEST(FaultInjection, FaultedJobThreadsLoseNoCampaignIndex) {
  // fuzz --jobs runs one program at a time per job thread, and the job
  // threads claim indices from one counter. A job thread whose TaskRun
  // probe fires claims no index; the other threads and the final sweep
  // must still run every index, so the report equals the unfaulted
  // sequential one.
  FuzzOptions O;
  O.Seed = 20260807;
  O.Programs = 36;
  O.CheckThinAir = false;
  // Visit caps only: the comparison must not hinge on the wall clock.
  O.Budget.DeadlineMs = 0;
  O.Jobs = 1;
  const FuzzReport Want = runFuzz(O);
  ASSERT_EQ(Want.ProgramsRun, O.Programs);

  auto Check = [&](unsigned Jobs, uint64_t Repeat, uint64_t WantFired) {
    FaultPlan Plan;
    Plan.arm(FaultSite::TaskRun, 1, Repeat);
    FuzzReport Got;
    {
      FaultPlan::Scope Armed(Plan);
      O.Jobs = Jobs;
      Got = runFuzz(O);
    }
    EXPECT_EQ(Plan.fired(FaultSite::TaskRun), WantFired);
    EXPECT_EQ(Got.ProgramsRun, O.Programs);
    EXPECT_EQ(Got.FaultedQueries, 0u);
    EXPECT_EQ(Got.toJson(false), Want.toJson(false));
  };

  // TaskRun fires on every job thread: no thread claims an index, and the
  // sweep runs them all.
  Check(/*Jobs=*/2, /*Repeat=*/1'000'000, /*WantFired=*/2);

  // Two of three job threads fault: the third claims every index.
  Check(/*Jobs=*/3, /*Repeat=*/2, /*WantFired=*/2);
}

TEST(FaultInjection, BudgetChargeFaultPoisonsTheQuery) {
  Traceset T = tracesetFor(RacySource);
  FaultPlan Plan;
  Plan.arm(FaultSite::BudgetCharge, 1);
  FaultPlan::Scope Armed(Plan);
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/1'000'000, 0});
  EnumerationLimits L;
  L.Shared = &B;
  Verdict<Interleaving> V = checkDataRaceFreedom(T, L);
  // The interrupt check runs every 256 charges; this query is large
  // enough to reach it, so the armed fault must exhaust the budget.
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.reason(), TruncationReason::EngineFault);
  EXPECT_FALSE(V.isProved());
}

TEST(FaultInjection, EnginesAreReusableAfterAFault) {
  Traceset Racy = tracesetFor(RacySource);
  Traceset Drf = tracesetFor(DrfSource);
  {
    FaultPlan Plan;
    Plan.arm(FaultSite::InternAlloc, 1);
    FaultPlan::Scope Armed(Plan);
    (void)checkDataRaceFreedom(Racy);
  }
  // Faults disarmed: the same process answers both queries definitively.
  EXPECT_TRUE(checkDataRaceFreedom(Racy).isRefuted());
  EXPECT_TRUE(checkDataRaceFreedom(Drf).isProved());
}

TEST(FaultInjection, FaultNeverFabricatesAVerdict) {
  // A DRF traceset under persistent faults must never come back Refuted,
  // and a racy one must never come back Proved — containment turns faults
  // into Unknown, not into answers.
  Traceset Drf = tracesetFor(DrfSource);
  Traceset Racy = tracesetFor(RacySource);
  FaultPlan Plan;
  Plan.arm(FaultSite::InternAlloc, 2, /*Repeat=*/1'000'000);
  FaultPlan::Scope Armed(Plan);
  EXPECT_FALSE(checkDataRaceFreedom(Drf).isRefuted());
  EXPECT_FALSE(checkDataRaceFreedom(Racy).isProved());
}

} // namespace

//===----------------------------------------------------------------------===//
// BufferedEngine (TSO/PSO) fault sites: interning and the drain step.
// Same contract as the SC engine — contained Unknown-style truncation
// (EngineFault), never a crash, never a wrong behaviour set — plus exact
// hit-counter replay.
//===----------------------------------------------------------------------===//

TEST(BufferedFaults, InternFaultIsContainedSequential) {
  Program P = parseOrDie(RacySource);
  FaultPlan Plan;
  Plan.arm(FaultSite::BufferedIntern, 1, /*Repeat=*/1'000'000);
  FaultPlan::Scope Armed(Plan);
  TsoLimits L;
  ExecStats Stats;
  std::set<Behaviour> S = bufferedBehaviours(P, L, BufferModel::Tso, &Stats);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.Reason, TruncationReason::EngineFault);
  EXPECT_GE(Plan.fired(FaultSite::BufferedIntern), 1u);
  // The fault fires before the root state is interned, so nothing beyond
  // the engine's unconditional empty-behaviour seed survives — and a
  // truncated set is a subset of the true behaviours, never a superset.
  EXPECT_LE(S.size(), 1u);
  Plan.reset();
  std::set<Behaviour> Clean = bufferedBehaviours(P, L, BufferModel::Tso);
  for (const Behaviour &B : S)
    EXPECT_TRUE(Clean.count(B));
}

TEST(BufferedFaults, DrainFaultIsContainedSequential) {
  Program P = parseOrDie(RacySource);
  FaultPlan Plan;
  Plan.arm(FaultSite::BufferedDrain, 1, /*Repeat=*/1'000'000);
  FaultPlan::Scope Armed(Plan);
  TsoLimits L;
  ExecStats Stats;
  std::set<Behaviour> Faulted =
      bufferedBehaviours(P, L, BufferModel::Tso, &Stats);
  EXPECT_TRUE(Stats.Truncated);
  EXPECT_EQ(Stats.Reason, TruncationReason::EngineFault);
  EXPECT_GE(Plan.fired(FaultSite::BufferedDrain), 1u);
  // Never a fabricated behaviour: the faulted (truncated) set must be a
  // subset of the true one.
  TsoLimits Clean;
  std::set<Behaviour> Truth = bufferedBehaviours(P, Clean, BufferModel::Tso);
  for (const Behaviour &B : Faulted)
    EXPECT_TRUE(Truth.count(B));
}

TEST(BufferedFaults, HitCountersReplayExactlySequential) {
  // The engines are sequential and deterministic, so the per-site hit
  // counters are an exact replay coordinate: two identical runs hit each
  // site the same number of times. (This is what lets a chaos failure be
  // rerun from just (plan, seed).)
  Program P = parseOrDie(RacySource);
  auto RunOnce = [&](FaultPlan &Plan) {
    FaultPlan::Scope Armed(Plan);
    TsoLimits L;
    ExecStats Stats;
    (void)bufferedBehaviours(P, L, BufferModel::Tso, &Stats);
  };
  FaultPlan A, B;
  A.arm(FaultSite::BufferedDrain, 7, /*Repeat=*/2);
  B.arm(FaultSite::BufferedDrain, 7, /*Repeat=*/2);
  RunOnce(A);
  RunOnce(B);
  EXPECT_EQ(A.hits(FaultSite::BufferedIntern), B.hits(FaultSite::BufferedIntern));
  EXPECT_EQ(A.hits(FaultSite::BufferedDrain), B.hits(FaultSite::BufferedDrain));
  EXPECT_EQ(A.fired(FaultSite::BufferedDrain), B.fired(FaultSite::BufferedDrain));
  EXPECT_GE(A.fired(FaultSite::BufferedDrain), 1u);
}

TEST(BufferedFaults, EngineReusableAfterFault) {
  Program P = parseOrDie(RacySource);
  TsoLimits L;
  std::set<Behaviour> Before = bufferedBehaviours(P, L, BufferModel::Tso);
  {
    FaultPlan Plan;
    Plan.arm(FaultSite::BufferedIntern, 1, /*Repeat=*/1'000'000);
    FaultPlan::Scope Armed(Plan);
    ExecStats Stats;
    (void)bufferedBehaviours(P, L, BufferModel::Tso, &Stats);
    EXPECT_TRUE(Stats.Truncated);
  }
  EXPECT_EQ(bufferedBehaviours(P, L, BufferModel::Tso), Before);
}

TEST(FaultPlan, RandomizeDaemonIsDeterministicAndSeparate) {
  FaultPlan A, B;
  A.randomizeDaemon(7);
  B.randomizeDaemon(7);
  EXPECT_EQ(A.describe(), B.describe());
  EXPECT_NE(A.describe(), "none");
  // The daemon plan never arms the fuzz job-thread sites, which daemon
  // workers do not probe.
  EXPECT_FALSE(A.shouldFire(FaultSite::TaskRun));
  EXPECT_FALSE(A.shouldFire(FaultSite::TaskStall));
  // And the campaign plan stream is unchanged by the new sites (seeded
  // chaos runs replay across releases): seed 4 must arm campaign sites
  // only.
  FaultPlan C;
  C.randomize(4);
  std::string D = C.describe();
  EXPECT_EQ(D.find("proto-"), std::string::npos);
  EXPECT_EQ(D.find("buffered-"), std::string::npos);
  EXPECT_EQ(D.find("accept"), std::string::npos);
  EXPECT_EQ(D.find("admission"), std::string::npos);
}
