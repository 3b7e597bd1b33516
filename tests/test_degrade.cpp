//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for graceful degradation, on the path the daemon serves: a query
/// whose primary (interned, reduced) engines fault falls back to the seed
/// oracle engines under the remaining budget and still produces the right
/// answer; cancellation wins over retry; a faulted fallback stays Unknown;
/// and the remaining-budget arithmetic stays bounded.
///
/// The faults come from a FaultPlan arming InternAlloc on every hit: the
/// reduced engines cannot take a single step, while the oracle engines
/// never touch an InternPool. That the fallback still answers is the check
/// that it shares no engine with the primary. Race-log queries (kind 5)
/// share one scan loop between the epoch engine and its full-vector-clock
/// oracle, so their fault is RaceDetect armed for the primary's hits.
///
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"
#include "racelog/Detect.h"
#include "racelog/Synth.h"
#include "support/Failure.h"
#include "verify/BehaviourCache.h"

#include <gtest/gtest.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

const char *const RacySource = "thread { r0 := x; y := r0; x := 2; }\n"
                               "thread { r1 := y; x := 1; print r1; }\n";

const char *const DrfSource =
    "thread { sync m { x := 1; x := 2; } }\n"
    "thread { sync m { r0 := x; } print r0; }\n";

/// DrfSource with its lock elided: a racy transformation of a DRF program.
const char *const ElidedSource = "thread { x := 1; x := 2; }\n"
                                 "thread { r0 := x; print r0; }\n";

const BudgetSpec Generous{/*DeadlineMs=*/10'000, /*MaxVisited=*/5'000'000,
                          /*MaxMemoryBytes=*/256u << 20};

/// Evaluates \p K on \p Program (and \p Transformed for the pair kinds)
/// cold: a verdict cached by an earlier query would answer without ever
/// touching the faulted engines.
QueryResponse evaluateCold(QueryKind K, const char *Program,
                           const char *Transformed = "",
                           const CancelToken *Cancel = nullptr) {
  BehaviourCache::global().clear();
  QueryRequest Q;
  Q.Kind = K;
  Q.Program = Program;
  Q.Transformed = Transformed;
  return evaluateQuery(Q, Generous, Cancel);
}

/// Every intern allocation fails while this is in scope.
struct InternAllocAlwaysFails {
  InternAllocAlwaysFails() { Plan.arm(FaultSite::InternAlloc, 1, ~0ull); }
  FaultPlan Plan;
  FaultPlan::Scope Armed{Plan};
};

TEST(RemainingBudget, SubtractsUsageAndFloorsAtOne) {
  BudgetSpec Spec{/*DeadlineMs=*/10'000, /*MaxVisited=*/1'000, 0};
  Budget Used(Spec);
  for (int I = 0; I < 100; ++I)
    ASSERT_TRUE(Used.charge());
  BudgetSpec Rem = remainingBudget(Spec, Used);
  EXPECT_EQ(Rem.MaxVisited, 900u);
  EXPECT_GE(Rem.DeadlineMs, 1);
  EXPECT_LE(Rem.DeadlineMs, 10'000);

  // Fully spent: floored at 1, never 0 (0 would mean unlimited).
  Budget Spent(BudgetSpec{0, /*MaxVisited=*/50, 0});
  while (Spent.charge())
    ;
  BudgetSpec Floor = remainingBudget(BudgetSpec{0, 50, 0}, Spent);
  EXPECT_EQ(Floor.MaxVisited, 1u);

  // Unlimited fields stay unlimited.
  BudgetSpec Unlimited = remainingBudget(BudgetSpec{}, Used);
  EXPECT_EQ(Unlimited.DeadlineMs, 0);
  EXPECT_EQ(Unlimited.MaxVisited, 0u);
}

TEST(Degrade, HealthyPrimaryDoesNotFallBack) {
  QueryResponse R = evaluateCold(QueryKind::ProgramDrf, RacySource);
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_EQ(R.Kind, VerdictKind::Refuted);
  EXPECT_FALSE(R.Degraded);
}

TEST(Degrade, FaultedPrimaryFallsBackToOracleAnswer) {
  InternAllocAlwaysFails Faults;
  QueryResponse Racy = evaluateCold(QueryKind::ProgramDrf, RacySource);
  EXPECT_EQ(Racy.Kind, VerdictKind::Refuted);
  EXPECT_TRUE(Racy.Degraded);
  EXPECT_GE(Faults.Plan.fired(FaultSite::InternAlloc), 1u);

  QueryResponse Drf = evaluateCold(QueryKind::ProgramDrf, DrfSource);
  EXPECT_EQ(Drf.Kind, VerdictKind::Proved);
  EXPECT_TRUE(Drf.Degraded);
}

TEST(Degrade, FaultedPrimaryBehavioursComeFromTheOracle) {
  QueryResponse Clean = evaluateCold(QueryKind::Behaviours, RacySource);
  ASSERT_EQ(Clean.Kind, VerdictKind::Proved);
  ASSERT_FALSE(Clean.Detail.empty());

  InternAllocAlwaysFails Faults;
  QueryResponse Got = evaluateCold(QueryKind::Behaviours, RacySource);
  EXPECT_TRUE(Got.Degraded);
  EXPECT_EQ(Got.Kind, VerdictKind::Proved);
  // The faulted primary's partial set was discarded, not merged.
  EXPECT_EQ(Got.Detail, Clean.Detail);
}

TEST(Degrade, FaultedPairCheckFallsBackToOracleAnswer) {
  QueryResponse Clean =
      evaluateCold(QueryKind::DrfGuarantee, DrfSource, ElidedSource);
  ASSERT_NE(Clean.Kind, VerdictKind::Unknown);

  InternAllocAlwaysFails Faults;
  QueryResponse Got =
      evaluateCold(QueryKind::DrfGuarantee, DrfSource, ElidedSource);
  EXPECT_TRUE(Got.Degraded);
  EXPECT_EQ(Got.Kind, Clean.Kind);
  EXPECT_EQ(Got.Detail, Clean.Detail);
}

TEST(Degrade, CancellationDoesNotTriggerFallback) {
  CancelToken Cancel;
  Cancel.request(); // cancelled before the query even starts
  QueryResponse R =
      evaluateCold(QueryKind::ProgramDrf, RacySource, "", &Cancel);
  // Small query: it may finish inside one budget check interval (a real
  // answer) — but if it was cut short, the reason must be Cancelled and
  // there must be no sneaky oracle retry.
  if (R.Kind == VerdictKind::Unknown) {
    EXPECT_EQ(R.Reason, TruncationReason::Cancelled);
  }
  EXPECT_FALSE(R.Degraded);
}

TEST(Degrade, FaultedFallbackStaysUnknown) {
  // Both engines poisoned: the BudgetCharge site fires on every interrupt
  // check, so the fallback faults too — the verdict must stay
  // Unknown(EngineFault), never invent an answer.
  FaultPlan Plan;
  Plan.arm(FaultSite::BudgetCharge, 1, /*Repeat=*/~0ull);
  Plan.arm(FaultSite::InternAlloc, 1, /*Repeat=*/~0ull);
  FaultPlan::Scope Armed(Plan);
  QueryResponse R = evaluateCold(QueryKind::ProgramDrf, RacySource);
  EXPECT_TRUE(R.Degraded);
  if (R.Kind == VerdictKind::Unknown) {
    EXPECT_EQ(R.Reason, TruncationReason::EngineFault);
  } else {
    EXPECT_EQ(R.Kind, VerdictKind::Refuted); // witness before the first check
  }
}

QueryResponse evaluateRaceLog(const std::string &Log) {
  QueryRequest Q;
  Q.Kind = QueryKind::RaceLog;
  Q.Program = Log;
  return evaluateQuery(Q, Generous);
}

/// A mixed-pool race log of a few blocks: both engines find its races.
std::string smallMixedLog() {
  racelog::SynthOptions SO;
  SO.Events = 20'000;
  return racelog::makeMixedLog(SO);
}

TEST(Degrade, FaultedRaceScanFallsBackToTheOracleEngine) {
  std::string Log = smallMixedLog();
  racelog::RaceLogOptions Oracle;
  Oracle.Epochs = false;
  racelog::RaceLogReport Want = racelog::scanRaceLog(Log, Oracle);
  ASSERT_EQ(Want.verdict(), VerdictKind::Refuted);

  FaultPlan Plan;
  Plan.arm(FaultSite::RaceDetect, 1); // the primary's first block only
  FaultPlan::Scope Armed(Plan);
  QueryResponse Got = evaluateRaceLog(Log);
  EXPECT_EQ(Plan.fired(FaultSite::RaceDetect), 1u);
  EXPECT_EQ(Got.Status, ResponseStatus::Ok);
  EXPECT_TRUE(Got.Degraded);
  EXPECT_EQ(Got.Kind, Want.verdict());
  EXPECT_EQ(Got.Detail, Want.str());
}

TEST(Degrade, FaultedRaceScanFallbackStaysUnknown) {
  FaultPlan Plan;
  Plan.arm(FaultSite::RaceDetect, 1, /*Repeat=*/~0ull);
  FaultPlan::Scope Armed(Plan);
  QueryResponse R = evaluateRaceLog(smallMixedLog());
  EXPECT_EQ(Plan.fired(FaultSite::RaceDetect), 2u);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.Kind, VerdictKind::Unknown);
  EXPECT_EQ(R.Reason, TruncationReason::EngineFault);
}

} // namespace
