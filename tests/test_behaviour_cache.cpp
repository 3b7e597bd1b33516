//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the cross-query BehaviourCache: correctness of hits, warmth
/// invariance (a hit replays the original cost against the current
/// budget, so caps fire exactly where recomputation would have), fault
/// transparency (injected cache faults degrade to recomputation, never to
/// a changed answer), and the completeness rule (truncated results are
/// not cached).
///
//===----------------------------------------------------------------------===//

#include "verify/BehaviourCache.h"

#include "lang/Parser.h"
#include "support/Failure.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

Program sbProgram() {
  return parseOrDie(R"(
thread { x := 1; r1 := y; print r1; }
thread { y := 1; r2 := x; print r2; }
)");
}

TEST(BehaviourCache, SecondLookupHitsAndReturnsTheSameTraceset) {
  BehaviourCache Cache;
  Program P = sbProgram();
  std::vector<Value> Domain{0, 1};
  ExploreLimits L;
  auto A = Cache.tracesetFor(P, Domain, L);
  auto B = Cache.tracesetFor(P, Domain, L);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->traces(), B->traces());
  BehaviourCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.TracesetMisses, 1u);
  EXPECT_EQ(S.TracesetHits, 1u);
}

TEST(BehaviourCache, HitMatchesRecomputation) {
  BehaviourCache Cache;
  Program P = sbProgram();
  std::vector<Value> Domain{0, 1};
  ExploreLimits EL;
  auto T = Cache.tracesetFor(P, Domain, EL);
  ASSERT_TRUE(T);
  EnumerationLimits L;
  std::set<Behaviour> Cold = Cache.behavioursFor(*T, L);
  std::set<Behaviour> Warm = Cache.behavioursFor(*T, L);
  EXPECT_EQ(Cold, collectBehaviours(*T, L));
  EXPECT_EQ(Warm, Cold);
  EXPECT_EQ(Cache.stats().BehaviourHits, 1u);
}

TEST(BehaviourCache, WarmHitChargesTheBudgetLikeRecomputation) {
  BehaviourCache Cache;
  Program P = sbProgram();
  std::vector<Value> Domain{0, 1};

  // Cold run under a budget: record what a real computation charges.
  Budget Cold(BudgetSpec{});
  ExploreLimits L1;
  L1.Shared = &Cold;
  ASSERT_TRUE(Cache.tracesetFor(P, Domain, L1));
  uint64_t ColdVisits = Cold.visited();
  EXPECT_GT(ColdVisits, 0u);

  // Warm run under a fresh budget: the replay must charge the same visits.
  Budget Warm(BudgetSpec{});
  ExploreLimits L2;
  L2.Shared = &Warm;
  ASSERT_TRUE(Cache.tracesetFor(P, Domain, L2));
  EXPECT_EQ(Warm.visited(), ColdVisits);
  EXPECT_EQ(Cache.stats().TracesetHits, 1u);
}

TEST(BehaviourCache, WarmHitUnderTightBudgetReportsTruncation) {
  // Warmth invariance for verdicts: if recomputation would have exhausted
  // the budget, a hit must report the same exhaustion instead of handing
  // out a free complete answer.
  BehaviourCache Cache;
  Program P = sbProgram();
  std::vector<Value> Domain{0, 1};
  ExploreLimits L;
  ExploreStats Stats;
  ASSERT_TRUE(Cache.tracesetFor(P, Domain, L, &Stats));
  ASSERT_FALSE(Stats.Truncated);

  Budget Tight(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/1,
                          /*MaxMemoryBytes=*/0});
  ExploreLimits LT;
  LT.Shared = &Tight;
  ExploreStats WarmStats;
  auto T = Cache.tracesetFor(P, Domain, LT, &WarmStats);
  ASSERT_TRUE(T);
  EXPECT_TRUE(WarmStats.Truncated);
  EXPECT_EQ(WarmStats.Reason, TruncationReason::StateCap);
  EXPECT_TRUE(Tight.exhausted());
}

TEST(BehaviourCache, TruncatedResultsAreNotCached) {
  BehaviourCache Cache;
  Program P = sbProgram();
  std::vector<Value> Domain{0, 1};
  Budget Tiny(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/2,
                         /*MaxMemoryBytes=*/0});
  ExploreLimits L;
  L.Shared = &Tiny;
  ExploreStats Stats;
  Cache.tracesetFor(P, Domain, L, &Stats);
  EXPECT_TRUE(Stats.Truncated);
  BehaviourCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.TracesetMisses, 1u);
  EXPECT_EQ(S.Bytes, 0u) << "a partial traceset must not be cached";

  // A later unconstrained query recomputes from scratch (another miss),
  // and only then does the complete result enter the cache.
  ExploreLimits Free;
  ASSERT_TRUE(Cache.tracesetFor(P, Domain, Free));
  S = Cache.stats();
  EXPECT_EQ(S.TracesetMisses, 2u);
  EXPECT_GT(S.Bytes, 0u);
}

TEST(BehaviourCache, InjectedFaultsDegradeToMissesNotWrongAnswers) {
  Program P = sbProgram();
  std::vector<Value> Domain{0, 1};
  ExploreLimits L;

  BehaviourCache Clean;
  auto Want = Clean.tracesetFor(P, Domain, L);
  ASSERT_TRUE(Want);

  BehaviourCache Faulty;
  FaultPlan Plan;
  // Fire on every probe: both the lookup and the insert of both calls.
  Plan.arm(FaultSite::BehaviourCache, /*FireAt=*/1, /*Repeat=*/100);
  {
    FaultPlan::Scope Armed(Plan);
    auto A = Faulty.tracesetFor(P, Domain, L);
    auto B = Faulty.tracesetFor(P, Domain, L);
    ASSERT_TRUE(A && B);
    EXPECT_EQ(A->traces(), Want->traces());
    EXPECT_EQ(B->traces(), Want->traces());
  }
  BehaviourCache::CacheStats S = Faulty.stats();
  EXPECT_GT(S.Faults, 0u);
  EXPECT_EQ(S.TracesetHits, 0u) << "faulted lookups must degrade to misses";
  EXPECT_GT(Plan.totalFired(), 0u);
}

TEST(BehaviourCache, OverflowClearsAndKeepsAnswering) {
  // A cache too small for any entry evicts on every insert but must stay
  // correct.
  BehaviourCache Tiny(/*MaxBytes=*/1);
  Program P = sbProgram();
  std::vector<Value> Domain{0, 1};
  ExploreLimits L;
  auto A = Tiny.tracesetFor(P, Domain, L);
  auto B = Tiny.tracesetFor(P, Domain, L);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->traces(), B->traces());
  EXPECT_EQ(Tiny.stats().TracesetHits, 0u);
}

TEST(BehaviourCache, SegmentedLruEvictsColdProbationBeforeWarmEntries) {
  Program P = sbProgram();
  ExploreLimits L;

  // Measure per-entry footprints with an unbounded probe cache: entries
  // keyed on three distinct domains, near-identical sizes.
  uint64_t BytesA, BytesB;
  {
    BehaviourCache Probe;
    ASSERT_TRUE(Probe.tracesetFor(P, {0, 1}, L));
    BytesA = Probe.stats().Bytes;
    ASSERT_TRUE(Probe.tracesetFor(P, {0, 2}, L));
    BytesB = Probe.stats().Bytes - BytesA;
    ASSERT_GT(BytesA, 0u);
    ASSERT_GT(BytesB, 0u);
  }

  // A cache that holds exactly A and B. Insert both, then *touch* A so it
  // is promoted to the protected segment; inserting C must evict the
  // probation tail (B), never the re-used A.
  BehaviourCache Cache(BytesA + BytesB);
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, L)); // A: miss, probation
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 2}, L)); // B: miss, probation
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, L)); // A: hit -> protected
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 3}, L)); // C: miss, evicts B

  BehaviourCache::CacheStats S = Cache.stats();
  EXPECT_GE(S.Evictions, 1u);
  EXPECT_EQ(S.Clears, 0u) << "overflow must evict entries, not clear";

  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, L)); // A must still be warm
  EXPECT_EQ(Cache.stats().TracesetHits, 2u);
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 2}, L)); // B was the victim
  EXPECT_EQ(Cache.stats().TracesetMisses, 4u);
}

TEST(BehaviourCache, ScanTrafficDoesNotFlushTheWarmSet) {
  Program P = sbProgram();
  ExploreLimits L;
  uint64_t OneEntry;
  {
    BehaviourCache Probe;
    ASSERT_TRUE(Probe.tracesetFor(P, {0, 1}, L));
    OneEntry = Probe.stats().Bytes;
  }

  // Room for roughly three entries. A is inserted and re-used (protected);
  // a stream of one-shot lookups then washes through probation.
  BehaviourCache Cache(3 * OneEntry + OneEntry / 2);
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, L));
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, L)); // promote A
  for (Value V = 2; V <= 9; ++V)
    ASSERT_TRUE(Cache.tracesetFor(P, {0, V}, L)); // scan: seen once each

  BehaviourCache::CacheStats Before = Cache.stats();
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, L));
  BehaviourCache::CacheStats After = Cache.stats();
  EXPECT_EQ(After.TracesetHits, Before.TracesetHits + 1)
      << "the scan must not have evicted the re-used entry";
  EXPECT_GE(After.Evictions, 1u);
}

TEST(BehaviourCache, WarmthInvarianceSurvivesEviction) {
  // The cost-replay property must hold whether an answer comes from the
  // cache or is recomputed after its entry was evicted: the budget sees
  // the same visit charge either way.
  Program P = sbProgram();
  ExploreLimits Plain;
  uint64_t OneEntry;
  {
    BehaviourCache Probe;
    ASSERT_TRUE(Probe.tracesetFor(P, {0, 1}, Plain));
    OneEntry = Probe.stats().Bytes;
  }

  BehaviourCache Cache(OneEntry + OneEntry / 2); // holds one entry
  Budget Cold(BudgetSpec{});
  ExploreLimits L1;
  L1.Shared = &Cold;
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, L1));
  uint64_t ColdVisits = Cold.visited();

  // Evict it by inserting an unrelated entry, then re-query under a fresh
  // budget: recomputation must charge exactly the cold cost again.
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 2}, Plain));
  Budget Again(BudgetSpec{});
  ExploreLimits L2;
  L2.Shared = &Again;
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, L2));
  EXPECT_EQ(Again.visited(), ColdVisits);
}

//===----------------------------------------------------------------------===//
// DRF verdict caching (drfFor)
//===----------------------------------------------------------------------===//

Program drfProgram() {
  return parseOrDie(R"(
thread { sync m { x := 1; x := 2; } }
thread { sync m { r0 := x; } print r0; }
)");
}

TEST(BehaviourCache, DrfWarmHitIsByteIdenticalAndReplaysCost) {
  // A cached race verdict must be indistinguishable from recomputation:
  // same kind, same witness, and the same visit charge against the
  // caller's budget (warmth invariance).
  BehaviourCache Cache;
  Program P = sbProgram();
  ExploreLimits EL;
  auto T = Cache.tracesetFor(P, {0, 1}, EL);
  ASSERT_TRUE(T);

  Budget Cold(BudgetSpec{});
  EnumerationLimits L1;
  L1.Shared = &Cold;
  Verdict<Interleaving> A = Cache.drfFor(*T, L1);
  ASSERT_TRUE(A.isRefuted());
  uint64_t ColdVisits = Cold.visited();
  EXPECT_GT(ColdVisits, 0u);

  Budget Warm(BudgetSpec{});
  EnumerationLimits L2;
  L2.Shared = &Warm;
  Verdict<Interleaving> B = Cache.drfFor(*T, L2);
  ASSERT_TRUE(B.isRefuted());
  EXPECT_EQ(B.Witness->str(), A.Witness->str());
  EXPECT_EQ(Warm.visited(), ColdVisits);
  BehaviourCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.DrfMisses, 1u);
  EXPECT_EQ(S.DrfHits, 1u);
}

TEST(BehaviourCache, DrfProvedVerdictsCacheToo) {
  BehaviourCache Cache;
  Program P = drfProgram();
  ExploreLimits EL;
  auto T = Cache.tracesetFor(P, {0, 1, 2}, EL);
  ASSERT_TRUE(T);
  EnumerationLimits L;
  EXPECT_TRUE(Cache.drfFor(*T, L).isProved());
  EXPECT_TRUE(Cache.drfFor(*T, L).isProved());
  EXPECT_EQ(Cache.stats().DrfHits, 1u);
}

TEST(BehaviourCache, DrfWarmHitUnderTightBudgetStaysUnknown) {
  // If recomputation would have exhausted this query's budget before
  // reaching the verdict, the hit must report the same exhaustion — no
  // free answers for warm callers.
  BehaviourCache Cache;
  Program P = sbProgram();
  ExploreLimits EL;
  auto T = Cache.tracesetFor(P, {0, 1}, EL);
  ASSERT_TRUE(T);
  EnumerationLimits L;
  ASSERT_TRUE(Cache.drfFor(*T, L).isRefuted()); // cold, cached

  Budget Tight(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/1,
                          /*MaxMemoryBytes=*/0});
  EnumerationLimits LT;
  LT.Shared = &Tight;
  Verdict<Interleaving> V = Cache.drfFor(*T, LT);
  EXPECT_TRUE(V.isUnknown());
  EXPECT_EQ(V.Reason, TruncationReason::StateCap);
  EXPECT_TRUE(Tight.exhausted());
  EXPECT_EQ(Cache.stats().DrfHits, 1u) << "the truncated reply was a hit";
}

TEST(BehaviourCache, DrfUnknownVerdictsAreNotCached) {
  // An Unknown is an artefact of one query's budget; the next query with
  // headroom must recompute and only then populate the cache.
  BehaviourCache Cache;
  Program P = drfProgram();
  ExploreLimits EL;
  auto T = Cache.tracesetFor(P, {0, 1, 2}, EL);
  ASSERT_TRUE(T);

  Budget Tiny(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/2,
                         /*MaxMemoryBytes=*/0});
  EnumerationLimits LT;
  LT.Shared = &Tiny;
  EXPECT_TRUE(Cache.drfFor(*T, LT).isUnknown());

  EnumerationLimits Free;
  EXPECT_TRUE(Cache.drfFor(*T, Free).isProved());
  BehaviourCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.DrfMisses, 2u);
  EXPECT_EQ(S.DrfHits, 0u);
}

TEST(BehaviourCache, DrfInjectedFaultsDegradeToMissesNotWrongAnswers) {
  BehaviourCache Cache;
  Program P = sbProgram();
  ExploreLimits EL;
  auto T = Cache.tracesetFor(P, {0, 1}, EL);
  ASSERT_TRUE(T);
  EnumerationLimits L;
  Verdict<Interleaving> Want = Cache.drfFor(*T, L);
  ASSERT_TRUE(Want.isRefuted());

  BehaviourCache Faulty;
  auto T2 = Faulty.tracesetFor(P, {0, 1}, EL);
  ASSERT_TRUE(T2);
  FaultPlan Plan;
  Plan.arm(FaultSite::BehaviourCache, /*FireAt=*/1, /*Repeat=*/100);
  {
    FaultPlan::Scope Armed(Plan);
    Verdict<Interleaving> A = Faulty.drfFor(*T2, L);
    Verdict<Interleaving> B = Faulty.drfFor(*T2, L);
    ASSERT_TRUE(A.isRefuted());
    ASSERT_TRUE(B.isRefuted());
    EXPECT_EQ(A.Witness->str(), Want.Witness->str());
    EXPECT_EQ(B.Witness->str(), Want.Witness->str());
  }
  BehaviourCache::CacheStats S = Faulty.stats();
  EXPECT_GT(S.Faults, 0u);
  EXPECT_EQ(S.DrfHits, 0u) << "faulted lookups must degrade to misses";
}

//===----------------------------------------------------------------------===//
// Whole-query verdict caching (queryFor / insertQuery) — the persistable
// family behind the daemon's memoisation plane.
//===----------------------------------------------------------------------===//

BehaviourCache::CachedQuery sampleVerdict() {
  BehaviourCache::CachedQuery E;
  E.Kind = VerdictKind::Refuted;
  E.Reason = TruncationReason::None;
  E.Detail = "race on g0";
  E.CostVisits = 1234;
  E.CostBytes = 5678;
  return E;
}

TEST(BehaviourCache, QueryHitReplaysVerbatimAndChargesTheRecordedCost) {
  BehaviourCache Cache;
  Cache.insertQuery("key-a", sampleVerdict());

  Budget B(BudgetSpec{});
  std::optional<BehaviourCache::CachedQuery> Hit =
      Cache.queryFor("key-a", &B);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Kind, VerdictKind::Refuted);
  EXPECT_EQ(Hit->Reason, TruncationReason::None);
  EXPECT_EQ(Hit->Detail, "race on g0");
  // Warmth invariance: the hit charges exactly what the recorded
  // computation charged.
  EXPECT_EQ(B.visited(), 1234u);
  EXPECT_EQ(B.chargedBytes(), 5678u);
  BehaviourCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.QueryHits, 1u);
  EXPECT_EQ(S.QueryMisses, 0u);

  EXPECT_FALSE(Cache.queryFor("key-absent", &B).has_value());
  EXPECT_EQ(Cache.stats().QueryMisses, 1u);
}

TEST(BehaviourCache, QueryHitUnderTightBudgetDegradesToUnknown) {
  // A budget too small for the cost replay is a budget the cold
  // computation would have exhausted before its verdict: the hit must
  // report that exhaustion (with no Detail leak), not a free answer.
  BehaviourCache Cache;
  Cache.insertQuery("key-a", sampleVerdict());

  Budget Tight(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/10,
                          /*MaxMemoryBytes=*/0});
  std::optional<BehaviourCache::CachedQuery> Hit =
      Cache.queryFor("key-a", &Tight);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Kind, VerdictKind::Unknown);
  EXPECT_EQ(Hit->Reason, TruncationReason::StateCap);
  EXPECT_TRUE(Hit->Detail.empty());
  EXPECT_TRUE(Tight.exhausted());

  // The stored entry is untouched: a roomy budget still gets the verdict.
  Budget Roomy(BudgetSpec{});
  Hit = Cache.queryFor("key-a", &Roomy);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Kind, VerdictKind::Refuted);
  EXPECT_EQ(Hit->Detail, "race on g0");
}

TEST(BehaviourCache, UnknownQueryVerdictsAreNeverStored) {
  BehaviourCache Cache;
  BehaviourCache::CachedQuery E = sampleVerdict();
  E.Kind = VerdictKind::Unknown;
  Cache.insertQuery("key-u", E);
  Budget B(BudgetSpec{});
  EXPECT_FALSE(Cache.queryFor("key-u", &B).has_value());
  EXPECT_EQ(Cache.stats().Bytes, 0u);
}

TEST(BehaviourCache, QueryFaultsDegradeToMissesAndSkippedInserts) {
  BehaviourCache Cache;
  Cache.insertQuery("key-a", sampleVerdict());
  FaultPlan Plan;
  Plan.arm(FaultSite::BehaviourCache, /*FireAt=*/1, /*Repeat=*/100);
  {
    FaultPlan::Scope Armed(Plan);
    Budget B(BudgetSpec{});
    EXPECT_FALSE(Cache.queryFor("key-a", &B).has_value())
        << "a faulted lookup must degrade to a miss";
    EXPECT_EQ(B.visited(), 0u) << "a degraded miss must not charge";
    Cache.insertQuery("key-b", sampleVerdict()); // skipped, contained
  }
  EXPECT_GT(Cache.stats().Faults, 0u);
  Budget B(BudgetSpec{});
  EXPECT_TRUE(Cache.queryFor("key-a", &B).has_value())
      << "the entry must survive the faulted window";
  EXPECT_FALSE(Cache.queryFor("key-b", &B).has_value())
      << "the faulted insert must have been skipped";
}

TEST(BehaviourCache, PersistSinkFiresOncePerFreshInsertOnly) {
  BehaviourCache Cache;
  std::vector<std::string> Spilled;
  Cache.setPersistSink(
      [&](const std::string &Key, const BehaviourCache::CachedQuery &E) {
        EXPECT_EQ(E.Detail, "race on g0");
        Spilled.push_back(Key);
      });
  Cache.insertQuery("key-a", sampleVerdict());            // fresh: spills
  Cache.insertQuery("key-a", sampleVerdict());            // dup: silent
  Cache.insertQuery("key-b", sampleVerdict(), /*Notify=*/false); // loader
  ASSERT_EQ(Spilled.size(), 1u);
  EXPECT_EQ(Spilled[0], "key-a");
  Budget B(BudgetSpec{});
  EXPECT_TRUE(Cache.queryFor("key-b", &B).has_value())
      << "Notify=false must still insert";
  Cache.setPersistSink(nullptr);
  Cache.insertQuery("key-c", sampleVerdict());
  EXPECT_EQ(Spilled.size(), 1u) << "a removed sink must not fire";
}

TEST(BehaviourCache, QueryEntriesEvictUnderTheSharedByteCap) {
  BehaviourCache Cache;
  uint64_t OneEntry;
  {
    BehaviourCache Probe;
    Probe.insertQuery("size-probe", sampleVerdict());
    OneEntry = Probe.stats().Bytes;
    ASSERT_GT(OneEntry, 0u);
  }
  Cache.setCapacity(2 * OneEntry + OneEntry / 2); // room for two
  for (int I = 0; I < 8; ++I)
    Cache.insertQuery("key-" + std::to_string(I), sampleVerdict());
  BehaviourCache::CacheStats S = Cache.stats();
  EXPECT_GE(S.Evictions, 1u);
  EXPECT_LE(S.Bytes, 2 * OneEntry + OneEntry / 2);
  // Shrinking the cap evicts immediately.
  Cache.setCapacity(1);
  EXPECT_EQ(Cache.stats().Bytes, 0u);
}

TEST(BehaviourCache, KeysSeparateDomainsAndLimits) {
  BehaviourCache Cache;
  Program P = sbProgram();
  ExploreLimits L;
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, L));
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1, 2}, L));
  ExploreLimits Shorter;
  Shorter.MaxActions = 3;
  ASSERT_TRUE(Cache.tracesetFor(P, {0, 1}, Shorter));
  BehaviourCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.TracesetMisses, 3u)
      << "different domains/limits must not collide";
  EXPECT_EQ(S.TracesetHits, 0u);
}

} // namespace
