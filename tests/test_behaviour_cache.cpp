//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the cross-query verdict cache (BehaviourCache): hits replay
/// the stored verdict verbatim, warmth invariance (a hit replays the
/// original cost against the current budget, so caps fire exactly where
/// recomputation would have), fault transparency (injected cache faults
/// degrade to misses and skipped inserts, never to a changed answer), the
/// completeness rule (Unknown verdicts are not stored), the persist sink,
/// and the segmented LRU under the byte cap.
///
//===----------------------------------------------------------------------===//

#include "verify/BehaviourCache.h"

#include "support/Failure.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

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

//===----------------------------------------------------------------------===//
// Segmented LRU under the byte cap.
//===----------------------------------------------------------------------===//

/// Probes \p Key without a budget.
bool hit(BehaviourCache &Cache, const std::string &Key) {
  return Cache.queryFor(Key, nullptr).has_value();
}

/// Footprint of one sampleVerdict() entry under a five-byte key.
uint64_t oneEntryBytes() {
  BehaviourCache Probe;
  Probe.insertQuery("key-p", sampleVerdict());
  return Probe.stats().Bytes;
}

TEST(BehaviourCache, OverflowClearsAndKeepsAnswering) {
  // A cache too small for any entry stores nothing but must stay
  // correct: every probe is a clean miss.
  BehaviourCache Tiny(/*MaxBytes=*/1);
  Tiny.insertQuery("key-a", sampleVerdict());
  Tiny.insertQuery("key-a", sampleVerdict());
  EXPECT_FALSE(hit(Tiny, "key-a"));
  EXPECT_FALSE(hit(Tiny, "key-a"));
  BehaviourCache::CacheStats S = Tiny.stats();
  EXPECT_EQ(S.QueryHits, 0u);
  EXPECT_EQ(S.QueryMisses, 2u);
  EXPECT_EQ(S.Bytes, 0u);
}

TEST(BehaviourCache, SegmentedLruEvictsColdProbationBeforeWarmEntries) {
  // Equal-length keys, so every entry has the same footprint.
  const uint64_t OneEntry = oneEntryBytes();
  ASSERT_GT(OneEntry, 0u);

  // A cache that holds exactly A and B. Insert both, then *touch* A so it
  // is promoted to the protected segment; inserting C must evict the
  // probation tail (B), never the re-used A.
  BehaviourCache Cache(2 * OneEntry);
  Cache.insertQuery("key-a", sampleVerdict()); // A: probation
  Cache.insertQuery("key-b", sampleVerdict()); // B: probation
  ASSERT_TRUE(hit(Cache, "key-a"));            // A: hit -> protected
  Cache.insertQuery("key-c", sampleVerdict()); // C: evicts B

  BehaviourCache::CacheStats S = Cache.stats();
  EXPECT_GE(S.Evictions, 1u);
  EXPECT_EQ(S.Clears, 0u) << "overflow must evict entries, not clear";

  EXPECT_TRUE(hit(Cache, "key-a")) << "A must still be warm";
  EXPECT_EQ(Cache.stats().QueryHits, 2u);
  EXPECT_FALSE(hit(Cache, "key-b")) << "B was the victim";
  EXPECT_TRUE(hit(Cache, "key-c"));
  EXPECT_EQ(Cache.stats().QueryMisses, 1u);
}

TEST(BehaviourCache, ScanTrafficDoesNotFlushTheWarmSet) {
  const uint64_t OneEntry = oneEntryBytes();

  // Room for roughly three entries. A is inserted and re-used (protected);
  // a stream of one-shot inserts then washes through probation.
  BehaviourCache Cache(3 * OneEntry + OneEntry / 2);
  Cache.insertQuery("key-a", sampleVerdict());
  ASSERT_TRUE(hit(Cache, "key-a")); // promote A
  for (int V = 2; V <= 9; ++V)
    Cache.insertQuery("key-" + std::to_string(V), sampleVerdict()); // scan

  BehaviourCache::CacheStats Before = Cache.stats();
  EXPECT_TRUE(hit(Cache, "key-a"));
  BehaviourCache::CacheStats After = Cache.stats();
  EXPECT_EQ(After.QueryHits, Before.QueryHits + 1)
      << "the scan must not have evicted the re-used entry";
  EXPECT_GE(After.Evictions, 1u);
}

} // namespace
