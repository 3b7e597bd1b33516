//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the streaming race detector: the TSRL log format's
/// valid-prefix robustness (torn tails, flipped bits, garbage headers,
/// unknown records), the happens-before semantics of the vector-clock
/// engines (locks, release joins, fork/join, read sharing), equivalence
/// of the epoch engine with the full-vector-clock oracle, determinism
/// across shard/worker configurations, budget discipline, and the
/// RaceDetect fault-injection site's containment contract.
///
//===----------------------------------------------------------------------===//

#include "racelog/Detect.h"
#include "racelog/Log.h"
#include "racelog/Synth.h"
#include "support/Crc32.h"
#include "support/Failure.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

using namespace tracesafe;
using namespace tracesafe::racelog;

namespace {

std::string makeLog(const std::vector<LogEvent> &Events,
                    size_t PerBlock = DefaultEventsPerBlock) {
  LogWriter W(PerBlock);
  for (const LogEvent &E : Events)
    W.append(E);
  return W.finish();
}

LogEvent rd(uint32_t T, uint64_t A) { return {Op::Read, T, 0, A}; }
LogEvent wr(uint32_t T, uint64_t A) { return {Op::Write, T, 0, A}; }
LogEvent acq(uint32_t T, uint64_t L) { return {Op::Acquire, T, 0, L}; }
LogEvent rel(uint32_t T, uint64_t L) { return {Op::Release, T, 0, L}; }
LogEvent fork(uint32_t T, uint32_t U) { return {Op::Fork, T, U, 0}; }
LogEvent join(uint32_t T, uint32_t U) { return {Op::Join, T, U, 0}; }

/// (Addr, EventIndex, Tid, Write) — the engine-independent projection of a
/// race report (PrevTid may legitimately differ between the epoch engine
/// and the oracle when a location has several candidate prior accesses).
using RaceKey = std::tuple<uint64_t, uint64_t, uint32_t, bool>;
std::vector<RaceKey> keys(const RaceLogReport &R) {
  std::vector<RaceKey> Out;
  for (const RaceRecord &Rec : R.Races)
    Out.push_back({Rec.Addr, Rec.EventIndex, Rec.Tid, Rec.Write});
  return Out;
}

//===----------------------------------------------------------------------===//
// Format: codec and valid-prefix robustness
//===----------------------------------------------------------------------===//

TEST(RaceLogFormat, RoundTripMultiBlock) {
  std::vector<LogEvent> In;
  for (uint32_t I = 0; I < 1000; ++I) {
    In.push_back(rd(I % 7, 100 + I % 13));
    In.push_back(wr(I % 5, 200 + I % 11));
    In.push_back(acq(I % 3, 8));
    In.push_back(rel(I % 3, 8));
    In.push_back(fork(0, 1 + I % 9));
  }
  std::string Log = makeLog(In, /*PerBlock=*/64);
  std::vector<LogEvent> Out;
  DecodedLog D;
  ASSERT_TRUE(decodeLog(Log, Out, &D));
  EXPECT_FALSE(D.TornTail);
  EXPECT_GT(D.Blocks, 70u);
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ(Out[I].Kind, In[I].Kind);
    EXPECT_EQ(Out[I].Tid, In[I].Tid);
    EXPECT_EQ(Out[I].Target, In[I].Target);
    EXPECT_EQ(Out[I].Addr, In[I].Addr);
  }
}

TEST(RaceLogFormat, EmptyAndGarbageAndShortHeaders) {
  std::vector<LogEvent> Sink;
  DecodedLog D;
  EXPECT_FALSE(decodeLog("", Sink, &D));
  EXPECT_EQ(D.Error, "empty file (no header)");
  EXPECT_FALSE(decodeLog("TSRL", Sink, &D)); // shorter than the header
  EXPECT_EQ(D.Error, "short file header");
  EXPECT_FALSE(decodeLog(std::string(64, 'x'), Sink, &D));
  EXPECT_EQ(D.Error, "bad file magic (not a TSRL log)");
  std::string Wrong = makeLog({});
  Wrong[4] = 9; // future format version
  EXPECT_FALSE(decodeLog(Wrong, Sink, &D));
  EXPECT_EQ(D.Error, "unsupported format version");

  // And the scanner agrees: an unusable header is Unknown, not a crash.
  RaceLogReport R = scanRaceLog(std::string(64, 'x'));
  EXPECT_FALSE(R.FormatOk);
  EXPECT_EQ(R.verdict(), VerdictKind::Unknown);
}

TEST(RaceLogFormat, HeaderOnlyLogIsValidAndRaceFree) {
  std::string Log = makeLog({});
  EXPECT_EQ(Log.size(), FileHeaderSize);
  RaceLogReport R = scanRaceLog(Log);
  EXPECT_TRUE(R.FormatOk);
  EXPECT_EQ(R.Stats.Events, 0u);
  EXPECT_EQ(R.verdict(), VerdictKind::Proved);
}

TEST(RaceLogFormat, TruncatedTailIsDroppedPrefixIsKept) {
  std::vector<LogEvent> In;
  for (uint32_t I = 0; I < 300; ++I)
    In.push_back(wr(0, I));
  std::string Log = makeLog(In, /*PerBlock=*/100);
  // Chop mid-way through the last block's payload (a crashed recorder).
  std::string Torn = Log.substr(0, Log.size() - 37);
  std::vector<LogEvent> Out;
  DecodedLog D;
  ASSERT_TRUE(decodeLog(Torn, Out, &D));
  EXPECT_TRUE(D.TornTail);
  EXPECT_EQ(Out.size(), 200u); // two intact blocks
  EXPECT_EQ(D.DroppedBytes, BlockHeaderSize + 100 * EventRecordSize - 37);

  RaceLogReport R = scanRaceLog(Torn);
  EXPECT_TRUE(R.FormatOk);
  EXPECT_TRUE(R.Stats.TornTail);
  EXPECT_EQ(R.Stats.Events, 200u);
  EXPECT_EQ(R.Stats.DroppedBytes, D.DroppedBytes);
  // Race-free prefix + torn tail: no definitive Proved.
  EXPECT_EQ(R.verdict(), VerdictKind::Unknown);
}

TEST(RaceLogFormat, FlippedBitFailsTheBlockCrc) {
  std::vector<LogEvent> In;
  for (uint32_t I = 0; I < 300; ++I)
    In.push_back(wr(0, I));
  std::string Log = makeLog(In, /*PerBlock=*/100);
  // Flip one payload bit in the *middle* block.
  size_t SecondPayload =
      FileHeaderSize + 2 * BlockHeaderSize + 100 * EventRecordSize + 40;
  std::string Bad = Log;
  Bad[SecondPayload] = static_cast<char>(Bad[SecondPayload] ^ 0x10);
  std::vector<LogEvent> Out;
  DecodedLog D;
  ASSERT_TRUE(decodeLog(Bad, Out, &D));
  EXPECT_TRUE(D.TornTail);
  EXPECT_EQ(Out.size(), 100u); // only the first block survives
  EXPECT_EQ(D.Blocks, 1u);
}

TEST(RaceLogFormat, UnknownRecordInsideValidBlockDropsTheTail) {
  std::vector<LogEvent> In;
  for (uint32_t I = 0; I < 200; ++I)
    In.push_back(rd(1, I));
  std::string Log = makeLog(In, /*PerBlock=*/100);
  // Corrupt a record *and* fix up the CRC: a "future recorder" wrote an op
  // this reader does not know. CRC passes; decode must still reject.
  size_t PayloadOff = FileHeaderSize + BlockHeaderSize;
  std::string Bad = Log;
  Bad[PayloadOff + 16 * 5] = 99; // invalid op byte in record 5, block 1
  uint32_t Crc = crc32(Bad.data() + PayloadOff, 100 * EventRecordSize);
  std::memcpy(Bad.data() + FileHeaderSize + 12, &Crc, 4);
  std::vector<LogEvent> Out;
  DecodedLog D;
  ASSERT_TRUE(decodeLog(Bad, Out, &D));
  EXPECT_TRUE(D.TornTail);
  EXPECT_EQ(Out.size(), 0u); // the whole containing block is dropped
  EXPECT_EQ(D.Blocks, 0u);

  RaceLogReport R = scanRaceLog(Bad);
  EXPECT_TRUE(R.Stats.TornTail);
  EXPECT_EQ(R.Stats.Events, 0u);
}

TEST(RaceLogFormat, WriterNeverSplitsARecordAcrossBlocks) {
  std::string Log = makeLog({wr(0, 1), wr(0, 2), wr(0, 3)}, /*PerBlock=*/2);
  BlockCursor Cur(Log);
  ASSERT_TRUE(Cur.ok());
  EXPECT_EQ(Cur.nextPayload().size(), 2 * EventRecordSize);
  EXPECT_EQ(Cur.nextPayload().size(), 1 * EventRecordSize);
  EXPECT_TRUE(Cur.nextPayload().empty());
  EXPECT_FALSE(Cur.tornTail());
}

//===----------------------------------------------------------------------===//
// Detection semantics
//===----------------------------------------------------------------------===//

TEST(RaceLogDetect, UnsynchronisedConflictIsARace) {
  RaceLogReport R = scanRaceLog(makeLog({wr(0, 7), wr(1, 7)}));
  ASSERT_EQ(R.Races.size(), 1u);
  EXPECT_EQ(R.Races[0].Addr, 7u);
  EXPECT_EQ(R.Races[0].EventIndex, 1u);
  EXPECT_EQ(R.Races[0].Tid, 1u);
  EXPECT_EQ(R.Races[0].PrevTid, 0u);
  EXPECT_TRUE(R.Races[0].Write);
  EXPECT_TRUE(R.Races[0].PrevWrite);
  EXPECT_EQ(R.Stats.RacyLocations, 1u);
  EXPECT_EQ(R.verdict(), VerdictKind::Refuted);

  // Read-write and write-read flavours.
  RaceLogReport RW = scanRaceLog(makeLog({rd(0, 7), wr(1, 7)}));
  ASSERT_EQ(RW.Races.size(), 1u);
  EXPECT_TRUE(RW.Races[0].Write);
  EXPECT_FALSE(RW.Races[0].PrevWrite);
  RaceLogReport WR = scanRaceLog(makeLog({wr(0, 7), rd(1, 7)}));
  ASSERT_EQ(WR.Races.size(), 1u);
  EXPECT_FALSE(WR.Races[0].Write);
  EXPECT_TRUE(WR.Races[0].PrevWrite);
}

TEST(RaceLogDetect, ReadsNeverConflictAndSameThreadIsOrdered) {
  EXPECT_EQ(scanRaceLog(makeLog({rd(0, 7), rd(1, 7), rd(2, 7), rd(0, 7)}))
                .verdict(),
            VerdictKind::Proved);
  EXPECT_EQ(
      scanRaceLog(makeLog({wr(0, 7), rd(0, 7), wr(0, 7)})).verdict(),
      VerdictKind::Proved);
}

TEST(RaceLogDetect, LockDisciplineOrdersAccesses) {
  std::vector<LogEvent> Good = {acq(0, 2), wr(0, 7), rel(0, 2),
                                acq(1, 2), wr(1, 7), rel(1, 2)};
  EXPECT_EQ(scanRaceLog(makeLog(Good)).verdict(), VerdictKind::Proved);
  // Different locks do not synchronise.
  std::vector<LogEvent> Bad = {acq(0, 2), wr(0, 7), rel(0, 2),
                               acq(1, 4), wr(1, 7), rel(1, 4)};
  EXPECT_EQ(scanRaceLog(makeLog(Bad)).verdict(), VerdictKind::Refuted);
}

TEST(RaceLogDetect, ReleaseJoinsEveryEarlierRelease) {
  // This repo's §3 happens-before relates *any* earlier release of a lock
  // id to a later acquire (volatiles are modelled this way), so the lock
  // clock must accumulate both releasers — an overwrite-style release
  // would lose t0's and flag a false race on x.
  std::vector<LogEvent> L = {wr(0, 100), rel(0, 2), wr(1, 101), rel(1, 2),
                             acq(2, 2),  wr(2, 100), wr(2, 101)};
  EXPECT_EQ(scanRaceLog(makeLog(L)).verdict(), VerdictKind::Proved);
}

TEST(RaceLogDetect, ForkAndJoinEdges) {
  // Parent writes, forks child, child writes: ordered.
  EXPECT_EQ(scanRaceLog(makeLog({wr(0, 7), fork(0, 1), wr(1, 7)}))
                .verdict(),
            VerdictKind::Proved);
  // Child writes, parent joins it, parent writes: ordered.
  EXPECT_EQ(scanRaceLog(makeLog({wr(1, 7), join(0, 1), wr(0, 7)}))
                .verdict(),
            VerdictKind::Proved);
  // No edge: the same accesses race.
  EXPECT_EQ(scanRaceLog(makeLog({wr(0, 7), wr(1, 7)})).verdict(),
            VerdictKind::Refuted);
  // The fork edge is one-directional: the parent's *later* writes are not
  // ordered with the child.
  EXPECT_EQ(scanRaceLog(makeLog({fork(0, 1), wr(0, 7), wr(1, 7)}))
                .verdict(),
            VerdictKind::Refuted);
}

TEST(RaceLogDetect, ConcurrentReadersSpillAndAreCheckedOnWrite) {
  // Two unordered readers, then a write ordered after only one of them.
  std::vector<LogEvent> L = {rd(0, 7), rd(1, 7), rel(1, 2), acq(2, 2),
                             wr(2, 7)};
  RaceLogReport R = scanRaceLog(makeLog(L));
  ASSERT_EQ(R.Races.size(), 1u);
  EXPECT_EQ(R.Races[0].EventIndex, 4u);
  EXPECT_EQ(R.Races[0].PrevTid, 0u); // the reader the write misses
  EXPECT_FALSE(R.Races[0].PrevWrite);
  EXPECT_GE(R.Stats.ReadShares, 1u);

  // Ordered after both: race-free, and the spill collapses back.
  std::vector<LogEvent> Ok = {rd(0, 7), rel(0, 2), rd(1, 7), rel(1, 3),
                              acq(2, 2), acq(2, 3), wr(2, 7), rd(2, 7),
                              wr(2, 7)};
  EXPECT_EQ(scanRaceLog(makeLog(Ok)).verdict(), VerdictKind::Proved);
}

TEST(RaceLogDetect, FirstRacePerLocationAndExactRacyCount) {
  std::vector<LogEvent> L;
  for (uint32_t A = 0; A < 10; ++A) {
    L.push_back(wr(0, 1000 + A));
    L.push_back(wr(1, 1000 + A)); // race; later accesses don't re-report
    L.push_back(wr(2, 1000 + A));
  }
  RaceLogOptions O;
  O.MaxRaces = 4;
  RaceLogReport R = scanRaceLog(makeLog(L), O);
  EXPECT_EQ(R.Races.size(), 4u);            // capped
  EXPECT_EQ(R.Stats.RacyLocations, 10u);    // exact
  for (size_t I = 0; I < R.Races.size(); ++I) {
    EXPECT_EQ(R.Races[I].Addr, 1000 + I);
    EXPECT_EQ(R.Races[I].EventIndex, 3 * I + 1); // the *second* access
  }
}

//===----------------------------------------------------------------------===//
// Engine equivalence
//===----------------------------------------------------------------------===//

RaceLogReport scanCfg(const std::string &Log, bool Epochs) {
  RaceLogOptions O;
  O.Epochs = Epochs;
  O.MaxRaces = 1 << 20;
  return scanRaceLog(Log, O);
}

TEST(RaceLogEngines, EpochAndOracleAgreeOnSynthWorkloads) {
  SynthOptions S;
  S.Events = 40000;
  S.Threads = 12;
  S.Locations = 512;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    S.Seed = Seed;
    for (const std::string &Log :
         {makeRaceFreeLog(S), makeMixedLog(S), makeLockHeavyLog(S)}) {
      RaceLogReport E = scanCfg(Log, /*Epochs=*/true);
      RaceLogReport V = scanCfg(Log, /*Epochs=*/false);
      EXPECT_EQ(keys(E), keys(V));
      EXPECT_EQ(E.Stats.RacyLocations, V.Stats.RacyLocations);
      EXPECT_EQ(E.Stats.Events, V.Stats.Events);
      EXPECT_EQ(E.verdict(), V.verdict());
    }
  }
}

TEST(RaceLogEngines, SynthMixesHaveTheAdvertisedRaceProfile) {
  SynthOptions S;
  S.Events = 30000;
  S.Threads = 8;
  S.Seed = 7;
  EXPECT_EQ(scanRaceLog(makeRaceFreeLog(S)).verdict(), VerdictKind::Proved);
  EXPECT_EQ(scanRaceLog(makeLockHeavyLog(S)).verdict(),
            VerdictKind::Proved);
  RaceLogReport M = scanRaceLog(makeMixedLog(S));
  EXPECT_EQ(M.verdict(), VerdictKind::Refuted);
  EXPECT_GT(M.Stats.RacyLocations, 0u);
}

//===----------------------------------------------------------------------===//
// Budget discipline
//===----------------------------------------------------------------------===//

TEST(RaceLogBudget, VisitCapTruncatesAndVisitedIsDeterministic) {
  SynthOptions S;
  S.Events = 20000;
  S.Seed = 3;
  std::string Log = makeMixedLog(S);
  BudgetSpec Spec;
  Spec.MaxVisited = 5000;
  std::vector<uint64_t> Seen;
  for (bool Epochs : {true, false}) {
    Budget B(Spec);
    RaceLogOptions O;
    O.Epochs = Epochs;
    O.Shared = &B;
    RaceLogReport R = scanRaceLog(Log, O);
    EXPECT_TRUE(R.Stats.Truncated);
    EXPECT_EQ(R.Stats.Reason, TruncationReason::StateCap);
    // One visit per ingested event (the final, refused charge consumes
    // one more index), so the charge stream is identical for both
    // engines — the daemon's idempotent-replay contract.
    EXPECT_EQ(R.Stats.Events + 1, B.visited());
    Seen.push_back(B.visited());
  }
  EXPECT_EQ(Seen[0], Seen[1]);
}

TEST(RaceLogBudget, UnbudgetedScanIsUnbounded) {
  SynthOptions S;
  S.Events = 5000;
  std::string Log = makeRaceFreeLog(S);
  RaceLogReport R = scanRaceLog(Log);
  EXPECT_FALSE(R.Stats.Truncated);
  EXPECT_GE(R.Stats.Events, S.Events);
}

TEST(RaceLogBudget, MemoryGrowthIsCharged) {
  SynthOptions S;
  S.Events = 20000;
  S.Locations = 4096;
  std::string Log = makeMixedLog(S);
  Budget B(BudgetSpec{});
  RaceLogOptions O;
  O.Shared = &B;
  scanRaceLog(Log, O);
  // State tables and clock spills grew; their real sizes were charged.
  EXPECT_GT(B.chargedBytes(), 0u);
}

TEST(RaceLogBudget, TailBeyondAVisitCapStopIsNotReported) {
  // Four blocks of 100 race-free writes. The fourth is either cut short
  // (a torn tail the block cursor rejects) or holds an invalid record
  // under a valid CRC (a bad-record block only validation rejects).
  std::vector<LogEvent> In;
  for (uint32_t I = 0; I < 400; ++I)
    In.push_back(wr(0, I));
  const std::string Log = makeLog(In, /*PerBlock=*/100);
  const size_t BlockBytes = BlockHeaderSize + 100 * EventRecordSize;
  const size_t Fourth = FileHeaderSize + 3 * BlockBytes;
  const std::string Torn = Log.substr(0, Log.size() - 37);
  std::string BadRecord = Log;
  BadRecord[Fourth + BlockHeaderSize + 16 * 5] = 99; // invalid op byte
  uint32_t Crc =
      crc32(BadRecord.data() + Fourth + BlockHeaderSize, 100 * EventRecordSize);
  std::memcpy(BadRecord.data() + Fourth + 12, &Crc, 4);

  struct Case {
    uint64_t MaxVisited; ///< 0 = no cap
    bool TornReported;
    bool BadRecordReported;
  };
  const Case Cases[] = {
      // The whole valid prefix is applied: the tail is reached.
      {0, true, true},
      // The cap is exactly the valid prefix: no event is refused.
      {300, true, true},
      // A stop in the last intact block. The block-by-block scan has
      // already read the torn block after it, but never validated the
      // bad-record one.
      {250, true, false},
      // A stop two blocks before the tail: neither is reached.
      {50, false, false},
  };
  for (const Case &C : Cases) {
    for (bool IsTorn : {true, false}) {
      BudgetSpec Spec;
      Spec.MaxVisited = C.MaxVisited;
      Budget B(Spec);
      RaceLogOptions O;
      O.Shared = &B;
      RaceLogReport R = scanRaceLog(IsTorn ? Torn : BadRecord, O);
      const bool Reported = IsTorn ? C.TornReported : C.BadRecordReported;
      SCOPED_TRACE(testing::Message() << "cap " << C.MaxVisited
                                      << (IsTorn ? " torn" : " bad-record"));
      EXPECT_EQ(R.Stats.TornTail, Reported);
      EXPECT_EQ(R.Stats.DroppedBytes,
                !Reported ? 0
                : IsTorn  ? BlockBytes - 37
                          : BlockBytes);
      EXPECT_EQ(R.Stats.Truncated, C.MaxVisited && C.MaxVisited < 300);
      EXPECT_EQ(R.Stats.Events,
                C.MaxVisited && C.MaxVisited < 300 ? C.MaxVisited : 300);
      EXPECT_EQ(R.str().find("torn-tail") != std::string::npos, Reported);
      EXPECT_EQ(R.verdict(), VerdictKind::Unknown);
    }
  }
}

TEST(RaceLogBudget, TableIsSizedOnce) {
  // 150k distinct addresses, each written once by one thread: race-free,
  // no read clocks, so the state table is the only memory charged.
  constexpr uint64_t Distinct = 150000;
  std::vector<LogEvent> In;
  for (uint64_t A = 0; A < Distinct; ++A)
    In.push_back(wr(0, 0x10000 + 8 * A));
  const std::string Log = makeLog(In);
  Budget B(BudgetSpec{});
  RaceLogOptions O;
  O.Shared = &B;
  RaceLogReport R = scanRaceLog(Log, O);
  EXPECT_EQ(R.verdict(), VerdictKind::Proved);
  EXPECT_EQ(R.Stats.Events, Distinct);

  // A table that starts at 4096 slots and doubles whenever its load
  // would reach 0.7 charges every table on the way.
  constexpr uint64_t SlotBytes = 32; // one per-variable slot
  uint64_t Slots = 4096, Cascade = 0;
  while (Distinct * 10 >= Slots * 7) {
    Slots *= 2;
    Cascade += Slots * SlotBytes;
  }
  EXPECT_LT(B.chargedBytes(), Cascade);
  // Sized from the log, it is charged once, at its final size.
  EXPECT_EQ(B.chargedBytes(), Slots * SlotBytes);
}

//===----------------------------------------------------------------------===//
// Fault injection: containment and exact replay
//===----------------------------------------------------------------------===//

TEST(RaceLogFault, InjectedDetectFaultIsContainedAsUnknown) {
  SynthOptions S;
  S.Events = 20000;
  std::string Log = makeRaceFreeLog(S);
  FaultPlan Plan;
  Plan.arm(FaultSite::RaceDetect, /*FireAt=*/3);
  Budget B(BudgetSpec{});
  RaceLogOptions O;
  O.Shared = &B;
  {
    FaultPlan::Scope Armed(Plan);
    RaceLogReport R = scanRaceLog(Log, O);
    EXPECT_TRUE(R.Stats.Truncated);
    EXPECT_EQ(R.Stats.Reason, TruncationReason::EngineFault);
    EXPECT_EQ(R.verdict(), VerdictKind::Unknown);
  }
  // The budget was poisoned so sibling engines of the query unwind too.
  EXPECT_EQ(B.reason(), TruncationReason::EngineFault);
  EXPECT_EQ(Plan.fired(FaultSite::RaceDetect), 1u);
  EXPECT_EQ(Plan.hits(FaultSite::RaceDetect), 3u); // fired on block 3

  // Exact replay: the same (plan, log) pair fires at the same hit.
  FaultPlan Replay;
  Replay.arm(FaultSite::RaceDetect, 3);
  {
    FaultPlan::Scope Armed(Replay);
    scanRaceLog(Log);
  }
  EXPECT_EQ(Replay.hits(FaultSite::RaceDetect), 3u);
  // And the engine is immediately reusable after containment.
  EXPECT_EQ(scanRaceLog(Log).verdict(), VerdictKind::Proved);
}

TEST(RaceLogFault, ReportStrMentionsTheOutcome) {
  EXPECT_NE(scanRaceLog(makeLog({wr(0, 7), wr(1, 7)})).str().find("races:"),
            std::string::npos);
  EXPECT_NE(scanRaceLog(makeLog({})).str().find("race-free"),
            std::string::npos);
  EXPECT_NE(scanRaceLog("garbage-not-a-log-012345").str().find("bad-log"),
            std::string::npos);
}

} // namespace
