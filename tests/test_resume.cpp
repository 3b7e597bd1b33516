//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for crash-safe resumable fuzz campaigns: the checkpoint journal
/// (torn tails and mid-file corruption included), cancellation
/// mid-campaign, and the headline guarantee — a killed and resumed
/// campaign produces a byte-identical canonical report to an
/// uninterrupted run of the same (seed, programs) campaign.
///
//===----------------------------------------------------------------------===//

#include "verify/Fuzz.h"

#include "support/Crc32.h"
#include "support/FieldCodec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace tracesafe;

namespace {

/// Small, fast campaign exercising injection (so failure records cross the
/// journal too) but not thin air (traceset builds dominate runtime).
FuzzOptions campaign(const std::string &Journal) {
  FuzzOptions Options;
  Options.Seed = 20260807;
  Options.Programs = 24;
  Options.CheckThinAir = false;
  Options.InjectUnsafe = true;
  Options.InjectEvery = 3;
  Options.CheckpointPath = Journal;
  // Byte-identity across runs must not hinge on the wall clock: under a
  // loaded machine (parallel ctest) a 200ms query deadline can fire in
  // one run and not the other, changing the Unknown counts. Visit caps are
  // deterministic; keep only those.
  Options.Budget.DeadlineMs = 0;
  return Options;
}

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "tracesafe_" + Name + "_" +
         std::to_string(::getpid()) + ".journal";
}

std::string slurp(const std::string &Path) {
  std::ifstream Is(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(Is), {});
}

TEST(Resume, ResumedCampaignMatchesUninterruptedByteForByte) {
  std::string Journal = tempPath("resume_basic");
  std::remove(Journal.c_str());

  FuzzOptions Base = campaign(/*Journal=*/"");
  FuzzReport Want = runFuzz(Base);
  ASSERT_EQ(Want.ProgramsRun, Base.Programs);

  // Cut the campaign short mid-flight via cancellation. The exact cut
  // point is scheduling-dependent (anywhere from 0 to all 24 indices) —
  // byte-identity of the merged report must hold for every cut point.
  CancelToken Cancel;
  FuzzOptions Cut = campaign(Journal);
  Cut.Cancel = &Cancel;
  std::thread Watchdog([&Cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Cancel.request();
  });
  FuzzReport Partial = runFuzz(Cut);
  Watchdog.join();
  ASSERT_LE(Partial.ProgramsRun, Base.Programs);

  FuzzOptions Rest = campaign(Journal);
  Rest.Resume = true;
  FuzzReport Merged = runFuzz(Rest);
  EXPECT_EQ(Merged.ProgramsRun, Base.Programs);
  EXPECT_EQ(Merged.SkippedFromCheckpoint, Partial.ProgramsRun);
  EXPECT_EQ(Merged.toJson(/*IncludeVolatile=*/false),
            Want.toJson(/*IncludeVolatile=*/false));
  std::remove(Journal.c_str());
}

/// One checkpoint record framing \p Payload, as the format defines it.
std::string frameRecord(const std::string &Payload) {
  return encodeRecord(CheckpointFormat, Payload, {},
                      crc32(Payload.data(), Payload.size()));
}

/// Start offset of every record in the journal image \p Data.
std::vector<size_t> recordOffsets(const std::string &Data) {
  std::vector<size_t> Out;
  scanRecords(Data, CheckpointFormat, [&](std::string_view P) {
    Out.push_back(static_cast<size_t>(P.data() - Data.data()) -
                  RecordHeaderSize);
  });
  return Out;
}

TEST(Resume, TornTailAndGarbageRecordsAreDiscarded) {
  std::string Journal = tempPath("resume_torn");
  std::remove(Journal.c_str());

  FuzzOptions Full = campaign(Journal);
  FuzzReport Want = runFuzz(Full);
  ASSERT_EQ(Want.ProgramsRun, Full.Programs);

  // Well-framed records the loader must skip (a payload that is not an
  // index record, an out-of-range index), then a record torn mid-payload
  // as a crash mid-append leaves it. Nothing re-runs (every index is
  // already committed); the point is that the tail does not corrupt the
  // merge.
  std::string OutOfRange;
  putU8(OutOfRange, 'I');
  putU64(OutOfRange, 9999); // index, then six counters and no failures
  for (int I = 0; I < 3; ++I)
    putU64(OutOfRange, 1);
  putU8(OutOfRange, 0);
  putU64(OutOfRange, 0);
  putU64(OutOfRange, 0);
  putU32(OutOfRange, 0);
  std::string Torn = frameRecord(std::string(64, 'I'));
  {
    std::ofstream Os(Journal, std::ios::binary | std::ios::app);
    Os << frameRecord("this is not a journal record")
       << frameRecord(OutOfRange) << Torn.substr(0, Torn.size() - 9);
  }
  FuzzOptions Rest = campaign(Journal);
  Rest.Resume = true;
  FuzzReport Merged = runFuzz(Rest);
  EXPECT_EQ(Merged.ProgramsRun, Full.Programs);
  EXPECT_EQ(Merged.SkippedFromCheckpoint, Full.Programs);
  EXPECT_EQ(Merged.toJson(false), Want.toJson(false));
  // The resumed writer truncated the torn record: the journal reads whole.
  RecordScan S = readRecordLog(Journal, CheckpointFormat, nullptr);
  EXPECT_FALSE(S.torn());
  std::remove(Journal.c_str());
}

TEST(Resume, AFlippedByteMidJournalReplaysNothingFromThereOn) {
  std::string Journal = tempPath("resume_flip");
  std::remove(Journal.c_str());

  FuzzOptions Full = campaign(Journal);
  FuzzReport Want = runFuzz(Full);
  ASSERT_EQ(Want.ProgramsRun, Full.Programs);

  // Record 0 names the campaign; flip a byte inside the payload of the
  // third index record (record 3).
  std::string Data = slurp(Journal);
  std::vector<size_t> Offsets = recordOffsets(Data);
  ASSERT_EQ(Offsets.size(), 1 + Full.Programs);
  size_t Victim = Offsets[3] + RecordHeaderSize + 5;
  Data[Victim] = static_cast<char>(Data[Victim] ^ 0x10);
  {
    std::ofstream Os(Journal, std::ios::binary | std::ios::trunc);
    Os << Data;
  }

  FuzzOptions Rest = campaign(Journal);
  Rest.Resume = true;
  FuzzReport Merged = runFuzz(Rest);
  EXPECT_EQ(Merged.SkippedFromCheckpoint, 2u)
      << "only the index records before the corrupt one replay";
  EXPECT_EQ(Merged.ProgramsRun, Full.Programs);
  EXPECT_EQ(Merged.toJson(false), Want.toJson(false));
  std::remove(Journal.c_str());
}

TEST(Resume, MismatchedHeaderDiscardsTheJournal) {
  std::string Journal = tempPath("resume_mismatch");
  std::remove(Journal.c_str());

  FuzzOptions First = campaign(Journal);
  FuzzReport Want = runFuzz(First);
  ASSERT_EQ(Want.ProgramsRun, First.Programs);

  // Same path, different seed: the journal describes another campaign and
  // every index must be re-run from scratch.
  FuzzOptions Other = campaign(Journal);
  Other.Seed = First.Seed + 1;
  Other.Resume = true;
  FuzzReport Fresh = runFuzz(Other);
  EXPECT_EQ(Fresh.SkippedFromCheckpoint, 0u);
  EXPECT_EQ(Fresh.ProgramsRun, Other.Programs);
  std::remove(Journal.c_str());
}

TEST(Resume, FullyJournaledCampaignReplaysWithoutRunning) {
  std::string Journal = tempPath("resume_replay");
  std::remove(Journal.c_str());

  FuzzOptions Full = campaign(Journal);
  FuzzReport Want = runFuzz(Full);

  FuzzOptions Replay = campaign(Journal);
  Replay.Resume = true;
  auto Start = std::chrono::steady_clock::now();
  FuzzReport Got = runFuzz(Replay);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  EXPECT_EQ(Got.SkippedFromCheckpoint, Full.Programs);
  EXPECT_EQ(Got.toJson(false), Want.toJson(false));
  // A pure replay merges records instead of re-verifying ~50 queries.
  EXPECT_LT(Ms, 5'000);
  std::remove(Journal.c_str());
}

TEST(Resume, CancelledReportSaysSo) {
  std::string Journal = tempPath("resume_cancelflag");
  std::remove(Journal.c_str());
  CancelToken Cancel;
  Cancel.request(); // cancelled before the campaign starts
  FuzzOptions Options = campaign(Journal);
  Options.Cancel = &Cancel;
  FuzzReport Report = runFuzz(Options);
  EXPECT_TRUE(Report.Cancelled);
  EXPECT_EQ(Report.ProgramsRun, 0u);
  // Volatile form carries the lifecycle fields; canonical form does not.
  EXPECT_NE(Report.toJson(true).find("\"cancelled\""), std::string::npos);
  EXPECT_EQ(Report.toJson(false).find("\"cancelled\""), std::string::npos);
  std::remove(Journal.c_str());
}

TEST(Resume, ParallelAndSequentialCampaignsAgree) {
  FuzzOptions Seq = campaign("");
  FuzzOptions Par = campaign("");
  Par.Jobs = 4;
  FuzzReport A = runFuzz(Seq);
  FuzzReport B = runFuzz(Par);
  EXPECT_EQ(A.toJson(false), B.toJson(false));
}

} // namespace
