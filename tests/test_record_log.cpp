//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for support/RecordLog, the one on-disk record format: round trips,
/// valid-prefix reads under a torn tail at every byte offset and a flipped
/// bit in every record, refusal of foreign and short headers by a resuming
/// writer, stale-epoch restarts, records whose CRC continues a checksum
/// taken earlier, and gathered appends that write encodeRecord's bytes
/// without copying the payload, short writes included.
///
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"
#include "support/RecordLog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace tracesafe;

namespace {

constexpr RecordLogFormat TestFormat{"test log", 0x474C5354, 1, 0x524C5354,
                                     1u << 16};

struct TempFile {
  std::string Path;
  explicit TempFile(const char *Tag) {
    static std::atomic<unsigned> Counter{0};
    Path = (std::filesystem::temp_directory_path() /
            ("recordlog_test_" + std::string(Tag) + "_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(Counter.fetch_add(1)) + ".log"))
               .string();
  }
  ~TempFile() { std::remove(Path.c_str()); }
};

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

void writeAll(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

/// Payloads of different sizes, binary bytes included.
std::vector<std::string> samplePayloads() {
  std::vector<std::string> Out = {"", "a", std::string("\0\n\t\\", 4)};
  std::string Big;
  for (int I = 0; I < 300; ++I)
    Big.push_back(static_cast<char>(I * 37));
  Out.push_back(Big);
  return Out;
}

/// Writes samplePayloads() to a fresh log at \p Path.
void writeSample(const std::string &Path) {
  RecordLogWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(Path, TestFormat, RecordLogWriter::Mode::Fresh, Err))
      << Err;
  for (const std::string &P : samplePayloads())
    ASSERT_TRUE(W.append(P));
}

std::vector<std::string> collect(std::string_view Data, RecordScan &S) {
  std::vector<std::string> Out;
  S = scanRecords(Data, TestFormat,
                  [&](std::string_view P) { Out.emplace_back(P); });
  return Out;
}

TEST(RecordLog, RoundTripsPayloadsInOrder) {
  TempFile F("roundtrip");
  writeSample(F.Path);
  std::vector<std::string> Got;
  RecordScan S = readRecordLog(F.Path, TestFormat, [&](std::string_view P) {
    Got.emplace_back(P);
  });
  EXPECT_TRUE(S.HeaderOk);
  EXPECT_FALSE(S.torn());
  EXPECT_EQ(Got, samplePayloads());
  EXPECT_EQ(S.Records, Got.size());
  EXPECT_EQ(S.ValidBytes, S.TotalBytes);
  EXPECT_EQ(S.TotalBytes, readAll(F.Path).size());

  // Resuming appends after the existing records.
  RecordLogWriter W;
  std::string Err;
  std::vector<std::string> Seen;
  ASSERT_TRUE(W.open(F.Path, TestFormat, RecordLogWriter::Mode::Resume, Err,
                     [&](std::string_view P) { Seen.emplace_back(P); }))
      << Err;
  EXPECT_EQ(Seen, samplePayloads());
  ASSERT_TRUE(W.append("after"));
  W.close();
  Got.clear();
  readRecordLog(F.Path, TestFormat,
                [&](std::string_view P) { Got.emplace_back(P); });
  ASSERT_EQ(Got.size(), samplePayloads().size() + 1);
  EXPECT_EQ(Got.back(), "after");
}

TEST(RecordLog, MissingAndEmptyFilesAreEmptyLogs) {
  TempFile F("missing");
  RecordScan S = readRecordLog(F.Path, TestFormat, nullptr);
  EXPECT_TRUE(S.HeaderOk);
  EXPECT_EQ(S.Records, 0u);
  EXPECT_EQ(S.TotalBytes, 0u);
  writeAll(F.Path, "");
  RecordLogWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(F.Path, TestFormat, RecordLogWriter::Mode::Resume, Err))
      << Err;
  W.close();
  EXPECT_EQ(readAll(F.Path).size(), RecordLogHeaderSize)
      << "an empty file resumes as a fresh log";
}

TEST(RecordLog, TornTailAtEveryOffsetOfTheLastRecordKeepsThePrefix) {
  TempFile F("torn");
  writeSample(F.Path);
  const std::string Full = readAll(F.Path);
  const std::vector<std::string> Want = samplePayloads();
  const size_t LastStart =
      Full.size() - RecordHeaderSize - Want.back().size();
  for (size_t Cut = LastStart; Cut < Full.size(); ++Cut) {
    RecordScan S;
    std::vector<std::string> Got =
        collect(std::string_view(Full).substr(0, Cut), S);
    ASSERT_TRUE(S.HeaderOk);
    EXPECT_EQ(Got, std::vector<std::string>(Want.begin(), Want.end() - 1))
        << "cut at " << Cut;
    EXPECT_EQ(S.ValidBytes, LastStart);
    EXPECT_EQ(S.torn(), Cut > LastStart);

    // A resuming writer truncates the tail and appends on the prefix.
    writeAll(F.Path, Full.substr(0, Cut));
    RecordLogWriter W;
    std::string Err;
    ASSERT_TRUE(
        W.open(F.Path, TestFormat, RecordLogWriter::Mode::Resume, Err))
        << Err;
    ASSERT_TRUE(W.append("next"));
    W.close();
    Got.clear();
    S = readRecordLog(F.Path, TestFormat,
                      [&](std::string_view P) { Got.emplace_back(P); });
    EXPECT_FALSE(S.torn()) << "cut at " << Cut;
    ASSERT_EQ(Got.size(), Want.size());
    EXPECT_EQ(Got.back(), "next");
  }
}

TEST(RecordLog, AFlippedBitStopsTheReadAtItsRecord) {
  TempFile F("flip");
  writeSample(F.Path);
  const std::string Full = readAll(F.Path);
  const std::vector<std::string> Want = samplePayloads();
  // Start offset of every record.
  std::vector<size_t> Starts;
  size_t Off = RecordLogHeaderSize;
  for (const std::string &P : Want) {
    Starts.push_back(Off);
    Off += RecordHeaderSize + P.size();
  }
  ASSERT_EQ(Off, Full.size());
  for (size_t R = 0; R < Want.size(); ++R) {
    size_t End = R + 1 < Starts.size() ? Starts[R + 1] : Full.size();
    for (size_t Byte = Starts[R]; Byte < End; ++Byte) {
      // A record header's last word is written zero and never checked.
      if (Byte >= Starts[R] + 12 && Byte < Starts[R] + RecordHeaderSize)
        continue;
      for (int Bit = 0; Bit < 8; Bit += 3) {
        std::string Bad = Full;
        Bad[Byte] = static_cast<char>(Bad[Byte] ^ (1 << Bit));
        RecordScan S;
        std::vector<std::string> Got = collect(Bad, S);
        ASSERT_EQ(Got, std::vector<std::string>(Want.begin(),
                                                Want.begin() + R))
            << "record " << R << " byte " << Byte << " bit " << Bit;
        EXPECT_EQ(S.ValidBytes, Starts[R]);
        EXPECT_TRUE(S.torn());
      }
    }
  }
}

TEST(RecordLog, ResumeRefusesForeignAndShortHeaders) {
  TempFile F("foreign");
  std::string Valid;
  {
    writeSample(F.Path);
    Valid = readAll(F.Path);
  }
  std::string WrongMagic = Valid;
  WrongMagic[0] ^= 1;
  std::string WrongVersion = Valid;
  WrongVersion[4] = 2;
  const std::string Cases[] = {
      "H\t1\ttracesafed\nA\tclient\t1\t1\t0\t0\t0\tprogram\t\t0\t0\n",
      WrongMagic, WrongVersion, Valid.substr(0, 1),
      Valid.substr(0, RecordLogHeaderSize - 1)};
  for (const std::string &Bytes : Cases) {
    writeAll(F.Path, Bytes);
    RecordScan S = readRecordLog(F.Path, TestFormat, nullptr);
    EXPECT_FALSE(S.HeaderOk);
    EXPECT_FALSE(S.Error.empty());
    RecordLogWriter W;
    std::string Err;
    EXPECT_FALSE(
        W.open(F.Path, TestFormat, RecordLogWriter::Mode::Resume, Err));
    EXPECT_NE(Err.find(F.Path), std::string::npos) << "error names the file";
    EXPECT_FALSE(W.isOpen());
    EXPECT_EQ(readAll(F.Path), Bytes) << "refusal leaves the file untouched";
  }
  // Fresh mode starts over whatever is there.
  RecordLogWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(F.Path, TestFormat, RecordLogWriter::Mode::Fresh, Err));
  W.close();
  RecordScan S = readRecordLog(F.Path, TestFormat, nullptr);
  EXPECT_TRUE(S.HeaderOk);
  EXPECT_EQ(S.Records, 0u);
}

TEST(RecordLog, AStaleEpochLoadsNothingAndResumeRestartsIt) {
  TempFile F("epoch");
  writeSample(F.Path);
  RecordLogFormat Next = TestFormat;
  Next.Epoch = 7;
  unsigned Visited = 0;
  RecordScan S =
      readRecordLog(F.Path, Next, [&](std::string_view) { ++Visited; });
  EXPECT_TRUE(S.HeaderOk);
  EXPECT_TRUE(S.Stale);
  EXPECT_FALSE(S.torn());
  EXPECT_EQ(S.Epoch, 0u);
  EXPECT_EQ(Visited, 0u);

  RecordLogWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(F.Path, Next, RecordLogWriter::Mode::Resume, Err,
                     [&](std::string_view) { ++Visited; }))
      << Err;
  ASSERT_TRUE(W.append("epoch 7"));
  W.close();
  EXPECT_EQ(Visited, 0u);
  std::vector<std::string> Got;
  S = readRecordLog(F.Path, Next,
                    [&](std::string_view P) { Got.emplace_back(P); });
  EXPECT_FALSE(S.Stale);
  EXPECT_EQ(S.Epoch, 7u);
  EXPECT_EQ(Got, std::vector<std::string>{"epoch 7"});
}

TEST(RecordLog, AContinuedCrcFramesTheSameRecord) {
  const std::string Head(100000, 'h'), Tail = "trailer";
  uint32_t Crc = crc32(Tail.data(), Tail.size(),
                       crc32(Head.data(), Head.size()));
  std::string Rec = encodeRecord(TestFormat, Head, Tail, Crc);
  RecordLogFormat Wide = TestFormat;
  Wide.MaxPayload = 1u << 20;
  std::string Log(RecordLogHeaderSize, '\0');
  Log[0] = 'T';
  Log[1] = 'S';
  Log[2] = 'L';
  Log[3] = 'G';
  Log[4] = 1;
  Log += Rec;
  std::vector<std::string> Got;
  RecordScan S = scanRecords(
      Log, Wide, [&](std::string_view P) { Got.emplace_back(P); });
  ASSERT_TRUE(S.HeaderOk) << S.Error;
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0], Head + Tail);
  // Oversized against the format's bound: the read stops there.
  S = scanRecords(Log, TestFormat, nullptr);
  EXPECT_EQ(S.Records, 0u);
  EXPECT_TRUE(S.torn());
}

TEST(RecordLog, AppendsBeyondTheBoundAreRefused) {
  TempFile F("bound");
  RecordLogWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(F.Path, TestFormat, RecordLogWriter::Mode::Fresh, Err));
  EXPECT_FALSE(W.append(std::string(TestFormat.MaxPayload + 1, 'x')));
  EXPECT_TRUE(W.append(std::string(TestFormat.MaxPayload, 'x')));
  // A gathered append is refused whole when any record is too long.
  const std::string Half(TestFormat.MaxPayload / 2 + 1, 'y');
  EXPECT_FALSE(W.appendRecords({{"ok", {}, crc32("ok", 2)},
                                {Half, Half, 0}}));
  W.close();
  EXPECT_EQ(readRecordLog(F.Path, TestFormat, nullptr).Records, 1u);
}

/// Records covering a MiB-sized payload and both halves empty in turn,
/// with the bytes encodeRecord frames them as.
struct GatherCase {
  RecordLogFormat Format = TestFormat;
  std::string Big, Trailer = "trailer", Small = "small";
  std::vector<RecordPieces> Pieces;
  std::string Encoded;
  GatherCase() {
    Format.MaxPayload = 4u << 20;
    Big.resize(1u << 20);
    for (size_t I = 0; I < Big.size(); ++I)
      Big[I] = static_cast<char>(I * 131 + (I >> 9));
    Pieces = {{Big, Trailer,
               crc32(Trailer.data(), Trailer.size(),
                     crc32(Big.data(), Big.size()))},
              {{}, Small, crc32(Small.data(), Small.size())},
              {Small, {}, crc32(Small.data(), Small.size())},
              {{}, {}, 0}};
    for (const RecordPieces &R : Pieces)
      Encoded += encodeRecord(Format, R.Head, R.Tail, R.Crc);
  }
};

TEST(RecordLog, GatheredAppendsWriteEncodeRecordsBytes) {
  GatherCase G;
  TempFile F("gather");
  RecordLogWriter W;
  std::string Err;
  ASSERT_TRUE(W.open(F.Path, G.Format, RecordLogWriter::Mode::Fresh, Err))
      << Err;
  ASSERT_TRUE(W.appendRecords({G.Pieces[0], G.Pieces[1]}));
  ASSERT_TRUE(W.appendRecords({G.Pieces[2]}));
  ASSERT_TRUE(W.appendRecords({G.Pieces[3]}));
  W.close();
  std::ifstream In(F.Path, std::ios::binary);
  std::string File{std::istreambuf_iterator<char>(In),
                   std::istreambuf_iterator<char>()};
  ASSERT_GE(File.size(), RecordLogHeaderSize);
  EXPECT_TRUE(File.substr(RecordLogHeaderSize) == G.Encoded);
  std::vector<std::string> Got;
  RecordScan S = scanRecords(
      File, G.Format, [&](std::string_view P) { Got.emplace_back(P); });
  EXPECT_FALSE(S.torn());
  ASSERT_EQ(Got.size(), 4u);
  EXPECT_TRUE(Got[0] == G.Big + G.Trailer);
  EXPECT_EQ(Got[1], G.Small);
  EXPECT_EQ(Got[2], G.Small);
  EXPECT_EQ(Got[3], "");
}

TEST(RecordLog, GatheredWritesResumeAfterShortWrites) {
  // A non-blocking pipe shrunk to 4 KiB takes at most 4 KiB per writev
  // and refuses more while full, so the MiB-sized record comes back short
  // hundreds of times and every resume point lands in a different iovec
  // position.
  GatherCase G;
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  ASSERT_GE(::fcntl(Fds[1], F_SETPIPE_SZ, 4096), 0);
  ASSERT_EQ(::fcntl(Fds[1], F_SETFL, O_NONBLOCK), 0);
  std::string Read;
  std::thread Reader([&] {
    char Buf[1000];
    for (ssize_t N; (N = ::read(Fds[0], Buf, sizeof Buf)) != 0;)
      if (N > 0)
        Read.append(Buf, static_cast<size_t>(N));
      else if (errno != EINTR)
        break;
  });
  bool Ok = writeRecords(Fds[1], G.Format,
                         {G.Pieces[0], G.Pieces[1], G.Pieces[2], G.Pieces[3]});
  ::close(Fds[1]);
  Reader.join();
  ::close(Fds[0]);
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Read.size(), G.Encoded.size());
  EXPECT_TRUE(Read == G.Encoded);
}

} // namespace
