//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the persistent warm-start store (TSCS): round-tripping the
/// query-verdict family through a file, valid-prefix loading under torn
/// tails and corrupted blocks, refusal of non-TSCS files, append-after-
/// load growth, and the loader's Notify=false contract (loading never
/// re-triggers the persist sink).
///
//===----------------------------------------------------------------------===//

#include "verify/CacheStore.h"

#include "support/Crc32.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace tracesafe;

namespace {

std::string uniqueStore(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("tscs_test_" + std::string(Tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(Counter.fetch_add(1)) + ".cache"))
      .string();
}

/// RAII file cleanup.
struct TempFile {
  std::string Path;
  explicit TempFile(const char *Tag) : Path(uniqueStore(Tag)) {}
  ~TempFile() { std::remove(Path.c_str()); }
};

BehaviourCache::CachedQuery entry(VerdictKind K, const std::string &Detail,
                                  uint64_t Visits) {
  BehaviourCache::CachedQuery E;
  E.Kind = K;
  E.Detail = Detail;
  E.CostVisits = Visits;
  E.CostBytes = Visits * 3;
  return E;
}

uint64_t fileSize(const std::string &Path) {
  std::error_code Ec;
  auto N = std::filesystem::file_size(Path, Ec);
  return Ec ? 0 : static_cast<uint64_t>(N);
}

TEST(CacheStore, RoundTripsEntriesThroughAFile) {
  TempFile F("roundtrip");
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-a", entry(VerdictKind::Proved, "", 100));
    Store.append("key-b", entry(VerdictKind::Refuted, "race on g0", 250));
    Store.append("key-c", entry(VerdictKind::Proved, "all sc", 7));
    EXPECT_EQ(Store.appended(), 3u);
  }

  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_FALSE(Info.TornTail);
  EXPECT_EQ(Info.Loaded, 3u);
  EXPECT_EQ(Info.Blocks, 3u);
  EXPECT_EQ(Info.DroppedBytes, 0u);
  EXPECT_EQ(Info.ValidPrefixBytes, fileSize(F.Path));

  Budget B(BudgetSpec{});
  std::optional<BehaviourCache::CachedQuery> Hit =
      Cache.queryFor("key-b", &B);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Kind, VerdictKind::Refuted);
  EXPECT_EQ(Hit->Detail, "race on g0");
  EXPECT_EQ(Hit->CostVisits, 250u);
  EXPECT_EQ(Hit->CostBytes, 750u);
  EXPECT_EQ(B.visited(), 250u) << "loaded entries replay their cost too";
  EXPECT_TRUE(Cache.queryFor("key-a", &B).has_value());
  EXPECT_TRUE(Cache.queryFor("key-c", &B).has_value());
}

TEST(CacheStore, MissingFileIsAnEmptyStore) {
  TempFile F("missing");
  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_EQ(Info.Loaded, 0u);
  // open() creates it with a fresh header; a reload is still empty.
  CacheStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
  Store.close();
  Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_EQ(Info.Loaded, 0u);
  EXPECT_FALSE(Info.TornTail);
}

TEST(CacheStore, TornTailLoadsTheValidPrefixAndOpenTruncatesIt) {
  TempFile F("torn");
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-a", entry(VerdictKind::Proved, "first", 1));
    Store.append("key-b", entry(VerdictKind::Proved, "second", 2));
    Store.append("key-c", entry(VerdictKind::Proved, "third", 3));
  }
  // Crash simulation: the last append was torn mid-block.
  uint64_t Full = fileSize(F.Path);
  ASSERT_GT(Full, 5u);
  std::filesystem::resize_file(F.Path, Full - 5);

  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_TRUE(Info.TornTail);
  EXPECT_EQ(Info.Loaded, 2u) << "the torn tail costs exactly one entry";
  EXPECT_GT(Info.DroppedBytes, 0u);
  Budget B(BudgetSpec{});
  EXPECT_TRUE(Cache.queryFor("key-a", &B).has_value());
  EXPECT_TRUE(Cache.queryFor("key-b", &B).has_value());
  EXPECT_FALSE(Cache.queryFor("key-c", &B).has_value());

  // Re-opening truncates the tail so new appends land on a valid prefix.
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-d", entry(VerdictKind::Refuted, "fresh", 4));
  }
  BehaviourCache Cache2;
  Info = loadCacheStore(F.Path, Cache2);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_FALSE(Info.TornTail) << "open() must have truncated the tail";
  EXPECT_EQ(Info.Loaded, 3u);
  EXPECT_TRUE(Cache2.queryFor("key-d", &B).has_value());
}

TEST(CacheStore, CorruptedBlockStopsTheLoadAtTheValidPrefix) {
  TempFile F("crc");
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-a", entry(VerdictKind::Proved, "first", 1));
    Store.append("key-b", entry(VerdictKind::Proved, "second", 2));
  }
  // Flip one byte in the last block's payload: its CRC no longer matches.
  uint64_t Full = fileSize(F.Path);
  {
    std::fstream S(F.Path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(S.is_open());
    S.seekp(static_cast<std::streamoff>(Full - 3));
    char C;
    S.seekg(static_cast<std::streamoff>(Full - 3));
    S.get(C);
    S.seekp(static_cast<std::streamoff>(Full - 3));
    S.put(static_cast<char>(C ^ 0x5A));
  }
  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_TRUE(Info.TornTail);
  EXPECT_EQ(Info.Loaded, 1u);
  Budget B(BudgetSpec{});
  EXPECT_TRUE(Cache.queryFor("key-a", &B).has_value());
  EXPECT_FALSE(Cache.queryFor("key-b", &B).has_value())
      << "a bit-flipped entry must never load";
}

TEST(CacheStore, NonTscsFilesAreRefusedNotOverwritten) {
  TempFile F("garbage");
  {
    std::ofstream S(F.Path, std::ios::binary);
    S << "this is definitely not a TSCS cache store, do not touch";
  }
  uint64_t Before = fileSize(F.Path);

  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_FALSE(Info.HeaderOk);
  EXPECT_FALSE(Info.Error.empty());
  EXPECT_EQ(Info.Loaded, 0u);
  EXPECT_EQ(Info.DroppedBytes, Before);

  CacheStore Store;
  std::string Err;
  EXPECT_FALSE(Store.open(F.Path, Err))
      << "open must refuse a file that is not a store";
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(Store.isOpen());
  EXPECT_EQ(fileSize(F.Path), Before)
      << "refusal must leave the file untouched";
}

TEST(CacheStore, ValidlyFramedGarbagePayloadsAreSkippedNotLoaded) {
  // A block whose CRC verifies but whose payload is malformed (an Unknown
  // verdict kind — the store never contains incomplete results) counts as
  // a block, loads nothing, and does not stop the walk.
  TempFile F("badpayload");
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-a", entry(VerdictKind::Proved, "good", 1));
  }
  {
    // Hand-frame an Unknown-kind entry (append() itself refuses them).
    std::string Payload;
    auto PutU32 = [&](uint32_t V) {
      for (int I = 0; I < 4; ++I)
        Payload.push_back(static_cast<char>((V >> (I * 8)) & 0xFF));
    };
    std::string Key = "key-u";
    PutU32(static_cast<uint32_t>(Key.size()));
    Payload += Key;
    Payload.push_back(static_cast<char>(VerdictKind::Unknown));
    Payload.push_back(static_cast<char>(TruncationReason::StateCap));
    Payload.append(2, '\0');
    Payload.append(16, '\0'); // costVisits, costBytes
    PutU32(0);                // detailLen
    std::string Block;
    std::string Hdr;
    auto PutHdr = [&](uint32_t V) {
      for (int I = 0; I < 4; ++I)
        Hdr.push_back(static_cast<char>((V >> (I * 8)) & 0xFF));
    };
    PutHdr(0x42435354); // "TSCB"
    PutHdr(static_cast<uint32_t>(Payload.size()));
    PutHdr(crc32(Payload.data(), Payload.size()));
    PutHdr(0);
    std::ofstream S(F.Path, std::ios::binary | std::ios::app);
    S << Hdr << Payload;
  }
  {
    CacheStore Store; // another good entry *after* the garbage block
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-b", entry(VerdictKind::Proved, "after", 2));
  }

  BehaviourCache Cache;
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_TRUE(Info.HeaderOk);
  EXPECT_FALSE(Info.TornTail);
  EXPECT_EQ(Info.Blocks, 3u);
  EXPECT_EQ(Info.Loaded, 2u) << "the Unknown entry must be skipped";
  Budget B(BudgetSpec{});
  EXPECT_TRUE(Cache.queryFor("key-a", &B).has_value());
  EXPECT_FALSE(Cache.queryFor("key-u", &B).has_value());
  EXPECT_TRUE(Cache.queryFor("key-b", &B).has_value());
}

TEST(CacheStore, AnotherSemanticsEpochLoadsNothingAndRestartsTheStore) {
  // A later build's store, an epoch-1 store and an epoch-0 store: epoch 0
  // predates the [[P]] route of DrfGuarantee/ThinAir, whose visit costs
  // and racy-original Details differ, and epoch 1 the token-stream keys.
  ASSERT_GE(VerdictSemanticsEpoch, 2u);
  for (uint64_t Stale : {VerdictSemanticsEpoch + 1, uint64_t{1}, uint64_t{0}}) {
    SCOPED_TRACE("stale epoch " + std::to_string(Stale));
    TempFile F("epoch");
    {
      CacheStore Store;
      std::string Err;
      ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
      Store.append("key-a", entry(VerdictKind::Proved, "old engine", 1));
    }
    {
      // The header's epoch word (bytes 8..15) as another build wrote it.
      std::fstream S(F.Path,
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(S.is_open());
      S.seekp(8);
      for (int I = 0; I < 8; ++I)
        S.put(static_cast<char>((Stale >> (8 * I)) & 0xFF));
    }
    uint64_t Before = fileSize(F.Path);

    BehaviourCache Cache;
    CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
    EXPECT_TRUE(Info.HeaderOk);
    EXPECT_FALSE(Info.TornTail);
    EXPECT_EQ(Info.Loaded, 0u);
    EXPECT_EQ(Info.DroppedBytes, Before);
    EXPECT_NE(Info.Error.find("epoch"), std::string::npos) << Info.Error;
    Budget B(BudgetSpec{});
    EXPECT_FALSE(Cache.queryFor("key-a", &B).has_value())
        << "a verdict from another semantics epoch must never load";

    {
      CacheStore Store;
      std::string Err;
      ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
      EXPECT_EQ(fileSize(F.Path), 16u) << "open restarts the store";
      Store.append("key-b", entry(VerdictKind::Refuted, "this engine", 2));
    }
    BehaviourCache Cache2;
    Info = loadCacheStore(F.Path, Cache2);
    EXPECT_TRUE(Info.Error.empty()) << Info.Error;
    EXPECT_EQ(Info.Loaded, 1u);
    EXPECT_TRUE(Cache2.queryFor("key-b", &B).has_value());
  }
}

TEST(CacheStore, LoadingNeverRetriggersThePersistSink) {
  TempFile F("sink");
  {
    CacheStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(F.Path, Err)) << Err;
    Store.append("key-a", entry(VerdictKind::Proved, "", 1));
    Store.append("key-b", entry(VerdictKind::Proved, "", 2));
  }
  BehaviourCache Cache;
  unsigned SinkFires = 0;
  Cache.setPersistSink([&](const std::string &,
                           const BehaviourCache::CachedQuery &) {
    ++SinkFires;
  });
  CacheStoreInfo Info = loadCacheStore(F.Path, Cache);
  EXPECT_EQ(Info.Loaded, 2u);
  EXPECT_EQ(SinkFires, 0u)
      << "a load spilling back into its own store would loop forever";
  Cache.insertQuery("key-c", entry(VerdictKind::Proved, "", 3));
  EXPECT_EQ(SinkFires, 1u) << "fresh inserts still spill";
}

} // namespace
