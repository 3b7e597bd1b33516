#include "verify/CacheStore.h"

#include "support/FieldCodec.h"

using namespace tracesafe;

namespace {

/// "TSCS" file, "TSCB" records. A single verdict entry is tiny, so the
/// payload bound only guards the loader against garbage lengths.
constexpr RecordLogFormat StoreFormat{"TSCS", 0x53435354, 1, 0x42435354,
                                      4u << 20, VerdictSemanticsEpoch};

/// Decodes one entry payload; false on malformed layout or an Unknown
/// verdict kind (the store never contains incomplete results).
bool decodeEntry(std::string_view Payload, std::string &Key,
                 BehaviourCache::CachedQuery &E) {
  PayloadReader R(Payload);
  uint8_t Kind = 0, Reason = 0;
  uint16_t Zero = 0;
  if (!R.str(Key) || !R.u8(Kind) || !R.u8(Reason) || !R.u16(Zero) ||
      !R.u64(E.CostVisits) || !R.u64(E.CostBytes) || !R.str(E.Detail) ||
      !R.done())
    return false;
  if (Kind > static_cast<uint8_t>(VerdictKind::Refuted) ||
      Reason > static_cast<uint8_t>(TruncationReason::EngineFault))
    return false;
  E.Kind = static_cast<VerdictKind>(Kind);
  E.Reason = static_cast<TruncationReason>(Reason);
  return true;
}

} // namespace

CacheStoreInfo tracesafe::loadCacheStore(const std::string &Path,
                                         BehaviourCache &Cache) {
  CacheStoreInfo Info;
  RecordScan S = readRecordLog(Path, StoreFormat, [&](std::string_view P) {
    std::string Key;
    BehaviourCache::CachedQuery E;
    if (decodeEntry(P, Key, E)) {
      Cache.insertQuery(Key, std::move(E), /*Notify=*/false);
      ++Info.Loaded;
    }
  });
  Info.HeaderOk = S.HeaderOk;
  Info.TornTail = S.torn();
  Info.Blocks = S.Records;
  Info.ValidPrefixBytes = S.ValidBytes;
  Info.DroppedBytes = S.TotalBytes - S.ValidBytes;
  Info.Error = S.Error;
  if (S.Stale)
    Info.Error = "TSCS semantics epoch " + std::to_string(S.Epoch) +
                 " is not this build's " +
                 std::to_string(VerdictSemanticsEpoch) +
                 ": nothing loaded, the store restarts";
  return Info;
}

bool CacheStore::open(const std::string &Path, std::string &Err) {
  return Log.open(Path, StoreFormat, RecordLogWriter::Mode::Resume, Err);
}

void CacheStore::append(const std::string &Key,
                        const BehaviourCache::CachedQuery &E) {
  if (E.Kind == VerdictKind::Unknown)
    return;
  std::string Payload;
  Payload.reserve(28 + Key.size() + E.Detail.size());
  putStr(Payload, Key);
  putU8(Payload, static_cast<uint8_t>(E.Kind));
  putU8(Payload, static_cast<uint8_t>(E.Reason));
  putU16(Payload, 0);
  putU64(Payload, E.CostVisits);
  putU64(Payload, E.CostBytes);
  putStr(Payload, E.Detail);
  // One write per record: a crash tears at most the last one, which the
  // valid-prefix load (and open's truncation) absorbs.
  if (Log.append(Payload))
    Appended.fetch_add(1, std::memory_order_relaxed);
}
