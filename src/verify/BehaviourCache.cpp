#include "verify/BehaviourCache.h"

#include "support/Failure.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string_view>
#include <vector>

using namespace tracesafe;

namespace {

/// Replays the recorded cost of a cached computation against the current
/// query's budget. Returns the truncation reason the replay ended with
/// (None = the budget absorbed the full cost). Warmth invariance: this is
/// what keeps a hit from being "free" under a visit or memory cap.
TruncationReason replayCost(Budget *Shared, uint64_t Visits,
                            uint64_t Bytes) {
  if (!Shared)
    return TruncationReason::None;
  if (Shared->chargeMany(Visits, Bytes))
    return TruncationReason::None;
  TruncationReason R = Shared->reason();
  return R == TruncationReason::None ? TruncationReason::StateCap : R;
}

/// Canonical key texts (verify/Canonical.h) are spelt from a small
/// vocabulary, and their length and budget fields are mostly zero bytes.
/// The cache stores each key packed: a vocabulary string becomes the one
/// byte CodeBase + its index, and a key byte that could be read as a code
/// is written after Escape. A packed key decodes back to its key, so two
/// keys pack alike only if they are equal. On the daemon's generated
/// pairs a packed key is under a third of the text. Only an insertion
/// packs; a probe compares its key against the stored keys' decoding.
constexpr std::string_view Vocabulary[] = {
    "thread{",    "}\n",         "unlock m0;", "unlock m1;", "unlock m2;",
    "lock m0;",   "lock m1;",    "lock m2;",   "sync m0{",   "sync m1{",
    "skip;",      "print ",      "input ",     "volatile ",  "if(",
    "}else{",     "while(",      ":=",         "==",         "!=",
    "){",         "r0;",         "r1;",        "r2;",        "r3;",
    "r4;",        "r5;",         "g0;",        "g1;",        "g2;",
    "g3;",        "r0",          "r1",         "r2",         "r3",
    "r4",         "r5",          "g0",         "g1",         "g2",
    "g3",         "0;",          "1;",         "2;",
    std::string_view("\0\0\0\0\0\0\0", 7), std::string_view("\0\0\0", 3)};
constexpr unsigned char CodeBase = 0x80;
constexpr unsigned char Escape = 0xFF;
static_assert(CodeBase + std::size(Vocabulary) <= Escape);

/// For each first byte, the vocabulary indices that start with it,
/// longest first.
const std::array<std::vector<unsigned char>, 256> &vocabularyByFirstByte() {
  static const std::array<std::vector<unsigned char>, 256> Table = [] {
    std::array<std::vector<unsigned char>, 256> T;
    for (unsigned char I = 0; I < std::size(Vocabulary); ++I)
      T[static_cast<unsigned char>(Vocabulary[I][0])].push_back(I);
    for (std::vector<unsigned char> &Bucket : T)
      std::stable_sort(Bucket.begin(), Bucket.end(),
                       [](unsigned char A, unsigned char B) {
                         return Vocabulary[A].size() > Vocabulary[B].size();
                       });
    return T;
  }();
  return Table;
}

std::string packKey(std::string_view Key) {
  const auto &ByFirst = vocabularyByFirstByte();
  std::string Out;
  Out.reserve(Key.size() / 2 + 8);
  for (size_t I = 0; I < Key.size();) {
    const auto C = static_cast<unsigned char>(Key[I]);
    bool Coded = false;
    for (unsigned char V : ByFirst[C]) {
      if (Key.compare(I, Vocabulary[V].size(), Vocabulary[V]) != 0)
        continue;
      Out += static_cast<char>(CodeBase + V);
      I += Vocabulary[V].size();
      Coded = true;
      break;
    }
    if (Coded)
      continue;
    if (C >= CodeBase)
      Out += static_cast<char>(Escape);
    Out += Key[I++];
  }
  return Out;
}

/// Does \p Packed decode to \p Key? A probe's hit path: one pass, no
/// decoded copy.
bool packsTo(std::string_view Packed, std::string_view Key) {
  const char *At = Key.data();
  const char *End = At + Key.size();
  for (size_t I = 0; I < Packed.size(); ++I) {
    const auto C = static_cast<unsigned char>(Packed[I]);
    if (C < CodeBase || C == Escape) {
      const char Byte = C == Escape ? Packed[++I] : Packed[I];
      if (At == End || *At != Byte)
        return false;
      ++At;
      continue;
    }
    std::string_view Piece = Vocabulary[C - CodeBase];
    if (static_cast<size_t>(End - At) < Piece.size() ||
        std::memcmp(At, Piece.data(), Piece.size()) != 0)
      return false;
    At += Piece.size();
  }
  return At == End;
}

} // namespace

size_t BehaviourCache::KeyHash::operator()(std::string_view Key) const {
  return std::hash<std::string_view>{}(Key);
}

bool BehaviourCache::KeyEqual::operator()(std::string_view Key,
                                          const StoredKey &S) const {
  return packsTo(S.Packed, Key);
}

void BehaviourCache::touchLocked(Entry &E) {
  if (E.Protected_) {
    Protected_.splice(Protected_.begin(), Protected_, E.It);
    return;
  }
  // First re-use: promote out of probation. Splicing keeps the iterator
  // valid and pointing at the same node.
  Protected_.splice(Protected_.begin(), Probation, E.It);
  E.Protected_ = true;
  ProtectedBytes += E.Footprint;
  // Keep the protected segment within its share of the cap by demoting
  // its coldest entries back to probation — demoted entries get another
  // probation pass rather than being evicted outright.
  const uint64_t ProtectedCap = MaxBytes - MaxBytes / 5;
  while (ProtectedBytes > ProtectedCap && Protected_.size() > 1) {
    Entry &Cold = Entries.find(*Protected_.back())->second;
    Probation.splice(Probation.begin(), Protected_, Cold.It);
    Cold.Protected_ = false;
    ProtectedBytes -= Cold.Footprint;
  }
}

void BehaviourCache::reserveLocked(uint64_t Need) {
  // Probation tails go first: one-shot scan traffic washes out before any
  // re-used entry is touched. Protected tails only fall once probation is
  // empty.
  while (Counters.Bytes + Need > MaxBytes) {
    const bool FromProtected = Probation.empty();
    LruList &Segment = FromProtected ? Protected_ : Probation;
    if (Segment.empty())
      break;
    auto It = Entries.find(*Segment.back());
    Segment.pop_back();
    Counters.Bytes -= It->second.Footprint;
    if (FromProtected)
      ProtectedBytes -= It->second.Footprint;
    Entries.erase(It);
    ++Counters.Evictions;
  }
}

std::optional<BehaviourCache::CachedQuery>
BehaviourCache::queryFor(const std::string &Key, Budget *Shared) {
  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    std::lock_guard<std::mutex> Lock(M);
    auto It = Entries.find(std::string_view(Key));
    if (It != Entries.end()) {
      ++Counters.QueryHits;
      touchLocked(It->second);
      CachedQuery E = It->second.Value;
      TruncationReason R = replayCost(Shared, E.CostVisits, E.CostBytes);
      if (R != TruncationReason::None) {
        // A budget too small for the replay is a budget the cold
        // computation would have exhausted before its verdict.
        E.Kind = VerdictKind::Unknown;
        E.Reason = R;
        E.Detail.clear();
      }
      return E;
    }
    ++Counters.QueryMisses;
  } catch (const InjectedFault &) {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Faults;
    ++Counters.QueryMisses;
  }
  return std::nullopt;
}

/// What one entry allocates: its map node (key, entry, the chain link
/// and the cached hash), its LRU node (a key pointer and two links), one
/// bucket slot (the table keeps about one per entry), and the heap buffers
/// of the packed key and the detail once they outgrow the strings' inline
/// buffers. Each allocation is counted as a malloc chunk: an 8-byte header,
/// rounded up to 16 bytes.
uint64_t BehaviourCache::footprint(const std::string &Packed,
                                   const std::string &Detail) {
  const auto Chunk = [](uint64_t N) -> uint64_t {
    return (N + 8 + 15) / 16 * 16;
  };
  const auto Heap = [&](const std::string &S) -> uint64_t {
    return S.capacity() > std::string().capacity() ? Chunk(S.capacity() + 1)
                                                   : 0;
  };
  return Chunk(sizeof(decltype(Entries)::value_type) + 2 * sizeof(void *)) +
         Chunk(sizeof(LruList::value_type) + 2 * sizeof(void *)) +
         sizeof(void *) + Heap(Packed) + Heap(Detail);
}

void BehaviourCache::insertQuery(const std::string &Key, CachedQuery E,
                                 bool Notify) {
  if (E.Kind == VerdictKind::Unknown)
    return; // complete results only
  PersistSink Spill;
  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    StoredKey Stored{packKey(Key), KeyHash{}(Key)};
    std::lock_guard<std::mutex> Lock(M);
    Entry Fresh;
    Fresh.Value = std::move(E);
    Fresh.Footprint = footprint(Stored.Packed, Fresh.Value.Detail);
    reserveLocked(Fresh.Footprint);
    if (Fresh.Footprint <= MaxBytes) {
      uint64_t F = Fresh.Footprint;
      auto [Slot, Inserted] =
          Entries.emplace(std::move(Stored), std::move(Fresh));
      if (Inserted) {
        Counters.Bytes += F;
        Probation.push_front(&Slot->first);
        Slot->second.It = Probation.begin();
        if (Notify && Sink) {
          Spill = Sink;           // copy under the lock...
          E = Slot->second.Value; // ...restore the moved-from entry
        }
      }
    }
  } catch (const InjectedFault &) {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Faults; // Skipped insert; the answer is unaffected.
    return;
  }
  if (Spill)
    Spill(Key, E); // ...and invoke outside it (the sink does file I/O)
}

void BehaviourCache::setPersistSink(PersistSink S) {
  std::lock_guard<std::mutex> Lock(M);
  Sink = std::move(S);
}

void BehaviourCache::setCapacity(uint64_t NewMaxBytes) {
  std::lock_guard<std::mutex> Lock(M);
  MaxBytes = NewMaxBytes ? NewMaxBytes : 1;
  reserveLocked(0);
}

BehaviourCache::CacheStats BehaviourCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters;
}

void BehaviourCache::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Entries.clear();
  Probation.clear();
  Protected_.clear();
  ProtectedBytes = 0;
  Counters.Bytes = 0;
  ++Counters.Clears;
}

BehaviourCache &BehaviourCache::global() {
  static BehaviourCache Cache;
  return Cache;
}
