#include "verify/BehaviourCache.h"

#include "support/Failure.h"

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

} // namespace

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
    auto It = Entries.find(Key);
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

void BehaviourCache::insertQuery(const std::string &Key, CachedQuery E,
                                 bool Notify) {
  if (E.Kind == VerdictKind::Unknown)
    return; // complete results only
  PersistSink Spill;
  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    std::lock_guard<std::mutex> Lock(M);
    Entry Fresh;
    Fresh.Value = std::move(E);
    Fresh.Footprint = Key.size() + Fresh.Value.Detail.size() + 96;
    reserveLocked(Fresh.Footprint);
    if (Fresh.Footprint <= MaxBytes) {
      uint64_t F = Fresh.Footprint;
      auto [Slot, Inserted] = Entries.emplace(Key, std::move(Fresh));
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
