#include "verify/BehaviourCache.h"

#include "lang/Printer.h"
#include "support/Failure.h"
#include "trace/ActionWord.h"

using namespace tracesafe;

namespace {

void appendWord(std::string &K, uint64_t W) {
  for (int I = 0; I < 8; ++I)
    K.push_back(static_cast<char>((W >> (8 * I)) & 0xFF));
}

void appendDomain(std::string &K, const std::vector<Value> &Domain) {
  appendWord(K, Domain.size());
  for (Value V : Domain)
    appendWord(K, static_cast<uint64_t>(static_cast<int64_t>(V)));
}

/// Exact key: printed program + domain + the bounds that shape a complete
/// traceset. The printer is injective up to alpha-renaming the program
/// does not perform, so equal keys mean equal programs.
std::string tracesetKey(const Program &P, const std::vector<Value> &Domain,
                        const ExploreLimits &Limits) {
  std::string K = printProgram(P);
  K.push_back('\0');
  appendDomain(K, Domain);
  appendWord(K, Limits.MaxActions);
  appendWord(K, Limits.MaxSilentRun);
  return K;
}

/// Exact key: every trace serialised as its action words (the same
/// encoding the interned engines use, see trace/ActionWord.h), plus the
/// domain, the interleaving bound and the engine-selection flags.
std::string behaviourKey(const Traceset &T, const EnumerationLimits &Limits) {
  std::string K;
  K.reserve(T.size() * 24);
  for (const Trace &Tr : T.traces()) {
    appendWord(K, TagTrace | Tr.actions().size());
    for (const Action &A : Tr.actions())
      appendWord(K, actionWord(A));
  }
  appendDomain(K, T.domain());
  appendWord(K, Limits.MaxEvents);
  appendWord(K, (Limits.SleepSets ? 1ULL : 0) |
                    (Limits.SourceSets ? 2ULL : 0) |
                    (Limits.ExhaustiveOracle ? 4ULL : 0));
  return K;
}

uint64_t tracesetFootprint(const std::string &Key, const Traceset &T) {
  uint64_t B = Key.size() + sizeof(Traceset) + 64;
  for (const Trace &Tr : T.traces())
    B += Tr.actions().size() * sizeof(Action) + 48;
  return B;
}

uint64_t behaviourFootprint(const std::string &Key,
                            const std::set<Behaviour> &S) {
  uint64_t B = Key.size() + 64;
  for (const Behaviour &Beh : S)
    B += Beh.size() * sizeof(Value) + 48;
  return B;
}

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

void BehaviourCache::linkLocked(LruState &Lru, Family Kind,
                                const std::string &Key) {
  Probation.push_front(LruRef{Kind, &Key});
  Lru.It = Probation.begin();
  Lru.Protected_ = false;
}

void BehaviourCache::touchLocked(LruState &Lru, uint64_t Footprint) {
  if (Lru.Protected_) {
    Protected_.splice(Protected_.begin(), Protected_, Lru.It);
    return;
  }
  // First re-use: promote out of probation. Splicing keeps the iterator
  // valid and pointing at the same node.
  Protected_.splice(Protected_.begin(), Probation, Lru.It);
  Lru.Protected_ = true;
  ProtectedBytes += Footprint;
  // Keep the protected segment within its share of the cap by demoting
  // its coldest entries back to probation — demoted entries get another
  // probation pass rather than being evicted outright.
  const uint64_t ProtectedCap = MaxBytes - MaxBytes / 5;
  while (ProtectedBytes > ProtectedCap && Protected_.size() > 1) {
    const LruRef &Cold = Protected_.back();
    LruState *ColdLru = nullptr;
    uint64_t ColdBytes = 0;
    if (Cold.Kind == Family::Traceset) {
      auto It = Tracesets.find(*Cold.Key);
      ColdLru = &It->second.Lru;
      ColdBytes = It->second.Footprint;
    } else if (Cold.Kind == Family::Behaviour) {
      auto It = Behaviours.find(*Cold.Key);
      ColdLru = &It->second.Lru;
      ColdBytes = It->second.Footprint;
    } else if (Cold.Kind == Family::Drf) {
      auto It = Drfs.find(*Cold.Key);
      ColdLru = &It->second.Lru;
      ColdBytes = It->second.Footprint;
    } else {
      auto It = Queries.find(*Cold.Key);
      ColdLru = &It->second.Lru;
      ColdBytes = It->second.Footprint;
    }
    Probation.splice(Probation.begin(), Protected_, ColdLru->It);
    ColdLru->Protected_ = false;
    ProtectedBytes -= ColdBytes;
  }
}

void BehaviourCache::evictLocked(const LruRef &Ref, bool FromProtected) {
  uint64_t Freed = 0;
  if (Ref.Kind == Family::Traceset) {
    auto It = Tracesets.find(*Ref.Key);
    if (It == Tracesets.end())
      return;
    Freed = It->second.Footprint;
    Tracesets.erase(It);
  } else if (Ref.Kind == Family::Behaviour) {
    auto It = Behaviours.find(*Ref.Key);
    if (It == Behaviours.end())
      return;
    Freed = It->second.Footprint;
    Behaviours.erase(It);
  } else if (Ref.Kind == Family::Drf) {
    auto It = Drfs.find(*Ref.Key);
    if (It == Drfs.end())
      return;
    Freed = It->second.Footprint;
    Drfs.erase(It);
  } else {
    auto It = Queries.find(*Ref.Key);
    if (It == Queries.end())
      return;
    Freed = It->second.Footprint;
    Queries.erase(It);
  }
  Counters.Bytes -= Freed;
  if (FromProtected)
    ProtectedBytes -= Freed;
  ++Counters.Evictions;
}

void BehaviourCache::reserveLocked(uint64_t Need) {
  // Probation tails go first: one-shot scan traffic washes out before any
  // re-used entry is touched. Protected tails only fall once probation is
  // empty.
  while (Counters.Bytes + Need > MaxBytes) {
    if (!Probation.empty()) {
      LruRef Victim = Probation.back();
      Probation.pop_back();
      evictLocked(Victim, /*FromProtected=*/false);
    } else if (!Protected_.empty()) {
      LruRef Victim = Protected_.back();
      Protected_.pop_back();
      evictLocked(Victim, /*FromProtected=*/true);
    } else {
      break;
    }
  }
}

std::shared_ptr<const Traceset>
BehaviourCache::tracesetFor(const Program &P,
                            const std::vector<Value> &Domain,
                            const ExploreLimits &Limits,
                            ExploreStats *Stats) {
  std::string Key = tracesetKey(P, Domain, Limits);

  // Lookup. An injected cache fault degrades to a miss: the result is
  // recomputed, never changed.
  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    std::lock_guard<std::mutex> Lock(M);
    auto It = Tracesets.find(Key);
    if (It != Tracesets.end()) {
      ++Counters.TracesetHits;
      touchLocked(It->second.Lru, It->second.Footprint);
      const TracesetEntry &E = It->second;
      if (Stats)
        Stats->Visited += E.CostVisits;
      TruncationReason R =
          replayCost(Limits.Shared, E.CostVisits, E.CostBytes);
      if (R != TruncationReason::None && Stats)
        Stats->truncate(R);
      return E.Set;
    }
    ++Counters.TracesetMisses;
  } catch (const InjectedFault &) {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Faults;
    ++Counters.TracesetMisses;
  }

  // Miss: compute under the caller's limits and budget. The budget delta
  // is the replay cost — at these call sites one budget serves one query
  // at a time, so the delta is exactly what this computation charged.
  Budget *Shared = Limits.Shared;
  uint64_t V0 = Shared ? Shared->visited() : 0;
  uint64_t B0 = Shared ? Shared->chargedBytes() : 0;
  ExploreStats Local;
  auto Set = std::make_shared<const Traceset>(
      programTraceset(P, Domain, Limits, &Local));
  if (Stats) {
    Stats->Visited += Local.Visited;
    if (Local.Truncated)
      Stats->truncate(Local.Reason);
  }

  // Only complete results are cacheable: a truncated set is an artefact
  // of this query's budget, not a property of the program.
  if (Local.Truncated || (Shared && Shared->exhausted()))
    return Set;

  TracesetEntry E;
  E.Set = Set;
  E.CostVisits = Shared ? Shared->visited() - V0 : Local.Visited;
  E.CostBytes = Shared ? Shared->chargedBytes() - B0 : 0;
  E.Footprint = tracesetFootprint(Key, *Set);
  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    std::lock_guard<std::mutex> Lock(M);
    reserveLocked(E.Footprint);
    if (E.Footprint <= MaxBytes) {
      uint64_t F = E.Footprint;
      auto [Slot, Inserted] = Tracesets.emplace(std::move(Key), std::move(E));
      if (Inserted) {
        Counters.Bytes += F;
        linkLocked(Slot->second.Lru, Family::Traceset, Slot->first);
      }
    }
  } catch (const InjectedFault &) {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Faults; // Skipped insert; the answer is unaffected.
  }
  return Set;
}

std::set<Behaviour>
BehaviourCache::behavioursFor(const Traceset &T,
                              const EnumerationLimits &Limits,
                              EnumerationStats *Stats) {
  std::string Key = behaviourKey(T, Limits);

  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    std::lock_guard<std::mutex> Lock(M);
    auto It = Behaviours.find(Key);
    if (It != Behaviours.end()) {
      ++Counters.BehaviourHits;
      touchLocked(It->second.Lru, It->second.Footprint);
      const BehaviourEntry &E = It->second;
      if (Stats)
        Stats->Visited += E.CostVisits;
      TruncationReason R =
          replayCost(Limits.Shared, E.CostVisits, E.CostBytes);
      if (R != TruncationReason::None && Stats)
        Stats->truncate(R);
      return E.Set;
    }
    ++Counters.BehaviourMisses;
  } catch (const InjectedFault &) {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Faults;
    ++Counters.BehaviourMisses;
  }

  Budget *Shared = Limits.Shared;
  uint64_t V0 = Shared ? Shared->visited() : 0;
  uint64_t B0 = Shared ? Shared->chargedBytes() : 0;
  EnumerationStats Local;
  std::set<Behaviour> Set = collectBehaviours(T, Limits, &Local);
  if (Stats) {
    Stats->Visited += Local.Visited;
    if (Local.Truncated)
      Stats->truncate(Local.Reason);
  }

  if (Local.Truncated || (Shared && Shared->exhausted()))
    return Set;

  BehaviourEntry E;
  E.Set = Set;
  E.CostVisits = Shared ? Shared->visited() - V0 : Local.Visited;
  E.CostBytes = Shared ? Shared->chargedBytes() - B0 : 0;
  E.Footprint = behaviourFootprint(Key, Set);
  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    std::lock_guard<std::mutex> Lock(M);
    reserveLocked(E.Footprint);
    if (E.Footprint <= MaxBytes) {
      uint64_t F = E.Footprint;
      auto [Slot, Inserted] = Behaviours.emplace(std::move(Key), std::move(E));
      if (Inserted) {
        Counters.Bytes += F;
        linkLocked(Slot->second.Lru, Family::Behaviour, Slot->first);
      }
    }
  } catch (const InjectedFault &) {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Faults;
  }
  return Set;
}

Verdict<Interleaving>
BehaviourCache::drfFor(const Traceset &T, const EnumerationLimits &Limits) {
  std::string Key = behaviourKey(T, Limits);

  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    std::lock_guard<std::mutex> Lock(M);
    auto It = Drfs.find(Key);
    if (It != Drfs.end()) {
      ++Counters.DrfHits;
      touchLocked(It->second.Lru, It->second.Footprint);
      const DrfEntry &E = It->second;
      TruncationReason R =
          replayCost(Limits.Shared, E.CostVisits, E.CostBytes);
      // A budget too small for the replay is a budget the cold search
      // would have exhausted before reaching its verdict (the recorded
      // cost is exactly the visits the verdict needed), so Unknown here
      // is the verdict recomputation would return.
      if (R != TruncationReason::None)
        return Verdict<Interleaving>::unknown(R);
      return E.Kind == VerdictKind::Proved
                 ? Verdict<Interleaving>::proved()
                 : Verdict<Interleaving>::refuted(E.Witness);
    }
    ++Counters.DrfMisses;
  } catch (const InjectedFault &) {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Faults;
    ++Counters.DrfMisses;
  }

  Budget *Shared = Limits.Shared;
  uint64_t V0 = Shared ? Shared->visited() : 0;
  uint64_t B0 = Shared ? Shared->chargedBytes() : 0;
  RaceReport Rep = findAdjacentRace(T, Limits);
  Verdict<Interleaving> V =
      Rep.HasRace ? Verdict<Interleaving>::refuted(Rep.Witness)
      : Rep.Stats.Truncated
          ? Verdict<Interleaving>::unknown(Rep.Stats.Reason)
          : Verdict<Interleaving>::proved();

  // Only definitive verdicts from complete searches are cacheable; an
  // Unknown is an artefact of this query's budget, and a search that
  // exhausted the budget has no trustworthy cost to replay.
  if (V.isUnknown() || (Shared && Shared->exhausted()))
    return V;

  DrfEntry E;
  E.Kind = V.Kind;
  if (V.isRefuted())
    E.Witness = *V.Witness;
  E.CostVisits = Shared ? Shared->visited() - V0 : Rep.Stats.Visited;
  E.CostBytes = Shared ? Shared->chargedBytes() - B0 : 0;
  E.Footprint = Key.size() + E.Witness.size() * sizeof(Event) + 96;
  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    std::lock_guard<std::mutex> Lock(M);
    reserveLocked(E.Footprint);
    if (E.Footprint <= MaxBytes) {
      uint64_t F = E.Footprint;
      auto [Slot, Inserted] = Drfs.emplace(std::move(Key), std::move(E));
      if (Inserted) {
        Counters.Bytes += F;
        linkLocked(Slot->second.Lru, Family::Drf, Slot->first);
      }
    }
  } catch (const InjectedFault &) {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.Faults;
  }
  return V;
}

std::optional<BehaviourCache::CachedQuery>
BehaviourCache::queryFor(const std::string &Key, Budget *Shared) {
  try {
    faultThrowInjected(FaultSite::BehaviourCache);
    std::lock_guard<std::mutex> Lock(M);
    auto It = Queries.find(Key);
    if (It != Queries.end()) {
      ++Counters.QueryHits;
      touchLocked(It->second.Lru, It->second.Footprint);
      CachedQuery E = It->second.Value;
      TruncationReason R = replayCost(Shared, E.CostVisits, E.CostBytes);
      if (R != TruncationReason::None) {
        // As for drfFor: a budget too small for the replay is a budget
        // the cold computation would have exhausted before its verdict.
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
    QueryEntry Entry;
    Entry.Value = std::move(E);
    Entry.Footprint = Key.size() + Entry.Value.Detail.size() + 96;
    reserveLocked(Entry.Footprint);
    if (Entry.Footprint <= MaxBytes) {
      uint64_t F = Entry.Footprint;
      auto [Slot, Inserted] = Queries.emplace(Key, std::move(Entry));
      if (Inserted) {
        Counters.Bytes += F;
        linkLocked(Slot->second.Lru, Family::Query, Slot->first);
        if (Notify && Sink) {
          Spill = Sink;         // copy under the lock...
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
  Tracesets.clear();
  Behaviours.clear();
  Drfs.clear();
  Queries.clear();
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
