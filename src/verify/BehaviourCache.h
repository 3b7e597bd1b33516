//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-query behaviour cache (process-global, budget-aware).
///
/// The fuzz campaign recomputes the same tracesets many times over: the
/// semantic chain checker rebuilds [[P]] for every chain prefix and for
/// every shrink candidate's re-check. The daemon answers the same
/// canonical query many times over. This cache memoises tracesets,
/// behaviour sets, DRF verdicts and whole-query verdicts across queries,
/// keyed on exact serialisations (printed program text / action words via
/// trace/ActionWord.h, canonical query text) plus the semantically
/// relevant limit fields — no hashing shortcuts, so a hit can never be a
/// collision.
///
/// Two invariants keep the cache transparent:
///
///  - *Warmth invariance.* Only complete (untruncated) results are cached,
///    and a hit replays the recorded visit/byte cost of the original
///    computation against the current query's Budget via
///    Budget::chargeMany. A tight budget is therefore exhausted by a hit
///    exactly where recomputation would have exhausted it, so cache
///    warmth never flips a verdict that depends on visit or memory caps.
///
///  - *Fault transparency.* Lookup and insert probe
///    FaultSite::BehaviourCache; an injected fault degrades the operation
///    to a miss (recompute) or a skipped insert, never to a changed
///    answer. See docs/ROBUSTNESS.md.
///
/// The cache owns bounded memory that is deliberately *not* charged to
/// any query budget: it is process infrastructure shared by every query,
/// not part of any one query's footprint. Overflow is handled by segmented LRU
/// eviction (probation for entries seen once, protected for re-used
/// ones): a long-lived daemon keeps its warm set while one-shot scans
/// wash through probation, instead of periodically dropping everything.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_BEHAVIOURCACHE_H
#define TRACESAFE_VERIFY_BEHAVIOURCACHE_H

#include "lang/Explore.h"
#include "trace/Enumerate.h"

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

namespace tracesafe {

class BehaviourCache {
public:
  /// Monotonic counters (snapshot under the cache lock). Hit/miss pairs
  /// are per family; Faults counts injected cache faults degraded to
  /// recomputation; Evictions counts single entries dropped by the
  /// segmented LRU on overflow; Clears counts explicit clear() calls.
  struct CacheStats {
    uint64_t TracesetHits = 0;
    uint64_t TracesetMisses = 0;
    uint64_t BehaviourHits = 0;
    uint64_t BehaviourMisses = 0;
    uint64_t DrfHits = 0;
    uint64_t DrfMisses = 0;
    uint64_t QueryHits = 0;
    uint64_t QueryMisses = 0;
    uint64_t Faults = 0;
    uint64_t Evictions = 0;
    uint64_t Clears = 0;
    uint64_t Bytes = 0; ///< approximate current footprint

    uint64_t hits() const {
      return TracesetHits + BehaviourHits + DrfHits + QueryHits;
    }
    uint64_t misses() const {
      return TracesetMisses + BehaviourMisses + DrfMisses + QueryMisses;
    }
  };

  /// A memoised whole-query verdict (the daemon's ProgramDrf/Behaviours/
  /// DrfGuarantee/ThinAir responses), keyed by canonicalQueryKey. Unlike
  /// the engine-level families, the key is pure canonical text — no
  /// process-local SymbolIds — so this family is the one CacheStore may
  /// persist across restarts. Kind is never Unknown in a stored entry
  /// (complete results only); Reason/Detail are replayed verbatim so a
  /// hit's response is byte-identical to the recomputation's.
  struct CachedQuery {
    VerdictKind Kind = VerdictKind::Proved;
    TruncationReason Reason = TruncationReason::None;
    std::string Detail;
    uint64_t CostVisits = 0;
    uint64_t CostBytes = 0;
  };

  /// Called (outside the cache lock) for every *fresh* query-family
  /// insertion, so a daemon can spill new verdicts to its CacheStore.
  /// Loaded entries (Notify=false inserts) never re-trigger it.
  using PersistSink =
      std::function<void(const std::string &Key, const CachedQuery &E)>;

  explicit BehaviourCache(uint64_t MaxBytes = 64ULL << 20)
      : MaxBytes(MaxBytes ? MaxBytes : 1) {}

  BehaviourCache(const BehaviourCache &) = delete;
  BehaviourCache &operator=(const BehaviourCache &) = delete;

  /// Cached programTraceset. The key covers the printed program, the
  /// domain, and the bounds that shape a *complete* traceset (MaxActions,
  /// MaxSilentRun); MaxStates is excluded — a result that completed under
  /// some state cap is the full set under every other. Returns a shared
  /// pointer so chain checkers can hold several tracesets without
  /// copying. On a hit with an exhausted-by-replay
  /// budget the complete cached set is still returned, with \p Stats
  /// marked truncated by the budget's reason — content-wise a superset of
  /// what recomputation would have produced, verdict-wise identical
  /// (truncated means Unknown downstream either way).
  std::shared_ptr<const Traceset>
  tracesetFor(const Program &P, const std::vector<Value> &Domain,
              const ExploreLimits &Limits, ExploreStats *Stats = nullptr);

  /// Cached collectBehaviours. Keyed on the action-word serialisation of
  /// the traceset, its domain, MaxEvents, and the engine-selection flags
  /// (SleepSets, SourceSets, ExhaustiveOracle). The flags cannot change a
  /// complete result — the equivalence tests assert exactly that — but
  /// they stay in the key defensively, so a reduction bug could never
  /// leak across engines through the cache.
  std::set<Behaviour> behavioursFor(const Traceset &T,
                                    const EnumerationLimits &Limits,
                                    EnumerationStats *Stats = nullptr);

  /// Cached checkDataRaceFreedom, keyed like behavioursFor (the families
  /// live in separate maps). Only definitive verdicts from complete
  /// searches are cached (Unknown is an artefact of this query's budget).
  /// A hit replays the recorded cost; if the replay exhausts the budget
  /// the call returns Unknown with the budget's reason — byte-identical to
  /// recomputation, because the recorded cost is exactly the visits the
  /// search needed to reach its verdict (a race search stops at the
  /// witness), so a budget too small for the replay is a budget under
  /// which the cold search would have been truncated first too.
  Verdict<Interleaving> drfFor(const Traceset &T,
                               const EnumerationLimits &Limits);

  /// Cached whole-query verdict for \p Key (a canonicalQueryKey). On a
  /// hit the recorded cost is replayed against \p Shared (warmth
  /// invariance, as for the other families); if the replay exhausts the
  /// budget the returned entry is Unknown with the budget's reason and an
  /// empty Detail — exactly what recomputation under that budget would
  /// have produced, because the recorded cost is what the verdict needed.
  /// Injected FaultSite::BehaviourCache faults degrade to nullopt (miss).
  std::optional<CachedQuery> queryFor(const std::string &Key,
                                      Budget *Shared);

  /// Inserts a complete query verdict (Kind must not be Unknown; such
  /// calls are ignored). \p Notify=false is the loader path: the entry is
  /// linked into the LRU but the persist sink is not re-triggered.
  void insertQuery(const std::string &Key, CachedQuery E,
                   bool Notify = true);

  /// Installs (or, with nullptr semantics via an empty function, removes)
  /// the spill hook for fresh query-family insertions.
  void setPersistSink(PersistSink S);

  /// Re-bounds the cache to \p NewMaxBytes (minimum 1), evicting down to
  /// the new cap immediately. Wired to `tracesafed --cache-cap-mb`.
  void setCapacity(uint64_t NewMaxBytes);

  CacheStats stats() const;

  /// Drops every entry (counters are kept; Clears is incremented).
  void clear();

  /// The process-global instance used by the fuzz harness (tracesets)
  /// and the daemon (whole-query verdicts). Tests wanting isolation
  /// construct their own.
  static BehaviourCache &global();

private:
  /// Which family an LRU node belongs to (the families share the
  /// recency lists so eviction pressure is global, like the byte cap).
  enum class Family : uint8_t { Traceset, Behaviour, Drf, Query };

  /// A node of the segmented LRU lists: enough to find (and erase) the
  /// owning map entry. Map key storage is stable under rehash, so the
  /// pointer stays valid for the entry's lifetime.
  struct LruRef {
    Family Kind;
    const std::string *Key;
  };
  using LruList = std::list<LruRef>;

  /// Recency bookkeeping shared by both entry kinds.
  struct LruState {
    LruList::iterator It;
    bool Protected_ = false; ///< which segment It points into
  };

  struct TracesetEntry {
    std::shared_ptr<const Traceset> Set;
    uint64_t CostVisits = 0; ///< visits the computing query charged
    uint64_t CostBytes = 0;  ///< bytes the computing query charged
    uint64_t Footprint = 0;  ///< approximate bytes this entry occupies
    LruState Lru;
  };
  struct BehaviourEntry {
    std::set<Behaviour> Set;
    uint64_t CostVisits = 0;
    uint64_t CostBytes = 0;
    uint64_t Footprint = 0;
    LruState Lru;
  };
  struct DrfEntry {
    VerdictKind Kind = VerdictKind::Proved; ///< never Unknown
    Interleaving Witness;                   ///< populated when Refuted
    uint64_t CostVisits = 0;
    uint64_t CostBytes = 0;
    uint64_t Footprint = 0;
    LruState Lru;
  };
  struct QueryEntry {
    CachedQuery Value;
    uint64_t Footprint = 0;
    LruState Lru;
  };

  /// Moves a just-hit entry to the front of the protected segment,
  /// demoting protected tails back to probation if the segment outgrows
  /// its share of the byte cap. Call with the lock held.
  void touchLocked(LruState &Lru, uint64_t Footprint);

  /// Links a freshly inserted entry at the front of probation. Call with
  /// the lock held.
  void linkLocked(LruState &Lru, Family Kind, const std::string &Key);

  /// Evicts probation (then protected) tails until \p Need more bytes fit
  /// under the cap or the cache is empty. Call with the lock held.
  void reserveLocked(uint64_t Need);

  /// Erases the entry behind \p Ref from its map, adjusting the byte and
  /// segment accounting. Call with the lock held.
  void evictLocked(const LruRef &Ref, bool FromProtected);

  uint64_t MaxBytes; ///< mutable via setCapacity; never 0
  mutable std::mutex M;
  std::unordered_map<std::string, TracesetEntry> Tracesets;
  std::unordered_map<std::string, BehaviourEntry> Behaviours;
  std::unordered_map<std::string, DrfEntry> Drfs;
  std::unordered_map<std::string, QueryEntry> Queries;
  PersistSink Sink; ///< guarded by M; invoked outside it (copied first)
  /// Segmented LRU: entries enter Probation (front = most recent) and are
  /// promoted to Protected on their first hit. Eviction drains probation
  /// tails first, so scan traffic cannot flush the re-used warm set.
  LruList Probation;
  LruList Protected_;
  uint64_t ProtectedBytes = 0;
  CacheStats Counters;
};

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_BEHAVIOURCACHE_H
