//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-query verdict cache (process-global, budget-aware).
///
/// The daemon answers the same canonical query many times over. This
/// cache memoises whole-query verdicts across queries, keyed on the
/// canonical query text (canonicalQueryKey in verify/Canonical.h) — no
/// hashing shortcuts, so a hit can never be a collision. The key holds no
/// process-local state, so verify/CacheStore can persist the entries
/// across restarts.
///
/// Two invariants keep the cache transparent:
///
///  - *Warmth invariance.* Only complete (non-Unknown) verdicts are
///    cached, and a hit replays the recorded visit/byte cost of the
///    original computation against the current query's Budget via
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
  /// Monotonic counters (snapshot under the cache lock). Faults counts
  /// injected cache faults degraded to recomputation; Evictions counts
  /// single entries dropped by the segmented LRU on overflow; Clears
  /// counts explicit clear() calls.
  struct CacheStats {
    /// Inert: the engine-level families these counted are gone, so they
    /// stay 0. They remain because the frozen perfbench replay model
    /// (perfbench/tsbench/Trace.cpp) still reads them (the ROADMAP's
    /// "Frozen API" ground rule).
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
  };

  /// A memoised whole-query verdict (the daemon's ProgramDrf/Behaviours/
  /// DrfGuarantee/ThinAir responses), keyed by canonicalQueryKey. Kind is
  /// never Unknown in a stored entry (complete results only);
  /// Reason/Detail are replayed verbatim so a hit's response is
  /// byte-identical to the recomputation's.
  struct CachedQuery {
    VerdictKind Kind = VerdictKind::Proved;
    TruncationReason Reason = TruncationReason::None;
    std::string Detail;
    uint64_t CostVisits = 0;
    uint64_t CostBytes = 0;
  };

  /// Called (outside the cache lock) for every *fresh* insertion, so a
  /// daemon can spill new verdicts to its CacheStore. Loaded entries
  /// (Notify=false inserts) never re-trigger it.
  using PersistSink =
      std::function<void(const std::string &Key, const CachedQuery &E)>;

  explicit BehaviourCache(uint64_t MaxBytes = 64ULL << 20)
      : MaxBytes(MaxBytes ? MaxBytes : 1) {}

  BehaviourCache(const BehaviourCache &) = delete;
  BehaviourCache &operator=(const BehaviourCache &) = delete;

  /// Inert: uncached forwarders to programTraceset, collectBehaviours and
  /// checkDataRaceFreedom. They stay because the frozen perfbench replay
  /// model still calls them (the ROADMAP's "Frozen API" ground rule).
  std::shared_ptr<const Traceset>
  tracesetFor(const Program &P, const std::vector<Value> &Domain,
              const ExploreLimits &Limits, ExploreStats *Stats = nullptr) {
    return std::make_shared<const Traceset>(
        programTraceset(P, Domain, Limits, Stats));
  }
  std::set<Behaviour> behavioursFor(const Traceset &T,
                                    const EnumerationLimits &Limits,
                                    EnumerationStats *Stats = nullptr) {
    return collectBehaviours(T, Limits, Stats);
  }
  Verdict<Interleaving> drfFor(const Traceset &T,
                               const EnumerationLimits &Limits) {
    return checkDataRaceFreedom(T, Limits);
  }

  /// Cached whole-query verdict for \p Key (a canonicalQueryKey). On a
  /// hit the recorded cost is replayed against \p Shared (warmth
  /// invariance); if the replay exhausts the budget the returned entry is
  /// Unknown with the budget's reason and an empty Detail — exactly what
  /// recomputation under that budget would have produced, because the
  /// recorded cost is what the verdict needed. Injected
  /// FaultSite::BehaviourCache faults degrade to nullopt (miss).
  std::optional<CachedQuery> queryFor(const std::string &Key,
                                      Budget *Shared);

  /// Inserts a complete query verdict (Kind must not be Unknown; such
  /// calls are ignored). \p Notify=false is the loader path: the entry is
  /// linked into the LRU but the persist sink is not re-triggered.
  void insertQuery(const std::string &Key, CachedQuery E,
                   bool Notify = true);

  /// Installs (or, with nullptr semantics via an empty function, removes)
  /// the spill hook for fresh insertions.
  void setPersistSink(PersistSink S);

  /// Re-bounds the cache to \p NewMaxBytes (minimum 1), evicting down to
  /// the new cap immediately. Wired to `tracesafed --cache-cap-mb`.
  void setCapacity(uint64_t NewMaxBytes);

  CacheStats stats() const;

  /// Drops every entry (counters are kept; Clears is incremented).
  void clear();

  /// The process-global instance the daemon keeps warm. Tests wanting
  /// isolation construct their own.
  static BehaviourCache &global();

private:
  /// The segmented LRU lists hold the entries' map keys. Map key storage
  /// is stable under rehash, so a pointer stays valid for the entry's
  /// lifetime.
  using LruList = std::list<const std::string *>;

  struct Entry {
    CachedQuery Value;
    uint64_t Footprint = 0;  ///< approximate bytes this entry occupies
    LruList::iterator It;    ///< this entry's node in its segment
    bool Protected_ = false; ///< which segment It points into
  };

  /// Moves a just-hit entry to the front of the protected segment,
  /// demoting protected tails back to probation if the segment outgrows
  /// its share of the byte cap. Call with the lock held.
  void touchLocked(Entry &E);

  /// Evicts probation (then protected) tails until \p Need more bytes fit
  /// under the cap or the cache is empty. Call with the lock held.
  void reserveLocked(uint64_t Need);

  uint64_t MaxBytes; ///< mutable via setCapacity; never 0
  mutable std::mutex M;
  std::unordered_map<std::string, Entry> Entries;
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
