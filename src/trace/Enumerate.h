//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive enumeration of the executions of a traceset (§3).
///
/// Executions are sequentially consistent interleavings of a traceset. The
/// enumerator does a DFS over global states: each step picks a thread whose
/// current trace can be extended inside the traceset by an action that is
/// enabled (reads must see the most recent write or the default value; locks
/// require that no other thread holds the monitor). Because tracesets are
/// prefix-closed and finite, the search is finite.
///
/// Two memoised derived queries are provided: the set of observable
/// behaviours, and adjacent-conflict data-race detection. Both are the
/// workhorses of the DRF-guarantee experiments. By default they run on
/// the reduced engine: hash-consed interned states and sleep-set /
/// source-set partial-order reduction. The seed's exhaustive enumerator
/// is retained behind EnumerationLimits::ExhaustiveOracle as a
/// cross-check oracle; verdicts are identical by construction (see
/// docs/PERFORMANCE.md for the soundness argument). Every search runs
/// sequentially in the calling thread: parallelism is across queries
/// (the daemon's workers, fuzz_harness --jobs), never inside one.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_TRACE_ENUMERATE_H
#define TRACESAFE_TRACE_ENUMERATE_H

#include "support/Budget.h"
#include "trace/Interleaving.h"

#include <cstdint>
#include <functional>
#include <set>

namespace tracesafe {

/// Safety rails and engine selection for the searches. A truncated result
/// means the query is *unknown*, never silently wrong; callers (and all
/// tests) check the flag.
struct EnumerationLimits {
  /// Upper bound on each thread's trace length (start action included)
  /// inside an execution, in every search: a thread at the bound is not
  /// extended and the search truncates with DepthCap (tracesets generated
  /// from loops can be deep).
  size_t MaxEvents = 256;
  /// The query budget (deadline / visit / memory caps across every engine
  /// of one query): the only visit bound of the searches. Non-owning;
  /// null means no visit cap (the search still ends: tracesets are finite
  /// and MaxEvents bounds every thread).
  Budget *Shared = nullptr;
  /// Inert: no engine reads it (every search is sequential). It stays
  /// because the frozen perfbench replay model still assigns it (the
  /// ROADMAP's "Frozen API" ground rule).
  unsigned Workers = 1;
  /// Sleep-set partial-order reduction for collectBehaviours and
  /// findAdjacentRace. Sound for both queries (see docs/PERFORMANCE.md);
  /// the visitor-based enumerations never prune.
  bool SleepSets = true;
  /// Source-set (persistent-set) reduction layered on top of sleep sets:
  /// at each state, expansion is restricted to one dependence-closed group
  /// of threads whose *future* actions cannot interact with the other
  /// groups'. Applies to collectBehaviours and findAdjacentRace alike:
  /// although the race predicate is state-local and reduction skips
  /// states, every skipped state that would fire the predicate has a
  /// witness in the explored subtree — the racing pair's dependence group
  /// either is the chosen group (then the predicate already fires at the
  /// restriction point) or is disjoint from it (then the pair is still
  /// adjacent-enabled after the group's steps). See docs/PERFORMANCE.md
  /// and the proof comment in trace/Enumerate.cpp for the full argument.
  bool SourceSets = true;
  /// Run the seed's std::set-memoised engine instead of the interned
  /// reduced one. Cross-check oracle: equivalence tests assert
  /// verdict-identical results between the two.
  bool ExhaustiveOracle = false;
};

/// Bookkeeping returned by every enumeration query.
struct EnumerationStats {
  uint64_t Visited = 0;
  bool Truncated = false;
  /// Why the search was truncated (None when !Truncated).
  TruncationReason Reason = TruncationReason::None;

  void truncate(TruncationReason R) {
    Truncated = true;
    Reason = mergeReason(Reason, R);
  }
};

/// Visits every execution of \p T in DFS order (each execution prefix is
/// itself an execution and is visited once per DFS path). Returning false
/// from \p Visit stops the search. No memoisation: intended for small
/// tracesets and for tests that need the raw execution stream.
EnumerationStats
forEachExecution(const Traceset &T,
                 const std::function<bool(const Interleaving &)> &Visit,
                 EnumerationLimits Limits = {});

/// Visits every *maximal* execution (one that no enabled action extends).
EnumerationStats
forEachMaximalExecution(const Traceset &T,
                        const std::function<bool(const Interleaving &)> &Visit,
                        EnumerationLimits Limits = {});

/// The set of behaviours of all executions of \p T. Prefix-closed by
/// construction (includes the empty behaviour). Memoised on global states,
/// so it is usually far cheaper than enumerating executions.
std::set<Behaviour> collectBehaviours(const Traceset &T,
                                      EnumerationLimits Limits = {},
                                      EnumerationStats *Stats = nullptr);

/// Result of a data-race search.
struct RaceReport {
  bool HasRace = false;
  /// A witness execution ending in the adjacent conflicting pair (valid only
  /// when HasRace).
  Interleaving Witness;
  EnumerationStats Stats;
};

/// §3 data race freedom, primary definition: searches all executions for two
/// adjacent conflicting actions of different threads.
RaceReport findAdjacentRace(const Traceset &T, EnumerationLimits Limits = {});

/// Alternative definition via happens-before: searches maximal executions
/// for a conflicting pair unordered by happens-before. The paper cites the
/// equivalence of the two definitions; tests assert it on every program in
/// the suite. In the HB witness the two conflicting actions are the last
/// pair checked, not necessarily adjacent.
RaceReport findHappensBeforeRace(const Traceset &T,
                                 EnumerationLimits Limits = {});

/// Tri-state DRF query: Proved (no adjacent race, exhaustive search),
/// Refuted (race found; the witness interleaving ends in the conflicting
/// pair), or Unknown (search truncated before an answer). A found race is
/// definitive even under truncation.
Verdict<Interleaving> checkDataRaceFreedom(const Traceset &T,
                                           EnumerationLimits Limits = {});

/// Convenience wrapper: true iff the traceset is *proved* race free. A
/// truncated search returns false (conservative "not proved"), never
/// asserts; callers that must distinguish Refuted from Unknown use
/// checkDataRaceFreedom.
bool isDataRaceFree(const Traceset &T, EnumerationLimits Limits = {});

} // namespace tracesafe

#endif // TRACESAFE_TRACE_ENUMERATE_H
