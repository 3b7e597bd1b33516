//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only bridge between the enumerative trace world (trace/) and the
/// streaming detector: turn an Interleaving into a TSRL event log, and
/// compute the ground-truth races of that interleaving straight from the §3
/// happens-before order (trace/HappensBefore.h).
///
/// The mapping follows the paper's synchronisation terminology: a lock of
/// monitor m is an Acquire of lock id 2m, an unlock a Release of 2m; a
/// volatile read of location l is an Acquire of lock id 2l+1, a volatile
/// write a Release of 2l+1 (volatiles synchronise like locks but have no
/// conflicting data accesses, exactly as isReleaseAcquirePair /
/// conflictsWith define). Normal reads/writes map to data events at the
/// location id; Start and External actions have no log representation.
/// There are no fork/join events — the paper's threads are static and its
/// happens-before has no thread-creation edges.
///
/// With that mapping, the detector's happens-before over the log is
/// *exactly* the paper's happens-before over the interleaving, so the
/// differential test (tests/test_racelog_differential.cpp) asserts strict
/// equality: same racy locations, same first racing event per location.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_TESTS_DIFFERENTIAL_H
#define TRACESAFE_TESTS_DIFFERENTIAL_H

#include "racelog/Log.h"
#include "support/Symbol.h"

#include <string>
#include <vector>

namespace tracesafe {

class Interleaving;

namespace racelog {

/// Address mapping (shared with tests so assertions use the same terms).
inline uint64_t dataAddr(SymbolId Loc) { return Loc; }
inline uint64_t monitorLockId(SymbolId Mon) {
  return static_cast<uint64_t>(Mon) << 1;
}
inline uint64_t volatileLockId(SymbolId Loc) {
  return (static_cast<uint64_t>(Loc) << 1) | 1;
}

/// Ground truth for one racy location: the log index of the earliest
/// access that is unordered with some prior conflicting access — the same
/// "first race per location" the streaming detector reports.
struct ExpectedRace {
  uint64_t Addr = 0;
  uint64_t EventIndex = 0;

  friend bool operator==(const ExpectedRace &, const ExpectedRace &) =
      default;
};

struct DifferentialCase {
  std::string Log;      ///< TSRL image of the interleaving
  uint64_t Events = 0;  ///< log events emitted (actions minus Start/External)
  /// Expected races per the enumerative HappensBefore, sorted by
  /// EventIndex (one entry per racy location).
  std::vector<ExpectedRace> Races;
};

/// Encodes \p I as a log and computes its expected races from
/// trace/HappensBefore. \p EventsPerBlock is forwarded to the writer
/// (small values exercise multi-block logs in tests).
DifferentialCase makeDifferentialCase(const Interleaving &I,
                                      size_t EventsPerBlock =
                                          DefaultEventsPerBlock);

} // namespace racelog
} // namespace tracesafe

#endif // TRACESAFE_RACELOG_DIFFERENTIAL_H
