//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming happens-before race detection over binary event logs.
///
/// scanRaceLog ingests a TSRL log (racelog/Log.h) and answers the paper's
/// §3 happens-before race question for the *observed* execution: is there
/// a pair of conflicting accesses unordered by program order + release/
/// acquire synchronisation? This is the production-scale counterpart of
/// the enumerative checker in trace/HappensBefore.cpp — one trace of an
/// arbitrarily large program instead of every trace of a tiny one — and
/// the two are differentially tested against each other on every
/// interleaving the enumerator can produce (tests/test_racelog_
/// differential.cpp).
///
/// Two engines share the per-variable state machine:
///  - the epoch engine (default; FastTrack-style): the last write and, in
///    the common case, the last read are scalar (tid, clock) epochs; a
///    full read vector clock is allocated only once a variable is read
///    concurrently. O(1) per access on race-free same-thread runs.
///  - the full-vector-clock oracle (Options.Epochs = false; DJIT+-style):
///    every variable carries a whole read vector clock and every write
///    scans it. The simple engine the epoch optimisation is checked
///    against — same racy-location set, same first racy event per
///    location, by the FastTrack equivalence argument (docs/
///    PERFORMANCE.md).
///
/// The scan makes two sequential passes. The first CRC-checks and
/// validates every block of the valid prefix and sketches its distinct
/// data addresses (HyperLogLog), so the state table is allocated once at
/// the size the log needs. The second applies the prefix in log order:
/// synchronisation events update the live thread clocks, and each access
/// goes straight to that one open-addressing table of per-variable
/// states, stamped with its thread's current clock. Parallelism is across
/// scans (the daemon's workers), never inside one.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_RACELOG_DETECT_H
#define TRACESAFE_RACELOG_DETECT_H

#include "racelog/Log.h"
#include "support/Budget.h"

#include <string>
#include <string_view>
#include <vector>

namespace tracesafe {
namespace racelog {

struct RaceLogOptions {
  /// Inert, like Workers: the scan is one table in the calling thread.
  /// Both stay only because the perfbench replay model still assigns
  /// them; ROADMAP item 1's benchmark PR deletes them along with
  /// Trace.cpp's replay model.
  unsigned Shards = 1;
  unsigned Workers = 1;
  /// False selects the full-vector-clock oracle engine.
  bool Epochs = true;
  /// Cap on reported RaceRecords (the racy-location *count* in Stats is
  /// always exact). Races are reported first-per-location in log order.
  size_t MaxRaces = 64;
  /// Optional shared query budget. One visit is charged per ingested
  /// event (identically for both engines, so a query's Visited is
  /// deterministic). The state table charges its real byte size once, when
  /// it is allocated larger than its 4096-slot minimum (and again only if
  /// a low size estimate makes it grow); clock-arena growth charges real
  /// byte sizes too.
  Budget *Shared = nullptr;
};

/// The first race on one location: the earliest access to Addr that is
/// unordered with some prior conflicting access.
struct RaceRecord {
  uint64_t Addr = 0;
  uint64_t EventIndex = 0; ///< log index (0-based) of the racing access
  uint32_t Tid = 0;        ///< thread of the racing access
  uint32_t PrevTid = 0;    ///< thread of the prior conflicting access
  bool Write = false;      ///< the racing access is a write
  bool PrevWrite = false;  ///< the prior access was a write

  friend bool operator==(const RaceRecord &, const RaceRecord &) = default;
};

struct RaceLogStats {
  uint64_t Events = 0;      ///< events ingested (== budget visits charged)
  uint64_t Blocks = 0;
  uint64_t PayloadBytes = 0;///< record bytes scanned
  uint64_t Threads = 0;     ///< distinct tids seen
  uint64_t RacyLocations = 0; ///< exact count of racy addresses
  uint64_t ReadShares = 0;  ///< epoch engine: reads spilled to full clocks
  bool TornTail = false;    ///< a torn/corrupt tail was dropped
  uint64_t DroppedBytes = 0;
  bool Truncated = false;
  TruncationReason Reason = TruncationReason::None;
};

struct RaceLogReport {
  /// False when the file header is unusable (not a log at all — distinct
  /// from a torn tail, which still yields a verdict on the valid prefix).
  bool FormatOk = true;
  std::string FormatError;
  /// First race per racy location, sorted by EventIndex, capped at
  /// Options.MaxRaces.
  std::vector<RaceRecord> Races;
  RaceLogStats Stats;

  /// Refuted = races found (definitive even under truncation); Proved =
  /// the *complete* log scanned race-free; Unknown = unusable header,
  /// truncated scan, or a torn tail (a race-free valid prefix proves
  /// nothing about the events the recorder lost).
  VerdictKind verdict() const {
    if (!Races.empty())
      return VerdictKind::Refuted;
    if (!FormatOk || Stats.Truncated || Stats.TornTail)
      return VerdictKind::Unknown;
    return VerdictKind::Proved;
  }

  /// One-line summary ("race-free events=..." / "races=... first=...").
  std::string str() const;
};

/// Scans \p LogBytes (a whole TSRL log image). Never throws: engine
/// faults — including the FaultSite::RaceDetect injection point, probed
/// once per block — are contained as Unknown(EngineFault), mirroring the
/// enumeration engines' robustness contract.
RaceLogReport scanRaceLog(std::string_view LogBytes,
                          const RaceLogOptions &Options = {});

} // namespace racelog
} // namespace tracesafe

#endif // TRACESAFE_RACELOG_DETECT_H
