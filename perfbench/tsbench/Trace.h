//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's in-process half: the workload's own queries replayed
/// through each layer's public functions, with a span around every call.
///
/// Replay A times `daemon::evaluateQuery` per query, untraced, before and
/// after replay B (the mean of the two is A's time). Replay B
/// starts from the same cache state and rebuilds the same evaluation from
/// the layers it is made of (lang Parser, verify Canonical and
/// BehaviourCache, lang Explore, trace Enumerate, verify Checks, racelog
/// Detect), plus the daemon Protocol codec a query and its verdict pass
/// through. Nothing inside the program is instrumented: the spans are the
/// benchmark's own, so `unattributed` (A's time the spans of B do not
/// cover) and `overhead` (B's wall time over A's) say how far to trust the
/// split. B must reproduce A's answer byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_TRACE_H
#define TSBENCH_TRACE_H

#include "Workload.h"

#include "verify/BehaviourCache.h"

#include <string>
#include <vector>

namespace tsbench {

/// Per-call durations (µs) of each layer boundary, over replay B.
struct LayerSpans {
  std::vector<double> Parse;      ///< lang: parseProgram (both legs)
  std::vector<double> Canonical;  ///< verify: canonicalQueryKey
  std::vector<double> Probe;      ///< verify: BehaviourCache::queryFor
  std::vector<double> Insert;     ///< verify: BehaviourCache::insertQuery
  std::vector<double> Traceset;   ///< lang: BehaviourCache::tracesetFor
  std::vector<double> Drf;        ///< trace: BehaviourCache::drfFor
  std::vector<double> Behaviours; ///< trace: BehaviourCache::behavioursFor
  std::vector<double> Checks;     ///< verify: checkDrfGuarantee/checkThinAir
  std::vector<double> Scan;       ///< racelog: scanRaceLog
  std::vector<double> Codec;      ///< daemon: Submit + Verdict frame codec
  uint64_t TracesetVisited = 0;   ///< ExploreStats::Visited
  uint64_t TraceVisited = 0;      ///< budget visits of drf/behaviours
  uint64_t ScanBytes = 0;
  uint64_t WireBytes = 0;         ///< Submit + Verdict frames
};

struct InProcessResult {
  uint64_t Replayed = 0;          ///< stream queries, each in A and in B
  std::vector<double> EvaluateUs; ///< replay A, per query (mean of two)
  double FirstEvalUs = 0;         ///< replay A before B, total
  double SecondEvalUs = 0;        ///< replay A after B, total
  double TracedEvalUs = 0;        ///< replay B wall time, codec excluded
  double SpannedUs = 0;           ///< replay B, sum of the evaluation spans
  LayerSpans Spans;
  tracesafe::BehaviourCache::CacheStats CacheDelta; ///< over replay B
  uint64_t CacheBytes = 0;        ///< cache footprint after replay B
  uint64_t Mismatches = 0;        ///< B's answer differs from A's
  std::vector<std::string> Notes;
};

/// Replays the stream prefix that replay A gets through in \p Seconds;
/// the whole replay takes about three times that.
InProcessResult replayInProcess(const Workload &W, double Seconds);

} // namespace tsbench

#endif // TSBENCH_TRACE_H
