//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded query mixes for the tracesafed benchmark.
///
/// Every workload is a pure function of (name, seed, seconds): the same
/// arguments give byte-identical query bodies in the same order, and
/// `Digest` fingerprints them so two commits can be shown to receive the
/// same inputs. A workload is a table of distinct query bodies plus index
/// lists into it:
///
///  - Warm: answered by the first daemon life, so their verdicts are in
///    the cache file every later launch preloads; re-sent (untimed) after
///    the final launch. Warm[0] is the set-up probe.
///  - Lazy: answered only after the final launch, untimed, to finish the
///    engine's lazy set-up without putting the answers in the cache file.
///  - Stream: the timed closed-loop order. It is sized from the run length
///    and wraps around if a very fast host exhausts it.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_WORKLOAD_H
#define TSBENCH_WORKLOAD_H

#include "daemon/Protocol.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tsbench {

/// The verdict kind an answer with a known value must have.
enum class Expect : uint8_t { None, Proved, Refuted };

struct BenchQuery {
  tracesafe::daemon::QueryRequest Req;
  Expect Want = Expect::None;
  /// Racy ProgramDrf and every Behaviours answer: the value is not known
  /// by construction, so a seeded sample is re-derived by the sequential
  /// reference oracle after timing.
  bool OracleCheck = false;
  /// Alpha-variants (repeat-hot): index of the base query whose answer
  /// this one must reproduce byte for byte; -1 otherwise.
  int32_t Base = -1;
  /// Generator family ("lock", "racy", "mixed-log", ...), for reports.
  const char *Label = "";
};

struct Workload {
  std::string Name;
  unsigned Clients = 2;
  /// Most timed load one daemon life serves, in seconds; a longer timed
  /// phase continues on a fresh, warmed life. 0: one life serves it all.
  /// The daemon keeps every request payload for its whole life (journal
  /// and idempotency table), so MiB-sized queries need short lives.
  double LifeSeconds = 0;
  std::vector<BenchQuery> Queries;
  std::vector<uint32_t> Warm;
  std::vector<uint32_t> Lazy;
  std::vector<uint32_t> Stream;
  /// FNV-1a over every query body and index list, in order.
  uint64_t Digest = 0;
  /// Total payload bytes (program text or log image) of a query.
  static uint64_t payloadBytes(const BenchQuery &Q) {
    return Q.Req.Program.size() + Q.Req.Transformed.size();
  }
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name from \p Seed; the timed stream is sized for a
/// \p Seconds-long run. Throws std::invalid_argument on an unknown name.
Workload makeWorkload(const std::string &Name, uint64_t Seed,
                      unsigned Seconds);

} // namespace tsbench

#endif // TSBENCH_WORKLOAD_H
