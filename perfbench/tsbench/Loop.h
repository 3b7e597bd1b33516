//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-loop load generation over the daemon's unix socket: N client
/// threads, one DaemonClient connection each, every caller waiting for
/// its verdict before sending the next query (as the CLIs and
/// `fuzz_harness --server` do). Clients take the next query of the
/// workload's stream from a shared cursor, time Submit -> Verdict, and
/// judge every answer as it arrives.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_LOOP_H
#define TSBENCH_LOOP_H

#include "Check.h"
#include "Workload.h"

#include "daemon/Client.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace tsbench {

struct LoopResult {
  std::vector<double> LatencyUs;      ///< one per attempted query
  std::vector<double> DoneAtS;        ///< completion time, from the start
  std::vector<double> DispatchWaitUs; ///< Submit -> Running (streaming only)
  uint64_t Attempted = 0;
  uint64_t Answered = 0;  ///< Status Ok (decided or not)
  uint64_t Undecided = 0;
  uint64_t Failed = 0;
  uint64_t PayloadBytes = 0; ///< query bytes of the answered queries
  double ElapsedS = 0;
  uint64_t ClientRetries = 0;
  uint64_t ClientTransportErrors = 0;
  /// Seeded sample of oracle-checkable answers, by query index.
  std::map<uint32_t, tracesafe::daemon::QueryResponse> OracleSample;
  std::vector<std::string> FailureNotes; ///< the first few, for the report
};

struct LoopOptions {
  unsigned Clients = 1;
  double Seconds = 1;
  bool Streaming = false; ///< record Submit -> Running Progress waits
  uint64_t Seed = 0;      ///< oracle-sample selection
  uint64_t FirstEntry = 0; ///< stream position of the first query sent
  std::string Tag;        ///< client-name prefix (unique per daemon life)
};

/// Appends \p From's samples and counts to \p Into (ElapsedS is left to
/// the caller: loops may run one after another or side by side).
void merge(LoopResult &Into, LoopResult &&From);

/// Runs the timed stream of \p W until \p O.Seconds have passed; queries
/// in flight at the deadline complete and count.
LoopResult runClosedLoop(const Workload &W,
                         const std::map<uint32_t, std::string> &Bases,
                         const LoopOptions &O);

/// Sends \p Indices one at a time on one connection (untimed phases).
/// Answers are judged into \p Into; the answers of \p W's Warm queries
/// are recorded in \p Bases.
void answerAll(const Workload &W, const std::vector<uint32_t> &Indices,
               std::map<uint32_t, std::string> &Bases, LoopResult &Into,
               const std::string &ClientName, uint64_t Seed);

/// One Stats (kind 7) snapshot.
std::string statsSnapshot(const std::string &ClientName);

} // namespace tsbench

#endif // TSBENCH_LOOP_H
