//===----------------------------------------------------------------------===//
///
/// \file
/// Verdict checks. Every answer is classified; an answer with a known
/// value is compared with what the query's construction guarantees
/// (Workload.h), alpha-variants must reproduce their base's answer byte
/// for byte, and a seeded sample of the answers with no value known by
/// construction is re-derived after timing by the sequential reference
/// oracle: a fresh, uncached traceset enumerated by the std::set engine
/// (EnumerationLimits::ExhaustiveOracle), never the primary engine.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_CHECK_H
#define TSBENCH_CHECK_H

#include "Workload.h"

#include "daemon/Protocol.h"
#include "trace/Enumerate.h"

#include <map>
#include <optional>
#include <set>
#include <string>

namespace tsbench {

enum class Outcome : uint8_t {
  Ok,         ///< a known value, and the right one
  Undecided,  ///< Unknown verdict (visit-quota truncation)
  Overloaded, ///< still Overloaded after the client's retries
  BadRequest,
  Transport,  ///< ProtocolError after the client's retries
  Wrong,      ///< a verdict mismatch
};

inline bool failed(Outcome O) {
  return O != Outcome::Ok && O != Outcome::Undecided;
}

/// Classifies \p R as the answer to query \p Index of \p W. \p Bases holds
/// the answers (QueryResponse::str()) of the base queries, for
/// alpha-variants.
Outcome judge(const Workload &W, uint32_t Index,
              const tracesafe::daemon::QueryResponse &R,
              const std::map<uint32_t, std::string> &Bases);

/// Is query \p Index one of the seeded oracle sample?
bool inOracleSample(uint64_t Seed, uint32_t Index);

/// The reference oracle's answer to a ProgramDrf or Behaviours query, in
/// the daemon's rendering; nullopt when the oracle's own budget truncated.
std::optional<tracesafe::daemon::QueryResponse>
oracleAnswer(const tracesafe::daemon::QueryRequest &Q);

/// The daemon's rendering of a behaviour set (ProgramDrf/Behaviours
/// Detail), reproduced for comparison.
std::string renderBehaviours(const std::set<tracesafe::Behaviour> &S);

} // namespace tsbench

#endif // TSBENCH_CHECK_H
