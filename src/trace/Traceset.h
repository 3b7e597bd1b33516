//===----------------------------------------------------------------------===//
///
/// \file
/// Tracesets — programs as prefix-closed sets of thread traces (§3).
///
/// A traceset must be prefix-closed, well locked and properly started. The
/// class maintains prefix closure on insertion and exposes the queries the
/// rest of the library needs: membership, successor actions of a prefix
/// (used by the execution enumerator), "wildcard trace belongs-to T" (§4),
/// entry points, and value origins (§5).
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_TRACE_TRACESET_H
#define TRACESAFE_TRACE_TRACESET_H

#include "trace/Trace.h"

#include <set>
#include <string>
#include <vector>

namespace tracesafe {

/// A prefix-closed set of (concrete) traces plus the value domain the set
/// was generated over. The domain is needed to decide "belongs-to" for
/// wildcard traces: a wildcard trace belongs-to T iff *all* of its instances
/// over the domain are in T.
class Traceset {
public:
  Traceset() = default;
  explicit Traceset(std::vector<Value> Domain) : Domain(std::move(Domain)) {}

  /// Inserts \p T together with all of its prefixes. \p T must be concrete
  /// (no wildcards), properly started and well locked.
  void insert(const Trace &T);

  /// Membership of a concrete trace.
  bool contains(const Trace &T) const { return Traces.count(T) != 0; }

  /// §4: a wildcard trace belongs-to T iff T contains all its instances
  /// over the value domain. Concrete traces degrade to contains().
  bool belongsTo(const Trace &Wildcard) const;

  /// All actions a such that Prefix ++ [a] is in the set. Deduplicated and
  /// sorted. Contiguous-range scan over the ordered set, so this costs
  /// O(log n + matches).
  std::vector<Action> successors(const Trace &Prefix) const;

  /// True iff some trace in the set strictly extends \p Prefix.
  bool hasExtension(const Trace &Prefix) const;

  /// Thread identifiers e with [S(e)] in the set.
  std::vector<ThreadId> entryPoints() const;

  /// §5: true iff some trace in the set is an origin for \p V.
  bool hasOriginFor(Value V) const;

  /// Structural validation (prefix closure is maintained by construction;
  /// this re-checks everything and reports the first violation).
  bool validate(std::string *Err = nullptr) const;

  const std::set<Trace> &traces() const { return Traces; }
  const std::vector<Value> &domain() const { return Domain; }
  void setDomain(std::vector<Value> D) { Domain = std::move(D); }

  size_t size() const { return Traces.size(); }

  /// Maximal traces (no strict extension in the set); handy for printing.
  std::vector<Trace> maximalTraces() const;

  /// Longest trace length in the set.
  size_t maxTraceLength() const;

  std::string str() const;

  friend bool operator==(const Traceset &A, const Traceset &B) {
    return A.Traces == B.Traces;
  }

private:
  std::set<Trace> Traces{Trace()}; ///< Always contains the empty trace.
  std::vector<Value> Domain{0, 1}; ///< Default domain {0,1}.
};

} // namespace tracesafe

#endif // TRACESAFE_TRACE_TRACESET_H
