//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic elimination transformation (§4) as a decision procedure.
///
/// Trace level: t' is an elimination of wildcard trace t iff t' = t|S for
/// some index set S with every dropped index eliminable in t (Definition 1).
/// Proper eliminations restrict to cases 1-5.
///
/// Traceset level: T' is an elimination of T iff every trace of T' is an
/// elimination of some wildcard trace that belongs-to T. The wildcard trace
/// is existentially quantified, so the checker performs a bounded backtracking
/// search: it builds a candidate wildcard trace action by action, keeping the
/// set of all of its concrete instances (each of which must stay inside T),
/// and either matches the next action of t' or inserts an action to be
/// eliminated. Verdicts are three-valued — a truncated search answers
/// Unknown, never a wrong Yes/No.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SEMANTICS_ELIMINATION_H
#define TRACESAFE_SEMANTICS_ELIMINATION_H

#include "semantics/Eliminable.h"
#include "support/Budget.h"
#include "trace/Traceset.h"

#include <cstdint>
#include <optional>

namespace tracesafe {

/// Three-valued verdict of the transformation checkers.
enum class CheckVerdict : uint8_t {
  Holds,
  Fails,
  Unknown, ///< Search truncated by limits.
};

std::string checkVerdictName(CheckVerdict V);

/// Trace-level check: is \p TPrime an elimination of \p T (a wildcard
/// trace)? \p ProperOnly restricts dropped indices to cases 1-5.
bool isEliminationOfTrace(const Trace &T, const Trace &TPrime,
                          bool ProperOnly = false);

/// Bounds for the wildcard-witness search. MaxExtra and MaxInstances
/// bound the witnesses searched for; the query budget bounds the work.
struct EliminationSearchLimits {
  /// Maximum number of eliminated (inserted) actions in the witness.
  size_t MaxExtra = 6;
  /// Cap on the instance-set size (grows by |domain| per wildcard).
  size_t MaxInstances = 4096;
  /// The query budget: every search node charges one visit, and an
  /// exhausted budget (visit cap, deadline, cancellation) truncates the
  /// search, so the verdict is Unknown and the budget's reason says why.
  /// The search charges no memory, so the budget's memory cap does not
  /// cover it. Non-owning; null means no visit cap (the search still
  /// ends: MaxExtra bounds every witness).
  Budget *Shared = nullptr;
};

/// Searches for a wildcard trace t that belongs-to \p Orig such that
/// \p TPrime is an elimination of t. Returns the witness if found;
/// sets \p *Truncated if the search hit a limit (in which case a nullopt
/// answer means Unknown, not No). When \p DroppedOut is non-null it
/// receives the (sorted) eliminated indices of the witness — the
/// complement of the kept set S with t' = t|S.
std::optional<Trace>
findEliminationWitness(const Traceset &Orig, const Trace &TPrime,
                       const EliminationSearchLimits &Limits = {},
                       bool *Truncated = nullptr, bool ProperOnly = false,
                       std::vector<size_t> *DroppedOut = nullptr);

/// Result of a traceset-level check.
struct TransformCheckResult {
  CheckVerdict Verdict = CheckVerdict::Holds;
  /// When Fails/Unknown: the trace of the transformed set with no witness.
  Trace Counterexample;
  uint64_t TracesChecked = 0;
};

/// §4: is \p Transformed an elimination of \p Orig?
TransformCheckResult
checkElimination(const Traceset &Orig, const Traceset &Transformed,
                 const EliminationSearchLimits &Limits = {},
                 bool ProperOnly = false);

} // namespace tracesafe

#endif // TRACESAFE_SEMANTICS_ELIMINATION_H
