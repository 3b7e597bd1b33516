//===----------------------------------------------------------------------===//
///
/// \file
/// Adaptive budget escalation for verification queries.
///
/// Exhaustive guarantee checks either finish fast or blow up; there is no
/// useful middle. The escalation driver therefore runs a query under a
/// small budget first and, on Unknown, retries with geometrically larger
/// budgets up to a global ceiling. Every attempt is recorded so callers
/// can report partial results ("refuted nothing within 2M states / 4s")
/// instead of a bare timeout. Refuted and Proved answers stop the ladder
/// immediately — they are definitive at any budget.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_ESCALATE_H
#define TRACESAFE_VERIFY_ESCALATE_H

#include "support/Budget.h"
#include "verify/Checks.h"

#include <vector>

namespace tracesafe {

/// Escalation schedule: Initial, Initial*Growth, Initial*Growth^2, ...,
/// each clamped field-wise to Ceiling, for at most MaxAttempts attempts.
struct EscalationPolicy {
  BudgetSpec Initial{/*DeadlineMs=*/200, /*MaxVisited=*/100'000,
                     /*MaxMemoryBytes=*/64u << 20};
  unsigned Growth = 4;
  unsigned MaxAttempts = 4;
  BudgetSpec Ceiling{/*DeadlineMs=*/15'000, /*MaxVisited=*/20'000'000,
                     /*MaxMemoryBytes=*/512u << 20};
  /// Optional cooperative cancellation, wired into every attempt's Budget.
  /// Non-owning; may be null.
  const CancelToken *Cancel = nullptr;
};

/// What one rung of the ladder did.
struct EscalationAttempt {
  BudgetSpec Spec;                    ///< budget this attempt ran under
  uint64_t Visited = 0;               ///< states actually charged
  int64_t ElapsedMs = 0;              ///< wall clock actually spent
  VerdictKind Result = VerdictKind::Unknown;
  TruncationReason Reason = TruncationReason::None;
};

/// Final verdict plus the full attempt history (partial-result report).
template <typename T> struct Escalated {
  Verdict<T> Final;
  std::vector<EscalationAttempt> Attempts;

  /// Total wall clock across all attempts.
  int64_t totalElapsedMs() const {
    int64_t Out = 0;
    for (const EscalationAttempt &A : Attempts)
      Out += A.ElapsedMs;
    return Out;
  }
};

/// Runs \p Query under escalating budgets. \p Query receives a live Budget
/// (already wired to the attempt's spec) and returns a Verdict; it must
/// treat budget exhaustion as Unknown, which is exactly what the engine
/// layer produces when the budget is threaded through the limit structs.
template <typename T, typename QueryFn>
Escalated<T> escalate(const EscalationPolicy &Policy, const QueryFn &Query) {
  Escalated<T> Out;
  BudgetSpec Spec = Policy.Initial.scaled(1, Policy.Ceiling);
  for (unsigned Attempt = 0; Attempt < Policy.MaxAttempts; ++Attempt) {
    Budget B(Spec, Policy.Cancel);
    Verdict<T> V = Query(B);
    EscalationAttempt Rec;
    Rec.Spec = Spec;
    Rec.Visited = B.visited();
    Rec.ElapsedMs = B.elapsedMs();
    Rec.Result = V.Kind;
    Rec.Reason = V.Reason;
    Out.Attempts.push_back(Rec);
    Out.Final = std::move(V);
    if (!Out.Final.isUnknown())
      return Out;
    // Only budget-bound Unknowns escalate. A cancelled query must stay
    // cancelled (no sneaky retry after Ctrl-C), and a faulted query is
    // not budget-bound — a larger budget replays the same fault; the
    // seed-oracle fallback is the right recovery for it.
    if (Out.Final.Reason == TruncationReason::Cancelled ||
        Out.Final.Reason == TruncationReason::EngineFault)
      return Out;
    BudgetSpec Next = Spec.scaled(Policy.Growth, Policy.Ceiling);
    if (Next.DeadlineMs == Spec.DeadlineMs &&
        Next.MaxVisited == Spec.MaxVisited &&
        Next.MaxMemoryBytes == Spec.MaxMemoryBytes)
      break; // Already at the ceiling; a retry would just repeat the run.
    Spec = Next;
  }
  return Out;
}

/// DRF guarantee (Theorems 1-4 statement) under escalation. On Refuted the
/// witness is the full report (which of DRF preservation / behaviour
/// inclusion failed, with the counterexample behaviour).
Escalated<DrfGuaranteeReport>
escalateDrfGuarantee(const Program &Orig, const Program &Transformed,
                     const EscalationPolicy &Policy = {});

/// Out-of-thin-air guarantee (Theorem 5 statement) under escalation.
Escalated<ThinAirReport>
escalateThinAir(const Program &Orig, const Program &Transformed, Value C,
                const EscalationPolicy &Policy = {});

/// Program-level DRF query under escalation (witness: the racy
/// interleaving).
Escalated<Interleaving>
escalateProgramDrf(const Program &P, const EscalationPolicy &Policy = {});

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_ESCALATE_H
