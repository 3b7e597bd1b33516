#include "verify/Escalate.h"

using namespace tracesafe;

namespace {

/// Engine limits wired to one attempt's budget. The per-engine caps stay
/// at their (generous) defaults; the shared budget is what actually binds.
ExecLimits execLimitsFor(Budget &B) {
  ExecLimits L;
  L.Shared = &B;
  return L;
}

ExploreLimits exploreLimitsFor(Budget &B) {
  ExploreLimits L;
  L.Shared = &B;
  return L;
}

} // namespace

Escalated<DrfGuaranteeReport>
tracesafe::escalateDrfGuarantee(const Program &Orig,
                                const Program &Transformed,
                                const EscalationPolicy &Policy) {
  return escalate<DrfGuaranteeReport>(Policy, [&](Budget &B) {
    DrfGuaranteeReport R = exploreDrfGuarantee(Orig, Transformed,
                                               execLimitsFor(B));
    switch (R.outcome()) {
    case GuaranteeOutcome::Holds:
      return Verdict<DrfGuaranteeReport>::proved();
    case GuaranteeOutcome::Violated:
      return Verdict<DrfGuaranteeReport>::refuted(std::move(R));
    case GuaranteeOutcome::Unknown:
      break;
    }
    return Verdict<DrfGuaranteeReport>::unknown(
        R.Reason == TruncationReason::None ? TruncationReason::StateCap
                                           : R.Reason);
  });
}

Escalated<ThinAirReport>
tracesafe::escalateThinAir(const Program &Orig, const Program &Transformed,
                           Value C, const EscalationPolicy &Policy) {
  return escalate<ThinAirReport>(Policy, [&](Budget &B) {
    ThinAirReport R = exploreThinAir(Orig, Transformed, C,
                                     execLimitsFor(B), exploreLimitsFor(B));
    switch (R.outcome()) {
    case GuaranteeOutcome::Holds:
      return Verdict<ThinAirReport>::proved();
    case GuaranteeOutcome::Violated:
      return Verdict<ThinAirReport>::refuted(std::move(R));
    case GuaranteeOutcome::Unknown:
      break;
    }
    return Verdict<ThinAirReport>::unknown(
        R.Reason == TruncationReason::None ? TruncationReason::StateCap
                                           : R.Reason);
  });
}

Escalated<Interleaving>
tracesafe::escalateProgramDrf(const Program &P,
                              const EscalationPolicy &Policy) {
  return escalate<Interleaving>(
      Policy, [&](Budget &B) { return checkProgramDrf(P, execLimitsFor(B)); });
}
