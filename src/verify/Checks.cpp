#include "verify/Checks.h"

#include <algorithm>

using namespace tracesafe;

const char *tracesafe::guaranteeOutcomeName(GuaranteeOutcome O) {
  switch (O) {
  case GuaranteeOutcome::Holds:
    return "holds";
  case GuaranteeOutcome::Violated:
    return "violated";
  case GuaranteeOutcome::Unknown:
    return "unknown";
  }
  return "invalid";
}

namespace {

/// Both programs of a pair must face the same environment: pin the input
/// domain to the original's (a transformation may remove constants, which
/// would otherwise shrink the transformed program's default domain and
/// mask or manufacture behaviour differences).
void pinEnvironment(ExecLimits &Limits, const Program &Orig) {
  if (Limits.InputDomain.empty())
    Limits.InputDomain = defaultDomainFor(Orig);
}

BehaviourComparison compare(const ScProgram &Orig,
                            const ScProgram &Transformed) {
  BehaviourComparison Out;
  ExecStats SA, SB;
  std::set<Behaviour> A = Orig.behaviours(&SA);
  std::set<Behaviour> B = Transformed.behaviours(&SB);
  Out.OrigTruncated = SA.Truncated;
  Out.TransformedTruncated = SB.Truncated;
  Out.Truncated = SA.Truncated || SB.Truncated;
  Out.Reason = mergeReason(SA.Reason, SB.Reason);
  Out.Subset = true;
  for (const Behaviour &Beh : B) {
    if (A.count(Beh))
      continue;
    Out.Subset = false;
    Out.NewBehaviour = Beh;
    break;
  }
  Out.Equal = Out.Subset && A.size() == B.size();
  return Out;
}

} // namespace

BehaviourComparison tracesafe::compareBehaviours(const Program &Orig,
                                                 const Program &Transformed,
                                                 ExecLimits Limits) {
  pinEnvironment(Limits, Orig);
  return compare(ScProgram(Orig, Limits), ScProgram(Transformed, Limits));
}

DrfGuaranteeReport tracesafe::checkDrfGuarantee(const Program &Orig,
                                                const Program &Transformed,
                                                ExecLimits Limits) {
  DrfGuaranteeReport Out;
  pinEnvironment(Limits, Orig);
  ScProgram O(Orig, Limits);
  RaceReport RO = O.race();
  Out.OriginalDrf = !RO.HasRace;
  Out.OriginalRaceTruncated = RO.Stats.Truncated;
  Out.Truncated = RO.Stats.Truncated;
  Out.Reason = RO.Stats.Reason;
  // A racy original makes the outcome vacuously Holds: the transformed
  // program is not searched and its fields keep their defaults.
  if (RO.HasRace)
    return Out;
  ScProgram T(Transformed, Limits);
  RaceReport RT = T.race();
  Out.TransformedDrf = !RT.HasRace;
  Out.TransformedRaceTruncated = RT.Stats.Truncated;
  Out.Comparison = compare(O, T);
  Out.BehavioursPreserved = Out.Comparison.Subset;
  Out.NewBehaviour = Out.Comparison.NewBehaviour;
  Out.Truncated = RO.Stats.Truncated || RT.Stats.Truncated ||
                  Out.Comparison.Truncated;
  Out.Reason = mergeReason(mergeReason(RO.Stats.Reason, RT.Stats.Reason),
                           Out.Comparison.Reason);
  return Out;
}

bool tracesafe::programCanOutput(const Program &P, Value V, ExecLimits Limits,
                                 ExecStats *Stats) {
  for (const Behaviour &B : programBehaviours(P, Limits, Stats))
    if (std::find(B.begin(), B.end(), V) != B.end())
      return true;
  return false;
}

ThinAirReport tracesafe::checkThinAir(const Program &Orig,
                                      const Program &Transformed, Value C,
                                      ExecLimits Limits,
                                      ExploreLimits TracesetLimits) {
  ThinAirReport Out;
  Out.Constant = C;
  Out.OrigContainsConstant = Orig.containsConstant(C);
  if (Out.OrigContainsConstant)
    return Out;
  ExecStats OutputStats;
  Out.TransformedOutputs =
      programCanOutput(Transformed, C, Limits, &OutputStats);
  Out.OutputSearchTruncated = OutputStats.Truncated;
  // Semantic origin property (Lemma 2/6): explore tracesets over a domain
  // that includes C, so a "laundered" C (read then re-written) would show
  // up as a non-origin write while a manufactured C shows up as an origin.
  std::vector<Value> Domain = defaultDomainFor(Orig);
  if (std::find(Domain.begin(), Domain.end(), C) == Domain.end())
    Domain.push_back(C);
  ExploreStats SA, SB;
  Traceset TO = programTraceset(Orig, Domain, TracesetLimits, &SA);
  Traceset TT = programTraceset(Transformed, Domain, TracesetLimits, &SB);
  Out.OrigHasOrigin = TO.hasOriginFor(C);
  Out.TransformedHasOrigin = TT.hasOriginFor(C);
  Out.OrigExploreTruncated = SA.Truncated;
  Out.TransformedExploreTruncated = SB.Truncated;
  Out.Truncated = OutputStats.Truncated || SA.Truncated || SB.Truncated;
  Out.Reason = mergeReason(mergeReason(OutputStats.Reason, SA.Reason),
                           SB.Reason);
  return Out;
}

Value tracesafe::freshConstantFor(const Program &P) {
  Value C = 42;
  while (P.containsConstant(C) || C == DefaultValue)
    ++C;
  return C;
}
