#include "verify/Theorems.h"

#include "lang/Printer.h"

using namespace tracesafe;

bool tracesafe::isEliminationRule(RuleKind Kind) {
  switch (Kind) {
  case RuleKind::ERaR:
  case RuleKind::ERaW:
  case RuleKind::EWaR:
  case RuleKind::EWbW:
  case RuleKind::EIr:
    return true;
  default:
    return false;
  }
}

bool TheoremCaseReport::truncatedAnywhere() const {
  if (Drf.Truncated || ThinAir.Truncated)
    return true;
  for (const StepVerification &S : Steps)
    if (S.Semantic == CheckVerdict::Unknown)
      return true;
  return false;
}

bool TheoremCaseReport::allHold() const {
  if (!Drf.holds())
    return false;
  if (!ThinAir.holds() && !ThinAir.Truncated)
    return false;
  if (truncatedAnywhere())
    return false;
  for (const StepVerification &S : Steps)
    if (S.Semantic != CheckVerdict::Holds)
      return false;
  return true;
}

std::string TheoremCaseReport::summary() const {
  std::string Out;
  Out += "DRF guarantee: ";
  Out += guaranteeOutcomeName(Drf.outcome());
  Out += Drf.OriginalDrf ? " (original DRF)" : " (original racy; vacuous)";
  Out += "\nthin-air (c=" + std::to_string(ThinAir.Constant) +
         "): " + guaranteeOutcomeName(ThinAir.outcome());
  for (const StepVerification &S : Steps)
    Out += "\nstep " + S.Site.str() + ": " + checkVerdictName(S.Semantic);
  if (truncatedAnywhere())
    Out += "\n(truncated somewhere: verdicts may be Unknown)";
  return Out;
}

std::vector<StepVerification>
tracesafe::verifyChainSteps(const Program &Orig, const TransformChain &Chain,
                            const TheoremCheckOptions &Options) {
  std::vector<StepVerification> Steps;
  std::vector<Value> Domain = defaultDomainFor(Orig, 2);
  Program Cur = Orig;
  ExploreStats Stats;
  Traceset CurSet = programTraceset(Cur, Domain, Options.Explore, &Stats);
  for (const RewriteSite &Site : Chain.Steps) {
    Program Next = applyRewrite(Cur, Site);
    ExploreStats NextStats;
    Traceset NextSet =
        programTraceset(Next, Domain, Options.Explore, &NextStats);
    StepVerification Step;
    Step.Site = Site;
    if (Stats.Truncated || NextStats.Truncated) {
      Step.Semantic = CheckVerdict::Unknown;
    } else if (isEliminationRule(Site.Rule)) {
      Step.Semantic = checkElimination(CurSet, NextSet, Options.Elim).Verdict;
    } else {
      Step.Semantic = checkEliminationThenReordering(CurSet, NextSet,
                                                     Options.Elim,
                                                     Options.Reorder)
                          .Verdict;
    }
    Steps.push_back(std::move(Step));
    Cur = std::move(Next);
    CurSet = std::move(NextSet);
    Stats = NextStats;
  }
  return Steps;
}

TheoremCaseReport
tracesafe::checkTheoremsOnChain(const Program &Orig,
                                const TransformChain &Chain,
                                const TheoremCheckOptions &Options) {
  TheoremCaseReport Report;
  Report.Drf = exploreDrfGuarantee(Orig, Chain.Result, Options.Exec);
  if (Options.CheckThinAir) {
    Value C = freshConstantFor(Orig);
    Report.ThinAir =
        exploreThinAir(Orig, Chain.Result, C, Options.Exec, Options.Explore);
  } else {
    Report.ThinAir.OrigContainsConstant = true; // Vacuous.
  }
  if (Options.VerifySemanticSteps)
    Report.Steps = verifyChainSteps(Orig, Chain, Options);
  return Report;
}
