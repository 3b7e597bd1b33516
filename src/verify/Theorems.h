//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end theorem harness: Theorems 1-5 as machine-checked properties
/// of concrete (program, transformation-chain) instances.
///
/// For a chain P_0 -> ... -> P_n of syntactic rule applications:
///  - Lemma 4 / Lemma 5 per step: [[P_{k+1}]] is a semantic elimination of
///    [[P_k]] (E rules) or a reordering of an elimination of [[P_k]]
///    (R rules);
///  - Theorems 1-4 end to end: if P_0 is data race free, then P_n is data
///    race free and behaviours(P_n) within behaviours(P_0);
///  - Theorem 5: for a fresh constant c (not contained in P_0, nonzero),
///    P_n cannot output c, and [[P_n]] has no origin for c.
///
/// A failing instance would be a counterexample to the paper; the tests and
/// the E12 bench run this over program families and seeded random programs.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_THEOREMS_H
#define TRACESAFE_VERIFY_THEOREMS_H

#include "opt/Pipeline.h"
#include "semantics/Reordering.h"
#include "verify/Checks.h"

namespace tracesafe {

struct TheoremCheckOptions {
  ExecLimits Exec;
  ExploreLimits Explore;
  EliminationSearchLimits Elim;
  ReorderingSearchLimits Reorder;
  /// Verify Lemma 4/5 for every step (traceset-level; the expensive part).
  bool VerifySemanticSteps = true;
  /// Verify Theorem 5 with a fresh constant.
  bool CheckThinAir = true;

  /// Points every engine limit at \p B so the whole battery runs under one
  /// shared budget (deadline, visit cap, memory cap). \p B must outlive
  /// every query made with these options.
  void attachBudget(Budget &B) {
    Exec.Shared = &B;
    Explore.Shared = &B;
  }
};

/// Verdict for one chain step's semantic verification.
struct StepVerification {
  RewriteSite Site;
  CheckVerdict Semantic = CheckVerdict::Unknown;
};

struct TheoremCaseReport {
  DrfGuaranteeReport Drf;
  ThinAirReport ThinAir;
  std::vector<StepVerification> Steps;

  bool truncatedAnywhere() const;
  /// All applicable guarantees hold (truncation counts as failure so tests
  /// notice under-provisioned limits).
  bool allHold() const;
  std::string summary() const;
};

/// Lemma 4/5 for every step of \p Chain (which must start at \p Orig):
/// each successor traceset must be a semantic elimination (E rules) or a
/// reordering of an elimination (R rules) of its predecessor. One shared
/// domain (from \p Orig) keeps the tracesets of all chain members
/// comparable; a step with a truncated traceset is Unknown.
std::vector<StepVerification>
verifyChainSteps(const Program &Orig, const TransformChain &Chain,
                 const TheoremCheckOptions &Options = {});

/// Runs the full battery on \p Orig and \p Chain (which must start at
/// \p Orig).
TheoremCaseReport checkTheoremsOnChain(const Program &Orig,
                                       const TransformChain &Chain,
                                       const TheoremCheckOptions &Options = {});

/// True iff \p Kind is one of the Fig 10 elimination rules.
bool isEliminationRule(RuleKind Kind);

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_THEOREMS_H
