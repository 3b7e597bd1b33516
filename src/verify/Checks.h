//===----------------------------------------------------------------------===//
///
/// \file
/// Program-level verification queries: behaviour inclusion, the DRF
/// guarantee, and the out-of-thin-air guarantee.
///
/// These are the observable statements of Theorems 1-5, phrased on concrete
/// programs: the original program's behaviours must contain the transformed
/// program's behaviours whenever the original is data race free; the
/// transformed program must stay data race free; and no transformation may
/// output a constant the original program cannot build.
///
/// Each pair check comes in two forms:
///  - explore*: every SC question is answered on [[P]] by the execution
///    enumerator (lang/Explore.h), each program's traceset built once per
///    check. These test the theorems, so the theorem checkers, the fuzzer
///    and the differential suite call them.
///  - check*: the paper's theorems first, exploration as the fallback.
///    - DRF guarantee: once O's race search proves O data race free, a T
///      that is one Fig 10/11 rewrite of O (the paper's rules, no
///      extensions) is DRF and adds no behaviour (Theorems 3/4 with
///      Lemmas 4-6), so T is not searched.
///    - Thin air: a program whose text has neither the constant nor an
///      `input` statement has no origin for it and cannot output it
///      (Lemmas 2-3; the language has no arithmetic), so that program is
///      not searched.
///    With ExecLimits::ExhaustiveOracle set, check* is exactly explore*:
///    the daemon's degraded path shares no certificate code.
/// A report's Route says which way it went.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_CHECKS_H
#define TRACESAFE_VERIFY_CHECKS_H

#include "lang/Explore.h"

#include <optional>
#include <string>

namespace tracesafe {

/// How a per-pair guarantee query resolved. Unlike a bare bool, this keeps
/// "the guarantee is refuted" (a definitive counterexample exists) apart
/// from "the budget ran out before an answer".
enum class GuaranteeOutcome : uint8_t {
  Holds,    ///< proved (or vacuous), searches exhaustive where they must be
  Violated, ///< definitive counterexample found
  Unknown,  ///< some search was truncated before an answer was reached
};

const char *guaranteeOutcomeName(GuaranteeOutcome O);

/// How a pair check reached its report. Observability only: a route never
/// changes a report's Detail fields.
enum class CheckRoute : uint8_t {
  Search,    ///< explored (every explore* report, and check* uncertified)
  Rule,      ///< DRF guarantee: T is one Fig 10/11 rewrite of a DRF O
  Syntactic, ///< thin air: neither program's text can produce the constant
};

/// Comparison of the SC behaviour sets of two programs.
struct BehaviourComparison {
  bool Subset = false; ///< behaviours(Transformed) within behaviours(Orig).
  bool Equal = false;
  std::optional<Behaviour> NewBehaviour; ///< Witness when !Subset.
  bool Truncated = false;
  /// Truncation split by side: a "new" behaviour is only a definitive
  /// counterexample when the *original's* behaviour set was complete.
  bool OrigTruncated = false;
  bool TransformedTruncated = false;
  TruncationReason Reason = TruncationReason::None;
};

BehaviourComparison compareBehaviours(const Program &Orig,
                                      const Program &Transformed,
                                      ExecLimits Limits = {});

/// The statement of the DRF guarantee for one original/transformed pair.
/// When the original has a race the transformed program is not searched:
/// TransformedDrf, BehavioursPreserved and Comparison keep their defaults.
/// On the Rule route T is not searched either: TransformedDrf and
/// BehavioursPreserved are true by Theorems 3/4, and Comparison and
/// NewBehaviour keep their defaults (not computed).
struct DrfGuaranteeReport {
  bool OriginalDrf = false;
  bool TransformedDrf = false;
  bool BehavioursPreserved = false;
  std::optional<Behaviour> NewBehaviour;
  bool Truncated = false;
  /// Per-component truncation: found races and found new behaviours are
  /// definitive counterexamples even under truncation, while "no race
  /// found" and "subset held" are only trustworthy when the corresponding
  /// search was exhaustive.
  bool OriginalRaceTruncated = false;
  bool TransformedRaceTruncated = false;
  BehaviourComparison Comparison;
  TruncationReason Reason = TruncationReason::None;
  CheckRoute Route = CheckRoute::Search;

  /// Vacuously Holds for provably racy originals (Theorems 1-4 say nothing
  /// about them); Violated only on a definitive counterexample; Unknown
  /// when a truncated search stands between us and either answer.
  GuaranteeOutcome outcome() const {
    if (!OriginalDrf)
      return GuaranteeOutcome::Holds; // Race witness: definitive, vacuous.
    if (OriginalRaceTruncated)
      return GuaranteeOutcome::Unknown; // "Original DRF" not actually proved.
    if (!TransformedDrf)
      return GuaranteeOutcome::Violated; // Race witness in transformed.
    if (!BehavioursPreserved && !Comparison.OrigTruncated)
      return GuaranteeOutcome::Violated; // NewBehaviour is definitive.
    if (Truncated)
      return GuaranteeOutcome::Unknown;
    return GuaranteeOutcome::Holds;
  }

  /// True iff the guarantee definitively holds (Unknown counts as "not
  /// shown to hold", exactly as the old truncation-is-failure behaviour).
  bool holds() const { return outcome() == GuaranteeOutcome::Holds; }
};

/// Certify, else explore: see the file comment. A certificate charges
/// Limits.Shared one visit per rewrite site it tries.
DrfGuaranteeReport checkDrfGuarantee(const Program &Orig,
                                     const Program &Transformed,
                                     ExecLimits Limits = {});

/// O's race search, then T's race search and both behaviour sets.
DrfGuaranteeReport exploreDrfGuarantee(const Program &Orig,
                                       const Program &Transformed,
                                       ExecLimits Limits = {});

/// Can \p P output \p V in some SC execution? "Yes" is witness-based and
/// definitive; "no" is only exhaustive when \p Stats (if supplied) reports
/// no truncation.
bool programCanOutput(const Program &P, Value V, ExecLimits Limits = {},
                      ExecStats *Stats = nullptr);

/// The out-of-thin-air statement (Theorem 5 shape) for one pair: if the
/// original program does not contain constant \p C (and C != 0), the
/// transformed program must not output C. Also checks the semantic origin
/// property (Lemma 2/6): [[Transformed]] has no origin for C when
/// [[Orig]] has none.
struct ThinAirReport {
  Value Constant = 0;
  bool OrigContainsConstant = false;
  bool TransformedOutputs = false;
  bool OrigHasOrigin = false;
  bool TransformedHasOrigin = false;
  bool Truncated = false;
  /// Per-component truncation. "Outputs C" and "has an origin for C" are
  /// witness-based (definitive when true even under truncation); their
  /// negations need the corresponding exhaustive search.
  bool OutputSearchTruncated = false;
  bool OrigExploreTruncated = false;
  bool TransformedExploreTruncated = false;
  TruncationReason Reason = TruncationReason::None;
  /// Syntactic when the Lemma 2-3 bound settled both programs and nothing
  /// was explored; a program it settles keeps its fields false.
  CheckRoute Route = CheckRoute::Search;

  GuaranteeOutcome outcome() const {
    if (OrigContainsConstant)
      return GuaranteeOutcome::Holds; // Vacuous: C occurs in the original.
    if (TransformedOutputs)
      return GuaranteeOutcome::Violated; // Output witness: definitive.
    if (OutputSearchTruncated)
      return GuaranteeOutcome::Unknown;
    if (OrigHasOrigin)
      return GuaranteeOutcome::Holds; // Origin witness in [[Orig]].
    if (OrigExploreTruncated)
      return GuaranteeOutcome::Unknown; // "No origin in Orig" unproven.
    if (TransformedHasOrigin)
      return GuaranteeOutcome::Violated; // Manufactured origin: definitive.
    if (TransformedExploreTruncated)
      return GuaranteeOutcome::Unknown;
    return GuaranteeOutcome::Holds;
  }

  bool holds() const { return outcome() == GuaranteeOutcome::Holds; }
};

/// Bound, else explore, per program: see the file comment.
ThinAirReport checkThinAir(const Program &Orig, const Program &Transformed,
                           Value C, ExecLimits Limits = {},
                           ExploreLimits TracesetLimits = {});

/// T's output search, then both programs' origin searches.
ThinAirReport exploreThinAir(const Program &Orig, const Program &Transformed,
                             Value C, ExecLimits Limits = {},
                             ExploreLimits TracesetLimits = {});

/// A fresh constant guaranteed not to occur in \p P (and nonzero).
Value freshConstantFor(const Program &P);

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_CHECKS_H
