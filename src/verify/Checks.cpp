#include "verify/Checks.h"

#include "opt/Rewrite.h"

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

namespace {

std::optional<ListPath> differingList(const StmtList &A, const StmtList &B,
                                      const ListPath &Path);

/// Where two unequal statements of one shape differ: the list inside the
/// one child block that differs, or nullopt when the difference is not
/// confined to a child block.
std::optional<ListPath> differingChild(const Stmt &A, const Stmt &B,
                                       const ListPath &Path, size_t K) {
  auto Descend = [&](PathSel Sel, const Stmt &CA,
                     const Stmt &CB) -> std::optional<ListPath> {
    const auto *BA = dyn_cast<BlockStmt>(&CA);
    const auto *BB = dyn_cast<BlockStmt>(&CB);
    if (!BA || !BB)
      return std::nullopt;
    ListPath Sub = Path;
    Sub.Steps.emplace_back(K, Sel);
    return differingList(BA->body(), BB->body(), Sub);
  };
  if (A.kind() != B.kind())
    return std::nullopt;
  if (A.kind() == StmtKind::Block)
    return Descend(PathSel::BlockBody, A, B);
  if (const auto *IfA = dyn_cast<IfStmt>(&A)) {
    const auto &IfB = cast<IfStmt>(B);
    bool SameThen = IfA->thenStmt().equals(IfB.thenStmt());
    if (IfA->cond() != IfB.cond() ||
        SameThen == IfA->elseStmt().equals(IfB.elseStmt()))
      return std::nullopt;
    return SameThen ? Descend(PathSel::ElseBody, IfA->elseStmt(),
                              IfB.elseStmt())
                    : Descend(PathSel::ThenBody, IfA->thenStmt(),
                              IfB.thenStmt());
  }
  if (const auto *WA = dyn_cast<WhileStmt>(&A)) {
    const auto &WB = cast<WhileStmt>(B);
    if (WA->cond() != WB.cond())
      return std::nullopt;
    return Descend(PathSel::WhileBody, WA->body(), WB.body());
  }
  return std::nullopt;
}

/// The deepest list, at or under \p Path, that holds every difference
/// between \p A and \p B; nullopt when they are equal.
std::optional<ListPath> differingList(const StmtList &A, const StmtList &B,
                                      const ListPath &Path) {
  if (A.size() != B.size())
    return Path;
  size_t K = A.size();
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I]->equals(*B[I]))
      continue;
    if (K != A.size())
      return Path; // Two statements differ.
    K = I;
  }
  if (K == A.size())
    return std::nullopt;
  if (std::optional<ListPath> Inner = differingChild(*A[K], *B[K], Path, K))
    return Inner;
  return Path;
}

/// The declared volatiles of \p P among \p Locs. A declaration of a
/// location the program never accesses has no meaning (and no place in
/// the canonical key of verify/Canonical.h).
std::set<SymbolId> volatilesAmong(const Program &P,
                                  const std::set<SymbolId> &Locs) {
  std::set<SymbolId> Out;
  for (SymbolId V : P.volatiles())
    if (Locs.count(V))
      Out.insert(V);
  return Out;
}

bool sameThreads(const Program &A, const Program &B) {
  for (ThreadId Tid = 0; Tid < A.threadCount(); ++Tid)
    if (!listEquals(A.thread(Tid), B.thread(Tid)))
      return false;
  return true;
}

/// Theorems 3/4 need [[T]] to come from [[O]] by Fig 10/11 rules; Lemmas
/// 4-6 give that for one rewrite. A rewrite changes one statement list,
/// so only the sites of the one list where O and T differ are tried, each
/// charged to \p B as one visit. A match is structural equality of the
/// thread bodies with the same accessed locations declared volatile (no
/// rule removes a volatile access).
bool isOneRewriteOf(const Program &O, const Program &T, Budget *B) {
  if (O.threadCount() != T.threadCount())
    return false;
  std::set<SymbolId> Locs = T.locations();
  if (volatilesAmong(O, Locs) != volatilesAmong(T, Locs))
    return false;
  std::optional<ListPath> Path;
  for (ThreadId Tid = 0; Tid < O.threadCount(); ++Tid) {
    ListPath Thread;
    Thread.Tid = Tid;
    std::optional<ListPath> D =
        differingList(O.thread(Tid), T.thread(Tid), Thread);
    if (!D)
      continue;
    if (Path)
      return false; // Two threads differ.
    Path = std::move(D);
  }
  if (!Path)
    return false;
  for (const RewriteSite &Site : findRewriteSitesIn(O, *Path)) {
    if (B && !B->charge())
      return false;
    if (sameThreads(applyRewrite(O, Site), T))
      return true;
  }
  return false;
}

DrfGuaranteeReport drfGuarantee(const Program &Orig,
                                const Program &Transformed, ExecLimits Limits,
                                bool Certify) {
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
  if (Certify && !RO.Stats.Truncated &&
      isOneRewriteOf(Orig, Transformed, Limits.Shared)) {
    Out.TransformedDrf = true;
    Out.BehavioursPreserved = true;
    Out.Route = CheckRoute::Rule;
    return Out;
  }
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

} // namespace

DrfGuaranteeReport tracesafe::checkDrfGuarantee(const Program &Orig,
                                                const Program &Transformed,
                                                ExecLimits Limits) {
  bool Certify = !Limits.ExhaustiveOracle;
  return drfGuarantee(Orig, Transformed, std::move(Limits), Certify);
}

DrfGuaranteeReport tracesafe::exploreDrfGuarantee(const Program &Orig,
                                                  const Program &Transformed,
                                                  ExecLimits Limits) {
  return drfGuarantee(Orig, Transformed, std::move(Limits), false);
}

bool tracesafe::programCanOutput(const Program &P, Value V, ExecLimits Limits,
                                 ExecStats *Stats) {
  for (const Behaviour &B : programBehaviours(P, Limits, Stats))
    if (std::find(B.begin(), B.end(), V) != B.end())
      return true;
  return false;
}

namespace {

ThinAirReport thinAir(const Program &Orig, const Program &Transformed,
                      Value C, const ExecLimits &Limits,
                      const ExploreLimits &TracesetLimits, bool Certify) {
  ThinAirReport Out;
  Out.Constant = C;
  Out.OrigContainsConstant = Orig.containsConstant(C);
  if (Out.OrigContainsConstant)
    return Out;
  // Lemmas 2-3: with no arithmetic in the language, only a constant C in
  // the text or an `input` can put C in a trace. A program with neither
  // has no origin for C and cannot output it; its fields stay false.
  bool BoundOrig = Certify && !Orig.containsInput();
  bool BoundTransformed = Certify && !Transformed.containsInput() &&
                          !Transformed.containsConstant(C);
  if (BoundOrig && BoundTransformed) {
    Out.Route = CheckRoute::Syntactic;
    return Out;
  }
  ExecStats OutputStats;
  if (!BoundTransformed) {
    Out.TransformedOutputs =
        programCanOutput(Transformed, C, Limits, &OutputStats);
    Out.OutputSearchTruncated = OutputStats.Truncated;
  }
  // Semantic origin property (Lemma 2/6): explore tracesets over a domain
  // that includes C, so a "laundered" C (read then re-written) would show
  // up as a non-origin write while a manufactured C shows up as an origin.
  std::vector<Value> Domain = defaultDomainFor(Orig);
  if (std::find(Domain.begin(), Domain.end(), C) == Domain.end())
    Domain.push_back(C);
  ExploreStats SA, SB;
  if (!BoundOrig) {
    Traceset TO = programTraceset(Orig, Domain, TracesetLimits, &SA);
    Out.OrigHasOrigin = TO.hasOriginFor(C);
    Out.OrigExploreTruncated = SA.Truncated;
  }
  if (!BoundTransformed) {
    Traceset TT = programTraceset(Transformed, Domain, TracesetLimits, &SB);
    Out.TransformedHasOrigin = TT.hasOriginFor(C);
    Out.TransformedExploreTruncated = SB.Truncated;
  }
  Out.Truncated = OutputStats.Truncated || SA.Truncated || SB.Truncated;
  Out.Reason = mergeReason(mergeReason(OutputStats.Reason, SA.Reason),
                           SB.Reason);
  return Out;
}

} // namespace

ThinAirReport tracesafe::checkThinAir(const Program &Orig,
                                      const Program &Transformed, Value C,
                                      ExecLimits Limits,
                                      ExploreLimits TracesetLimits) {
  return thinAir(Orig, Transformed, C, Limits, TracesetLimits,
                 !Limits.ExhaustiveOracle);
}

ThinAirReport tracesafe::exploreThinAir(const Program &Orig,
                                        const Program &Transformed, Value C,
                                        ExecLimits Limits,
                                        ExploreLimits TracesetLimits) {
  return thinAir(Orig, Transformed, C, Limits, TracesetLimits, false);
}

Value tracesafe::freshConstantFor(const Program &P) {
  Value C = 42;
  while (P.containsConstant(C) || C == DefaultValue)
    ++C;
  return C;
}
