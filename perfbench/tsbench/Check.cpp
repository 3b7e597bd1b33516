#include "Check.h"

#include "lang/Explore.h"
#include "lang/Parser.h"

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace tsbench {

Outcome judge(const Workload &W, uint32_t Index, const QueryResponse &R,
              const std::map<uint32_t, std::string> &Bases) {
  switch (R.Status) {
  case ResponseStatus::Ok:
    break;
  case ResponseStatus::Overloaded:
    return Outcome::Overloaded;
  case ResponseStatus::BadRequest:
    return Outcome::BadRequest;
  default:
    return Outcome::Transport;
  }
  const BenchQuery &Q = W.Queries[Index];
  if (Q.Base >= 0) {
    auto It = Bases.find(static_cast<uint32_t>(Q.Base));
    if (It == Bases.end() || It->second != R.str())
      return Outcome::Wrong;
  }
  if (R.Kind == VerdictKind::Unknown)
    return Outcome::Undecided;
  if ((Q.Want == Expect::Proved && R.Kind != VerdictKind::Proved) ||
      (Q.Want == Expect::Refuted && R.Kind != VerdictKind::Refuted))
    return Outcome::Wrong;
  return Outcome::Ok;
}

bool inOracleSample(uint64_t Seed, uint32_t Index) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ULL + Index;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return ((Z ^ (Z >> 31)) & 7) == 0;
}

std::string renderBehaviours(const std::set<Behaviour> &S) {
  std::string Out = "behaviours=" + std::to_string(S.size());
  size_t Shown = 0;
  for (const Behaviour &B : S) {
    if (Shown++ == 32) {
      Out += " ...";
      break;
    }
    Out += " [";
    for (size_t I = 0; I < B.size(); ++I) {
      if (I)
        Out += ',';
      Out += std::to_string(B[I]);
    }
    Out += "]";
  }
  return Out;
}

std::optional<QueryResponse> oracleAnswer(const QueryRequest &Q) {
  ParseResult P = parseProgram(Q.Program);
  if (!P)
    return std::nullopt;
  // A far larger budget than the daemon's quota: the oracle re-derives
  // complete answers only.
  Budget B(BudgetSpec{0, 50'000'000, 0});
  ExploreLimits XL;
  XL.Shared = &B;
  XL.Workers = 1;
  ExploreStats XS;
  Traceset TS = programTraceset(*P.Prog, defaultDomainFor(*P.Prog, 2), XL, &XS);
  if (XS.Truncated)
    return std::nullopt;
  EnumerationLimits EL;
  EL.Shared = &B;
  EL.Workers = 1;
  EL.ExhaustiveOracle = true;
  QueryResponse R;
  R.Status = ResponseStatus::Ok;
  if (Q.Kind == QueryKind::ProgramDrf) {
    Verdict<Interleaving> V = checkDataRaceFreedom(TS, EL);
    if (V.Kind == VerdictKind::Unknown)
      return std::nullopt;
    R.Kind = V.Kind;
    R.Detail = V.isProved() ? "data-race-free" : "race";
    return R;
  }
  EnumerationStats ES;
  std::set<Behaviour> S = collectBehaviours(TS, EL, &ES);
  if (ES.Truncated)
    return std::nullopt;
  R.Kind = VerdictKind::Proved;
  R.Detail = renderBehaviours(S);
  return R;
}

} // namespace tsbench
