#include "semantics/Reordering.h"

#include "semantics/Reorderable.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace tracesafe;

bool tracesafe::isReorderingFunction(const Trace &T, const Permutation &F) {
  assert(F.size() == T.size() && isPermutation(F) &&
         "reordering function must be a bijection on dom(t)");
  for (size_t I = 0; I < T.size(); ++I)
    for (size_t J = I + 1; J < T.size(); ++J)
      if (F[J] < F[I] && !reorderableWith(T[J], T[I]))
        return false;
  return true;
}

Trace tracesafe::depermutePrefix(const Trace &TPrime, const Permutation &F,
                                 size_t N) {
  assert(N <= TPrime.size() && F.size() == TPrime.size() &&
         "prefix length out of range");
  std::vector<std::pair<size_t, size_t>> Pairs; // (target, source)
  Pairs.reserve(N);
  for (size_t J = 0; J < N; ++J)
    Pairs.emplace_back(F[J], J);
  std::sort(Pairs.begin(), Pairs.end());
  Trace Out;
  for (const auto &[Target, Source] : Pairs) {
    (void)Target;
    Out.push_back(TPrime[Source]);
  }
  return Out;
}

Trace tracesafe::depermute(const Trace &TPrime, const Permutation &F) {
  return depermutePrefix(TPrime, F, TPrime.size());
}

namespace {

class DepermutationSearch {
public:
  DepermutationSearch(const Trace &TPrime,
                      const std::function<bool(const Trace &)> &Contains,
                      const ReorderingSearchLimits &Limits)
      : TPrime(TPrime), Contains(Contains), Limits(Limits),
        F(TPrime.size(), 0), Used(TPrime.size(), false) {}

  std::optional<Permutation> run(bool *Truncated) {
    bool Found = dfs(0);
    if (Truncated)
      *Truncated = Hit;
    if (Found)
      return F;
    return std::nullopt;
  }

private:
  bool dfs(size_t I) {
    if (Limits.Shared && !Limits.Shared->charge()) {
      Hit = true;
      return false;
    }
    size_t N = TPrime.size();
    if (I == N)
      return true;
    // Try targets; identity first (most syntactic transformations move few
    // actions, so this finds witnesses quickly).
    for (size_t Offset = 0; Offset < N; ++Offset) {
      size_t Target = (I + Offset) % N;
      if (Used[Target])
        continue;
      // Pairwise reorderability against already-assigned sources.
      // f(I) < f(K) with K < I requires t'_I reorderable with t'_K; the
      // other direction is unconstrained.
      bool Ok = true;
      for (size_t K = 0; K < I && Ok; ++K)
        if (Target < F[K] && !reorderableWith(TPrime[I], TPrime[K]))
          Ok = false;
      if (!Ok)
        continue;
      F[I] = Target;
      Used[Target] = true;
      // Prefix condition for n = I+1 (depends only on F[0..I]).
      if (Contains(depermutePrefix(TPrime, F, I + 1)) && dfs(I + 1))
        return true;
      Used[Target] = false;
    }
    return false;
  }

  const Trace &TPrime;
  const std::function<bool(const Trace &)> &Contains;
  ReorderingSearchLimits Limits;
  Permutation F;
  std::vector<bool> Used;
  bool Hit = false;
};

} // namespace

std::optional<Permutation> tracesafe::findDepermutation(
    const Trace &TPrime, const std::function<bool(const Trace &)> &Contains,
    const ReorderingSearchLimits &Limits, bool *Truncated) {
  DepermutationSearch S(TPrime, Contains, Limits);
  return S.run(Truncated);
}

TransformCheckResult
tracesafe::checkReordering(const Traceset &Orig, const Traceset &Transformed,
                           const ReorderingSearchLimits &Limits) {
  TransformCheckResult Result;
  auto Contains = [&Orig](const Trace &T) { return Orig.contains(T); };
  for (const Trace &TPrime : Transformed.traces()) {
    ++Result.TracesChecked;
    bool Truncated = false;
    std::optional<Permutation> F =
        findDepermutation(TPrime, Contains, Limits, &Truncated);
    if (F)
      continue;
    Result.Verdict = Truncated ? CheckVerdict::Unknown : CheckVerdict::Fails;
    Result.Counterexample = TPrime;
    return Result;
  }
  return Result;
}

TransformCheckResult tracesafe::checkEliminationThenReordering(
    const Traceset &Orig, const Traceset &Transformed,
    const EliminationSearchLimits &ElimLimits,
    const ReorderingSearchLimits &ReorderLimits) {
  TransformCheckResult Result;

  // Membership oracle for the intermediate set T-bar: "is this trace an
  // elimination of some wildcard trace belonging-to Orig?" — memoised, and
  // any truncation taints the final verdict towards Unknown.
  std::map<Trace, bool> Memo;
  bool OracleTruncated = false;
  std::set<Trace> Used; // Accepted members of T-bar, for certification.
  auto InTBar = [&](const Trace &T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    bool Truncated = false;
    bool In = findEliminationWitness(Orig, T, ElimLimits, &Truncated)
                  .has_value();
    OracleTruncated |= (Truncated && !In);
    Memo.emplace(T, In);
    return In;
  };
  auto Contains = [&](const Trace &T) {
    if (!InTBar(T))
      return false;
    Used.insert(T);
    return true;
  };

  for (const Trace &TPrime : Transformed.traces()) {
    ++Result.TracesChecked;
    bool Truncated = false;
    std::optional<Permutation> F =
        findDepermutation(TPrime, Contains, ReorderLimits, &Truncated);
    if (F)
      continue;
    Result.Verdict = (Truncated || OracleTruncated) ? CheckVerdict::Unknown
                                                    : CheckVerdict::Fails;
    Result.Counterexample = TPrime;
    return Result;
  }

  // Certification: the paper requires T-bar to be a *prefix-closed* set all
  // of whose members are eliminations of wildcard traces belonging-to Orig.
  // The de-permuted prefixes we used are members by construction; we close
  // them under prefixes and re-check membership of every prefix. (Another
  // choice of T-bar might work when this fails, so a failure here is
  // Unknown, not Fails.)
  for (const Trace &T : Used) {
    for (size_t N = 0; N < T.size(); ++N) {
      Trace P = T.prefix(N);
      if (!InTBar(P)) {
        Result.Verdict = CheckVerdict::Unknown;
        Result.Counterexample = P;
        return Result;
      }
    }
  }
  if (OracleTruncated)
    Result.Verdict = CheckVerdict::Unknown;
  return Result;
}
