#include "tso/TsoExplain.h"

#include "lang/Printer.h"

#include <deque>

using namespace tracesafe;

std::set<Behaviour>
tracesafe::reachableScBehaviours(const Program &P, size_t MaxDepth,
                                 const RuleSet &Rules, ExecLimits Limits,
                                 bool *Truncated,
                                 size_t *ProgramsExplored) {
  // Every rewritten program faces P's environment: a rewrite that drops a
  // constant must not shrink the input domain.
  if (Limits.InputDomain.empty())
    Limits.InputDomain = defaultDomainFor(P);
  std::set<Behaviour> Union;
  std::set<std::string> SeenPrograms;
  std::deque<std::pair<Program, size_t>> Queue;
  Queue.emplace_back(P, 0);
  SeenPrograms.insert(printProgram(P));
  size_t Explored = 0;
  bool Trunc = false;
  while (!Queue.empty()) {
    auto [Cur, Depth] = std::move(Queue.front());
    Queue.pop_front();
    ++Explored;
    ExecStats ScStats;
    std::set<Behaviour> Sc = programBehaviours(Cur, Limits, &ScStats);
    Trunc |= ScStats.Truncated;
    Union.insert(Sc.begin(), Sc.end());
    if (Depth == MaxDepth)
      continue;
    for (const RewriteSite &Site : findRewriteSites(Cur, Rules)) {
      Program Next = applyRewrite(Cur, Site);
      if (SeenPrograms.insert(printProgram(Next)).second)
        Queue.emplace_back(std::move(Next), Depth + 1);
    }
  }
  if (Truncated)
    *Truncated = Trunc;
  if (ProgramsExplored)
    *ProgramsExplored = Explored;
  return Union;
}

TsoExplainResult
tracesafe::explainTsoByTransformations(const Program &P, size_t MaxDepth,
                                       const RuleSet &Rules,
                                       TsoLimits Limits) {
  TsoExplainResult Result;
  ExecStats TsoStats;
  std::set<Behaviour> Tso = tsoBehaviours(P, Limits, &TsoStats);
  Result.Truncated |= TsoStats.Truncated;
  Result.TsoBehaviours = Tso.size();

  bool UnionTruncated = false;
  std::set<Behaviour> Union = reachableScBehaviours(
      P, MaxDepth, Rules, scLimitsFor(Limits), &UnionTruncated,
      &Result.ProgramsExplored);
  Result.Truncated |= UnionTruncated;
  Result.ScBehaviours = Union.size();

  Result.Explained = true;
  for (const Behaviour &B : Tso) {
    if (Union.count(B))
      continue;
    Result.Explained = false;
    Result.Unexplained = B;
    break;
  }
  return Result;
}
