#include "lang/Explore.h"

#include <algorithm>
#include <cassert>

using namespace tracesafe;

namespace {

class ThreadExplorer {
public:
  ThreadExplorer(const LangContext &Ctx, Traceset &Out, ExploreLimits Limits)
      : Ctx(Ctx), Out(Out), Limits(Limits) {}

  ExploreStats run(const Program &P, ThreadId Tid) {
    Current.push_back(Action::mkStart(Tid));
    Out.insert(Current);
    dfs(initialThreadState(P, Tid), Limits.MaxSilentRun);
    return Stats;
  }

private:
  void dfs(const ThreadState &S, size_t SilentBudget) {
    if (++Stats.Visited > Limits.MaxStates) {
      Stats.truncate(TruncationReason::StateCap);
      return;
    }
    // Tracesets retain every explored prefix, so charge the shared budget
    // roughly one trace-node worth of memory per expansion.
    if (Limits.Shared && !Limits.Shared->charge(/*Bytes=*/64)) {
      Stats.truncate(Limits.Shared->reason());
      return;
    }
    if (S.done())
      return;
    for (Step &St : possibleSteps(S, Ctx)) {
      if (!St.Act) {
        if (SilentBudget == 0) {
          Stats.truncate(TruncationReason::SilentLoop);
          continue;
        }
        dfs(St.Next, SilentBudget - 1);
        continue;
      }
      if (Current.size() - 1 >= Limits.MaxActions) {
        Stats.truncate(TruncationReason::DepthCap);
        continue;
      }
      Current.push_back(*St.Act);
      Out.insert(Current);
      dfs(St.Next, Limits.MaxSilentRun);
      Current.pop_back();
    }
  }

  const LangContext &Ctx;
  Traceset &Out;
  ExploreLimits Limits;
  ExploreStats Stats;
  Trace Current;
};

void collectConstants(const Stmt &S, std::set<Value> &Out) {
  auto FromOperand = [&Out](const Operand &O) {
    if (O.IsImm)
      Out.insert(O.Imm);
  };
  switch (S.kind()) {
  case StmtKind::Assign:
    FromOperand(cast<AssignStmt>(S).src());
    break;
  case StmtKind::Store:
    FromOperand(cast<StoreStmt>(S).src());
    break;
  case StmtKind::Print:
    FromOperand(cast<PrintStmt>(S).src());
    break;
  case StmtKind::Block:
    for (const StmtPtr &Sub : cast<BlockStmt>(S).body())
      collectConstants(*Sub, Out);
    break;
  case StmtKind::If: {
    const auto &I = cast<IfStmt>(S);
    FromOperand(I.cond().Lhs);
    FromOperand(I.cond().Rhs);
    collectConstants(I.thenStmt(), Out);
    collectConstants(I.elseStmt(), Out);
    break;
  }
  case StmtKind::While: {
    const auto &W = cast<WhileStmt>(S);
    FromOperand(W.cond().Lhs);
    FromOperand(W.cond().Rhs);
    collectConstants(W.body(), Out);
    break;
  }
  case StmtKind::Load:
  case StmtKind::Lock:
  case StmtKind::Unlock:
  case StmtKind::Skip:
  case StmtKind::Input:
    break;
  }
}

} // namespace

ExploreStats tracesafe::exploreThread(const Program &P, ThreadId Tid,
                                      const std::vector<Value> &Domain,
                                      Traceset &Out, ExploreLimits Limits,
                                      const std::vector<Value> &Inputs) {
  LangContext Ctx(P, Domain, Inputs);
  ThreadExplorer E(Ctx, Out, Limits);
  return E.run(P, Tid);
}

Traceset tracesafe::programTraceset(const Program &P,
                                    const std::vector<Value> &Domain,
                                    ExploreLimits Limits,
                                    ExploreStats *Stats,
                                    const std::vector<Value> &Inputs) {
  Traceset Out(Domain);
  ExploreStats Total;
  for (ThreadId Tid = 0; Tid < P.threadCount(); ++Tid) {
    // Exception containment: a failed exploration (allocation failure,
    // injected fault) leaves this thread's traceset partial, which is
    // exactly what a truncated traceset means — callers already refuse to
    // conclude anything definitive from it.
    try {
      Total.merge(exploreThread(P, Tid, Domain, Out, Limits, Inputs));
    } catch (...) {
      Total.truncate(TruncationReason::EngineFault);
      if (Limits.Shared)
        Limits.Shared->poison(TruncationReason::EngineFault);
      break;
    }
  }
  if (Stats)
    *Stats = Total;
  return Out;
}

std::vector<Value> tracesafe::defaultDomainFor(const Program &P,
                                               size_t MinSize) {
  std::set<Value> Vals;
  Vals.insert(DefaultValue);
  for (ThreadId Tid = 0; Tid < P.threadCount(); ++Tid)
    for (const StmtPtr &S : P.thread(Tid))
      collectConstants(*S, Vals);
  Value Fresh = Vals.empty() ? 1 : *Vals.rbegin() + 1;
  while (Vals.size() < MinSize)
    Vals.insert(Fresh++);
  return std::vector<Value>(Vals.begin(), Vals.end());
}

ScProgram::ScProgram(const Program &P, const ExecLimits &Limits) {
  std::vector<Value> Own = defaultDomainFor(P);
  const std::vector<Value> &Inputs =
      Limits.InputDomain.empty() ? Own : Limits.InputDomain;
  std::set<Value> Reads(Own.begin(), Own.end());
  Reads.insert(Inputs.begin(), Inputs.end());
  ExploreLimits XL;
  XL.MaxActions = Limits.MaxActionsPerThread;
  XL.MaxSilentRun = Limits.MaxSilentRun;
  XL.MaxStates = Limits.MaxVisited;
  XL.Shared = Limits.Shared;
  Meaning = programTraceset(P, std::vector<Value>(Reads.begin(), Reads.end()),
                            XL, &Built, Inputs);
  Search.MaxVisited = Limits.MaxVisited;
  // [[P]] already bounds every trace (start action included); the search's
  // own depth cap sits above that so it never truncates a complete build.
  Search.MaxEvents = Limits.MaxActionsPerThread + 2;
  Search.Shared = Limits.Shared;
  Search.ExhaustiveOracle = Limits.ExhaustiveOracle;
}

std::set<Behaviour> ScProgram::behaviours(ExecStats *Stats) const {
  EnumerationStats S;
  std::set<Behaviour> Out = collectBehaviours(Meaning, Search, &S);
  if (Stats) {
    *Stats = Built;
    Stats->merge({S.Visited, S.Truncated, S.Reason});
  }
  return Out;
}

RaceReport ScProgram::race() const {
  RaceReport R = findAdjacentRace(Meaning, Search);
  R.Stats = {Built.Visited + R.Stats.Visited,
             Built.Truncated || R.Stats.Truncated,
             mergeReason(Built.Reason, R.Stats.Reason)};
  return R;
}

std::set<Behaviour> tracesafe::programBehaviours(const Program &P,
                                                 ExecLimits Limits,
                                                 ExecStats *Stats) {
  return ScProgram(P, Limits).behaviours(Stats);
}

RaceReport tracesafe::findProgramRace(const Program &P, ExecLimits Limits) {
  return ScProgram(P, Limits).race();
}

Verdict<Interleaving> tracesafe::checkProgramDrf(const Program &P,
                                                 ExecLimits Limits) {
  RaceReport R = findProgramRace(P, Limits);
  if (R.HasRace)
    return Verdict<Interleaving>::refuted(R.Witness);
  if (R.Stats.Truncated)
    return Verdict<Interleaving>::unknown(R.Stats.Reason);
  return Verdict<Interleaving>::proved();
}

bool tracesafe::isProgramDrf(const Program &P, ExecLimits Limits) {
  return checkProgramDrf(P, Limits).isProved();
}
