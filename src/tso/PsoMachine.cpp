#include "tso/PsoMachine.h"
#include "lang/Explore.h"
#include "tso/BufferedEngine.h"

#include <cassert>
#include <deque>

using namespace tracesafe;

namespace {

/// Per-thread, per-location FIFO store buffers.
using PsoBuffers = std::map<SymbolId, std::deque<Value>>;

struct PsoState {
  std::vector<ThreadState> Threads;
  std::vector<PsoBuffers> Buffers;
  std::map<SymbolId, Value> Memory;
  std::map<SymbolId, std::pair<ThreadId, int>> Locks;

  friend auto operator<=>(const PsoState &, const PsoState &) = default;
};

class PsoExplorer {
public:
  PsoExplorer(const Program &P, TsoLimits Limits)
      : Ctx(P, Limits.InputDomain.empty() ? defaultDomainFor(P)
                                          : Limits.InputDomain),
        Limits(Limits) {
    for (ThreadId Tid = 0; Tid < P.threadCount(); ++Tid) {
      bool Trunc = false;
      State.Threads.push_back(
          silentClosure(initialThreadState(P, Tid), Ctx,
                        Limits.MaxSilentRun, &Trunc));
      Stats.Truncated |= Trunc;
    }
    State.Buffers.assign(P.threadCount(), PsoBuffers{});
    ActionsDone.assign(P.threadCount(), 0);
  }

  std::set<Behaviour> run() {
    Behaviours.insert(Behaviour{});
    dfs(Behaviour{});
    return Behaviours;
  }

  ExecStats Stats;

private:
  Value readValue(ThreadId Tid, SymbolId Loc) const {
    auto It = State.Buffers[Tid].find(Loc);
    if (It != State.Buffers[Tid].end() && !It->second.empty())
      return It->second.back(); // Newest own store wins.
    auto MemIt = State.Memory.find(Loc);
    return MemIt == State.Memory.end() ? DefaultValue : MemIt->second;
  }

  bool buffersEmpty(ThreadId Tid) const {
    for (const auto &[Loc, Q] : State.Buffers[Tid])
      if (!Q.empty())
        return false;
    return true;
  }

  size_t bufferedCount(ThreadId Tid) const {
    size_t N = 0;
    for (const auto &[Loc, Q] : State.Buffers[Tid])
      N += Q.size();
    return N;
  }

  void dfs(const Behaviour &BehSoFar) {
    if (++Stats.Visited > Limits.MaxVisited) {
      Stats.Truncated = true;
      return;
    }
    if (!Seen.insert(std::make_tuple(State, ActionsDone, BehSoFar)).second)
      return;

    // Drain steps: the oldest entry of any per-location buffer. This is
    // where PSO differs from TSO — drains of different locations commute.
    for (ThreadId Tid = 0; Tid < State.Threads.size(); ++Tid) {
      // Collect first: the recursion reassigns State, which would
      // invalidate iterators into its maps.
      std::vector<SymbolId> Pending;
      for (const auto &[Loc, Q] : State.Buffers[Tid])
        if (!Q.empty())
          Pending.push_back(Loc);
      for (SymbolId Loc : Pending) {
        PsoState Saved = State;
        Value V = State.Buffers[Tid][Loc].front();
        State.Buffers[Tid][Loc].pop_front();
        State.Memory[Loc] = V;
        dfs(BehSoFar);
        State = std::move(Saved);
      }
    }

    // Instruction steps.
    for (ThreadId Tid = 0; Tid < State.Threads.size(); ++Tid) {
      const ThreadState &S = State.Threads[Tid];
      if (S.done())
        continue;
      if (ActionsDone[Tid] >= Limits.MaxActionsPerThread) {
        Stats.Truncated = true;
        continue;
      }
      std::vector<Step> Steps = possibleStepsWithMemory(
          S, Ctx, [&](SymbolId Loc) { return readValue(Tid, Loc); });
      assert(!Steps.empty() && Steps[0].Act &&
             "closed thread must have pending actions");
      for (Step &PendingStep : Steps) {
      const Action &A = *PendingStep.Act;

      if (A.isWrite() && !A.isVolatileAccess() &&
          bufferedCount(Tid) >= Limits.MaxBufferedStores)
        continue;
      if (A.isSynchronisation() && !buffersEmpty(Tid))
        continue; // Fence.
      if (A.isLock()) {
        auto It = State.Locks.find(A.monitor());
        if (It != State.Locks.end() && It->second.second > 0 &&
            It->second.first != Tid)
          continue;
      }

      PsoState Saved = State;
      std::vector<size_t> SavedDone = ActionsDone;
      bool Trunc = false;
      State.Threads[Tid] =
          silentClosure(PendingStep.Next, Ctx, Limits.MaxSilentRun, &Trunc);
      Stats.Truncated |= Trunc;
      ++ActionsDone[Tid];
      Behaviour NextBeh = BehSoFar;
      if (A.isWrite()) {
        if (A.isVolatileAccess())
          State.Memory[A.location()] = A.value();
        else
          State.Buffers[Tid][A.location()].push_back(A.value());
      } else if (A.isLock()) {
        auto &Slot = State.Locks[A.monitor()];
        Slot = {Tid, Slot.second + 1};
      } else if (A.isUnlock()) {
        auto It = State.Locks.find(A.monitor());
        assert(It != State.Locks.end() && It->second.first == Tid);
        if (--It->second.second == 0)
          State.Locks.erase(It);
      } else if (A.isExternal()) {
        NextBeh.push_back(A.value());
        Behaviours.insert(NextBeh);
      }
      dfs(NextBeh);
      State = std::move(Saved);
      ActionsDone = std::move(SavedDone);
      }
    }
  }

  LangContext Ctx;
  TsoLimits Limits;
  PsoState State;
  std::vector<size_t> ActionsDone;
  std::set<Behaviour> Behaviours;
  std::set<std::tuple<PsoState, std::vector<size_t>, Behaviour>> Seen;
};

} // namespace

std::set<Behaviour> tracesafe::psoBehaviours(const Program &P,
                                             TsoLimits Limits,
                                             ExecStats *Stats) {
  if (!Limits.ExhaustiveOracle)
    return bufferedBehaviours(P, Limits, BufferModel::Pso, Stats);
  PsoExplorer E(P, Limits);
  std::set<Behaviour> Out = E.run();
  if (Stats)
    *Stats = E.Stats;
  return Out;
}

std::set<Behaviour> tracesafe::psoOnlyBehaviours(const Program &P,
                                                 TsoLimits Limits,
                                                 ExecStats *Stats) {
  ExecStats PsoStats, ScStats;
  std::set<Behaviour> Pso = psoBehaviours(P, Limits, &PsoStats);
  std::set<Behaviour> Sc = programBehaviours(P, scLimitsFor(Limits), &ScStats);
  if (Stats) {
    Stats->Visited = PsoStats.Visited + ScStats.Visited;
    Stats->Truncated = PsoStats.Truncated || ScStats.Truncated;
    Stats->Reason = mergeReason(PsoStats.Reason, ScStats.Reason);
  }
  std::set<Behaviour> Out;
  for (const Behaviour &B : Pso)
    if (!Sc.count(B))
      Out.insert(B);
  return Out;
}
