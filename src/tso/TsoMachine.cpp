#include "tso/TsoMachine.h"
#include "lang/Explore.h"
#include "tso/BufferedEngine.h"

#include <cassert>
#include <deque>

using namespace tracesafe;

namespace {

using StoreBuffer = std::deque<std::pair<SymbolId, Value>>;

struct TsoState {
  std::vector<ThreadState> Threads;
  std::vector<StoreBuffer> Buffers;
  std::map<SymbolId, Value> Memory;
  std::map<SymbolId, std::pair<ThreadId, int>> Locks;

  friend auto operator<=>(const TsoState &, const TsoState &) = default;
};

class TsoExplorer {
public:
  TsoExplorer(const Program &P, TsoLimits Limits)
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
    State.Buffers.assign(P.threadCount(), StoreBuffer{});
    ActionsDone.assign(P.threadCount(), 0);
  }

  std::set<Behaviour> run() {
    Behaviours.insert(Behaviour{});
    dfs(Behaviour{});
    return Behaviours;
  }

  ExecStats Stats;

private:
  /// Value thread \p Tid reads from \p Loc: own buffer (newest first),
  /// else memory.
  Value readValue(ThreadId Tid, SymbolId Loc) const {
    const StoreBuffer &B = State.Buffers[Tid];
    for (auto It = B.rbegin(); It != B.rend(); ++It)
      if (It->first == Loc)
        return It->second;
    auto It = State.Memory.find(Loc);
    return It == State.Memory.end() ? DefaultValue : It->second;
  }

  void dfs(const Behaviour &BehSoFar) {
    if (++Stats.Visited > Limits.MaxVisited) {
      Stats.Truncated = true;
      return;
    }
    if (!Seen.insert(std::make_tuple(State, ActionsDone, BehSoFar)).second)
      return;

    // Drain steps: the oldest entry of any non-empty buffer. The recursion
    // below reassigns State wholesale, so save/restore a full copy rather
    // than holding references across the call.
    for (ThreadId Tid = 0; Tid < State.Threads.size(); ++Tid) {
      if (State.Buffers[Tid].empty())
        continue;
      TsoState Saved = State;
      auto Entry = State.Buffers[Tid].front();
      State.Buffers[Tid].pop_front();
      State.Memory[Entry.first] = Entry.second;
      dfs(BehSoFar);
      State = std::move(Saved);
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
      StoreBuffer &B = State.Buffers[Tid];

      // Enabledness under TSO.
      if (A.isWrite() && !A.isVolatileAccess() &&
          B.size() >= Limits.MaxBufferedStores)
        continue; // Must drain first.
      bool NeedsFence = A.isSynchronisation(); // volatile R/W, lock, unlock.
      if (NeedsFence && !B.empty())
        continue; // Fence: drain first.
      if (A.isLock()) {
        auto It = State.Locks.find(A.monitor());
        if (It != State.Locks.end() && It->second.second > 0 &&
            It->second.first != Tid)
          continue;
      }

      // Apply.
      TsoState Saved = State;
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
          State.Buffers[Tid].emplace_back(A.location(), A.value());
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
  TsoState State;
  std::vector<size_t> ActionsDone;
  std::set<Behaviour> Behaviours;
  std::set<std::tuple<TsoState, std::vector<size_t>, Behaviour>> Seen;
};

} // namespace

std::set<Behaviour> tracesafe::tsoBehaviours(const Program &P,
                                             TsoLimits Limits,
                                             ExecStats *Stats) {
  if (!Limits.ExhaustiveOracle)
    return bufferedBehaviours(P, Limits, BufferModel::Tso, Stats);
  TsoExplorer E(P, Limits);
  std::set<Behaviour> Out = E.run();
  if (Stats)
    *Stats = E.Stats;
  return Out;
}

std::set<Behaviour> tracesafe::tsoOnlyBehaviours(const Program &P,
                                                 TsoLimits Limits,
                                                 ExecStats *Stats) {
  ExecStats TsoStats, ScStats;
  std::set<Behaviour> Tso = tsoBehaviours(P, Limits, &TsoStats);
  std::set<Behaviour> Sc = programBehaviours(P, scLimitsFor(Limits), &ScStats);
  if (Stats) {
    Stats->Visited = TsoStats.Visited + ScStats.Visited;
    Stats->Truncated = TsoStats.Truncated || ScStats.Truncated;
    Stats->Reason = mergeReason(TsoStats.Reason, ScStats.Reason);
  }
  std::set<Behaviour> Out;
  for (const Behaviour &B : Tso)
    if (!Sc.count(B))
      Out.insert(B);
  return Out;
}

ExecLimits tracesafe::scLimitsFor(const TsoLimits &Limits) {
  ExecLimits Sc;
  Sc.InputDomain = Limits.InputDomain;
  Sc.MaxActionsPerThread = Limits.MaxActionsPerThread;
  Sc.MaxSilentRun = Limits.MaxSilentRun;
  Sc.MaxVisited = Limits.MaxVisited;
  Sc.Shared = Limits.Shared;
  Sc.ExhaustiveOracle = Limits.ExhaustiveOracle;
  return Sc;
}
