#include "TsoOracle.h"

#include "lang/Explore.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <iterator>

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
    ++Stats.Visited;
    if (Limits.Shared && !Limits.Shared->charge()) {
      Stats.truncate(Limits.Shared->reason());
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
    ++Stats.Visited;
    if (Limits.Shared && !Limits.Shared->charge()) {
      Stats.truncate(Limits.Shared->reason());
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

template <typename Explorer>
std::set<Behaviour> explore(const Program &P, const TsoLimits &Limits,
                            ExecStats *Stats) {
  Explorer E(P, Limits);
  std::set<Behaviour> Out = E.run();
  if (Stats)
    *Stats = E.Stats;
  return Out;
}

/// \p Machine minus the SC behaviours of \p P from the seed enumerator.
std::set<Behaviour> minusSc(const Program &P, const TsoLimits &Limits,
                            const std::set<Behaviour> &Machine) {
  ExecLimits ScLimits = scLimitsFor(Limits);
  ScLimits.ExhaustiveOracle = true;
  std::set<Behaviour> Sc = programBehaviours(P, ScLimits);
  std::set<Behaviour> Out;
  std::set_difference(Machine.begin(), Machine.end(), Sc.begin(), Sc.end(),
                      std::inserter(Out, Out.end()));
  return Out;
}

} // namespace

std::set<Behaviour> tracesafe::oracleTsoBehaviours(const Program &P,
                                                   TsoLimits Limits,
                                                   ExecStats *Stats) {
  return explore<TsoExplorer>(P, Limits, Stats);
}

std::set<Behaviour> tracesafe::oraclePsoBehaviours(const Program &P,
                                                   TsoLimits Limits,
                                                   ExecStats *Stats) {
  return explore<PsoExplorer>(P, Limits, Stats);
}

std::set<Behaviour> tracesafe::oracleTsoOnlyBehaviours(const Program &P,
                                                       TsoLimits Limits) {
  return minusSc(P, Limits, oracleTsoBehaviours(P, Limits));
}

std::set<Behaviour> tracesafe::oraclePsoOnlyBehaviours(const Program &P,
                                                       TsoLimits Limits) {
  return minusSc(P, Limits, oraclePsoBehaviours(P, Limits));
}
