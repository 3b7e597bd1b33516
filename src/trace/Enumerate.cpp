#include "trace/Enumerate.h"

#include "support/Intern.h"
#include "trace/ActionWord.h"
#include "trace/HappensBefore.h"

#include <algorithm>
#include <map>
#include <memory>

using namespace tracesafe;

//===----------------------------------------------------------------------===//
// Seed sequential engine (EnumerationLimits::ExhaustiveOracle).
//
// This is the original std::set-memoised exhaustive search, kept verbatim as
// a cross-check oracle for the reduced engine below. The equivalence tests
// assert verdict-identical results between the two on every program in the
// suite.
//===----------------------------------------------------------------------===//

namespace {

/// Shared DFS machinery over global traceset states.
class Enumerator {
public:
  Enumerator(const Traceset &T, EnumerationLimits Limits)
      : T(T), Limits(Limits) {
    for (ThreadId Tid : T.entryPoints())
      ThreadTraces.emplace(Tid, Trace());
  }

  /// An action of thread Tid is enabled in the current global state when
  /// the extended thread trace stays in T, reads see memory, locks respect
  /// mutual exclusion, and the thread's first action is its own start.
  bool enabled(ThreadId Tid, const Action &A) const {
    const Trace &Cur = ThreadTraces.at(Tid);
    if (Cur.empty() && (!A.isStart() || A.entry() != Tid))
      return false;
    if (A.isRead()) {
      auto It = Memory.find(A.location());
      Value Expected = It == Memory.end() ? DefaultValue : It->second;
      if (A.value() != Expected)
        return false;
    }
    if (A.isLock()) {
      auto It = LockDepth.find(A.monitor());
      if (It != LockDepth.end() && It->second.second > 0 &&
          It->second.first != Tid)
        return false;
    }
    return true;
  }

  /// All (Tid, Action) steps enabled now.
  std::vector<Event> enabledSteps() const {
    std::vector<Event> Out;
    for (const auto &[Tid, Cur] : ThreadTraces)
      for (const Action &A : T.successors(Cur))
        if (enabled(Tid, A))
          Out.push_back(Event{Tid, A});
    return Out;
  }

  void apply(const Event &E) {
    ThreadTraces[E.Tid].push_back(E.Act);
    if (E.Act.isWrite())
      MemoryLog.push_back({E.Act.location(), setMemory(E.Act.location(),
                                                       E.Act.value())});
    if (E.Act.isLock()) {
      auto &Slot = LockDepth[E.Act.monitor()];
      Slot.first = E.Tid;
      ++Slot.second;
    }
    if (E.Act.isUnlock())
      --LockDepth[E.Act.monitor()].second;
    Current.push_back(E);
  }

  void undo(const Event &E) {
    Current.pop_back();
    if (E.Act.isUnlock()) {
      auto &Slot = LockDepth[E.Act.monitor()];
      Slot.first = E.Tid; // Re-owner: the unlocker held it.
      ++Slot.second;
    }
    if (E.Act.isLock())
      --LockDepth[E.Act.monitor()].second;
    if (E.Act.isWrite()) {
      auto [Loc, Old] = MemoryLog.back();
      MemoryLog.pop_back();
      if (Old)
        Memory[Loc] = *Old;
      else
        Memory.erase(Loc);
    }
    // Pop the thread trace.
    Trace &Cur = ThreadTraces[E.Tid];
    Cur = Cur.prefix(Cur.size() - 1);
  }

  /// DFS visiting every execution prefix. Visit=false stops everything.
  bool dfs(const std::function<bool(const Interleaving &)> &Visit,
           bool MaximalOnly, EnumerationStats &Stats) {
    if (++Stats.Visited > Limits.MaxVisited) {
      Stats.truncate(TruncationReason::StateCap);
      return true;
    }
    if (Current.size() >= Limits.MaxEvents) {
      Stats.truncate(TruncationReason::DepthCap);
      return true;
    }
    if (Limits.Shared && !Limits.Shared->charge()) {
      Stats.truncate(Limits.Shared->reason());
      return true;
    }
    std::vector<Event> Steps = enabledSteps();
    if (!MaximalOnly && !Current.empty())
      if (!Visit(Current))
        return false;
    if (MaximalOnly && Steps.empty())
      if (!Visit(Current))
        return false;
    for (const Event &E : Steps) {
      apply(E);
      bool Continue = dfs(Visit, MaximalOnly, Stats);
      undo(E);
      if (!Continue)
        return false;
    }
    return true;
  }

  const Interleaving &current() const { return Current; }

private:
  std::optional<Value> setMemory(SymbolId Loc, Value V) {
    std::optional<Value> Old;
    auto It = Memory.find(Loc);
    if (It != Memory.end())
      Old = It->second;
    Memory[Loc] = V;
    return Old;
  }

  const Traceset &T;
  EnumerationLimits Limits;
  std::map<ThreadId, Trace> ThreadTraces;
  std::map<SymbolId, Value> Memory;
  std::vector<std::pair<SymbolId, std::optional<Value>>> MemoryLog;
  std::map<SymbolId, std::pair<ThreadId, int>> LockDepth;
  Interleaving Current;
};

/// Memoisation key for the oracle behaviour/race searches: the full global
/// state. Per-thread traces determine enabled continuations; memory and
/// locks determine enabledness; the tail component disambiguates what else
/// the future can depend on (behaviour so far, or the previous event for
/// the adjacent-race search).
struct StateKey {
  std::vector<std::pair<ThreadId, Trace>> ThreadTraces;
  std::vector<std::pair<SymbolId, Value>> Memory;
  std::vector<std::pair<SymbolId, std::pair<ThreadId, int>>> Locks;
  std::vector<Event> Tail;

  friend auto operator<=>(const StateKey &, const StateKey &) = default;
};

class MemoSearch {
public:
  MemoSearch(const Traceset &T, EnumerationLimits Limits)
      : T(T), Limits(Limits) {
    for (ThreadId Tid : T.entryPoints())
      ThreadTraces.emplace(Tid, Trace());
  }

  const Traceset &T;
  EnumerationLimits Limits;
  std::map<ThreadId, Trace> ThreadTraces;
  std::map<SymbolId, Value> Memory;
  std::map<SymbolId, std::pair<ThreadId, int>> LockDepth;
  std::set<StateKey> Seen;
  EnumerationStats Stats;

  bool enabled(ThreadId Tid, const Action &A) const {
    const Trace &Cur = ThreadTraces.at(Tid);
    if (Cur.empty() && (!A.isStart() || A.entry() != Tid))
      return false;
    if (A.isRead()) {
      auto It = Memory.find(A.location());
      Value Expected = It == Memory.end() ? DefaultValue : It->second;
      if (A.value() != Expected)
        return false;
    }
    if (A.isLock()) {
      auto It = LockDepth.find(A.monitor());
      if (It != LockDepth.end() && It->second.second > 0 &&
          It->second.first != Tid)
        return false;
    }
    return true;
  }

  StateKey key(std::vector<Event> Tail) const {
    StateKey K;
    for (const auto &[Tid, Tr] : ThreadTraces)
      K.ThreadTraces.emplace_back(Tid, Tr);
    for (const auto &[Loc, V] : Memory)
      K.Memory.emplace_back(Loc, V);
    for (const auto &[Mon, Slot] : LockDepth)
      if (Slot.second > 0)
        K.Locks.emplace_back(Mon, Slot);
    K.Tail = std::move(Tail);
    return K;
  }

  template <typename OnStep>
  void search(std::vector<Event> Tail, const OnStep &Step) {
    if (++Stats.Visited > Limits.MaxVisited) {
      Stats.truncate(TruncationReason::StateCap);
      return;
    }
    // Each memoised state retains a full StateKey; charge the shared
    // budget a rough per-entry footprint so memory caps bite where the
    // memory actually goes.
    if (Limits.Shared && !Limits.Shared->charge(/*Bytes=*/256)) {
      Stats.truncate(Limits.Shared->reason());
      return;
    }
    if (!Seen.insert(key(Tail)).second)
      return;
    for (const auto &[Tid, Cur] : ThreadTraces) {
      if (Cur.size() >= Limits.MaxEvents) {
        Stats.truncate(TruncationReason::DepthCap);
        continue;
      }
      for (const Action &A : T.successors(Cur)) {
        if (!enabled(Tid, A))
          continue;
        Event E{Tid, A};
        std::vector<Event> NextTail = Step(Tail, E);
        // Apply.
        ThreadTraces[Tid].push_back(A);
        std::optional<Value> OldMem;
        if (A.isWrite()) {
          auto It = Memory.find(A.location());
          if (It != Memory.end())
            OldMem = It->second;
          Memory[A.location()] = A.value();
        }
        std::optional<std::pair<ThreadId, int>> OldLock;
        if (A.isLock() || A.isUnlock()) {
          auto &Slot = LockDepth[A.monitor()];
          OldLock = Slot;
          if (A.isLock()) {
            Slot = {Tid, Slot.second + 1};
          } else {
            Slot = {Slot.first, Slot.second - 1};
          }
        }
        search(std::move(NextTail), Step);
        // Undo.
        if (OldLock)
          LockDepth[A.monitor()] = *OldLock;
        if (A.isWrite()) {
          if (OldMem)
            Memory[A.location()] = *OldMem;
          else
            Memory.erase(A.location());
        }
        Trace &C = ThreadTraces[Tid];
        C = C.prefix(C.size() - 1);
      }
    }
  }
};

std::set<Behaviour> oracleCollectBehaviours(const Traceset &T,
                                            EnumerationLimits Limits,
                                            EnumerationStats *Stats) {
  std::set<Behaviour> Result;
  Result.insert(Behaviour{});
  MemoSearch S(T, Limits);
  // Tail carries the behaviour so far, encoded as external events.
  S.search({}, [&](const std::vector<Event> &Tail, const Event &E) {
    std::vector<Event> Next = Tail;
    if (E.Act.isExternal()) {
      Next.push_back(E);
      Behaviour B;
      for (const Event &Ev : Next)
        B.push_back(Ev.Act.value());
      Result.insert(std::move(B));
    }
    return Next;
  });
  if (Stats)
    *Stats = S.Stats;
  return Result;
}

RaceReport oracleFindAdjacentRace(const Traceset &T,
                                  EnumerationLimits Limits) {
  RaceReport Report;
  // DFS (no memo shortcut for the witness path: we re-run a plain DFS, but
  // with a memoised feasibility filter keyed on (state, previous event); the
  // previous event is all the future needs to know to detect adjacency).
  MemoSearch S(T, Limits);
  // We detect the race inside the Step callback; to reconstruct a witness we
  // keep the current path separately.
  std::vector<Event> Path;
  bool Found = false;
  Interleaving Witness;

  // Plain recursive DFS with memoisation on (state, last event).
  std::function<void()> Dfs = [&]() {
    if (Found)
      return;
    if (++S.Stats.Visited > Limits.MaxVisited) {
      S.Stats.truncate(TruncationReason::StateCap);
      return;
    }
    if (Limits.Shared && !Limits.Shared->charge(/*Bytes=*/256)) {
      S.Stats.truncate(Limits.Shared->reason());
      return;
    }
    std::vector<Event> Tail;
    if (!Path.empty())
      Tail.push_back(Path.back());
    if (!S.Seen.insert(S.key(Tail)).second)
      return;
    for (const auto &[Tid, Cur] : S.ThreadTraces) {
      if (Found)
        return;
      if (Cur.size() >= Limits.MaxEvents) {
        S.Stats.truncate(TruncationReason::DepthCap);
        continue;
      }
      for (const Action &A : S.T.successors(Cur)) {
        if (Found)
          return;
        if (!S.enabled(Tid, A))
          continue;
        Event E{Tid, A};
        if (!Path.empty() && Path.back().Tid != Tid &&
            Path.back().Act.conflictsWith(A)) {
          Found = true;
          std::vector<Event> W = Path;
          W.push_back(E);
          Witness = Interleaving(std::move(W));
          return;
        }
        // Apply.
        S.ThreadTraces[Tid].push_back(A);
        std::optional<Value> OldMem;
        if (A.isWrite()) {
          auto It = S.Memory.find(A.location());
          if (It != S.Memory.end())
            OldMem = It->second;
          S.Memory[A.location()] = A.value();
        }
        std::optional<std::pair<ThreadId, int>> OldLock;
        if (A.isLock() || A.isUnlock()) {
          auto &Slot = S.LockDepth[A.monitor()];
          OldLock = Slot;
          Slot = A.isLock() ? std::make_pair(Tid, Slot.second + 1)
                            : std::make_pair(Slot.first, Slot.second - 1);
        }
        Path.push_back(E);
        Dfs();
        Path.pop_back();
        if (OldLock)
          S.LockDepth[A.monitor()] = *OldLock;
        if (A.isWrite()) {
          if (OldMem)
            S.Memory[A.location()] = *OldMem;
          else
            S.Memory.erase(A.location());
        }
        Trace &C = S.ThreadTraces[Tid];
        C = C.prefix(C.size() - 1);
      }
    }
  };
  Dfs();
  Report.HasRace = Found;
  Report.Witness = Witness;
  Report.Stats = S.Stats;
  return Report;
}

} // namespace

//===----------------------------------------------------------------------===//
// Reduced engine: hash-consed interned states, sleep-set and source-set
// partial-order reduction.
//
// Every structure the search touches is encoded as a short span of uint64
// words and interned (InternPool): per-thread traces become trie nodes
// ([parent id, action word]) so a thread's trace id updates in O(1) per
// step; global states become [header, trace ids, memory, locks, tail]
// spans; enabled steps become event ids used in sleep-set signatures.
//
// Sleep sets (Godefroid): a child inherits sleep set
//   { b in Sleep u ExploredEarlierSiblings : independent(b, chosen) },
// and sleeping transitions are not explored — the sibling branch that
// explored them covers every trace starting with them. Combined with state
// memoisation this is only sound under the subset rule (SleepMemo): a
// revisit is pruned iff a recorded sleep set is a subset of the current
// one. Both queries below survive the reduction because their predicates
// are state-local and the reduced graph still visits every reachable
// state: every full execution has an equivalent explored linearisation,
// and equivalent executions end in the same state.
//
//  - Behaviours: external actions are pairwise dependent, so equivalent
//    executions have identical external sequences; recording the behaviour
//    on every explored external edge therefore records the behaviour of
//    every execution of the full graph.
//  - Races: the paper's adjacent-conflicting-pair definition is equivalent
//    to a state-local predicate — a race exists iff some reachable state s
//    enables a, with b a pending successor of another thread, conflicting
//    with a, such that a.b (or b.a) is executable from s. (If b is a read
//    disabled after a's write, then b was enabled at s itself and the pair
//    fires as b.a; writes are always enabled.) The predicate is evaluated
//    once per distinct interned state.
//
// Source sets (persistent sets): on top of sleep sets, both memoised
// queries restrict each expansion to ONE dependence-closed group of
// threads. A conservative future footprint — every location read, every
// location written, every monitor touched, and whether an external can be
// emitted by ANY continuation of a thread's trace — is memoised per
// interned trie node; threads whose footprints overlap (monitor overlap,
// write/write, write/read, or both-external) are grouped by union-find,
// and only the group with the fewest enabled transitions is expanded.
// Transitions of threads outside the chosen group are independent of —
// and can never be enabled or disabled by — every current AND future
// transition of the group, which is exactly the persistent-set condition,
// so every maximal execution of the full graph still has an explored
// representative and every behaviour is still recorded (externals are
// pairwise dependent, so all external-capable threads land in one group).
// Selection is a pure function of the interned state, keeping the
// memoisation sound.
//
// Why the restriction also preserves the race query, even though it does
// NOT visit every reachable state: the state graph is a finite DAG (each
// step extends a thread trace inside a prefix-closed set). Claim: if a
// race-firing state is reachable from s, the restricted search starting
// at s visits some race-firing state. Induction on the height of s. Let
// pi be a path from s to a state where checkRace fires, and G the group
// chosen at s. If pi is empty the predicate fires at s itself. If pi
// contains a step of a G-thread, commute the first such step t to the
// front — every earlier step belongs to a thread outside G and is
// independent of every (current and future) G-transition, so t·pi' is a
// valid same-length path and t is explored from s; induct on the child.
// If pi avoids G entirely, the racing accesses conflict, so their two
// threads share one dependence group h. When h = G, both racing threads
// sat still along pi and no pi-step (all outside G) can write a location
// any G-thread's future reads or touch its monitors — so the racing
// pair's enabledness and value conditions at pi's end held at s already,
// and checkRace fires at s itself. When h != G, pick any enabled t in G
// (the chosen group has an enabled transition by construction): t's
// footprint is disjoint from every pi-step's and from both racing
// threads', so t·pi is a valid path and still ends in a race-firing
// state, now below the explored child t(s); induct on its height.
// Sleep sets layer on top exactly as for behaviours (the predicate is
// state-local and evaluated before expansion). The ExhaustiveOracle
// equivalence suite in test_parallel_enumerate keeps this honest.
//===----------------------------------------------------------------------===//

namespace {

// The span tag constants (TagTrace/TagEvent/TagState) and the one-word
// action packing live in trace/ActionWord.h, shared with the TSO/PSO
// engine.

/// Mazurkiewicz independence for this semantics. Dependent pairs: same
/// thread (program order); two externals (behaviour order is observable);
/// same-location accesses with a write — at ANY volatility, because even a
/// volatile read's enabledness tests memory; same-monitor lock/unlock
/// (mutual exclusion and ownership). Everything else commutes and neither
/// side can disable the other.
bool independentEvents(const Event &A, const Event &B) {
  if (A.Tid == B.Tid)
    return false;
  const Action &X = A.Act;
  const Action &Y = B.Act;
  if (X.isExternal() && Y.isExternal())
    return false;
  if ((X.isLock() || X.isUnlock()) && (Y.isLock() || Y.isUnlock()) &&
      X.monitor() == Y.monitor())
    return false;
  if (X.isMemoryAccess() && Y.isMemoryAccess() &&
      X.location() == Y.location() && (X.isWrite() || Y.isWrite()))
    return false;
  return true;
}

/// A sleep-set element: the interned event id (signature order and
/// membership tests) plus the decoded event (independence checks).
struct SleepElem {
  uint32_t Id;
  Event Ev;
};

bool sleepContains(const std::vector<SleepElem> &Sleep, uint32_t Id) {
  auto It = std::lower_bound(
      Sleep.begin(), Sleep.end(), Id,
      [](const SleepElem &S, uint32_t V) { return S.Id < V; });
  return It != Sleep.end() && It->Id == Id;
}

/// Conservative over-approximation of everything a thread can still do:
/// the union over every continuation of its trace inside the traceset.
/// Volatile accesses count as reads/writes too (their enabledness and
/// effects go through memory just like normal accesses).
struct Footprint {
  std::vector<SymbolId> Reads;    ///< sorted, deduped
  std::vector<SymbolId> Writes;   ///< sorted, deduped
  std::vector<SymbolId> Monitors; ///< sorted, deduped
  bool HasExternal = false;
};

/// Sorted-vector intersection test (linear merge).
bool overlaps(const std::vector<SymbolId> &A, const std::vector<SymbolId> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] < B[J])
      ++I;
    else if (B[J] < A[I])
      ++J;
    else
      return true;
  }
  return false;
}

/// Can ANY future transition of one thread depend on (or enable/disable)
/// ANY future transition of the other? Mirrors independentEvents over the
/// footprint over-approximation: both-external, same monitor, or a
/// same-location pair with a write.
bool footprintsDependent(const Footprint &X, const Footprint &Y) {
  if (X.HasExternal && Y.HasExternal)
    return true;
  if (overlaps(X.Monitors, Y.Monitors))
    return true;
  if (overlaps(X.Writes, Y.Writes))
    return true;
  if (overlaps(X.Writes, Y.Reads))
    return true;
  if (overlaps(X.Reads, Y.Writes))
    return true;
  return false;
}

/// Struct-of-arrays global state for the memoised engine. Memory and lock
/// state live in dense vectors indexed by the query's symbol layout
/// (every location/monitor the traceset can ever touch, collected from
/// the root footprint), so the inner step loop streams over contiguous
/// words instead of chasing std::map nodes, and the state encoding is a
/// fixed-shape span.
struct SoaState {
  std::vector<Trace> Traces;      ///< per dense thread index
  std::vector<uint32_t> TraceIds; ///< interned trie node per thread
  std::vector<Value> Mem;         ///< per dense location index
  std::vector<std::pair<ThreadId, int>> Locks; ///< per dense monitor index
  std::vector<Value> Tail;        ///< behaviour so far (behaviours mode)
  Interleaving Path;              ///< events from the root (race mode)
  std::vector<SleepElem> Sleep;   ///< sorted by Id
};

/// Cache keyed by interned trie id. Values are heap-allocated once and
/// never move, so references handed out stay valid for the query.
template <typename T> class IdTable {
public:
  const T *find(uint32_t Id) const {
    const std::unique_ptr<T> *Slot = Slots.find(Id);
    return Slot ? Slot->get() : nullptr;
  }

  /// Stores \p Val for \p Id (absent so far). Bytes of any chunk this
  /// call allocated are added to \p ChunkBytes.
  const T &insert(uint32_t Id, std::unique_ptr<T> Val, uint64_t &ChunkBytes) {
    std::unique_ptr<T> &Slot = Slots.slot(Id, ChunkBytes);
    Slot = std::move(Val);
    return *Slot;
  }

private:
  StableChunks<std::unique_ptr<T>> Slots;
};

/// The memoised behaviour/race searches on the interned + sleep-set +
/// source-set engine.
class ReducedQuery {
public:
  ReducedQuery(const Traceset &T, const EnumerationLimits &Limits,
               bool RaceMode)
      : T(T), Limits(Limits), RaceMode(RaceMode), Structs(Limits.Shared),
        Sigs(Limits.Shared) {
    if (Limits.SleepSets)
      Memo = std::make_unique<SleepMemo>(Sigs, Limits.Shared);
    Tids = T.entryPoints();
    std::sort(Tids.begin(), Tids.end());
  }

  void run() {
    SoaState Root;
    Root.Traces.assign(Tids.size(), Trace());
    uint64_t EmptyWord = TagTrace;
    try {
      // The root-state intern is the engine's very first allocation; an
      // injected InternAlloc failure can land here, before any search
      // frame's containment is on the stack. The root footprint walk
      // below interns the whole trace trie, so it lives here too — it
      // both warms the successor/footprint caches and yields the dense
      // symbol layout (every location/monitor the traceset can reach).
      uint32_t RootId = Structs.intern(&EmptyWord, 1).Id;
      Root.TraceIds.assign(Tids.size(), RootId);
      const Footprint &RootF = footprintFor(RootId, Trace());
      LocIds = RootF.Reads;
      LocIds.insert(LocIds.end(), RootF.Writes.begin(), RootF.Writes.end());
      std::sort(LocIds.begin(), LocIds.end());
      LocIds.erase(std::unique(LocIds.begin(), LocIds.end()), LocIds.end());
      MonIds = RootF.Monitors;
    } catch (...) {
      engineFault();
      return;
    }
    Root.Mem.assign(LocIds.size(), DefaultValue);
    Root.Locks.assign(MonIds.size(), {0, 0});
    if (!RaceMode)
      Behaviours.insert(Behaviour{});
    // Exception containment: an allocation failure (real or injected)
    // inside the intern pools unwinds to here and becomes a truncated
    // result — partial behaviour sets / "no race found so far" are exactly
    // what Unknown(EngineFault) means, and any witness already recorded
    // stays definitive.
    try {
      search(Root);
    } catch (...) {
      engineFault();
    }
  }

  // Results (valid after run()).
  std::set<Behaviour> Behaviours;
  bool HasRace = false;
  Interleaving Witness;
  EnumerationStats Stats;

private:
  /// Marks the query faulted: truncate with EngineFault and poison the
  /// shared budget so sibling engines of the same query unwind too — a
  /// result built on a faulted sub-search must never read as Proved.
  void engineFault() {
    Stats.truncate(TruncationReason::EngineFault);
    Stop = true;
    if (Limits.Shared)
      Limits.Shared->poison(TruncationReason::EngineFault);
  }

  /// Dense index of a location/monitor in the query's symbol layout. The
  /// layouts are tiny sorted vectors (every symbol the traceset can ever
  /// touch, from the root footprint), so a branchless binary search beats
  /// any map. Every action reachable by the search is covered.
  size_t locIndex(SymbolId L) const {
    return std::lower_bound(LocIds.begin(), LocIds.end(), L) -
           LocIds.begin();
  }
  size_t monIndex(SymbolId M) const {
    return std::lower_bound(MonIds.begin(), MonIds.end(), M) -
           MonIds.begin();
  }

  bool soaEnabled(const SoaState &N, size_t Ti, const Action &A) const {
    const Trace &Cur = N.Traces[Ti];
    if (Cur.empty() && (!A.isStart() || A.entry() != Tids[Ti]))
      return false;
    if (A.isRead() && !A.isWildcard() &&
        A.value() != N.Mem[locIndex(A.location())])
      return false;
    if (A.isLock()) {
      const auto &Slot = N.Locks[monIndex(A.monitor())];
      if (Slot.second > 0 && Slot.first != Tids[Ti])
        return false;
    }
    return true;
  }

  struct SoaUndo {
    uint32_t OldTraceId = 0;
    Value OldMem = 0;
    std::pair<ThreadId, int> OldLock{0, 0};
    bool PushedTail = false;
    bool PushedPath = false;
  };

  void applySoa(SoaState &N, size_t Ti, const Event &Ev, SoaUndo &U) {
    const Action &A = Ev.Act;
    N.Traces[Ti].push_back(A);
    U.OldTraceId = N.TraceIds[Ti];
    uint64_t W[2] = {TagTrace | N.TraceIds[Ti], actionWord(A)};
    N.TraceIds[Ti] = Structs.intern(W, 2).Id;
    if (A.isWrite()) {
      Value &Slot = N.Mem[locIndex(A.location())];
      U.OldMem = Slot;
      Slot = A.value();
    }
    if (A.isLock() || A.isUnlock()) {
      auto &Slot = N.Locks[monIndex(A.monitor())];
      U.OldLock = Slot;
      Slot = A.isLock() ? std::make_pair(Ev.Tid, Slot.second + 1)
                        : std::make_pair(Slot.first, Slot.second - 1);
    }
    if (!RaceMode && A.isExternal()) {
      N.Tail.push_back(A.value());
      U.PushedTail = true;
    }
    if (RaceMode) {
      N.Path.push_back(Ev);
      U.PushedPath = true;
    }
  }

  void undoSoa(SoaState &N, size_t Ti, const Event &Ev, const SoaUndo &U) {
    const Action &A = Ev.Act;
    if (U.PushedPath)
      N.Path.pop_back();
    if (U.PushedTail)
      N.Tail.pop_back();
    if (A.isLock() || A.isUnlock())
      N.Locks[monIndex(A.monitor())] = U.OldLock;
    if (A.isWrite())
      N.Mem[locIndex(A.location())] = U.OldMem;
    N.TraceIds[Ti] = U.OldTraceId;
    N.Traces[Ti].pop_back();
  }

  /// [TagState | tail length, trace ids, memory values (two per word,
  /// position-implicit locations), one word per monitor slot, tail*].
  /// The dense layout is fixed per query, so positions are canonical; a
  /// lock slot at depth 0 encodes as 0 regardless of its last owner
  /// (semantically identical states must encode identically).
  void encodeState(const SoaState &N, std::vector<uint64_t> &Out) const {
    Out.clear();
    Out.reserve(1 + N.TraceIds.size() + (N.Mem.size() + 1) / 2 +
                N.Locks.size() + N.Tail.size());
    Out.push_back(TagState | N.Tail.size());
    for (uint32_t Id : N.TraceIds)
      Out.push_back(Id);
    for (size_t I = 0; I < N.Mem.size(); I += 2) {
      uint64_t W = static_cast<uint32_t>(N.Mem[I]);
      if (I + 1 < N.Mem.size())
        W = (W << 32) | static_cast<uint32_t>(N.Mem[I + 1]);
      Out.push_back(W);
    }
    for (const auto &Slot : N.Locks)
      Out.push_back(Slot.second > 0
                        ? (static_cast<uint64_t>(Slot.first) << 32) |
                              static_cast<uint32_t>(Slot.second)
                        : 0);
    for (Value V : N.Tail)
      Out.push_back(static_cast<uint32_t>(V));
  }

  /// Successors of a thread trace, memoised by its interned trie id.
  /// Traceset::successors walks the underlying std::set with full trace
  /// comparisons — the dominant per-expansion cost — but many states share
  /// the same per-thread traces, so one walk per *distinct* trace serves
  /// every arrival.
  const std::vector<Action> &successorsFor(uint32_t Id, const Trace &Tr) {
    if (const std::vector<Action> *Hit = SuccCache.find(Id))
      return *Hit;
    auto Val = std::make_unique<std::vector<Action>>(T.successors(Tr));
    uint64_t ValBytes =
        Val->capacity() * sizeof(Action) + sizeof(void *) * 4;
    uint64_t ChunkBytes = 0;
    const std::vector<Action> &Out =
        SuccCache.insert(Id, std::move(Val), ChunkBytes);
    if (Limits.Shared)
      Limits.Shared->chargeBytes(ChunkBytes + ValBytes);
    return Out;
  }

  /// Future footprint of a thread trace, memoised by its interned trie id
  /// like successorsFor. Recursion is bounded by the (finite, prefix-
  /// closed) traceset depth, and each distinct trace node is computed
  /// once.
  const Footprint &footprintFor(uint32_t Id, const Trace &Tr) {
    if (const Footprint *Hit = FootCache.find(Id))
      return *Hit;
    Footprint F;
    Trace Child = Tr;
    for (const Action &A : successorsFor(Id, Tr)) {
      switch (A.kind()) {
      case ActionKind::Read:
        F.Reads.push_back(A.location());
        break;
      case ActionKind::Write:
        F.Writes.push_back(A.location());
        break;
      case ActionKind::Lock:
      case ActionKind::Unlock:
        F.Monitors.push_back(A.monitor());
        break;
      case ActionKind::External:
        F.HasExternal = true;
        break;
      case ActionKind::Start:
        break; // starts never interact across threads
      }
      uint64_t W[2] = {TagTrace | Id, actionWord(A)};
      uint32_t ChildId = Structs.intern(W, 2).Id;
      Child.push_back(A);
      const Footprint &CF = footprintFor(ChildId, Child);
      Child.pop_back();
      F.Reads.insert(F.Reads.end(), CF.Reads.begin(), CF.Reads.end());
      F.Writes.insert(F.Writes.end(), CF.Writes.begin(), CF.Writes.end());
      F.Monitors.insert(F.Monitors.end(), CF.Monitors.begin(),
                        CF.Monitors.end());
      F.HasExternal |= CF.HasExternal;
    }
    auto Canon = [](std::vector<SymbolId> &V) {
      std::sort(V.begin(), V.end());
      V.erase(std::unique(V.begin(), V.end()), V.end());
      V.shrink_to_fit();
    };
    Canon(F.Reads);
    Canon(F.Writes);
    Canon(F.Monitors);
    uint64_t ValBytes =
        (F.Reads.size() + F.Writes.size() + F.Monitors.size()) *
            sizeof(SymbolId) +
        sizeof(Footprint) + sizeof(void *) * 4;
    uint64_t ChunkBytes = 0;
    const Footprint &Out = FootCache.insert(
        Id, std::make_unique<Footprint>(std::move(F)), ChunkBytes);
    if (Limits.Shared)
      Limits.Shared->chargeBytes(ChunkBytes + ValBytes);
    return Out;
  }

  /// Persistent-set restriction, shared by both queries: groups threads
  /// by future-footprint dependence (union-find) and, when more than one
  /// group has an enabled transition, keeps only the group with the
  /// fewest enabled transitions (ties to the lowest thread index). The
  /// result is a pure function of the interned state: footprints depend
  /// only on trie ids and enabledness only on the encoded state. See the
  /// section comment for why this preserves the race query's state-local
  /// predicate as well as the behaviour set.
  void restrictToSourceGroup(const SoaState &N,
                             const std::vector<const std::vector<Action> *>
                                 &Succ,
                             std::vector<char> &InGroup) {
    size_t NT = Tids.size();
    std::vector<unsigned> Enabled(NT, 0);
    for (size_t Ti = 0; Ti < NT; ++Ti)
      for (const Action &A : *Succ[Ti])
        if (soaEnabled(N, Ti, A))
          ++Enabled[Ti];
    std::vector<size_t> Parent(NT);
    for (size_t I = 0; I < NT; ++I)
      Parent[I] = I;
    auto Find = [&Parent](size_t X) {
      while (Parent[X] != X)
        X = Parent[X] = Parent[Parent[X]];
      return X;
    };
    for (size_t I = 0; I < NT; ++I)
      for (size_t J = I + 1; J < NT; ++J) {
        size_t RI = Find(I), RJ = Find(J);
        if (RI == RJ)
          continue;
        if (footprintsDependent(footprintFor(N.TraceIds[I], N.Traces[I]),
                                footprintFor(N.TraceIds[J], N.Traces[J])))
          Parent[RJ] = RI;
      }
    // Per-group enabled totals and lowest member (threads iterate in
    // ascending index order, so the first member seen is the minimum).
    std::vector<unsigned> GroupEnabled(NT, 0);
    std::vector<size_t> GroupMin(NT, NT);
    for (size_t Ti = 0; Ti < NT; ++Ti) {
      size_t R = Find(Ti);
      GroupEnabled[R] += Enabled[Ti];
      if (GroupMin[R] == NT)
        GroupMin[R] = Ti;
    }
    size_t Best = NT;
    for (size_t R = 0; R < NT; ++R) {
      if (Find(R) != R || GroupEnabled[R] == 0)
        continue;
      if (Best == NT || GroupEnabled[R] < GroupEnabled[Best] ||
          (GroupEnabled[R] == GroupEnabled[Best] &&
           GroupMin[R] < GroupMin[Best]))
        Best = R;
    }
    if (Best == NT)
      return; // nothing enabled anywhere: no restriction to make
    for (size_t Ti = 0; Ti < NT; ++Ti)
      InGroup[Ti] = Find(Ti) == Best;
  }

  /// State-local adjacent-race predicate (see file comment). Returns true
  /// (and records the witness, stopping the search) when a race fires at
  /// N.
  bool checkRace(const SoaState &N,
                 const std::vector<const std::vector<Action> *> &Succ) {
    size_t NT = Tids.size();
    for (size_t Ti = 0; Ti < NT; ++Ti) {
      for (const Action &A : *Succ[Ti]) {
        if (!A.isNormalAccess())
          continue; // only normal accesses conflict (§3)
        if (!soaEnabled(N, Ti, A))
          continue;
        for (size_t Tj = 0; Tj < NT; ++Tj) {
          if (Tj == Ti || N.Traces[Tj].empty())
            continue;
          for (const Action &B : *Succ[Tj]) {
            if (!A.conflictsWith(B))
              continue;
            Value MemNow = N.Mem[locIndex(B.location())];
            Value AfterA = A.isWrite() ? A.value() : MemNow;
            Event EvA{Tids[Ti], A};
            Event EvB{Tids[Tj], B};
            // b executable right after a: writes (and wildcard reads)
            // always, reads iff they see the post-a memory.
            if (B.isWrite() || B.isWildcard() || B.value() == AfterA)
              return raceFound(N, EvA, EvB);
            // b is a read disabled by a's write but enabled at N itself:
            // the pair fires in the order b.a instead (a is a write, so it
            // stays enabled after the read).
            if (B.value() == MemNow)
              return raceFound(N, EvB, EvA);
          }
        }
      }
    }
    return false;
  }

  bool raceFound(const SoaState &N, const Event &First,
                 const Event &Second) {
    HasRace = true;
    Witness = N.Path;
    Witness.push_back(First);
    Witness.push_back(Second);
    Stop = true;
    return true;
  }

  void search(SoaState &N) {
    if (Stop)
      return;
    if (++Stats.Visited > Limits.MaxVisited) {
      Stats.truncate(TruncationReason::StateCap);
      return;
    }
    if (Limits.Shared && !Limits.Shared->charge()) {
      Stats.truncate(Limits.Shared->reason());
      return;
    }
    // Intern the global state; prune revisits (subset rule under POR).
    encodeState(N, Enc);
    InternPool::Result State = Structs.intern(Enc.data(), Enc.size());
    if (Memo) {
      SigEnc.clear();
      for (const SleepElem &S : N.Sleep)
        SigEnc.push_back(S.Id);
      InternPool::Result Sig = Sigs.intern(SigEnc.data(), SigEnc.size());
      if (!Memo->shouldExplore(State.Id, Sig.Id))
        return;
    } else if (!State.Inserted) {
      return;
    }
    // Successor actions per thread, shared by the race predicate and the
    // expansion. Threads at the depth cap are skipped and truncate.
    static const std::vector<Action> NoSucc;
    size_t NT = Tids.size();
    std::vector<const std::vector<Action> *> Succ(NT, &NoSucc);
    bool DepthHit = false;
    for (size_t Ti = 0; Ti < NT; ++Ti) {
      if (N.Traces[Ti].size() >= Limits.MaxEvents) {
        DepthHit = true;
        continue;
      }
      Succ[Ti] = &successorsFor(N.TraceIds[Ti], N.Traces[Ti]);
    }
    if (DepthHit)
      Stats.truncate(TruncationReason::DepthCap);
    if (RaceMode && checkRace(N, Succ))
      return;
    // Persistent-set restriction, both queries (a depth-capped thread
    // has an unexplorable future, so its footprint cannot vouch for it —
    // fall back to full expansion for this state).
    std::vector<char> InGroup(NT, 1);
    if (Limits.SourceSets && !DepthHit && NT > 1)
      restrictToSourceGroup(N, Succ, InGroup);
    // Expand in deterministic (thread, action) order.
    std::vector<SleepElem> Done; // earlier explored siblings
    for (size_t Ti = 0; Ti < NT; ++Ti) {
      if (!InGroup[Ti])
        continue;
      for (const Action &A : *Succ[Ti]) {
        if (Stop)
          return;
        if (!soaEnabled(N, Ti, A))
          continue;
        Event Ev{Tids[Ti], A};
        uint32_t EvId = 0;
        if (Memo) {
          uint64_t W[2] = {TagEvent | Tids[Ti], actionWord(A)};
          EvId = Structs.intern(W, 2).Id;
          // Asleep: the sibling branch that explored this event covers
          // every trace that starts with it here.
          if (sleepContains(N.Sleep, EvId))
            continue;
        }
        // Behaviours are recorded per explored edge, before any pruning of
        // the child (the seed engine does the same).
        if (!RaceMode && A.isExternal()) {
          Behaviour B = N.Tail;
          B.push_back(A.value());
          Behaviours.insert(std::move(B));
        }
        std::vector<SleepElem> ChildSleep;
        if (Memo) {
          for (const SleepElem &S : N.Sleep)
            if (independentEvents(S.Ev, Ev))
              ChildSleep.push_back(S);
          for (const SleepElem &S : Done)
            if (independentEvents(S.Ev, Ev))
              ChildSleep.push_back(S);
          std::sort(ChildSleep.begin(), ChildSleep.end(),
                    [](const SleepElem &X, const SleepElem &Y) {
                      return X.Id < Y.Id;
                    });
        }
        SoaUndo U;
        applySoa(N, Ti, Ev, U);
        std::vector<SleepElem> Saved = std::move(N.Sleep);
        N.Sleep = std::move(ChildSleep);
        search(N);
        N.Sleep = std::move(Saved);
        undoSoa(N, Ti, Ev, U);
        if (Memo)
          Done.push_back({EvId, Ev});
      }
    }
  }

  const Traceset &T;
  EnumerationLimits Limits;
  bool RaceMode;
  InternPool Structs; ///< trace trie nodes, events, states
  InternPool Sigs;    ///< sorted event-id sleep signatures
  IdTable<std::vector<Action>> SuccCache; ///< trie id -> successor actions
  IdTable<Footprint> FootCache;           ///< trie id -> future footprint
  std::vector<SymbolId> LocIds; ///< sorted distinct memory locations
  std::vector<SymbolId> MonIds; ///< sorted distinct monitors
  std::unique_ptr<SleepMemo> Memo;
  std::vector<ThreadId> Tids;
  std::vector<uint64_t> Enc;    ///< state-encoding scratch
  std::vector<uint64_t> SigEnc; ///< sleep-signature scratch
  bool Stop = false;
};

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points: dispatch between the engines.
//===----------------------------------------------------------------------===//

EnumerationStats tracesafe::forEachExecution(
    const Traceset &T, const std::function<bool(const Interleaving &)> &Visit,
    EnumerationLimits Limits) {
  EnumerationStats Stats;
  Enumerator E(T, Limits);
  E.dfs(Visit, /*MaximalOnly=*/false, Stats);
  return Stats;
}

EnumerationStats tracesafe::forEachMaximalExecution(
    const Traceset &T, const std::function<bool(const Interleaving &)> &Visit,
    EnumerationLimits Limits) {
  EnumerationStats Stats;
  Enumerator E(T, Limits);
  E.dfs(Visit, /*MaximalOnly=*/true, Stats);
  return Stats;
}

std::set<Behaviour> tracesafe::collectBehaviours(const Traceset &T,
                                                 EnumerationLimits Limits,
                                                 EnumerationStats *Stats) {
  if (Limits.ExhaustiveOracle)
    return oracleCollectBehaviours(T, Limits, Stats);
  ReducedQuery Q(T, Limits, /*RaceMode=*/false);
  Q.run();
  if (Stats)
    *Stats = Q.Stats;
  return std::move(Q.Behaviours);
}

RaceReport tracesafe::findAdjacentRace(const Traceset &T,
                                       EnumerationLimits Limits) {
  if (Limits.ExhaustiveOracle)
    return oracleFindAdjacentRace(T, Limits);
  ReducedQuery Q(T, Limits, /*RaceMode=*/true);
  Q.run();
  RaceReport Report;
  Report.HasRace = Q.HasRace;
  Report.Witness = std::move(Q.Witness);
  Report.Stats = Q.Stats;
  return Report;
}

RaceReport tracesafe::findHappensBeforeRace(const Traceset &T,
                                            EnumerationLimits Limits) {
  RaceReport Report;
  Report.Stats = forEachMaximalExecution(
      T,
      [&](const Interleaving &I) {
        HappensBefore Hb(I);
        for (size_t A = 0; A < I.size(); ++A)
          for (size_t B = A + 1; B < I.size(); ++B) {
            if (I[A].Tid == I[B].Tid)
              continue;
            if (!I[A].Act.conflictsWith(I[B].Act))
              continue;
            if (!Hb.ordered(A, B) && !Hb.ordered(B, A)) {
              Report.HasRace = true;
              Report.Witness = I.prefix(B + 1);
              return false;
            }
          }
        return true;
      },
      Limits);
  return Report;
}

Verdict<Interleaving>
tracesafe::checkDataRaceFreedom(const Traceset &T, EnumerationLimits Limits) {
  RaceReport R = findAdjacentRace(T, Limits);
  if (R.HasRace)
    return Verdict<Interleaving>::refuted(R.Witness);
  if (R.Stats.Truncated)
    return Verdict<Interleaving>::unknown(R.Stats.Reason);
  return Verdict<Interleaving>::proved();
}

bool tracesafe::isDataRaceFree(const Traceset &T, EnumerationLimits Limits) {
  return checkDataRaceFreedom(T, Limits).isProved();
}
