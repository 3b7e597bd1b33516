#include "tso/BufferedEngine.h"

#include "lang/Explore.h"
#include "support/Failure.h"
#include "support/Intern.h"
#include "trace/ActionWord.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>

using namespace tracesafe;

//===----------------------------------------------------------------------===//
// Engine structure
//
// Mirrors trace/Enumerate.cpp's ReducedQuery, transplanted to machine
// states. Thread configurations (continuation + registers + monitor
// depths) are not word-encodable, so they get dense ids from a side map;
// everything else of a state — buffers, memory,
// locks, actions-done counters and the behaviour tail — is encoded as a
// length-prefixed span of words and interned. The memo granularity is
// exactly the sequential explorers' (State, ActionsDone, BehSoFar) tuple.
//
// Transitions are of two kinds:
//  - drain(T) / drain(T, L): commit the oldest entry of a (per-location,
//    for PSO) store buffer to memory;
//  - instruction steps from possibleStepsWithMemory, with the machine's
//    enabledness rules (buffer cap for non-volatile writes; empty own
//    buffer for synchronisation actions; monitor mutual exclusion).
//
// Independence relation for the sleep sets. Every event touches at most
// one shared-memory location:
//  - drain(T, L) *writes* memory at L;
//  - a read of L (any volatility, even when it would forward from the own
//    buffer) *reads* memory at L — conservative, but forwarding depends
//    on the own buffer only, and same-thread pairs are always dependent;
//  - a volatile write of L *writes* memory at L;
//  - a non-volatile write has NO memory footprint: it only appends to the
//    issuing thread's buffer.
// Two events of different threads are dependent iff both are external
// (behaviour order is observable), they lock/unlock the same monitor, or
// their memory footprints overlap on a location with a write on either
// side. Everything else commutes and neither side can enable or disable
// the other: in particular cross-thread drains to different locations
// commute, and a drain commutes with another thread's fence (a fence only
// requires the *own* buffer to be empty).
//===----------------------------------------------------------------------===//

namespace {

/// Dense ids for thread configurations. std::map keeps references stable
/// and needs only ThreadState's operator<=>; one tree comparison path per
/// lookup profiles far below the interning and step-generation costs.
class ConfigIds {
public:
  explicit ConfigIds(Budget *Shared) : Shared(Shared) {}

  uint32_t id(const ThreadState &S) {
    auto [It, Inserted] =
        Map.try_emplace(S, static_cast<uint32_t>(Map.size()));
    if (Inserted) {
      ById.push_back(&It->first);
      if (Shared)
        Shared->chargeBytes(sizeof(ThreadState) + 8 * sizeof(void *));
    }
    return It->second;
  }

  /// Canonical configuration for a dense id. Map nodes never move or get
  /// erased, so the reference stays valid for the search.
  const ThreadState &state(uint32_t Id) const { return *ById[Id]; }

private:
  std::map<ThreadState, uint32_t> Map;
  std::vector<const ThreadState *> ById; ///< id -> map key
  Budget *Shared;
};

/// One machine transition, as the sleep sets see it.
struct BufEvent {
  ThreadId Tid = 0;
  bool IsDrain = false;
  SymbolId Loc = 0;           ///< drained location (IsDrain only)
  Value Val = 0;              ///< drained value (IsDrain only)
  std::optional<Action> Act;  ///< instruction action (!IsDrain)
};

/// Memory-write footprint of an event (see file comment).
bool memWrite(const BufEvent &E, SymbolId &Loc) {
  if (E.IsDrain) {
    Loc = E.Loc;
    return true;
  }
  if (E.Act->isWrite() && E.Act->isVolatileAccess()) {
    Loc = E.Act->location();
    return true;
  }
  return false;
}

/// Memory-read footprint of an event.
bool memRead(const BufEvent &E, SymbolId &Loc) {
  if (!E.IsDrain && E.Act->isRead()) {
    Loc = E.Act->location();
    return true;
  }
  return false;
}

bool independentEvents(const BufEvent &X, const BufEvent &Y) {
  if (X.Tid == Y.Tid)
    return false;
  if (!X.IsDrain && !Y.IsDrain) {
    const Action &A = *X.Act;
    const Action &B = *Y.Act;
    if (A.isExternal() && B.isExternal())
      return false;
    if ((A.isLock() || A.isUnlock()) && (B.isLock() || B.isUnlock()) &&
        A.monitor() == B.monitor())
      return false;
  }
  SymbolId WX = 0, WY = 0, RX = 0, RY = 0;
  bool XW = memWrite(X, WX), YW = memWrite(Y, WY);
  bool XR = memRead(X, RX), YR = memRead(Y, RY);
  if (XW && YW && WX == WY)
    return false;
  if (XW && YR && WX == RY)
    return false;
  if (XR && YW && RX == WY)
    return false;
  return true;
}

struct SleepElem {
  uint32_t Id;
  BufEvent Ev;
};

bool sleepContains(const std::vector<SleepElem> &Sleep, uint32_t Id) {
  auto It = std::lower_bound(
      Sleep.begin(), Sleep.end(), Id,
      [](const SleepElem &S, uint32_t V) { return S.Id < V; });
  return It != Sleep.end() && It->Id == Id;
}

/// Mutable global machine state, struct-of-arrays. The descent mutates
/// one node in place (apply, recurse, undo), so the layout keeps the
/// per-step updates to a handful of contiguous arrays instead of NT maps
/// and deques of pointers.
///
/// Store buffers live in one fixed-stride array: thread Tid's buffer is
/// Buf[Tid*Cap .. Tid*Cap+BufLen[Tid]), each entry a packed
/// (Loc << 32 | Value) word in FIFO *insertion* order. Occupancy never
/// exceeds Cap = min(MaxBufferedStores, MaxActionsPerThread): the
/// enabledness rule refuses further non-volatile writes at the cap, and
/// a thread cannot buffer more stores than actions it has taken. The one
/// array serves both models — TSO drains the front entry, PSO drains the
/// first entry of a given location (per-location FIFO order is exactly
/// insertion order restricted to that location), and store-to-load
/// forwarding is the last matching entry under either model.
///
/// Memory and locks are flat vectors sorted by symbol, mirroring the old
/// std::map iteration order word for word in the state encoding — the
/// memo granularity is unchanged.
struct BufNode {
  std::vector<uint32_t> ConfigIdv; ///< dense config id per thread
  std::vector<uint64_t> Buf;       ///< NT*Cap packed buffer entries
  std::vector<uint32_t> BufLen;    ///< live entries per thread
  std::vector<uint64_t> ActionsDone;
  std::vector<std::pair<SymbolId, Value>> Memory; ///< sorted by location
  std::vector<std::pair<SymbolId, std::pair<ThreadId, int>>>
      Locks;                    ///< sorted by monitor; depths always > 0
  Behaviour Beh;                ///< behaviour so far
  std::vector<SleepElem> Sleep; ///< sorted by Id
};

constexpr uint64_t packEntry(SymbolId Loc, Value V) {
  return (static_cast<uint64_t>(Loc) << 32) | static_cast<uint32_t>(V);
}
constexpr SymbolId entryLoc(uint64_t E) {
  return static_cast<SymbolId>(E >> 32);
}
constexpr Value entryVal(uint64_t E) {
  return static_cast<Value>(static_cast<uint32_t>(E));
}

/// A transition out of a node: the event plus, for instruction steps, the
/// dense id of the silently-closed successor thread configuration.
struct Transition {
  BufEvent Ev;
  uint32_t NextCfg = 0;     ///< closed successor config (instr steps)
  bool SilentTrunc = false; ///< the closure hit MaxSilentRun
};

/// An action-boundary successor of a thread configuration with the
/// silent closure already applied: the emitted action plus the closed
/// successor's dense id.
struct CachedStep {
  Action Act;
  uint32_t NextCfg;
  bool Trunc; ///< closure hit MaxSilentRun
};

/// Lazily built per-configuration step table. Configurations repeat
/// across the whole search (that is why they get dense ids), and their
/// successors depend on nothing outside the configuration itself — except
/// a load, whose single successor is keyed by the value read. Caching by
/// id turns the per-node step generation (state copies, silent closures,
/// config-map lookups) into table lookups.
struct CfgSteps {
  bool Known = false;
  bool Done = false;
  bool IsLoad = false;
  SymbolId LoadLoc = 0;
  std::vector<CachedStep> Fixed;                     ///< !IsLoad steps
  std::vector<std::pair<Value, CachedStep>> ByValue; ///< IsLoad steps
};

/// Direct-mapped (Hi, Lo) -> interned-id cache line for event words (see
/// BufferedSearch::internEvent).
struct EvSlot {
  uint64_t Hi = 0, Lo = 0;
  uint64_t IdPlus1 = 0; ///< 0 = empty
};

class BufferedSearch {
public:
  BufferedSearch(const Program &P, const TsoLimits &Limits,
                 BufferModel Model)
      : P(P),
        Ctx(P, Limits.InputDomain.empty() ? defaultDomainFor(P)
                                          : Limits.InputDomain),
        Limits(Limits), Model(Model),
        Cap(std::max<size_t>(
            1, std::min(Limits.MaxBufferedStores,
                        Limits.MaxActionsPerThread))),
        Structs(Limits.Shared), Sigs(Limits.Shared), Configs(Limits.Shared),
        Charge(Limits.Shared), EvCache(256) {
    if (Limits.UseReduction)
      Memo = std::make_unique<SleepMemo>(Sigs, Limits.Shared);
  }

  std::set<Behaviour> run() {
    BufNode Root;
    size_t NT = P.threadCount();
    bool Trunc = false;
    std::vector<ThreadState> Init;
    for (ThreadId Tid = 0; Tid < NT; ++Tid) {
      bool T1 = false;
      Init.push_back(silentClosure(initialThreadState(P, Tid), Ctx,
                                   Limits.MaxSilentRun, &T1));
      Trunc |= T1;
    }
    if (Trunc)
      Stats.truncate(TruncationReason::SilentLoop);
    Root.Buf.assign(NT * Cap, 0);
    Root.BufLen.assign(NT, 0);
    Root.ActionsDone.assign(NT, 0);
    try {
      // The config-id side map is the engine's first allocation; a budget
      // or injected failure can land here, before any search frame's
      // containment is on the stack.
      for (const ThreadState &S : Init)
        Root.ConfigIdv.push_back(Configs.id(S));
    } catch (...) {
      engineFault();
      return std::move(Behaviours);
    }
    Behaviours.insert(Behaviour{});
    // An allocation failure (real or injected) inside the pools unwinds to
    // here and becomes a truncated result.
    try {
      search(Root);
    } catch (...) {
      engineFault();
    }
    Charge.settle();
    return std::move(Behaviours);
  }

  ExecStats Stats;

private:
  /// Marks the query faulted: truncate with EngineFault and poison the
  /// shared budget so sibling engines of the same query unwind too.
  void engineFault() {
    Stats.truncate(TruncationReason::EngineFault);
    Stop = true;
    if (Limits.Shared)
      Limits.Shared->poison(TruncationReason::EngineFault);
  }

  const uint64_t *bufOf(const BufNode &N, ThreadId Tid) const {
    return N.Buf.data() + static_cast<size_t>(Tid) * Cap;
  }
  uint64_t *bufOf(BufNode &N, ThreadId Tid) const {
    return N.Buf.data() + static_cast<size_t>(Tid) * Cap;
  }

  /// Value in memory at \p Loc (sorted flat vector, DefaultValue when
  /// never written).
  static Value memValue(const BufNode &N, SymbolId Loc) {
    auto It = std::lower_bound(
        N.Memory.begin(), N.Memory.end(), Loc,
        [](const std::pair<SymbolId, Value> &E, SymbolId L) {
          return E.first < L;
        });
    return It != N.Memory.end() && It->first == Loc ? It->second
                                                    : DefaultValue;
  }

  /// One-edge undo record for the in-place descent: exactly what
  /// undoInPlace needs to restore the parent node after the child
  /// subtree returns.
  struct UndoRec {
    ThreadId Tid = 0;
    bool IsDrain = false;
    uint32_t DrainIdx = 0;   ///< buffer position the drained entry left
    uint64_t DrainEntry = 0; ///< the removed packed entry
    uint32_t OldCfg = 0;     ///< pre-step configuration id (instr only)
    enum class Mem : uint8_t { None, Overwrote, Inserted };
    Mem MemKind = Mem::None;
    SymbolId MemLoc = 0;
    Value MemOld = 0;
    bool PoppedStore = false; ///< non-volatile write appended one entry
    enum class Lock : uint8_t {
      None,
      Relocked,    ///< depth bumped on an already-owned monitor
      LockedNew,   ///< fresh monitor entry inserted
      Unlocked,    ///< depth decremented, entry kept
      UnlockedGone ///< depth hit zero, entry erased
    };
    Lock LockKind = Lock::None;
    SymbolId Mon = 0;
    bool PoppedBeh = false;
  };

  static void memStore(BufNode &N, SymbolId Loc, Value V, UndoRec &U) {
    auto It = std::lower_bound(
        N.Memory.begin(), N.Memory.end(), Loc,
        [](const std::pair<SymbolId, Value> &E, SymbolId L) {
          return E.first < L;
        });
    U.MemLoc = Loc;
    if (It != N.Memory.end() && It->first == Loc) {
      U.MemKind = UndoRec::Mem::Overwrote;
      U.MemOld = It->second;
      It->second = V;
    } else {
      U.MemKind = UndoRec::Mem::Inserted;
      N.Memory.insert(It, {Loc, V});
    }
  }

  static void memUndo(BufNode &N, const UndoRec &U) {
    if (U.MemKind == UndoRec::Mem::None)
      return;
    auto It = std::lower_bound(
        N.Memory.begin(), N.Memory.end(), U.MemLoc,
        [](const std::pair<SymbolId, Value> &E, SymbolId L) {
          return E.first < L;
        });
    if (U.MemKind == UndoRec::Mem::Overwrote)
      It->second = U.MemOld;
    else
      N.Memory.erase(It);
  }

  static std::vector<std::pair<SymbolId, std::pair<ThreadId, int>>>::
      const_iterator
      lockFind(const BufNode &N, SymbolId Mon) {
    return std::lower_bound(
        N.Locks.begin(), N.Locks.end(), Mon,
        [](const std::pair<SymbolId, std::pair<ThreadId, int>> &E,
           SymbolId M) { return E.first < M; });
  }
  static std::vector<std::pair<SymbolId, std::pair<ThreadId, int>>>::iterator
  lockFind(BufNode &N, SymbolId Mon) {
    return std::lower_bound(
        N.Locks.begin(), N.Locks.end(), Mon,
        [](const std::pair<SymbolId, std::pair<ThreadId, int>> &E,
           SymbolId M) { return E.first < M; });
  }

  /// Value thread \p Tid reads from \p Loc: own buffer (newest matching
  /// entry — under PSO that is the back of Loc's queue, i.e. the last
  /// inserted entry with that location), else memory.
  Value readValue(const BufNode &N, ThreadId Tid, SymbolId Loc) const {
    const uint64_t *B = bufOf(N, Tid);
    for (uint32_t I = N.BufLen[Tid]; I-- > 0;)
      if (entryLoc(B[I]) == Loc)
        return entryVal(B[I]);
    return memValue(N, Loc);
  }

  bool buffersEmpty(const BufNode &N, ThreadId Tid) const {
    return N.BufLen[Tid] == 0;
  }

  size_t bufferedCount(const BufNode &N, ThreadId Tid) const {
    return N.BufLen[Tid];
  }

  /// The step table for configuration \p C, built on first use.
  CfgSteps &cfgSteps(uint32_t C) {
    if (C >= Cfg.size())
      Cfg.resize(std::max<size_t>(C + 1, Cfg.size() * 2));
    CfgSteps &E = Cfg[C];
    if (E.Known)
      return E;
    const ThreadState &S = Configs.state(C);
    E.Done = S.done();
    if (!E.Done && S.Cont.back()->kind() == StmtKind::Load) {
      E.IsLoad = true;
      E.LoadLoc = cast<LoadStmt>(*S.Cont.back()).loc();
    } else if (!E.Done) {
      // Everything except a load steps without consulting memory (the
      // callback is never invoked).
      std::vector<Step> Steps = possibleStepsWithMemory(
          S, Ctx, [](SymbolId) { return DefaultValue; });
      assert(!Steps.empty() && Steps[0].Act &&
             "closed thread must have pending actions");
      E.Fixed.reserve(Steps.size());
      for (Step &St : Steps)
        E.Fixed.push_back(closeStep(St));
    }
    E.Known = true;
    return E;
  }

  /// Applies the silent closure to a raw step's successor and interns it.
  CachedStep closeStep(Step &St) {
    bool Trunc = false;
    ThreadState Next = silentClosure(std::move(St.Next), Ctx,
                                     Limits.MaxSilentRun, &Trunc);
    return {*St.Act, Configs.id(Next), Trunc};
  }

  /// The unique step of load configuration \p C reading value \p V.
  const CachedStep &loadStep(CfgSteps &E, uint32_t C, Value V) {
    for (const auto &[Val, CS] : E.ByValue)
      if (Val == V)
        return CS;
    std::vector<Step> Steps = possibleStepsWithMemory(
        Configs.state(C), Ctx, [&](SymbolId) { return V; });
    assert(Steps.size() == 1 && Steps[0].Act &&
           "a load has exactly one successor per value");
    E.ByValue.push_back({V, closeStep(Steps[0])});
    return E.ByValue.back().second;
  }

  /// Every transition out of \p N, in deterministic (kind, thread,
  /// location/step) order: drains first, then instruction steps.
  std::vector<Transition> transitionsOf(const BufNode &N) {
    std::vector<Transition> Out;
    size_t NT = N.ConfigIdv.size();
    Out.reserve(NT * 2);
    for (ThreadId Tid = 0; Tid < NT; ++Tid) {
      const uint64_t *B = bufOf(N, Tid);
      uint32_t Len = N.BufLen[Tid];
      if (Model == BufferModel::Tso) {
        if (Len == 0)
          continue;
        BufEvent Ev;
        Ev.Tid = Tid;
        Ev.IsDrain = true;
        Ev.Loc = entryLoc(B[0]);
        Ev.Val = entryVal(B[0]);
        Out.push_back({std::move(Ev)});
      } else {
        // One drain per distinct buffered location, ascending; the front
        // of a location's queue is its first entry in insertion order.
        std::pair<SymbolId, Value> FrontsBuf[64];
        std::vector<std::pair<SymbolId, Value>> FrontsHeap;
        std::pair<SymbolId, Value> *Fronts = FrontsBuf;
        if (Len > 64) {
          FrontsHeap.resize(Len);
          Fronts = FrontsHeap.data();
        }
        size_t NumFronts = 0;
        for (uint32_t I = 0; I < Len; ++I) {
          SymbolId Loc = entryLoc(B[I]);
          bool Seen = false;
          for (size_t F = 0; F < NumFronts; ++F)
            if (Fronts[F].first == Loc) {
              Seen = true;
              break;
            }
          if (!Seen)
            Fronts[NumFronts++] = {Loc, entryVal(B[I])};
        }
        std::sort(Fronts, Fronts + NumFronts);
        for (size_t F = 0; F < NumFronts; ++F) {
          BufEvent Ev;
          Ev.Tid = Tid;
          Ev.IsDrain = true;
          Ev.Loc = Fronts[F].first;
          Ev.Val = Fronts[F].second;
          Out.push_back({std::move(Ev)});
        }
      }
    }
    for (ThreadId Tid = 0; Tid < NT; ++Tid) {
      CfgSteps &E = cfgSteps(N.ConfigIdv[Tid]);
      if (E.Done)
        continue;
      if (N.ActionsDone[Tid] >= Limits.MaxActionsPerThread) {
        Stats.truncate(TruncationReason::DepthCap);
        continue;
      }
      const CachedStep *One = nullptr;
      if (E.IsLoad)
        One = &loadStep(E, N.ConfigIdv[Tid], readValue(N, Tid, E.LoadLoc));
      size_t Count = E.IsLoad ? 1 : E.Fixed.size();
      for (size_t K = 0; K < Count; ++K) {
        const CachedStep &CS = E.IsLoad ? *One : E.Fixed[K];
        const Action &A = CS.Act;
        // Enabledness under the store-buffer machine.
        if (A.isWrite() && !A.isVolatileAccess() &&
            bufferedCount(N, Tid) >= Limits.MaxBufferedStores)
          continue; // Must drain first.
        if (A.isSynchronisation() && !buffersEmpty(N, Tid))
          continue; // Fence: drain the own buffer first.
        if (A.isLock()) {
          auto It = lockFind(N, A.monitor());
          if (It != N.Locks.end() && It->first == A.monitor() &&
              It->second.second > 0 && It->second.first != Tid)
            continue;
        }
        BufEvent Ev;
        Ev.Tid = Tid;
        Ev.Act = A;
        Out.push_back({std::move(Ev), CS.NextCfg, CS.Trunc});
      }
    }
    return Out;
  }

  /// Applies \p T to \p N, recording in \p U what undoInPlace needs to
  /// restore \p N exactly. External actions record the extended behaviour
  /// immediately, matching the sequential explorers (which record before
  /// recursing, so memo pruning of the child never loses a behaviour).
  void applyInPlace(BufNode &N, const Transition &T, UndoRec &U) {
    ThreadId Tid = T.Ev.Tid;
    U.Tid = Tid;
    if (T.Ev.IsDrain) {
      // Injected drain failure: fires before any mutation and unwinds
      // through search() into the engine's containment, so the node never
      // needs a partial undo.
      faultThrowInjected(FaultSite::BufferedDrain);
      U.IsDrain = true;
      uint64_t *B = bufOf(N, Tid);
      uint32_t Len = N.BufLen[Tid];
      // TSO commits the front entry; PSO commits the first entry of the
      // drained location. Either way: remove one entry, shift the rest.
      uint32_t I = 0;
      if (Model == BufferModel::Pso)
        while (I < Len && entryLoc(B[I]) != T.Ev.Loc)
          ++I;
      assert(I < Len && entryLoc(B[I]) == T.Ev.Loc);
      U.DrainIdx = I;
      U.DrainEntry = B[I];
      Value V = entryVal(B[I]);
      std::copy(B + I + 1, B + Len, B + I);
      N.BufLen[Tid] = Len - 1;
      memStore(N, T.Ev.Loc, V, U);
      return;
    }
    const Action &A = *T.Ev.Act;
    if (T.SilentTrunc)
      Stats.truncate(TruncationReason::SilentLoop);
    U.OldCfg = N.ConfigIdv[Tid];
    N.ConfigIdv[Tid] = T.NextCfg;
    ++N.ActionsDone[Tid];
    if (A.isWrite()) {
      if (A.isVolatileAccess()) {
        memStore(N, A.location(), A.value(), U);
      } else {
        assert(N.BufLen[Tid] < Cap && "enabledness enforces the cap");
        bufOf(N, Tid)[N.BufLen[Tid]++] = packEntry(A.location(), A.value());
        U.PoppedStore = true;
      }
    } else if (A.isLock()) {
      U.Mon = A.monitor();
      auto It = lockFind(N, U.Mon);
      if (It != N.Locks.end() && It->first == U.Mon) {
        // Enabledness admitted the lock, so an existing entry is already
        // owned by Tid (depths in Locks are always > 0).
        It->second = {Tid, It->second.second + 1};
        U.LockKind = UndoRec::Lock::Relocked;
      } else {
        N.Locks.insert(It, {U.Mon, {Tid, 1}});
        U.LockKind = UndoRec::Lock::LockedNew;
      }
    } else if (A.isUnlock()) {
      U.Mon = A.monitor();
      auto It = lockFind(N, U.Mon);
      assert(It != N.Locks.end() && It->first == U.Mon &&
             It->second.first == Tid);
      if (--It->second.second == 0) {
        N.Locks.erase(It);
        U.LockKind = UndoRec::Lock::UnlockedGone;
      } else {
        U.LockKind = UndoRec::Lock::Unlocked;
      }
    } else if (A.isExternal()) {
      N.Beh.push_back(A.value());
      U.PoppedBeh = true;
      Behaviours.insert(N.Beh);
    }
  }

  /// Inverse of applyInPlace.
  void undoInPlace(BufNode &N, UndoRec &U) {
    ThreadId Tid = U.Tid;
    if (U.IsDrain) {
      uint64_t *B = bufOf(N, Tid);
      uint32_t Len = N.BufLen[Tid];
      std::copy_backward(B + U.DrainIdx, B + Len, B + Len + 1);
      B[U.DrainIdx] = U.DrainEntry;
      N.BufLen[Tid] = Len + 1;
      memUndo(N, U);
      return;
    }
    --N.ActionsDone[Tid];
    N.ConfigIdv[Tid] = U.OldCfg;
    if (U.PoppedStore)
      --N.BufLen[Tid];
    memUndo(N, U);
    switch (U.LockKind) {
    case UndoRec::Lock::None:
      break;
    case UndoRec::Lock::Relocked:
      lockFind(N, U.Mon)->second.second -= 1;
      break;
    case UndoRec::Lock::LockedNew:
      N.Locks.erase(lockFind(N, U.Mon));
      break;
    case UndoRec::Lock::Unlocked:
      lockFind(N, U.Mon)->second.second += 1;
      break;
    case UndoRec::Lock::UnlockedGone:
      N.Locks.insert(lockFind(N, U.Mon), {U.Mon, {Tid, 1}});
      break;
    }
    if (U.PoppedBeh)
      N.Beh.pop_back();
  }

  /// Canonical length-prefixed word encoding of a node: injective by
  /// construction (every variable-length section carries its own count).
  /// Empty PSO queues are skipped — the machine treats an empty queue and
  /// an absent one identically, so merging them only tightens the memo.
  void encodeState(const BufNode &N, std::vector<uint64_t> &Out) const {
    Out.clear();
    size_t NT = N.ConfigIdv.size();
    Out.push_back(TagState | NT);
    for (size_t Ti = 0; Ti < NT; ++Ti) {
      Out.push_back(N.ConfigIdv[Ti]);
      Out.push_back(N.ActionsDone[Ti]);
      const uint64_t *B = bufOf(N, static_cast<ThreadId>(Ti));
      uint32_t Len = N.BufLen[Ti];
      if (Model == BufferModel::Tso) {
        Out.push_back(Len);
        Out.insert(Out.end(), B, B + Len);
      } else {
        // Per-location queues in ascending location order, each queue
        // front-to-back — word for word the old std::map encoding (the
        // canonical order is what merges nodes whose cross-location
        // insertion interleavings differ but whose queues agree).
        SymbolId Locs[64];
        std::vector<SymbolId> LocsHeap;
        SymbolId *L = Locs;
        size_t NumLocs = 0;
        if (Len > 64) {
          LocsHeap.resize(Len);
          L = LocsHeap.data();
        }
        for (uint32_t I = 0; I < Len; ++I) {
          SymbolId Loc = entryLoc(B[I]);
          bool Seen = false;
          for (size_t F = 0; F < NumLocs; ++F)
            if (L[F] == Loc) {
              Seen = true;
              break;
            }
          if (!Seen)
            L[NumLocs++] = Loc;
        }
        std::sort(L, L + NumLocs);
        Out.push_back(NumLocs);
        for (size_t F = 0; F < NumLocs; ++F) {
          size_t HeadSlot = Out.size();
          Out.push_back(0);
          uint64_t QLen = 0;
          for (uint32_t I = 0; I < Len; ++I)
            if (entryLoc(B[I]) == L[F]) {
              Out.push_back(static_cast<uint32_t>(entryVal(B[I])));
              ++QLen;
            }
          Out[HeadSlot] = (static_cast<uint64_t>(L[F]) << 32) | QLen;
        }
      }
    }
    Out.push_back(N.Memory.size());
    for (const auto &[Loc, V] : N.Memory)
      Out.push_back(packEntry(Loc, V));
    size_t NumLocks = 0;
    for (const auto &[Mon, Slot] : N.Locks)
      if (Slot.second > 0)
        ++NumLocks;
    Out.push_back(NumLocks);
    for (const auto &[Mon, Slot] : N.Locks)
      if (Slot.second > 0) {
        Out.push_back((static_cast<uint64_t>(Mon) << 32) |
                      static_cast<uint32_t>(Slot.first));
        Out.push_back(static_cast<uint64_t>(Slot.second));
      }
    Out.push_back(N.Beh.size());
    for (Value V : N.Beh)
      Out.push_back(static_cast<uint32_t>(V));
  }

  /// The interned id of \p Ev. The search re-derives the same few dozen
  /// events at every node, so most lookups hit the direct-mapped EvCache
  /// and skip the pool probe entirely; a collision just falls through to
  /// the pool and takes over the slot.
  uint32_t internEvent(const BufEvent &Ev) {
    uint64_t Hi = TagEvent | Ev.Tid;
    uint64_t Lo;
    if (Ev.IsDrain) {
      Hi |= DrainBit;
      Lo = (static_cast<uint64_t>(Ev.Loc) << 32) |
           static_cast<uint32_t>(Ev.Val);
    } else {
      Lo = actionWord(*Ev.Act);
    }
    size_t Slot = ((Hi * 0x9E3779B97F4A7C15ULL) ^
                   (Lo * 0xC2B2AE3D27D4EB4FULL)) >>
                  56; // EvCache holds 256 slots
    EvSlot &E = EvCache[Slot];
    if (E.IdPlus1 && E.Hi == Hi && E.Lo == Lo)
      return static_cast<uint32_t>(E.IdPlus1 - 1);
    uint64_t W[2] = {Hi, Lo};
    uint32_t Id = Structs.intern(W, 2).Id;
    E = {Hi, Lo, static_cast<uint64_t>(Id) + 1};
    return Id;
  }

  void search(BufNode &N) {
    if (Stop)
      return;
    if (++Stats.Visited > Limits.MaxVisited) {
      Stats.truncate(TruncationReason::StateCap);
      return;
    }
    if (Limits.Shared && !Charge.charge()) {
      Stats.truncate(Limits.Shared->reason());
      return;
    }
    // Intern the state; prune revisits (subset rule under POR).
    encodeState(N, Enc);
    faultThrowBadAlloc(FaultSite::BufferedIntern);
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
    std::vector<Transition> Trans = transitionsOf(N);
    std::vector<SleepElem> Done; // earlier explored siblings
    if (Memo)
      Done.reserve(Trans.size());
    for (Transition &T : Trans) {
      if (Stop)
        return;
      uint32_t EvId = 0;
      if (Memo) {
        EvId = internEvent(T.Ev);
        // Asleep: the sibling branch that explored this event covers
        // every schedule that starts with it here.
        if (sleepContains(N.Sleep, EvId))
          continue;
      }
      std::vector<SleepElem> ChildSleep;
      if (Memo) {
        ChildSleep.reserve(N.Sleep.size() + Done.size());
        for (const SleepElem &S : N.Sleep)
          if (independentEvents(S.Ev, T.Ev))
            ChildSleep.push_back(S);
        for (const SleepElem &S : Done)
          if (independentEvents(S.Ev, T.Ev))
            ChildSleep.push_back(S);
        std::sort(ChildSleep.begin(), ChildSleep.end(),
                  [](const SleepElem &X, const SleepElem &Y) {
                    return X.Id < Y.Id;
                  });
      }
      // Descend in place: apply, recurse, undo. The per-edge node copy
      // (NT map-backed ThreadStates plus five vectors) dominated the
      // reduced sweep's profile. A throwing frame abandons the whole query
      // at the root containment, so a node left mid-undo by an exception
      // never escapes.
      UndoRec U;
      std::vector<SleepElem> SavedSleep = std::move(N.Sleep);
      N.Sleep = std::move(ChildSleep);
      applyInPlace(N, T, U);
      search(N);
      undoInPlace(N, U);
      N.Sleep = std::move(SavedSleep);
      if (Memo)
        Done.push_back({EvId, T.Ev});
    }
  }

  const Program &P;
  LangContext Ctx;
  TsoLimits Limits;
  BufferModel Model;
  size_t Cap; ///< per-thread buffer stride (see BufNode doc)
  InternPool Structs; ///< states and event ids
  InternPool Sigs;    ///< sorted event-id sleep signatures
  ConfigIds Configs;
  std::unique_ptr<SleepMemo> Memo;
  /// Batched budget charging for the hot loop (bit-exact cap/interrupt
  /// semantics; settled when the search ends).
  Budget::Scope Charge;
  std::vector<uint64_t> Enc, SigEnc; ///< encoding scratch
  std::vector<EvSlot> EvCache;       ///< 256 direct-mapped event ids
  std::vector<CfgSteps> Cfg;         ///< config id -> step table
  bool Stop = false;
  std::set<Behaviour> Behaviours;
};

} // namespace

std::set<Behaviour> tracesafe::bufferedBehaviours(const Program &P,
                                                  const TsoLimits &Limits,
                                                  BufferModel Model,
                                                  ExecStats *Stats) {
  BufferedSearch S(P, Limits, Model);
  std::set<Behaviour> Out = S.run();
  if (Stats)
    *Stats = S.Stats;
  return Out;
}
