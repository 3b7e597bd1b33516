#include "racelog/Detect.h"

#include "support/Failure.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

using namespace tracesafe;
using namespace tracesafe::racelog;

//===----------------------------------------------------------------------===//
// Epochs and clocks
//===----------------------------------------------------------------------===//

namespace {

/// An epoch packs (tid, clock) into one u64: tid in the top 16 bits (wire
/// tids are u16), clock below. Clocks count releases/forks/joins of one
/// thread, so they stay far under 2^48. Epoch 0 means "none": a live
/// thread's clock starts at 1.
using Epoch = uint64_t;
constexpr uint64_t ClkMask = (1ULL << 48) - 1;

inline Epoch mkEpoch(uint32_t Tid, uint64_t Clk) {
  return (static_cast<uint64_t>(Tid) << 48) | Clk;
}
inline uint32_t epochTid(Epoch E) { return static_cast<uint32_t>(E >> 48); }
inline uint64_t epochClk(Epoch E) { return E & ClkMask; }

inline uint64_t mixAddr(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Read-only view of one thread's vector clock at the moment of an
/// access. Entries past the stored length are zero (the thread had not
/// heard of those tids yet).
struct ClockRef {
  const uint64_t *C = nullptr;
  size_t N = 0;
  uint64_t of(uint32_t T) const { return T < N ? C[T] : 0; }
};

/// Bump-pointer arena for clock storage (read-clock spills). Chunks never
/// move or shrink, spans are handed out zeroed, and real chunk sizes are
/// charged to the shared budget.
class ClockArena {
public:
  explicit ClockArena(Budget *B) : B(B) {}

  uint64_t *alloc(size_t N) {
    if (N > Cap - Used) {
      size_t M = std::max<size_t>(N, size_t(1) << 15);
      Chunks.push_back(std::make_unique<uint64_t[]>(M)); // value-init: zeroed
      Cap = M;
      Used = 0;
      if (B)
        B->chargeBytes(M * sizeof(uint64_t));
    }
    uint64_t *P = Chunks.back().get() + Used;
    Used += N;
    return P;
  }

private:
  std::vector<std::unique_ptr<uint64_t[]>> Chunks;
  size_t Cap = 0, Used = 0;
  Budget *B;
};

//===----------------------------------------------------------------------===//
// Per-variable state
//===----------------------------------------------------------------------===//

constexpr uint32_t NoSpill = ~0u;
constexpr uint32_t FlagUsed = 1;
constexpr uint32_t FlagRacy = 2;

/// One variable's detector state, inline in the open-addressing table so
/// the race-free fast path (probe, compare two epochs) touches one cache
/// line. 32 bytes.
struct Slot {
  uint64_t Addr = 0;
  Epoch W = 0;        ///< last-write epoch (0 = never written)
  Epoch R = 0;        ///< exclusive-read epoch (0 = none / spilled)
  uint32_t Spill = 0; ///< read-clock spill index (valid when FlagUsed set
                      ///< it; NoSpill = epochs only)
  uint32_t Flags = 0;
};

struct SpillVC {
  uint64_t *Clk = nullptr;
  uint32_t Len = 0;
};

/// The FastTrack / DJIT+ state machine for every address of the log.
/// Accesses must arrive in log order.
class VarTable {
public:
  VarTable(Budget *B, bool Epochs, size_t MaxRaces)
      : Arena(B), B(B), Epochs(Epochs), MaxRaces(MaxRaces) {
    Table.resize(1u << 12);
    Mask = Table.size() - 1;
  }

  void access(uint64_t Addr, bool IsWrite, uint32_t Tid, Epoch E,
              ClockRef C, uint64_t EventIndex) {
    Slot &V = lookup(Addr);
    if (V.Flags & FlagRacy)
      return; // location already reported racy; nothing new to learn
    uint64_t Clk = epochClk(E);
    auto race = [&](uint32_t PrevTid, bool PrevWrite) {
      V.Flags |= FlagRacy;
      ++RacyLocations;
      if (Races.size() < MaxRaces)
        Races.push_back(
            {Addr, EventIndex, Tid, PrevTid, IsWrite, PrevWrite});
    };
    if (!IsWrite) {
      if (Epochs && V.R == E)
        return; // read same epoch: the dominant same-thread fast path
      if (V.W && epochClk(V.W) > C.of(epochTid(V.W)))
        return race(epochTid(V.W), /*PrevWrite=*/true);
      if (!Epochs) {
        // Oracle engine: the read clock is always a full vector.
        SpillVC &S = vcFor(V, Tid + 1);
        S.Clk[Tid] = Clk;
        return;
      }
      if (V.Spill != NoSpill) {
        SpillVC &S = vcFor(V, Tid + 1);
        S.Clk[Tid] = Clk;
        return;
      }
      if (!V.R || epochTid(V.R) == Tid ||
          epochClk(V.R) <= C.of(epochTid(V.R))) {
        // Exclusive read: same thread, or the previous read happens-
        // before this one (replacing it is sound by transitivity — any
        // later access ordered after this read is ordered after the
        // replaced one too).
        V.R = E;
        return;
      }
      // Two concurrent readers: spill to a full read clock (the rare
      // FastTrack promotion).
      ++ReadShares;
      uint32_t U = epochTid(V.R);
      uint64_t UClk = epochClk(V.R);
      V.R = 0;
      SpillVC &S = vcFor(V, std::max(U, Tid) + 1);
      S.Clk[U] = UClk;
      S.Clk[Tid] = Clk;
      return;
    }
    // Write.
    if (Epochs && V.W == E)
      return; // write same epoch: no release by Tid since the last write,
              // so no other thread can have ordered an access after it
    if (V.W && epochClk(V.W) > C.of(epochTid(V.W)))
      return race(epochTid(V.W), /*PrevWrite=*/true);
    if (V.Spill != NoSpill) {
      SpillVC &S = Spills[V.Spill];
      for (uint32_t U = 0; U < S.Len; ++U)
        if (S.Clk[U] > C.of(U))
          return race(U, /*PrevWrite=*/false);
      if (Epochs)
        V.Spill = NoSpill; // reads all ordered: back to epoch mode
      else
        std::fill_n(S.Clk, S.Len, 0); // oracle keeps the vector
    } else if (V.R && epochClk(V.R) > C.of(epochTid(V.R)))
      return race(epochTid(V.R), /*PrevWrite=*/false);
    V.W = E;
    V.R = 0;
  }

  /// Hints the cache that \p Addr's slot is about to be probed. Issued a
  /// few events ahead of access() so the (random-address) table miss
  /// overlaps the decode of the intervening events instead of stalling
  /// the state machine. Purely a hint: a line staled by a later grow()
  /// costs nothing.
  void prefetch(uint64_t Addr) const {
    __builtin_prefetch(&Table[mixAddr(Addr) & Mask], 1, 3);
  }

  std::vector<RaceRecord> Races; ///< first race per location, log order
  uint64_t RacyLocations = 0;
  uint64_t ReadShares = 0;

private:
  Slot &lookup(uint64_t Addr) {
    size_t I = mixAddr(Addr) & Mask;
    for (;;) {
      Slot &V = Table[I];
      if (V.Flags & FlagUsed) {
        if (V.Addr == Addr)
          return V;
      } else {
        if ((Size + 1) * 10 >= Table.size() * 7) {
          grow();
          return lookup(Addr);
        }
        V.Addr = Addr;
        V.Flags = FlagUsed;
        V.Spill = NoSpill;
        ++Size;
        return V;
      }
      I = (I + 1) & Mask;
    }
  }

  void grow() {
    std::vector<Slot> Old(Table.size() * 2);
    Old.swap(Table);
    Mask = Table.size() - 1;
    if (B)
      B->chargeBytes(Table.size() * sizeof(Slot));
    for (Slot &V : Old) {
      if (!(V.Flags & FlagUsed))
        continue;
      size_t I = mixAddr(V.Addr) & Mask;
      while (Table[I].Flags & FlagUsed)
        I = (I + 1) & Mask;
      Table[I] = V;
    }
  }

  /// The read-clock spill of \p V, present and at least \p MinLen long.
  SpillVC &vcFor(Slot &V, uint32_t MinLen) {
    MinLen = (MinLen + 7u) & ~7u; // round up: tids cluster, avoid regrowth
    if (V.Spill == NoSpill) {
      V.Spill = static_cast<uint32_t>(Spills.size());
      Spills.push_back({Arena.alloc(MinLen), MinLen});
      return Spills.back();
    }
    SpillVC &S = Spills[V.Spill];
    if (S.Len < MinLen) {
      uint64_t *N = Arena.alloc(MinLen);
      std::copy_n(S.Clk, S.Len, N);
      S.Clk = N;
      S.Len = MinLen;
    }
    return S;
  }

  std::vector<Slot> Table;
  size_t Mask = 0, Size = 0;
  std::vector<SpillVC> Spills;
  ClockArena Arena;
  Budget *B;
  bool Epochs;
  size_t MaxRaces;
};

//===----------------------------------------------------------------------===//
// Live thread clocks (the sequential synchronisation pass)
//===----------------------------------------------------------------------===//

struct LiveClocks {
  std::vector<std::vector<uint64_t>> C; ///< per-tid vector clocks
  std::vector<Epoch> Cur;               ///< cached current epoch per tid
  uint64_t Threads = 0;

  bool known(uint32_t T) const { return T < C.size() && !C[T].empty(); }

  void ensure(uint32_t T) {
    if (known(T))
      return;
    if (T >= C.size()) {
      C.resize(T + 1);
      Cur.resize(T + 1, 0);
    }
    C[T].resize(T + 1, 0);
    C[T][T] = 1;
    Cur[T] = mkEpoch(T, 1);
    ++Threads;
  }

  void tick(uint32_t T) {
    uint64_t Clk = ++C[T][T];
    Cur[T] = mkEpoch(T, Clk);
  }

  ClockRef ref(uint32_t T) const { return {C[T].data(), C[T].size()}; }

  /// Dst |_|= Src.
  static void joinInto(std::vector<uint64_t> &Dst,
                       const std::vector<uint64_t> &Src) {
    if (Src.size() > Dst.size())
      Dst.resize(Src.size(), 0);
    for (size_t I = 0; I < Src.size(); ++I)
      Dst[I] = std::max(Dst[I], Src[I]);
  }
};

//===----------------------------------------------------------------------===//
// The scan
//===----------------------------------------------------------------------===//

RaceLogReport scanImpl(std::string_view Bytes, const RaceLogOptions &O) {
  RaceLogReport Rep;
  BlockCursor Cur(Bytes);
  if (!Cur.ok()) {
    Rep.FormatOk = false;
    Rep.FormatError = Cur.error();
    return Rep;
  }

  Budget *B = O.Shared;
  Budget::Scope Charge(B);

  LiveClocks TC;
  std::unordered_map<uint64_t, std::vector<uint64_t>> Locks;
  VarTable Vars(B, O.Epochs, O.MaxRaces);

  uint64_t EventIndex = 0;
  bool Stop = false;
  // How far ahead of the state machine slot lines are prefetched. Eight
  // records (~300ns of decode work at current speeds) is enough to hide
  // an L3 miss without evicting lines before they are used.
  constexpr size_t PrefetchDist = 8 * EventRecordSize;
  for (std::string_view P = Cur.nextPayload(); !P.empty() && !Stop;
       P = Cur.nextPayload()) {
    // The injectable failure point of the detect loop: probed once per
    // block, so hit counters replay exactly from (plan, log).
    faultThrowInjected(FaultSite::RaceDetect);
    const char *Ptr = P.data();
    const char *End = Ptr + P.size();
    // Validate every record up front: a CRC-valid block containing a
    // record this reader does not understand is dropped *whole*, together
    // with everything after it — the same block-granularity valid-prefix
    // rule decodeLog applies (clock updates cannot be unwound, so
    // validation must precede application). decodeEvent is inline and the
    // decoded fields are dead here, so this pass compiles down to just
    // the validity checks over the (cache-hot) payload.
    bool BlockOk = true;
    for (const char *V = Ptr; V != End; V += EventRecordSize) {
      LogEvent E;
      if (!decodeEvent(V, E)) {
        BlockOk = false;
        break;
      }
    }
    if (!BlockOk) {
      Rep.Stats.TornTail = true;
      Rep.Stats.DroppedBytes = static_cast<uint64_t>(
          Bytes.data() + Bytes.size() - Ptr + BlockHeaderSize);
      break;
    }
    ++Rep.Stats.Blocks;
    Rep.Stats.PayloadBytes += P.size();
    for (; Ptr != End; Ptr += EventRecordSize) {
      LogEvent E;
      decodeEvent(Ptr, E);
      if (End - Ptr > static_cast<ptrdiff_t>(PrefetchDist)) {
        // Peek at the raw record a few slots ahead (the payload is
        // already validated) and warm its table line.
        const char *F = Ptr + PrefetchDist;
        if (static_cast<uint8_t>(F[0]) <= static_cast<uint8_t>(Op::Write)) {
          uint64_t A;
          __builtin_memcpy(&A, F + 8, 8);
          Vars.prefetch(A);
        }
      }
      if (!Charge.charge()) {
        Rep.Stats.Truncated = true;
        Rep.Stats.Reason = B ? B->reason() : TruncationReason::StateCap;
        Stop = true;
        break;
      }
      ++Rep.Stats.Events;
      uint64_t Idx = EventIndex++;
      switch (E.Kind) {
      case Op::Read:
      case Op::Write: {
        if (!TC.known(E.Tid))
          TC.ensure(E.Tid);
        Vars.access(E.Addr, E.Kind == Op::Write, E.Tid, TC.Cur[E.Tid],
                    TC.ref(E.Tid), Idx);
        break;
      }
      case Op::Acquire: {
        TC.ensure(E.Tid);
        auto It = Locks.find(E.Addr);
        if (It != Locks.end())
          LiveClocks::joinInto(TC.C[E.Tid], It->second);
        break;
      }
      case Op::Release: {
        TC.ensure(E.Tid);
        // Join (not overwrite): this repo's §3 happens-before relates
        // *any* earlier release to a later acquire of the same lock id —
        // volatile accesses are modelled as lock ids too, with no mutual
        // exclusion — so the lock clock accumulates every releaser.
        // Equivalent to the classic overwrite for well-nested monitors.
        LiveClocks::joinInto(Locks[E.Addr], TC.C[E.Tid]);
        TC.tick(E.Tid);
        break;
      }
      case Op::Fork: {
        TC.ensure(E.Tid);
        TC.ensure(E.Target);
        LiveClocks::joinInto(TC.C[E.Target], TC.C[E.Tid]);
        TC.tick(E.Tid);
        break;
      }
      case Op::Join: {
        TC.ensure(E.Tid);
        TC.ensure(E.Target);
        LiveClocks::joinInto(TC.C[E.Tid], TC.C[E.Target]);
        TC.tick(E.Target);
        break;
      }
      }
    }
  }
  Charge.settle();

  if (Cur.tornTail()) {
    Rep.Stats.TornTail = true;
    Rep.Stats.DroppedBytes = Cur.droppedBytes();
  }
  Rep.Stats.Threads = TC.Threads;
  // Races are recorded in log order and capped at MaxRaces as they come.
  Rep.Races = std::move(Vars.Races);
  Rep.Stats.RacyLocations = Vars.RacyLocations;
  Rep.Stats.ReadShares = Vars.ReadShares;
  return Rep;
}

} // namespace

RaceLogReport racelog::scanRaceLog(std::string_view LogBytes,
                                   const RaceLogOptions &Options) {
  try {
    return scanImpl(LogBytes, Options);
  } catch (...) {
    // Containment: a faulting scan (injected or genuine) is an Unknown
    // query, never a crash and never a fabricated verdict.
    if (Options.Shared)
      Options.Shared->poison(TruncationReason::EngineFault);
    RaceLogReport Rep;
    Rep.Stats.Truncated = true;
    Rep.Stats.Reason = TruncationReason::EngineFault;
    return Rep;
  }
}

std::string RaceLogReport::str() const {
  if (!FormatOk)
    return "bad-log: " + FormatError;
  std::string Out;
  if (Races.empty()) {
    Out = Stats.Truncated ? "undecided" : "race-free";
  } else {
    char Buf[128];
    const RaceRecord &F = Races.front();
    std::snprintf(Buf, sizeof(Buf),
                  "races: locations=%llu first=[addr=0x%llx event=%llu "
                  "%s(t%u) vs %s(t%u)]",
                  static_cast<unsigned long long>(Stats.RacyLocations),
                  static_cast<unsigned long long>(F.Addr),
                  static_cast<unsigned long long>(F.EventIndex),
                  F.PrevWrite ? "write" : "read", F.PrevTid,
                  F.Write ? "write" : "read", F.Tid);
    Out = Buf;
  }
  Out += " events=" + std::to_string(Stats.Events) +
         " threads=" + std::to_string(Stats.Threads);
  if (Stats.TornTail)
    Out += " torn-tail dropped=" + std::to_string(Stats.DroppedBytes);
  if (Stats.Truncated)
    Out += std::string(" truncated=") + truncationReasonName(Stats.Reason);
  return Out;
}
