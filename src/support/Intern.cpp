#include "support/Intern.h"

#include "support/Failure.h"

#include <cstring>

using namespace tracesafe;

namespace {

inline uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

constexpr size_t InitialSlots = 64;
constexpr size_t ChunkWords = 1 << 13; // 64 KiB of span storage

} // namespace

uint64_t InternPool::hashWords(const uint64_t *Words, size_t N) {
  uint64_t H = 0x9E3779B97F4A7C15ULL ^ (static_cast<uint64_t>(N) << 1);
  for (size_t I = 0; I < N; ++I)
    H = mix64(H ^ Words[I]);
  return H;
}

InternPool::InternPool(Budget *Shared)
    : ChunkUsed(ChunkWords), // full: the first intern allocates
      Slots(InitialSlots, 0), Bytes(InitialSlots * sizeof(uint32_t)),
      Shared(Shared) {}

InternPool::~InternPool() = default;

const uint64_t *InternPool::store(const uint64_t *Words, size_t N,
                                  uint64_t &Charged) {
  if (N == 0) { // e.g. the empty sleep-set signature
    static const uint64_t Dummy = 0;
    return &Dummy;
  }
  if (N > ChunkWords - ChunkUsed) {
    size_t Cap = N > ChunkWords ? N : ChunkWords;
    WordChunks.push_back(std::make_unique<uint64_t[]>(Cap));
    ChunkUsed = 0;
    Charged += Cap * sizeof(uint64_t);
    if (Cap > ChunkWords) { // dedicated oversize chunk; retire it
      ChunkUsed = Cap;
      std::memcpy(WordChunks.back().get(), Words, N * sizeof(uint64_t));
      return WordChunks.back().get();
    }
  }
  uint64_t *Dst = WordChunks.back().get() + ChunkUsed;
  std::memcpy(Dst, Words, N * sizeof(uint64_t));
  ChunkUsed += N;
  return Dst;
}

void InternPool::growTable(uint64_t &Charged) {
  std::vector<uint32_t> Next(Slots.size() * 2, 0);
  Charged += Next.size() * sizeof(uint32_t);
  Bytes += (Next.size() - Slots.size()) * sizeof(uint32_t);
  size_t Mask = Next.size() - 1;
  for (uint32_t V : Slots) {
    if (!V)
      continue;
    size_t J = Entries[V - 1].Hash & Mask;
    while (Next[J])
      J = (J + 1) & Mask;
    Next[J] = V;
  }
  Slots = std::move(Next);
}

InternPool::Result InternPool::intern(const uint64_t *Words, size_t N) {
  // Fault-injection site: simulated allocation failure, thrown before any
  // pool state is touched so the pool stays consistent. The engines
  // contain it at their query boundary as Unknown(EngineFault).
  faultThrowBadAlloc(FaultSite::InternAlloc);
  uint64_t Hash = hashWords(Words, N);
  size_t Mask = Slots.size() - 1;
  size_t I = Hash & Mask;
  while (uint32_t V = Slots[I]) {
    const Entry &E = Entries[V - 1];
    if (E.Hash == Hash && E.Len == N &&
        (N == 0 || std::memcmp(E.Ptr, Words, N * sizeof(uint64_t)) == 0))
      return {V - 1, false};
    I = (I + 1) & Mask;
  }
  uint64_t Charged = 0;
  const uint64_t *Ptr = store(Words, N, Charged);
  Entries.slot(Count, Charged) = {Ptr, static_cast<uint32_t>(N), Hash};
  Bytes += Charged; // arena and entry chunks
  uint32_t Id = Count++;
  Slots[I] = Id + 1;
  // Grow at ~70% load so probe sequences stay short.
  if (static_cast<size_t>(Count) * 10 > Slots.size() * 7)
    growTable(Charged);
  if (Shared && Charged)
    Shared->chargeBytes(Charged);
  return {Id, true};
}

std::pair<const uint64_t *, uint32_t> InternPool::view(uint32_t Id) const {
  const Entry &E = Entries[Id];
  return {E.Ptr, E.Len};
}

namespace {

/// Both signatures are sorted event-id spans; subset by two-pointer walk.
bool sigSubset(const uint64_t *A, uint32_t An, const uint64_t *B,
               uint32_t Bn) {
  if (An > Bn)
    return false;
  uint32_t J = 0;
  for (uint32_t I = 0; I < An; ++I) {
    while (J < Bn && B[J] < A[I])
      ++J;
    if (J == Bn || B[J] != A[I])
      return false;
    ++J;
  }
  return true;
}

constexpr uint32_t EmptyKey = 0xFFFFFFFFu;

uint64_t packCell(uint32_t Key, uint32_t Head) {
  return static_cast<uint64_t>(Head) << 32 | Key;
}
uint32_t cellKey(uint64_t Cell) { return static_cast<uint32_t>(Cell); }
uint32_t cellHead(uint64_t Cell) { return static_cast<uint32_t>(Cell >> 32); }

/// The cell holding \p Key in \p Cells, or the empty cell where it goes.
size_t probeCell(const std::vector<uint64_t> &Cells, uint32_t Key) {
  size_t Mask = Cells.size() - 1;
  size_t I = mix64(Key) & Mask;
  while (cellKey(Cells[I]) != EmptyKey && cellKey(Cells[I]) != Key)
    I = (I + 1) & Mask;
  return I;
}

} // namespace

SleepMemo::SleepMemo(const InternPool &Sigs, Budget *Shared)
    : Cells(InitialSlots, packCell(EmptyKey, 0)), Sigs(Sigs),
      Shared(Shared) {}

SleepMemo::~SleepMemo() = default;

void SleepMemo::growTable(uint64_t &Charged) {
  std::vector<uint64_t> Next(Cells.size() * 2, packCell(EmptyKey, 0));
  Charged += Next.size() * sizeof(uint64_t);
  for (uint64_t Cell : Cells)
    if (cellKey(Cell) != EmptyKey)
      Next[probeCell(Next, cellKey(Cell))] = Cell;
  Cells = std::move(Next);
}

bool SleepMemo::shouldExplore(uint32_t StateId, uint32_t SigId) {
  auto [CurPtr, CurLen] = Sigs.view(SigId);
  size_t CellIdx = probeCell(Cells, StateId);
  uint32_t Head = 0;
  if (cellKey(Cells[CellIdx]) == EmptyKey) {
    ++Used;
  } else {
    // Prune iff a recorded sleep set is a subset of the current one: that
    // visit explored every transition this visit would. While walking,
    // unlink records dominated by (strict supersets of) the new set.
    Head = cellHead(Cells[CellIdx]);
    uint32_t *LinkSlot = &Head;
    uint32_t Link = Head;
    while (Link) {
      Record &R = Records[Link - 1];
      uint32_t NextLink = R.Next;
      if (R.Sig == SigId)
        return false;
      auto [RecPtr, RecLen] = Sigs.view(R.Sig);
      if (sigSubset(RecPtr, RecLen, CurPtr, CurLen))
        return false;
      if (sigSubset(CurPtr, CurLen, RecPtr, RecLen))
        *LinkSlot = NextLink; // dominated: the new record covers it
      else
        LinkSlot = &R.Next;
      Link = NextLink;
    }
  }
  uint64_t Charged = 0;
  Records.slot(RecordCount, Charged) = {SigId, Head};
  Cells[CellIdx] = packCell(StateId, ++RecordCount);
  if (Used * 10 > Cells.size() * 7)
    growTable(Charged);
  if (Shared && Charged)
    Shared->chargeBytes(Charged);
  return true;
}
