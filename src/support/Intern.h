//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consed interning of word spans, and the sleep-set memo table.
///
/// The enumeration engines encode every global search state as a short
/// span of uint64 words (per-thread trace ids, memory, lock state,
/// behaviour tail) and intern it: the first occurrence of a span gets a
/// dense uint32 id, later occurrences find the id by hash. Interning
/// replaces the seed engine's std::set<StateKey> memo tables — which
/// copied whole global states per entry and compared them
/// lexicographically — with one precomputed hash, an open-addressing
/// probe, and a word-wise compare on the rare collision.
///
/// The same pool interns trace trie nodes ([parent id, action word], so a
/// thread's current trace id updates in O(1) per step), event ids and
/// sleep-set signatures.
///
/// Memory is charged to the shared query Budget for real: chunked arenas
/// and slot tables report their actual allocation sizes as they grow,
/// replacing the seed's flat per-entry guess (ROADMAP item (e)).
///
/// Both tables belong to one query and are used by one thread: the
/// engines run sequentially and the daemon parallelises across queries,
/// each with its own pools. Ids are dense and in insertion order. Arena
/// chunks never move, so a span view stays valid for the pool's lifetime;
/// a slot table is freed as soon as its larger successor replaces it.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_INTERN_H
#define TRACESAFE_SUPPORT_INTERN_H

#include "support/Budget.h"

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace tracesafe {

/// Exponentially chunked storage indexed by uint32: chunk C holds 64<<C
/// items, so 32 chunk pointers cover every index and an item never moves
/// once its chunk exists.
template <typename T> class StableChunks {
public:
  /// The item at \p Idx, or null while its chunk does not exist.
  T *find(uint32_t Idx) const {
    unsigned C = chunkOf(Idx);
    return Chunks[C] ? &Chunks[C][Idx - baseOf(C)] : nullptr;
  }

  /// The item at \p Idx, whose chunk must exist.
  T &operator[](uint32_t Idx) const {
    unsigned C = chunkOf(Idx);
    return Chunks[C][Idx - baseOf(C)];
  }

  /// The item at \p Idx, allocating its chunk on first use and adding the
  /// chunk's size to \p Charged. A fresh chunk is default-initialised, not
  /// zeroed, so its pages become resident only as items are written.
  T &slot(uint32_t Idx, uint64_t &Charged) {
    unsigned C = chunkOf(Idx);
    if (!Chunks[C]) {
      Chunks[C] = std::make_unique_for_overwrite<T[]>(capOf(C));
      Charged += capOf(C) * sizeof(T);
    }
    return Chunks[C][Idx - baseOf(C)];
  }

private:
  static unsigned chunkOf(uint32_t Idx) {
    return std::bit_width((Idx >> 6) + 1) - 1;
  }
  static uint32_t baseOf(unsigned C) { return (uint32_t{64} << C) - 64; }
  static size_t capOf(unsigned C) { return size_t{64} << C; }

  std::array<std::unique_ptr<T[]>, 32> Chunks;
};

/// Interns spans of uint64 words into dense uint32 ids.
class InternPool {
public:
  /// \p Shared, when non-null, is charged the pool's real allocation
  /// sizes; exhaustion never corrupts the pool, it only flags the budget.
  explicit InternPool(Budget *Shared = nullptr);
  ~InternPool();

  InternPool(const InternPool &) = delete;
  InternPool &operator=(const InternPool &) = delete;

  struct Result {
    uint32_t Id;
    bool Inserted; ///< true on the first occurrence of the span
  };

  /// Interns \p Words[0..N). Idempotent.
  Result intern(const uint64_t *Words, size_t N);

  /// The words of a previously interned span. The pointer stays valid for
  /// the pool's lifetime.
  std::pair<const uint64_t *, uint32_t> view(uint32_t Id) const;

  /// Number of distinct spans interned.
  size_t size() const { return Count; }

  /// Resident bytes (arenas + the live slot table).
  uint64_t bytes() const { return Bytes; }

  static uint64_t hashWords(const uint64_t *Words, size_t N);

private:
  struct Entry {
    const uint64_t *Ptr;
    uint32_t Len;
    uint64_t Hash;
  };

  const uint64_t *store(const uint64_t *Words, size_t N, uint64_t &Charged);
  void growTable(uint64_t &Charged);

  StableChunks<Entry> Entries;
  std::vector<std::unique_ptr<uint64_t[]>> WordChunks;
  size_t ChunkUsed;
  /// Open-addressing slots holding entry index + 1 (0 = empty).
  std::vector<uint32_t> Slots;
  uint32_t Count = 0;
  uint64_t Bytes = 0;
  Budget *Shared;
};

/// Sleep-set memo: for each interned state, the sleep sets it has been
/// explored with. The POR search prunes a visit iff a recorded sleep set
/// is a subset of the current one — the recorded visit then explored a
/// superset of the transitions this visit would. Recording with plain
/// "seen before?" instead is the classic unsound shortcut (a first visit
/// with a big sleep set would mask transitions a later visit must take).
class SleepMemo {
public:
  /// \p Sigs is the pool whose ids the signatures were interned into
  /// (sorted event-id spans).
  explicit SleepMemo(const InternPool &Sigs, Budget *Shared = nullptr);
  ~SleepMemo();

  SleepMemo(const SleepMemo &) = delete;
  SleepMemo &operator=(const SleepMemo &) = delete;

  /// Returns true when the state must be explored with the given sleep
  /// signature (and records it); false when a recorded subset already
  /// covers this visit. Signatures that become dominated by the new one
  /// are dropped.
  bool shouldExplore(uint32_t StateId, uint32_t SigId);

private:
  struct Record {
    uint32_t Sig;
    uint32_t Next; ///< record index + 1; 0 = end
  };

  void growTable(uint64_t &Charged);

  StableChunks<Record> Records;
  uint32_t RecordCount = 0;
  /// Open-addressing cells packing {state key, head record index + 1}.
  std::vector<uint64_t> Cells;
  size_t Used = 0;
  const InternPool &Sigs;
  Budget *Shared;
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_INTERN_H
