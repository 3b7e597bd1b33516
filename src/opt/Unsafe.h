//===----------------------------------------------------------------------===//
///
/// \file
/// Deliberately *unsafe* transformations the paper uses as counterexamples.
///
/// - introduceRead: Fig 3(b)'s irrelevant read introduction. Inserting
///   `r := x` never changes behaviours of the program it is applied to on a
///   sequentially consistent machine, but it is NOT a semantic elimination
///   or reordering — and the paper's §2.1 shows why it must not be: a
///   subsequent perfectly legal redundant-read elimination can then produce
///   new behaviours for a data-race-free program.
///
/// - unsafeConstantPropagation: the §1 introduction example (gcc 4.1.2 on
///   x86). Propagates a constant store forward into later loads of the same
///   location in the same thread, *ignoring* the sync-free side condition
///   of E-RAW and descending into nested blocks. Sound for sequential code;
///   unsound under the DRF guarantee when synchronisation intervenes.
///
/// Both return the transformed program; the verification harness
/// demonstrates the failures.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_OPT_UNSAFE_H
#define TRACESAFE_OPT_UNSAFE_H

#include "opt/Rewrite.h"

#include <optional>

namespace tracesafe {

/// Inserts `Reg := Loc` at position \p Index of the list at \p Path.
/// \p Reg should be otherwise unused (the read is "irrelevant").
Program introduceRead(const Program &P, const ListPath &Path, size_t Index,
                      SymbolId Reg, SymbolId Loc);

/// A constant-propagation opportunity: a store of a literal at (Path, I)
/// and a later load of the same location — possibly nested inside a block,
/// if or while under the same list — to be replaced by a constant
/// assignment. The propagation deliberately skips the sync-free and
/// fv checks of E-RAW.
struct ConstPropSite {
  ListPath StorePath;
  size_t StoreIndex = 0;
  ListPath LoadPath; ///< List containing the load (may be deeper).
  size_t LoadIndex = 0;

  std::string str() const;
};

/// All unsafe constant-propagation opportunities in \p P.
std::vector<ConstPropSite> findUnsafeConstProp(const Program &P);

/// Applies one opportunity: the load `r := x` becomes `r := c`.
Program applyUnsafeConstProp(const Program &P, const ConstPropSite &Site);

/// A lock/unlock pair of the same monitor in one statement list (the lock
/// at index I, the matching unlock at index J > I, with balanced nesting
/// in between).
struct LockPair {
  ListPath Path;
  size_t LockIndex = 0;
  size_t UnlockIndex = 0;
};

/// Finds the top-level lock/unlock pairs of \p P.
std::vector<LockPair> findLockPairs(const Program &P);

/// *Unsafe* lock elision: deletes the pair. Sequentially sound; under the
/// DRF guarantee it is not — a lock is an acquire, and Definition 1 makes
/// acquires non-eliminable, precisely because removing the pair can
/// introduce data races into race-free programs.
Program elideLockPair(const Program &P, const LockPair &Pair);

/// The fuzzer's injected unsafe pass: elides the first lock pair, or
/// failing that applies the first unsafe constant propagation; nullopt
/// when \p P has neither. Lock elision comes first because on a
/// lock-disciplined DRF program it reliably manufactures a data race (a
/// checkable violation). Unsafe const-prop only ever *removes* behaviours
/// in this language, so behaviour inclusion — a subset check — cannot
/// catch it; it stays as the fallback to keep the pass total on lock-free
/// programs.
std::optional<Program> applyFirstUnsafe(const Program &P);

} // namespace tracesafe

#endif // TRACESAFE_OPT_UNSAFE_H
