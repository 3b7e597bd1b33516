//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic query keys for the verdict memoisation plane.
///
/// The safety checks served by the daemon are pure functions of the
/// program(s), the memory model / query kind, and the (clamped) budget
/// class — but submissions that mean the same thing rarely *look* the
/// same: clients rename their registers and locations, reorder their
/// thread sections, and format freely. The key builder maps every
/// alpha-variant of a program (consistent renaming of registers,
/// locations and monitors; any permutation of its thread sections; any
/// whitespace and comments) to one canonical text, so all of them collide
/// into a single cache key.
///
/// The key is built in one pass over the lexer's token stream, with no
/// AST and no symbol interning, so a query the cache already answers is
/// never parsed:
///
///   - the token stream is framed: `volatile` declarations, then one
///     `thread { ... }` section per thread (braces matched iteratively),
///     then the end of input;
///   - each identifier gets the class the parser would give it: the name
///     after `lock`/`unlock`/`sync` is a monitor, a name starting with 'r'
///     is a register, anything else is a location. Registers are renamed
///     r0, r1, ..., locations g0, g1, ..., monitors m0, m1, ... in
///     first-occurrence order over the canonical thread order. Keywords
///     stay verbatim (also where the parser would read them as a name)
///     and numbers are emitted by value;
///   - thread sections are sorted by their *locally* renamed token text
///     (each thread renamed in isolation), which is invariant under the
///     submission's own naming. Threads whose local texts tie are tried in
///     every order (up to 120 orders) and the smallest text wins, so a
///     permutation of tied threads still meets the same key;
///   - the volatile declaration lists the accessed volatile locations in
///     canonical-name order; volatiles the program never accesses are
///     dropped (they cannot influence any behaviour).
///
/// For two-program queries (DrfGuarantee / ThinAir) the pair is
/// canonicalised *jointly*: one renaming spans both programs and one
/// permutation (derived from the paired per-thread texts) reorders both,
/// so the correspondence between source and transformed threads survives.
/// On a thread-count mismatch both original orders are kept.
///
/// The canonical text is itself a program with the same parse outcome as
/// the query (renaming keeps every keyword and the parser's register
/// convention), and it is a fixed point of the builder. Hence a query that
/// does not parse never shares a key with one that does, and a verdict
/// cached under a key answers every query with that key.
///
/// Anything the builder cannot frame — a lex error, a missing or
/// unterminated thread section, trailing tokens, no threads, a keyword
/// declared volatile — and any injected FaultSite::Canonicalise fault
/// degrades to the raw key over the source bytes: still correct, just
/// cache-cold. A raw key can only meet a canonical key when the raw text
/// already *is* a canonical text (a fixed point), in which case they name
/// the same query.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_CANONICAL_H
#define TRACESAFE_VERIFY_CANONICAL_H

#include "support/Budget.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace tracesafe {

/// The memoisation key for a query: kind tag, canonical program text(s)
/// (each prefixed by its u64 length; the second is empty when
/// \p Transformed is), and the three clamped budget words (DeadlineMs,
/// MaxVisited, MaxMemoryBytes — the budget *class*, since truncation
/// points are part of the answer). \p Transformed is empty for
/// single-program kinds. The key is the BehaviourCache query-family key,
/// the daemon's single-flight identity and the persistent cache store's
/// key.
std::string canonicalQueryKey(uint8_t KindTag, std::string_view Program,
                              std::string_view Transformed,
                              const BudgetSpec &Clamped);

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_CANONICAL_H
