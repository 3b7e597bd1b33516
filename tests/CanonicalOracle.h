//===----------------------------------------------------------------------===//
///
/// \file
/// The AST canonicaliser: the test-only reference oracle for the token
/// stream key builder (verify/Canonical.h).
///
/// It parses nothing itself. Given parsed programs it rebuilds each thread
/// under a fresh renamer to get its sort key, sorts the threads, renames
/// the whole program (pair) in first-occurrence order and re-prints it.
/// Registers become r0, r1, ..., locations g0, g1, ..., monitors m0, m1,
/// ...; accessed volatiles are declared in first-occurrence order and
/// unaccessed ones dropped; threads whose sort keys tie are tried in
/// every order (up to 120) and the smallest text wins. Because it works
/// on the AST, `sync m { L }` and its desugaring print alike, which the
/// token stream cannot see: equal builder keys must imply equal oracle
/// texts, not the converse.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_TESTS_CANONICALORACLE_H
#define TRACESAFE_TESTS_CANONICALORACLE_H

#include "lang/Ast.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace tracesafe {

/// Canonical text of \p P: alpha-renamed, thread-order normalised,
/// re-printed. Alpha-variants of the same program produce byte-identical
/// results; the text re-parses to a program alpha-equivalent to \p P.
std::string canonicalProgramText(const Program &P);

/// Joint canonicalisation of a (source, transformed) pair: one renaming
/// spans both programs and, when the thread counts match, one permutation
/// (keyed on the paired per-thread local texts) reorders both. On a
/// thread-count mismatch the original orders are kept.
void canonicalPairText(const Program &P, const Program &T, std::string &OutP,
                       std::string &OutT);

/// The (program, transformed) texts inside a canonicalQueryKey: after the
/// kind byte, each is prefixed by its little-endian u64 length.
inline std::pair<std::string_view, std::string_view>
keyPrograms(std::string_view Key) {
  auto Word = [&](size_t At) {
    uint64_t W = 0;
    for (size_t I = 0; I < 8 && At + I < Key.size(); ++I)
      W |= uint64_t(static_cast<uint8_t>(Key[At + I])) << (8 * I);
    return static_cast<size_t>(W);
  };
  std::string_view P = Key.substr(9, Word(1));
  return {P, Key.substr(17 + P.size(), Word(9 + P.size()))};
}

} // namespace tracesafe

#endif // TRACESAFE_TESTS_CANONICALORACLE_H
