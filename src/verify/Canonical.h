//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic query canonicalisation for the verdict memoisation plane.
///
/// The safety checks served by the daemon are pure functions of the
/// program(s), the memory model / query kind, and the (clamped) budget
/// class — but submissions that mean the same thing rarely *look* the
/// same: clients rename their registers and locations, reorder their
/// thread sections, and format freely. The canonicaliser maps every
/// alpha-variant of a program (consistent renaming of registers,
/// locations and monitors; any permutation of its thread sections) to one
/// canonical text, so all of them collide into a single cache key:
///
///   - registers are renamed r0, r1, ... / locations g0, g1, ... /
///     monitors m0, m1, ... in first-occurrence order over the canonical
///     thread order (the parser's register convention — names starting
///     with 'r' — is preserved, so canonical text re-parses to the
///     canonical AST);
///   - thread sections are sorted by their *locally* canonicalised text
///     (each thread renamed in isolation), a stable structural hash that
///     is itself invariant under renaming, with the original index as the
///     tie-break;
///   - volatile declarations are re-emitted in canonical-name order, and
///     volatiles the program never accesses are dropped (they cannot
///     influence any behaviour);
///   - comments and whitespace are gone because the text is re-printed
///     from the AST by the existing Printer.
///
/// For two-program queries (DrfGuarantee / ThinAir) the pair is
/// canonicalised *jointly*: one renaming map spans both programs and one
/// permutation (derived from the paired per-thread texts) reorders both,
/// so the correspondence between source and transformed threads survives.
///
/// `canonicalQueryKey` packages the canonical text(s) with the query-kind
/// tag and the clamped budget words into the cache key used by the
/// BehaviourCache query family, the daemon's single-flight table and the
/// persistent cache store. It is fault-site aware (FaultSite::Canonicalise)
/// and *contains* injected faults: on a fault — or on unparseable input —
/// it degrades to the uncanonicalised key (raw source bytes), which is
/// still correct, just cache-cold.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_CANONICAL_H
#define TRACESAFE_VERIFY_CANONICAL_H

#include "lang/Ast.h"
#include "support/Budget.h"

#include <string>

namespace tracesafe {

/// Canonical text of \p P: alpha-renamed, thread-order normalised,
/// re-printed. Alpha-variants of the same program (consistent renamings,
/// thread permutations) produce byte-identical results, and distinct
/// programs produce distinct results (the mapping is injective up to
/// alpha-equivalence: the canonical text re-parses to a program that is
/// alpha-equivalent to the input).
std::string canonicalProgramText(const Program &P);

/// Joint canonicalisation of a (source, transformed) pair: one renaming
/// map spans both programs and, when the thread counts match, one
/// permutation (keyed on the paired per-thread local texts) reorders
/// both, preserving the source/target thread correspondence. On a
/// thread-count mismatch the original orders are kept (renaming still
/// applies).
void canonicalPairText(const Program &P, const Program &T,
                       std::string &OutP, std::string &OutT);

/// The memoisation key for a query: kind tag, canonical program text(s)
/// (length-prefixed), and the three clamped budget words (DeadlineMs,
/// MaxVisited, MaxMemoryBytes — the budget *class*, since truncation
/// points are part of the answer). \p Transformed is empty for
/// single-program kinds. Parse failures and injected
/// FaultSite::Canonicalise faults degrade to a key over the raw source
/// bytes: every caller still gets a correct key, alpha-variants just stop
/// colliding (cache-cold, never wrong). The degraded and canonical keys
/// can only collide when the raw text already *is* the canonical text, in
/// which case they name the same query.
std::string canonicalQueryKey(uint8_t KindTag, const std::string &Program,
                              const std::string &Transformed,
                              const BudgetSpec &Clamped);

/// The same key from programs the caller already parsed, so a query is
/// parsed once for both its key and its engines. \p SourceAst is the
/// parse of \p Source and \p TransformedAst that of \p Transformed
/// (ignored when Transformed is empty); null stands for a failed parse
/// and degrades to the raw key, exactly as the text overload does, so
/// both overloads give every query the same key.
std::string canonicalQueryKey(uint8_t KindTag, const std::string &Source,
                              const Program *SourceAst,
                              const std::string &Transformed,
                              const Program *TransformedAst,
                              const BudgetSpec &Clamped);

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_CANONICAL_H
