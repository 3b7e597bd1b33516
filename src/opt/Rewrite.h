//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic transformation engine (paper §6.1, Figs 9-11).
///
/// Fig 9's transformation template says: a base rule may be applied at any
/// position inside any statement context. We realise this as an enumerator
/// of *rewrite sites* — (rule, statement-list path, indices) triples — plus
/// a pure applier that clones the program and rewrites one site.
///
/// The base rules:
///   Fig 10 eliminations: E-RAR, E-RAW, E-WAR, E-WBW, E-IR. These are "gap"
///   rules: they relate two statements i < j in the same list with every
///   intervening statement sync-free and not mentioning the relevant names
///   (the paper's S with r1, r2, x not in fv(S)).
///   Fig 11 reorderings: R-RR, R-WW, R-WR, R-RW, R-WL, R-RL, R-UW, R-UR,
///   R-XR, R-XW. These swap two adjacent statements.
///   Extensions (off by default, see DESIGN.md): R-RX and R-WX, the safe
///   reverse directions of the external-action reorderings.
///
/// Statement lists live in thread bodies and inside BlockStmt bodies; if
/// and while children are traversed through blocks. A ListPath addresses
/// one such list.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_OPT_REWRITE_H
#define TRACESAFE_OPT_REWRITE_H

#include "lang/Ast.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace tracesafe {

/// The syntactic base rules.
enum class RuleKind : uint8_t {
  // Fig 10 (eliminations).
  ERaR, ///< r1:=x; S; r2:=x   ->  r1:=x; S; r2:=r1
  ERaW, ///< x:=r1; S; r2:=x   ->  x:=r1; S; r2:=r1
  EWaR, ///< r:=x;  S; x:=r    ->  r:=x;  S
  EWbW, ///< x:=r1; S; x:=r2   ->  S; x:=r2
  EIr,  ///< r:=x;  r:=i       ->  r:=i
  // Fig 11 (reorderings), all adjacent swaps.
  RRR, ///< r1:=x; r2:=y  ->  r2:=y; r1:=x    (r1 != r2, x not volatile)
  RWW, ///< x:=r1; y:=r2  ->  y:=r2; x:=r1    (x != y, y not volatile)
  RWR, ///< x:=r1; r2:=y  ->  r2:=y; x:=r1    (r1 != r2, x != y, not both
       ///<                                    volatile)
  RRW, ///< r1:=x; y:=r2  ->  y:=r2; r1:=x    (r1 != r2, x != y, both
       ///<                                    non-volatile)
  RWL, ///< x:=r; lock m    ->  lock m; x:=r    (x not volatile)
  RRL, ///< r:=x; lock m    ->  lock m; r:=x    (x not volatile)
  RUW, ///< unlock m; x:=r  ->  x:=r; unlock m  (x not volatile)
  RUR, ///< unlock m; r:=x  ->  r:=x; unlock m  (x not volatile)
  RXR, ///< print r1; r2:=x ->  r2:=x; print r1 (r1 != r2, x not volatile)
  RXW, ///< print r1; x:=r2 ->  x:=r2; print r1 (x not volatile)
  // Extensions (not in the paper's figure; safe by the same predicate).
  RRX, ///< r2:=x; print r1 ->  print r1; r2:=x (r1 != r2, x not volatile)
  RWX, ///< x:=r2; print r1 ->  print r1; x:=r2 (x not volatile)
};

/// Printable rule name ("E-RAR", "R-WL", ...).
std::string ruleName(RuleKind K);

/// Which rules the site enumerator considers.
struct RuleSet {
  bool Eliminations = true;
  bool Reorderings = true;
  bool Extensions = false;

  bool enabled(RuleKind K) const;

  static RuleSet all() { return RuleSet{}; }
  static RuleSet eliminationsOnly() { return RuleSet{true, false, false}; }
  static RuleSet reorderingsOnly() { return RuleSet{false, true, false}; }
  static RuleSet withExtensions() { return RuleSet{true, true, true}; }
};

/// How a path descends from a statement into a child statement list.
enum class PathSel : uint8_t {
  BlockBody, ///< the statement is a BlockStmt; descend into its body
  ThenBody,  ///< IfStmt; then-branch must be a BlockStmt
  ElseBody,  ///< IfStmt; else-branch must be a BlockStmt
  WhileBody, ///< WhileStmt; body must be a BlockStmt
};

/// Address of a statement list: a thread body followed by descent steps.
struct ListPath {
  ThreadId Tid = 0;
  std::vector<std::pair<size_t, PathSel>> Steps;

  friend auto operator<=>(const ListPath &, const ListPath &) = default;
};

/// Resolves \p Path inside \p P; asserts the path is valid.
StmtList &resolveList(Program &P, const ListPath &Path);
const StmtList &resolveList(const Program &P, const ListPath &Path);

/// Invokes \p Fn on every statement list in \p P (thread bodies and all
/// nested blocks, including blocks inside if/while).
void forEachList(const Program &P,
                 const std::function<void(const ListPath &, const StmtList &)>
                     &Fn);

/// One applicable transformation: \p Rule at positions \p I (< \p J for gap
/// rules; J = I+1 for adjacent rules) of the list at \p Path.
struct RewriteSite {
  RuleKind Rule;
  ListPath Path;
  size_t I = 0;
  size_t J = 0;

  std::string str() const;
};

/// Enumerates every applicable rewrite site of \p P under \p Rules, in a
/// deterministic order.
std::vector<RewriteSite> findRewriteSites(const Program &P,
                                          const RuleSet &Rules = {});

/// The sites of findRewriteSites(P, Rules) on the one list at \p Path, in
/// the same order. \p Path must resolve in \p P.
std::vector<RewriteSite> findRewriteSitesIn(const Program &P,
                                            const ListPath &Path,
                                            const RuleSet &Rules = {});

/// Applies one site, returning the transformed program (the input is not
/// modified). Asserts that the site actually matches.
Program applyRewrite(const Program &P, const RewriteSite &Site);

/// Does \p Site apply to \p P? Unlike applyRewrite's assert this is a
/// total check: an unresolvable path, an out-of-range index, wrong index
/// shape for the rule, or a failing rule matcher all return false. Chain
/// minimisation uses it to re-validate step subsequences against reduced
/// programs, where sites recorded on the full program routinely dangle.
bool siteApplies(const Program &P, const RewriteSite &Site);

/// Applies \p Steps in order; nullopt as soon as a step no longer applies
/// (sites are positional, so dropping an earlier step can invalidate a
/// later one). The chain shrinker's replay primitive.
std::optional<Program> applyChain(const Program &P,
                                  const std::vector<RewriteSite> &Steps);

} // namespace tracesafe

#endif // TRACESAFE_OPT_REWRITE_H
