#include "CanonicalOracle.h"

#include "lang/Printer.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <unordered_map>

using namespace tracesafe;

namespace {

/// One consistent renaming over the three symbol namespaces. Canonical
/// names are assigned in first-use order; the 'r' prefix keeps registers
/// registers under the parser's naming convention, and 'g'/'m' keep
/// locations and monitors out of the register namespace.
struct Renamer {
  std::unordered_map<SymbolId, SymbolId> Regs, Locs, Mons;
  /// First-occurrence order of locations: (original, canonical). The
  /// volatile declaration line is emitted in this order.
  std::vector<std::pair<SymbolId, SymbolId>> LocOrder;
  unsigned NextReg = 0, NextLoc = 0, NextMon = 0;

  static SymbolId fresh(char Prefix, unsigned N) {
    std::string Name(1, Prefix);
    Name += std::to_string(N);
    return Symbol::intern(Name);
  }

  SymbolId reg(SymbolId S) {
    auto It = Regs.find(S);
    if (It != Regs.end())
      return It->second;
    SymbolId C = fresh('r', NextReg++);
    Regs.emplace(S, C);
    return C;
  }
  SymbolId loc(SymbolId S) {
    auto It = Locs.find(S);
    if (It != Locs.end())
      return It->second;
    SymbolId C = fresh('g', NextLoc++);
    Locs.emplace(S, C);
    LocOrder.emplace_back(S, C);
    return C;
  }
  SymbolId mon(SymbolId S) {
    auto It = Mons.find(S);
    if (It != Mons.end())
      return It->second;
    SymbolId C = fresh('m', NextMon++);
    Mons.emplace(S, C);
    return C;
  }
};

Operand renameOperand(const Operand &O, Renamer &R) {
  return O.IsImm ? O : Operand::reg(R.reg(O.Reg));
}

Cond renameCond(const Cond &C, Renamer &R) {
  Cond Out = C;
  Out.Lhs = renameOperand(C.Lhs, R);
  Out.Rhs = renameOperand(C.Rhs, R);
  return Out;
}

StmtList renameList(const StmtList &L, Renamer &R);

/// Rebuilds \p S with every symbol renamed. Sub-expressions are renamed
/// in textual order (locals sequence the renames: function-argument
/// evaluation order would not).
StmtPtr renameStmt(const Stmt &S, Renamer &R) {
  switch (S.kind()) {
  case StmtKind::Assign: {
    const auto &A = cast<AssignStmt>(S);
    SymbolId Reg = R.reg(A.reg());
    Operand Src = renameOperand(A.src(), R);
    return std::make_unique<AssignStmt>(Reg, Src);
  }
  case StmtKind::Load: {
    const auto &L = cast<LoadStmt>(S);
    SymbolId Reg = R.reg(L.reg());
    SymbolId Loc = R.loc(L.loc());
    return std::make_unique<LoadStmt>(Reg, Loc);
  }
  case StmtKind::Store: {
    const auto &St = cast<StoreStmt>(S);
    SymbolId Loc = R.loc(St.loc());
    Operand Src = renameOperand(St.src(), R);
    return std::make_unique<StoreStmt>(Loc, Src);
  }
  case StmtKind::Lock:
    return std::make_unique<LockStmt>(R.mon(cast<LockStmt>(S).monitor()));
  case StmtKind::Unlock:
    return std::make_unique<UnlockStmt>(R.mon(cast<UnlockStmt>(S).monitor()));
  case StmtKind::Skip:
    return std::make_unique<SkipStmt>();
  case StmtKind::Print:
    return std::make_unique<PrintStmt>(renameOperand(cast<PrintStmt>(S).src(), R));
  case StmtKind::Input:
    return std::make_unique<InputStmt>(R.reg(cast<InputStmt>(S).reg()));
  case StmtKind::Block:
    return std::make_unique<BlockStmt>(renameList(cast<BlockStmt>(S).body(), R));
  case StmtKind::If: {
    const auto &I = cast<IfStmt>(S);
    Cond C = renameCond(I.cond(), R);
    StmtPtr Then = renameStmt(I.thenStmt(), R);
    StmtPtr Else = renameStmt(I.elseStmt(), R);
    return std::make_unique<IfStmt>(C, std::move(Then), std::move(Else));
  }
  case StmtKind::While: {
    const auto &W = cast<WhileStmt>(S);
    Cond C = renameCond(W.cond(), R);
    StmtPtr Body = renameStmt(W.body(), R);
    return std::make_unique<WhileStmt>(C, std::move(Body));
  }
  }
  return std::make_unique<SkipStmt>();
}

StmtList renameList(const StmtList &L, Renamer &R) {
  StmtList Out;
  Out.reserve(L.size());
  for (const StmtPtr &S : L)
    Out.push_back(renameStmt(*S, R));
  return Out;
}

/// The thread's text under a *fresh* renamer: a structural hash that is
/// invariant under the submission's own naming, used only to order the
/// thread sections deterministically.
std::string localThreadText(const StmtList &L) {
  Renamer R;
  return printStmtList(renameList(L, R), 2);
}

/// Stable sort permutation over \p Keys (original index breaks ties).
std::vector<size_t> sortedPerm(const std::vector<std::string> &Keys) {
  std::vector<size_t> Perm(Keys.size());
  std::iota(Perm.begin(), Perm.end(), size_t{0});
  std::stable_sort(Perm.begin(), Perm.end(),
                   [&](size_t A, size_t B) { return Keys[A] < Keys[B]; });
  return Perm;
}

/// Emits the canonical text of one program: its volatile line (accessed
/// volatiles only, in canonical first-occurrence order) followed by the
/// renamed threads. printProgram is not used directly because it orders
/// the volatile declaration by SymbolId, which depends on the process's
/// interning history — canonical text must be process-independent.
std::string emitCanonical(const Program &Orig,
                          const std::vector<StmtList> &Threads,
                          const Renamer &R) {
  std::string Out;
  std::string Names;
  for (const auto &[OrigId, CanonId] : R.LocOrder) {
    if (!Orig.isVolatile(OrigId))
      continue;
    if (!Names.empty())
      Names += ", ";
    Names += Symbol::name(CanonId);
  }
  if (!Names.empty())
    Out += "volatile " + Names + ";\n";
  for (const StmtList &L : Threads) {
    Out += "thread {\n";
    Out += printStmtList(L, 2);
    Out += "}\n";
  }
  return Out;
}

/// Renames the threads of \p P (and \p T) in the order \p Perm (\p PermT
/// for T) under one fresh renamer and prints both.
void renameInOrder(const Program &P, const Program *T,
                   const std::vector<size_t> &Perm,
                   const std::vector<size_t> &PermT, std::string &OutP,
                   std::string &OutT) {
  Renamer R;
  std::vector<StmtList> ThreadsP;
  for (size_t I : Perm)
    ThreadsP.push_back(renameList(P.thread(I), R));
  std::vector<StmtList> ThreadsT;
  if (T)
    for (size_t I : PermT)
      ThreadsT.push_back(renameList(T->thread(I), R));
  OutP = emitCanonical(P, ThreadsP, R);
  OutT = T ? emitCanonical(*T, ThreadsT, R) : std::string();
}

/// A volatile location never accessed by either program is dropped (it
/// cannot influence any behaviour), so R.LocOrder covers exactly the
/// locations that survive; emitCanonical's isVolatile filter does the
/// per-program split for pairs. Threads whose sort keys tie are tried in
/// every order (up to 120 orders) and the smallest text wins.
void canonicalise(const Program &P, const Program *T, std::string &OutP,
                  std::string &OutT) {
  std::vector<std::string> Keys;
  Keys.reserve(P.threadCount());
  bool Paired = T && T->threadCount() == P.threadCount();
  for (ThreadId I = 0; I < P.threadCount(); ++I) {
    std::string K = localThreadText(P.thread(I));
    if (Paired)
      K += '\x01' + localThreadText(T->thread(I));
    Keys.push_back(std::move(K));
  }
  std::vector<size_t> PermT;
  if (T) {
    PermT.resize(T->threadCount());
    std::iota(PermT.begin(), PermT.end(), size_t{0});
  }
  // A pair with mismatched thread counts keeps both original orders (the
  // thread correspondence is unclear); renaming still applies.
  if (T && !Paired) {
    std::vector<size_t> Perm(P.threadCount());
    std::iota(Perm.begin(), Perm.end(), size_t{0});
    renameInOrder(P, T, Perm, PermT, OutP, OutT);
    return;
  }
  std::vector<size_t> Perm = sortedPerm(Keys);
  std::vector<std::pair<size_t, size_t>> Ties;
  uint64_t Orders = 1;
  for (size_t B = 0, E; B < Perm.size(); B = E) {
    for (E = B + 1; E < Perm.size() && Keys[Perm[E]] == Keys[Perm[B]]; ++E)
      ;
    for (size_t K = 2; K <= E - B && Orders <= 120; ++K)
      Orders *= K;
    if (E - B > 1)
      Ties.emplace_back(B, E);
  }
  renameInOrder(P, T, Perm, Paired ? Perm : PermT, OutP, OutT);
  if (Ties.empty() || Orders > 120)
    return;
  for (;;) {
    bool Advanced = false;
    for (auto [B, E] : Ties)
      if (std::next_permutation(Perm.begin() + B, Perm.begin() + E)) {
        Advanced = true;
        break;
      }
    if (!Advanced)
      return;
    std::string CP, CT;
    renameInOrder(P, T, Perm, Paired ? Perm : PermT, CP, CT);
    if (std::tie(CP, CT) < std::tie(OutP, OutT)) {
      OutP.swap(CP);
      OutT.swap(CT);
    }
  }
}

} // namespace

std::string tracesafe::canonicalProgramText(const Program &P) {
  std::string Out, Ignored;
  canonicalise(P, nullptr, Out, Ignored);
  return Out;
}

void tracesafe::canonicalPairText(const Program &P, const Program &T,
                                  std::string &OutP, std::string &OutT) {
  canonicalise(P, &T, OutP, OutT);
}
