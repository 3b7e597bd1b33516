#include "verify/Canonical.h"

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "support/Failure.h"

#include <algorithm>
#include <numeric>
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

/// A volatile location never accessed by either program is dropped (it
/// cannot influence any behaviour), so R.LocOrder covers exactly the
/// locations that survive; emitCanonical's isVolatile filter does the
/// per-program split for pairs.
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
  // A pair with mismatched thread counts keeps both original orders (the
  // thread correspondence is unclear); renaming still applies.
  std::vector<size_t> Perm;
  if (T && !Paired) {
    Perm.resize(P.threadCount());
    std::iota(Perm.begin(), Perm.end(), size_t{0});
  } else {
    Perm = sortedPerm(Keys);
  }

  Renamer R;
  std::vector<StmtList> ThreadsP;
  ThreadsP.reserve(P.threadCount());
  for (size_t I : Perm)
    ThreadsP.push_back(renameList(P.thread(I), R));
  std::vector<StmtList> ThreadsT;
  if (T) {
    ThreadsT.reserve(T->threadCount());
    if (Paired) {
      for (size_t I : Perm)
        ThreadsT.push_back(renameList(T->thread(I), R));
    } else {
      for (ThreadId I = 0; I < T->threadCount(); ++I)
        ThreadsT.push_back(renameList(T->thread(I), R));
    }
  }
  OutP = emitCanonical(P, ThreadsP, R);
  OutT = T ? emitCanonical(*T, ThreadsT, R) : std::string();
}

void appendWord(std::string &Out, uint64_t W) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((W >> (I * 8)) & 0xFF));
}

void appendSized(std::string &Out, const std::string &S) {
  appendWord(Out, S.size());
  Out += S;
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

std::string tracesafe::canonicalQueryKey(uint8_t KindTag,
                                         const std::string &Program,
                                         const std::string &Transformed,
                                         const BudgetSpec &Clamped) {
  ParseResult P = parseProgram(Program);
  ParseResult T;
  if (P && !Transformed.empty())
    T = parseProgram(Transformed);
  return canonicalQueryKey(KindTag, Program, P ? &*P.Prog : nullptr,
                           Transformed, T ? &*T.Prog : nullptr, Clamped);
}

std::string tracesafe::canonicalQueryKey(uint8_t KindTag,
                                         const std::string &Source,
                                         const Program *SourceAst,
                                         const std::string &Transformed,
                                         const Program *TransformedAst,
                                         const BudgetSpec &Clamped) {
  std::string Key;
  Key.push_back(static_cast<char>(KindTag));
  const bool Parsed = SourceAst && (Transformed.empty() || TransformedAst);
  bool Canonical = false;
  try {
    faultThrowInjected(FaultSite::Canonicalise);
    if (Parsed) {
      if (!Transformed.empty()) {
        std::string CP, CT;
        canonicalPairText(*SourceAst, *TransformedAst, CP, CT);
        appendSized(Key, CP);
        appendSized(Key, CT);
      } else {
        appendSized(Key, canonicalProgramText(*SourceAst));
        appendSized(Key, std::string());
      }
      Canonical = true;
    }
  } catch (...) {
    // Injected Canonicalise faults (and any allocation failure inside the
    // rename) are contained here: the degraded key below is still a
    // correct key for the query, just cache-cold for alpha-variants.
    Canonical = false;
  }
  if (!Canonical) {
    Key.resize(1);
    appendSized(Key, Source);
    appendSized(Key, Transformed);
  }
  appendWord(Key, static_cast<uint64_t>(Clamped.DeadlineMs));
  appendWord(Key, Clamped.MaxVisited);
  appendWord(Key, Clamped.MaxMemoryBytes);
  return Key;
}
