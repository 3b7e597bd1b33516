#include "lang/Ast.h"

using namespace tracesafe;

StmtList tracesafe::cloneList(const StmtList &L) {
  StmtList Out;
  Out.reserve(L.size());
  for (const StmtPtr &S : L)
    Out.push_back(S->clone());
  return Out;
}

bool tracesafe::listEquals(const StmtList &A, const StmtList &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!A[I]->equals(*B[I]))
      return false;
  return true;
}

bool Stmt::isSyncFree(const std::set<SymbolId> &Volatiles) const {
  std::set<SymbolId> Regs, Locs, Mons;
  collectSymbols(Regs, Locs, Mons);
  if (!Mons.empty())
    return false;
  for (SymbolId L : Locs)
    if (Volatiles.count(L))
      return false;
  return true;
}

bool Stmt::mentionsAny(const std::set<SymbolId> &Syms) const {
  std::set<SymbolId> Regs, Locs, Mons;
  collectSymbols(Regs, Locs, Mons);
  for (SymbolId S : Syms)
    if (Regs.count(S) || Locs.count(S) || Mons.count(S))
      return true;
  return false;
}

// --- AssignStmt ---

StmtPtr AssignStmt::clone() const {
  return std::make_unique<AssignStmt>(Reg, Src);
}

bool AssignStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<AssignStmt>(&Other);
  return O && O->Reg == Reg && O->Src == Src;
}

void AssignStmt::collectSymbols(std::set<SymbolId> &Regs,
                                std::set<SymbolId> &Locs,
                                std::set<SymbolId> &Mons) const {
  (void)Locs;
  (void)Mons;
  Regs.insert(Reg);
  if (!Src.IsImm)
    Regs.insert(Src.Reg);
}

// --- LoadStmt ---

StmtPtr LoadStmt::clone() const { return std::make_unique<LoadStmt>(Reg, Loc); }

bool LoadStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<LoadStmt>(&Other);
  return O && O->Reg == Reg && O->Loc == Loc;
}

void LoadStmt::collectSymbols(std::set<SymbolId> &Regs,
                              std::set<SymbolId> &Locs,
                              std::set<SymbolId> &Mons) const {
  (void)Mons;
  Regs.insert(Reg);
  Locs.insert(Loc);
}

// --- StoreStmt ---

StmtPtr StoreStmt::clone() const {
  return std::make_unique<StoreStmt>(Loc, Src);
}

bool StoreStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<StoreStmt>(&Other);
  return O && O->Loc == Loc && O->Src == Src;
}

void StoreStmt::collectSymbols(std::set<SymbolId> &Regs,
                               std::set<SymbolId> &Locs,
                               std::set<SymbolId> &Mons) const {
  (void)Mons;
  Locs.insert(Loc);
  if (!Src.IsImm)
    Regs.insert(Src.Reg);
}

// --- LockStmt / UnlockStmt ---

StmtPtr LockStmt::clone() const { return std::make_unique<LockStmt>(Mon); }

bool LockStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<LockStmt>(&Other);
  return O && O->Mon == Mon;
}

void LockStmt::collectSymbols(std::set<SymbolId> &Regs,
                              std::set<SymbolId> &Locs,
                              std::set<SymbolId> &Mons) const {
  (void)Regs;
  (void)Locs;
  Mons.insert(Mon);
}

StmtPtr UnlockStmt::clone() const { return std::make_unique<UnlockStmt>(Mon); }

bool UnlockStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<UnlockStmt>(&Other);
  return O && O->Mon == Mon;
}

void UnlockStmt::collectSymbols(std::set<SymbolId> &Regs,
                                std::set<SymbolId> &Locs,
                                std::set<SymbolId> &Mons) const {
  (void)Regs;
  (void)Locs;
  Mons.insert(Mon);
}

// --- SkipStmt ---

StmtPtr SkipStmt::clone() const { return std::make_unique<SkipStmt>(); }

bool SkipStmt::equals(const Stmt &Other) const {
  return isa<SkipStmt>(Other);
}

void SkipStmt::collectSymbols(std::set<SymbolId> &, std::set<SymbolId> &,
                              std::set<SymbolId> &) const {}

// --- PrintStmt ---

StmtPtr PrintStmt::clone() const { return std::make_unique<PrintStmt>(Src); }

bool PrintStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<PrintStmt>(&Other);
  return O && O->Src == Src;
}

void PrintStmt::collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &,
                               std::set<SymbolId> &) const {
  if (!Src.IsImm)
    Regs.insert(Src.Reg);
}

// --- InputStmt ---

StmtPtr InputStmt::clone() const { return std::make_unique<InputStmt>(Reg); }

bool InputStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<InputStmt>(&Other);
  return O && O->Reg == Reg;
}

void InputStmt::collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &,
                               std::set<SymbolId> &) const {
  Regs.insert(Reg);
}

// --- BlockStmt ---

StmtPtr BlockStmt::clone() const {
  return std::make_unique<BlockStmt>(cloneList(Body));
}

bool BlockStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<BlockStmt>(&Other);
  return O && listEquals(Body, O->Body);
}

void BlockStmt::collectSymbols(std::set<SymbolId> &Regs,
                               std::set<SymbolId> &Locs,
                               std::set<SymbolId> &Mons) const {
  for (const StmtPtr &S : Body)
    S->collectSymbols(Regs, Locs, Mons);
}

// --- IfStmt ---

namespace {

void collectCond(const Cond &C, std::set<SymbolId> &Regs) {
  if (!C.Lhs.IsImm)
    Regs.insert(C.Lhs.Reg);
  if (!C.Rhs.IsImm)
    Regs.insert(C.Rhs.Reg);
}

} // namespace

StmtPtr IfStmt::clone() const {
  return std::make_unique<IfStmt>(C, Then->clone(), Else->clone());
}

bool IfStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<IfStmt>(&Other);
  return O && O->C == C && Then->equals(*O->Then) && Else->equals(*O->Else);
}

void IfStmt::collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                            std::set<SymbolId> &Mons) const {
  collectCond(C, Regs);
  Then->collectSymbols(Regs, Locs, Mons);
  Else->collectSymbols(Regs, Locs, Mons);
}

// --- WhileStmt ---

StmtPtr WhileStmt::clone() const {
  return std::make_unique<WhileStmt>(C, Body->clone());
}

bool WhileStmt::equals(const Stmt &Other) const {
  const auto *O = dyn_cast<WhileStmt>(&Other);
  return O && O->C == C && Body->equals(*O->Body);
}

void WhileStmt::collectSymbols(std::set<SymbolId> &Regs,
                               std::set<SymbolId> &Locs,
                               std::set<SymbolId> &Mons) const {
  collectCond(C, Regs);
  Body->collectSymbols(Regs, Locs, Mons);
}

// --- Program ---

Program::Program(const Program &Other) : Volatiles(Other.Volatiles) {
  Threads.reserve(Other.Threads.size());
  for (const StmtList &L : Other.Threads)
    Threads.push_back(cloneList(L));
}

Program &Program::operator=(const Program &Other) {
  if (this == &Other)
    return *this;
  Program Copy(Other);
  *this = std::move(Copy);
  return *this;
}

ThreadId Program::addThread(StmtList Body) {
  Threads.push_back(std::move(Body));
  return static_cast<ThreadId>(Threads.size() - 1);
}

bool Program::equals(const Program &Other) const {
  if (Volatiles != Other.Volatiles || Threads.size() != Other.Threads.size())
    return false;
  for (size_t I = 0; I < Threads.size(); ++I)
    if (!listEquals(Threads[I], Other.Threads[I]))
      return false;
  return true;
}

std::set<SymbolId> Program::locations() const {
  std::set<SymbolId> Regs, Locs, Mons;
  for (const StmtList &L : Threads)
    for (const StmtPtr &S : L)
      S->collectSymbols(Regs, Locs, Mons);
  return Locs;
}

std::set<SymbolId> Program::registers() const {
  std::set<SymbolId> Regs, Locs, Mons;
  for (const StmtList &L : Threads)
    for (const StmtPtr &S : L)
      S->collectSymbols(Regs, Locs, Mons);
  return Regs;
}

std::set<SymbolId> Program::monitors() const {
  std::set<SymbolId> Regs, Locs, Mons;
  for (const StmtList &L : Threads)
    for (const StmtPtr &S : L)
      S->collectSymbols(Regs, Locs, Mons);
  return Mons;
}

namespace {

/// True iff \p S (or any sub-statement) has an immediate operand equal to V
/// in a value-producing position (assign/store/print source).
bool stmtContainsConstant(const Stmt &S, Value V) {
  switch (S.kind()) {
  case StmtKind::Assign:
    return cast<AssignStmt>(S).src().IsImm && cast<AssignStmt>(S).src().Imm == V;
  case StmtKind::Store:
    return cast<StoreStmt>(S).src().IsImm && cast<StoreStmt>(S).src().Imm == V;
  case StmtKind::Print:
    return cast<PrintStmt>(S).src().IsImm && cast<PrintStmt>(S).src().Imm == V;
  case StmtKind::Block: {
    for (const StmtPtr &Sub : cast<BlockStmt>(S).body())
      if (stmtContainsConstant(*Sub, V))
        return true;
    return false;
  }
  case StmtKind::If:
    return stmtContainsConstant(cast<IfStmt>(S).thenStmt(), V) ||
           stmtContainsConstant(cast<IfStmt>(S).elseStmt(), V);
  case StmtKind::While:
    return stmtContainsConstant(cast<WhileStmt>(S).body(), V);
  case StmtKind::Load:
  case StmtKind::Lock:
  case StmtKind::Unlock:
  case StmtKind::Skip:
  case StmtKind::Input:
    return false;
  }
  return false;
}

bool stmtContainsInput(const Stmt &S) {
  switch (S.kind()) {
  case StmtKind::Input:
    return true;
  case StmtKind::Block:
    for (const StmtPtr &Sub : cast<BlockStmt>(S).body())
      if (stmtContainsInput(*Sub))
        return true;
    return false;
  case StmtKind::If:
    return stmtContainsInput(cast<IfStmt>(S).thenStmt()) ||
           stmtContainsInput(cast<IfStmt>(S).elseStmt());
  case StmtKind::While:
    return stmtContainsInput(cast<WhileStmt>(S).body());
  default:
    return false;
  }
}

} // namespace

bool Program::containsConstant(Value V) const {
  for (const StmtList &L : Threads)
    for (const StmtPtr &S : L)
      if (stmtContainsConstant(*S, V))
        return true;
  return false;
}

bool Program::containsInput() const {
  for (const StmtList &L : Threads)
    for (const StmtPtr &S : L)
      if (stmtContainsInput(*S))
        return true;
  return false;
}
