#include "opt/Unsafe.h"

#include <cassert>

using namespace tracesafe;

Program tracesafe::introduceRead(const Program &P, const ListPath &Path,
                                 size_t Index, SymbolId Reg, SymbolId Loc) {
  Program Out = P;
  StmtList &L = resolveList(Out, Path);
  assert(Index <= L.size() && "insertion point out of range");
  L.insert(L.begin() + static_cast<ptrdiff_t>(Index),
           std::make_unique<LoadStmt>(Reg, Loc));
  return Out;
}

std::string ConstPropSite::str() const {
  return "const-prop store@[" + std::to_string(StoreIndex) + "] -> load@[" +
         std::to_string(LoadIndex) + "]";
}

namespace {

/// Does \p S contain (at any depth) a store to \p Loc?
bool containsStoreTo(const Stmt &S, SymbolId Loc) {
  switch (S.kind()) {
  case StmtKind::Store:
    return cast<StoreStmt>(S).loc() == Loc;
  case StmtKind::Block:
    for (const StmtPtr &Sub : cast<BlockStmt>(S).body())
      if (containsStoreTo(*Sub, Loc))
        return true;
    return false;
  case StmtKind::If:
    return containsStoreTo(cast<IfStmt>(S).thenStmt(), Loc) ||
           containsStoreTo(cast<IfStmt>(S).elseStmt(), Loc);
  case StmtKind::While:
    return containsStoreTo(cast<WhileStmt>(S).body(), Loc);
  default:
    return false;
  }
}

/// Scans \p L from \p From for loads of \p Loc reachable before any other
/// store to Loc (sequentially conservative, like a compiler's forward
/// constant propagation). Returns true if scanning of the *enclosing* list
/// must stop (a store to Loc may have executed).
bool scanForLoads(const StmtList &L, size_t From, SymbolId Loc,
                  const ListPath &Path, std::vector<ConstPropSite> &Out,
                  const ListPath &StorePath, size_t StoreIndex) {
  for (size_t K = From; K < L.size(); ++K) {
    const Stmt &S = *L[K];
    switch (S.kind()) {
    case StmtKind::Load:
      if (cast<LoadStmt>(S).loc() == Loc) {
        ConstPropSite Site;
        Site.StorePath = StorePath;
        Site.StoreIndex = StoreIndex;
        Site.LoadPath = Path;
        Site.LoadIndex = K;
        Out.push_back(std::move(Site));
      }
      break;
    case StmtKind::Store:
      if (cast<StoreStmt>(S).loc() == Loc)
        return true;
      break;
    case StmtKind::Block: {
      ListPath Sub = Path;
      Sub.Steps.emplace_back(K, PathSel::BlockBody);
      if (scanForLoads(cast<BlockStmt>(S).body(), 0, Loc, Sub, Out, StorePath,
                       StoreIndex))
        return true;
      break;
    }
    case StmtKind::If: {
      const auto &If = cast<IfStmt>(S);
      bool Stop = false;
      if (const auto *B = dyn_cast<BlockStmt>(&If.thenStmt())) {
        ListPath Sub = Path;
        Sub.Steps.emplace_back(K, PathSel::ThenBody);
        Stop |= scanForLoads(B->body(), 0, Loc, Sub, Out, StorePath,
                             StoreIndex);
      } else {
        Stop |= containsStoreTo(If.thenStmt(), Loc);
      }
      if (const auto *B = dyn_cast<BlockStmt>(&If.elseStmt())) {
        ListPath Sub = Path;
        Sub.Steps.emplace_back(K, PathSel::ElseBody);
        Stop |= scanForLoads(B->body(), 0, Loc, Sub, Out, StorePath,
                             StoreIndex);
      } else {
        Stop |= containsStoreTo(If.elseStmt(), Loc);
      }
      if (Stop)
        return true;
      break;
    }
    case StmtKind::While: {
      const auto &W = cast<WhileStmt>(S);
      // A store anywhere in the body could execute before a body load on a
      // later iteration; only propagate into store-free bodies.
      if (containsStoreTo(W.body(), Loc))
        return true;
      if (const auto *B = dyn_cast<BlockStmt>(&W.body())) {
        ListPath Sub = Path;
        Sub.Steps.emplace_back(K, PathSel::WhileBody);
        scanForLoads(B->body(), 0, Loc, Sub, Out, StorePath, StoreIndex);
      }
      break;
    }
    default:
      break;
    }
  }
  return false;
}

} // namespace

std::vector<ConstPropSite> tracesafe::findUnsafeConstProp(const Program &P) {
  std::vector<ConstPropSite> Out;
  forEachList(P, [&](const ListPath &Path, const StmtList &L) {
    for (size_t I = 0; I < L.size(); ++I) {
      const auto *St = dyn_cast<StoreStmt>(L[I].get());
      if (!St || !St->src().IsImm)
        continue;
      scanForLoads(L, I + 1, St->loc(), Path, Out, Path, I);
    }
  });
  return Out;
}

std::vector<LockPair> tracesafe::findLockPairs(const Program &P) {
  std::vector<LockPair> Out;
  forEachList(P, [&](const ListPath &Path, const StmtList &L) {
    for (size_t I = 0; I < L.size(); ++I) {
      const auto *Lock = dyn_cast<LockStmt>(L[I].get());
      if (!Lock)
        continue;
      int Depth = 1;
      for (size_t J = I + 1; J < L.size(); ++J) {
        if (const auto *L2 = dyn_cast<LockStmt>(L[J].get());
            L2 && L2->monitor() == Lock->monitor())
          ++Depth;
        const auto *U = dyn_cast<UnlockStmt>(L[J].get());
        if (U && U->monitor() == Lock->monitor() && --Depth == 0) {
          LockPair Pair;
          Pair.Path = Path;
          Pair.LockIndex = I;
          Pair.UnlockIndex = J;
          Out.push_back(std::move(Pair));
          break;
        }
      }
    }
  });
  return Out;
}

Program tracesafe::elideLockPair(const Program &P, const LockPair &Pair) {
  Program Out = P;
  StmtList &L = resolveList(Out, Pair.Path);
  assert(Pair.LockIndex < Pair.UnlockIndex && Pair.UnlockIndex < L.size() &&
         isa<LockStmt>(*L[Pair.LockIndex]) &&
         isa<UnlockStmt>(*L[Pair.UnlockIndex]) && "not a lock/unlock pair");
  // Erase the later index first so the earlier one stays valid.
  L.erase(L.begin() + static_cast<ptrdiff_t>(Pair.UnlockIndex));
  L.erase(L.begin() + static_cast<ptrdiff_t>(Pair.LockIndex));
  return Out;
}

Program tracesafe::applyUnsafeConstProp(const Program &P,
                                        const ConstPropSite &Site) {
  Program Out = P;
  const StmtList &StoreL = resolveList(Out, Site.StorePath);
  const auto &St = cast<StoreStmt>(*StoreL[Site.StoreIndex]);
  assert(St.src().IsImm && "constant propagation needs a literal store");
  Value C = St.src().Imm;
  SymbolId Loc = St.loc();
  StmtList &LoadL = resolveList(Out, Site.LoadPath);
  const auto &Ld = cast<LoadStmt>(*LoadL[Site.LoadIndex]);
  assert(Ld.loc() == Loc && "const-prop site location mismatch");
  (void)Loc;
  LoadL[Site.LoadIndex] =
      std::make_unique<AssignStmt>(Ld.reg(), Operand::imm(C));
  return Out;
}

std::optional<Program> tracesafe::applyFirstUnsafe(const Program &P) {
  std::vector<LockPair> Pairs = findLockPairs(P);
  if (!Pairs.empty())
    return elideLockPair(P, Pairs.front());
  std::vector<ConstPropSite> Sites = findUnsafeConstProp(P);
  if (!Sites.empty())
    return applyUnsafeConstProp(P, Sites.front());
  return std::nullopt;
}
