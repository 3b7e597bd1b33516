#include "opt/Rewrite.h"

#include <cassert>
#include <optional>

using namespace tracesafe;

std::string tracesafe::ruleName(RuleKind K) {
  switch (K) {
  case RuleKind::ERaR:
    return "E-RAR";
  case RuleKind::ERaW:
    return "E-RAW";
  case RuleKind::EWaR:
    return "E-WAR";
  case RuleKind::EWbW:
    return "E-WBW";
  case RuleKind::EIr:
    return "E-IR";
  case RuleKind::RRR:
    return "R-RR";
  case RuleKind::RWW:
    return "R-WW";
  case RuleKind::RWR:
    return "R-WR";
  case RuleKind::RRW:
    return "R-RW";
  case RuleKind::RWL:
    return "R-WL";
  case RuleKind::RRL:
    return "R-RL";
  case RuleKind::RUW:
    return "R-UW";
  case RuleKind::RUR:
    return "R-UR";
  case RuleKind::RXR:
    return "R-XR";
  case RuleKind::RXW:
    return "R-XW";
  case RuleKind::RRX:
    return "R-RX";
  case RuleKind::RWX:
    return "R-WX";
  }
  return "<invalid>";
}

bool RuleSet::enabled(RuleKind K) const {
  switch (K) {
  case RuleKind::ERaR:
  case RuleKind::ERaW:
  case RuleKind::EWaR:
  case RuleKind::EWbW:
  case RuleKind::EIr:
    return Eliminations;
  case RuleKind::RRR:
  case RuleKind::RWW:
  case RuleKind::RWR:
  case RuleKind::RRW:
  case RuleKind::RWL:
  case RuleKind::RRL:
  case RuleKind::RUW:
  case RuleKind::RUR:
  case RuleKind::RXR:
  case RuleKind::RXW:
    return Reorderings;
  case RuleKind::RRX:
  case RuleKind::RWX:
    return Extensions;
  }
  return false;
}

StmtList &tracesafe::resolveList(Program &P, const ListPath &Path) {
  StmtList *Cur = &P.thread(Path.Tid);
  for (const auto &[Idx, Sel] : Path.Steps) {
    assert(Idx < Cur->size() && "path index out of range");
    Stmt &S = *(*Cur)[Idx];
    switch (Sel) {
    case PathSel::BlockBody:
      Cur = &static_cast<BlockStmt &>(S).body();
      break;
    case PathSel::ThenBody:
      Cur = &static_cast<BlockStmt &>(static_cast<IfStmt &>(S).thenStmt())
                 .body();
      break;
    case PathSel::ElseBody:
      Cur = &static_cast<BlockStmt &>(static_cast<IfStmt &>(S).elseStmt())
                 .body();
      break;
    case PathSel::WhileBody:
      Cur = &static_cast<BlockStmt &>(static_cast<WhileStmt &>(S).body())
                 .body();
      break;
    }
  }
  return *Cur;
}

const StmtList &tracesafe::resolveList(const Program &P,
                                       const ListPath &Path) {
  return resolveList(const_cast<Program &>(P), Path);
}

namespace {

void walkLists(
    const StmtList &L, ListPath Path,
    const std::function<void(const ListPath &, const StmtList &)> &Fn) {
  Fn(Path, L);
  for (size_t K = 0; K < L.size(); ++K) {
    const Stmt &S = *L[K];
    auto Descend = [&](PathSel Sel, const Stmt &Child) {
      if (const auto *B = dyn_cast<BlockStmt>(&Child)) {
        ListPath Sub = Path;
        Sub.Steps.emplace_back(K, Sel);
        walkLists(B->body(), std::move(Sub), Fn);
      }
    };
    if (isa<BlockStmt>(S))
      Descend(PathSel::BlockBody, S);
    if (const auto *If = dyn_cast<IfStmt>(&S)) {
      Descend(PathSel::ThenBody, If->thenStmt());
      Descend(PathSel::ElseBody, If->elseStmt());
    }
    if (const auto *W = dyn_cast<WhileStmt>(&S))
      Descend(PathSel::WhileBody, W->body());
  }
}

} // namespace

void tracesafe::forEachList(
    const Program &P,
    const std::function<void(const ListPath &, const StmtList &)> &Fn) {
  for (ThreadId Tid = 0; Tid < P.threadCount(); ++Tid) {
    ListPath Path;
    Path.Tid = Tid;
    walkLists(P.thread(Tid), Path, Fn);
  }
}

std::string RewriteSite::str() const {
  std::string Out = ruleName(Rule) + " @ thread " + std::to_string(Path.Tid);
  for (const auto &[Idx, Sel] : Path.Steps) {
    (void)Sel;
    Out += "/" + std::to_string(Idx);
  }
  Out += " [" + std::to_string(I) + "," + std::to_string(J) + "]";
  return Out;
}

namespace {

/// Registers of an operand (empty for immediates).
void addOperandRegs(const Operand &O, std::set<SymbolId> &Out) {
  if (!O.IsImm)
    Out.insert(O.Reg);
}

/// The Fig 10 side condition on the intervening S: every statement strictly
/// between \p I and \p J is sync-free and mentions none of \p Avoid.
bool gapOk(const Program &P, const StmtList &L, size_t I, size_t J,
           const std::set<SymbolId> &Avoid) {
  for (size_t K = I + 1; K < J; ++K) {
    if (!L[K]->isSyncFree(P.volatiles()))
      return false;
    if (L[K]->mentionsAny(Avoid))
      return false;
  }
  return true;
}

bool matchERaR(const Program &P, const StmtList &L, size_t I, size_t J) {
  const auto *A = dyn_cast<LoadStmt>(L[I].get());
  const auto *B = dyn_cast<LoadStmt>(L[J].get());
  if (!A || !B || A->loc() != B->loc() || P.isVolatile(A->loc()))
    return false;
  return gapOk(P, L, I, J, {A->reg(), B->reg(), A->loc()});
}

bool matchERaW(const Program &P, const StmtList &L, size_t I, size_t J) {
  const auto *A = dyn_cast<StoreStmt>(L[I].get());
  const auto *B = dyn_cast<LoadStmt>(L[J].get());
  if (!A || !B || A->loc() != B->loc() || P.isVolatile(A->loc()))
    return false;
  std::set<SymbolId> Avoid{A->loc(), B->reg()};
  addOperandRegs(A->src(), Avoid);
  return gapOk(P, L, I, J, Avoid);
}

bool matchEWaR(const Program &P, const StmtList &L, size_t I, size_t J) {
  const auto *A = dyn_cast<LoadStmt>(L[I].get());
  const auto *B = dyn_cast<StoreStmt>(L[J].get());
  if (!A || !B || A->loc() != B->loc() || P.isVolatile(A->loc()))
    return false;
  if (B->src().IsImm || B->src().Reg != A->reg())
    return false; // The store must write back the very register read.
  return gapOk(P, L, I, J, {A->reg(), A->loc()});
}

bool matchEWbW(const Program &P, const StmtList &L, size_t I, size_t J) {
  const auto *A = dyn_cast<StoreStmt>(L[I].get());
  const auto *B = dyn_cast<StoreStmt>(L[J].get());
  if (!A || !B || A->loc() != B->loc() || P.isVolatile(A->loc()))
    return false;
  std::set<SymbolId> Avoid{A->loc()};
  addOperandRegs(A->src(), Avoid);
  addOperandRegs(B->src(), Avoid);
  return gapOk(P, L, I, J, Avoid);
}

bool matchEIr(const Program &P, const StmtList &L, size_t I, size_t J) {
  if (J != I + 1)
    return false;
  const auto *A = dyn_cast<LoadStmt>(L[I].get());
  const auto *B = dyn_cast<AssignStmt>(L[J].get());
  if (!A || !B || P.isVolatile(A->loc()))
    return false;
  // r := x; r := i  (the paper's rule has a literal on the right).
  return B->reg() == A->reg() && B->src().IsImm;
}

/// External-action statement classification for the X-rules: prints read
/// one optional register, inputs write one.
struct ExternalShape {
  bool IsExternal = false;
  std::optional<SymbolId> ReadsReg;
  std::optional<SymbolId> WritesReg;
};

ExternalShape externalShape(const Stmt *S) {
  ExternalShape Out;
  if (const auto *Pr = dyn_cast<PrintStmt>(S)) {
    Out.IsExternal = true;
    if (!Pr->src().IsImm)
      Out.ReadsReg = Pr->src().Reg;
  } else if (const auto *In = dyn_cast<InputStmt>(S)) {
    Out.IsExternal = true;
    Out.WritesReg = In->reg();
  }
  return Out;
}

/// Adjacent reordering matchers. I, J = I+1.
bool matchAdjacentReorder(const Program &P, const StmtList &L, RuleKind K,
                          size_t I) {
  const Stmt *A = L[I].get();
  const Stmt *B = L[I + 1].get();
  auto Vol = [&P](SymbolId Loc) { return P.isVolatile(Loc); };
  switch (K) {
  case RuleKind::RRR: {
    const auto *RA = dyn_cast<LoadStmt>(A);
    const auto *RB = dyn_cast<LoadStmt>(B);
    return RA && RB && RA->reg() != RB->reg() && !Vol(RA->loc());
  }
  case RuleKind::RWW: {
    const auto *WA = dyn_cast<StoreStmt>(A);
    const auto *WB = dyn_cast<StoreStmt>(B);
    return WA && WB && WA->loc() != WB->loc() && !Vol(WB->loc());
  }
  case RuleKind::RWR: {
    const auto *WA = dyn_cast<StoreStmt>(A);
    const auto *RB = dyn_cast<LoadStmt>(B);
    if (!WA || !RB || WA->loc() == RB->loc())
      return false;
    if (!WA->src().IsImm && WA->src().Reg == RB->reg())
      return false; // r1 != r2.
    return !(Vol(WA->loc()) && Vol(RB->loc()));
  }
  case RuleKind::RRW: {
    const auto *RA = dyn_cast<LoadStmt>(A);
    const auto *WB = dyn_cast<StoreStmt>(B);
    if (!RA || !WB || RA->loc() == WB->loc())
      return false;
    if (!WB->src().IsImm && WB->src().Reg == RA->reg())
      return false; // r1 != r2.
    return !Vol(RA->loc()) && !Vol(WB->loc());
  }
  case RuleKind::RWL: {
    const auto *WA = dyn_cast<StoreStmt>(A);
    return WA && isa<LockStmt>(*B) && !Vol(WA->loc());
  }
  case RuleKind::RRL: {
    const auto *RA = dyn_cast<LoadStmt>(A);
    return RA && isa<LockStmt>(*B) && !Vol(RA->loc());
  }
  case RuleKind::RUW: {
    const auto *WB = dyn_cast<StoreStmt>(B);
    return isa<UnlockStmt>(*A) && WB && !Vol(WB->loc());
  }
  case RuleKind::RUR: {
    const auto *RB = dyn_cast<LoadStmt>(B);
    return isa<UnlockStmt>(*A) && RB && !Vol(RB->loc());
  }
  case RuleKind::RXR: {
    ExternalShape XA = externalShape(A);
    const auto *RB = dyn_cast<LoadStmt>(B);
    if (!XA.IsExternal || !RB || Vol(RB->loc()))
      return false;
    // r1 != r2: the printed/input register must not be the loaded one.
    if (XA.ReadsReg && *XA.ReadsReg == RB->reg())
      return false;
    if (XA.WritesReg && *XA.WritesReg == RB->reg())
      return false;
    return true;
  }
  case RuleKind::RXW: {
    ExternalShape XA = externalShape(A);
    const auto *WB = dyn_cast<StoreStmt>(B);
    if (!XA.IsExternal || !WB || Vol(WB->loc()))
      return false;
    // An input may not feed the store it crosses.
    if (XA.WritesReg && !WB->src().IsImm && WB->src().Reg == *XA.WritesReg)
      return false;
    return true;
  }
  case RuleKind::RRX: {
    const auto *RA = dyn_cast<LoadStmt>(A);
    ExternalShape XB = externalShape(B);
    if (!RA || !XB.IsExternal || Vol(RA->loc()))
      return false;
    if (XB.ReadsReg && *XB.ReadsReg == RA->reg())
      return false;
    if (XB.WritesReg && *XB.WritesReg == RA->reg())
      return false;
    return true;
  }
  case RuleKind::RWX: {
    const auto *WA = dyn_cast<StoreStmt>(A);
    ExternalShape XB = externalShape(B);
    if (!WA || !XB.IsExternal || Vol(WA->loc()))
      return false;
    if (XB.WritesReg && !WA->src().IsImm && WA->src().Reg == *XB.WritesReg)
      return false;
    return true;
  }
  default:
    return false;
  }
}

bool isGapRule(RuleKind K) {
  return K == RuleKind::ERaR || K == RuleKind::ERaW || K == RuleKind::EWaR ||
         K == RuleKind::EWbW;
}

bool matchesSite(const Program &P, const StmtList &L, RuleKind K, size_t I,
                 size_t J) {
  switch (K) {
  case RuleKind::ERaR:
    return matchERaR(P, L, I, J);
  case RuleKind::ERaW:
    return matchERaW(P, L, I, J);
  case RuleKind::EWaR:
    return matchEWaR(P, L, I, J);
  case RuleKind::EWbW:
    return matchEWbW(P, L, I, J);
  case RuleKind::EIr:
    return matchEIr(P, L, I, J);
  default:
    return J == I + 1 && matchAdjacentReorder(P, L, K, I);
  }
}

constexpr RuleKind AllRules[] = {
    RuleKind::ERaR, RuleKind::ERaW, RuleKind::EWaR, RuleKind::EWbW,
    RuleKind::EIr,  RuleKind::RRR,  RuleKind::RWW,  RuleKind::RWR,
    RuleKind::RRW,  RuleKind::RWL,  RuleKind::RRL,  RuleKind::RUW,
    RuleKind::RUR,  RuleKind::RXR,  RuleKind::RXW,  RuleKind::RRX,
    RuleKind::RWX};

} // namespace

namespace {

void appendListSites(const Program &P, const ListPath &Path,
                     const StmtList &L, const RuleSet &Rules,
                     std::vector<RewriteSite> &Sites) {
  for (RuleKind K : AllRules) {
    if (!Rules.enabled(K))
      continue;
    if (isGapRule(K)) {
      for (size_t I = 0; I < L.size(); ++I)
        for (size_t J = I + 1; J < L.size(); ++J)
          if (matchesSite(P, L, K, I, J))
            Sites.push_back(RewriteSite{K, Path, I, J});
    } else {
      for (size_t I = 0; I + 1 < L.size(); ++I)
        if (matchesSite(P, L, K, I, I + 1))
          Sites.push_back(RewriteSite{K, Path, I, I + 1});
    }
  }
}

} // namespace

std::vector<RewriteSite> tracesafe::findRewriteSites(const Program &P,
                                                     const RuleSet &Rules) {
  std::vector<RewriteSite> Sites;
  forEachList(P, [&](const ListPath &Path, const StmtList &L) {
    appendListSites(P, Path, L, Rules, Sites);
  });
  return Sites;
}

std::vector<RewriteSite> tracesafe::findRewriteSitesIn(const Program &P,
                                                       const ListPath &Path,
                                                       const RuleSet &Rules) {
  std::vector<RewriteSite> Sites;
  appendListSites(P, Path, resolveList(P, Path), Rules, Sites);
  return Sites;
}

Program tracesafe::applyRewrite(const Program &P, const RewriteSite &Site) {
  Program Out = P;
  StmtList &L = resolveList(Out, Site.Path);
  assert(Site.I < L.size() && Site.J < L.size() &&
         matchesSite(Out, L, Site.Rule, Site.I, Site.J) &&
         "rewrite site does not match");
  switch (Site.Rule) {
  case RuleKind::ERaR: {
    const auto &A = cast<LoadStmt>(*L[Site.I]);
    const auto &B = cast<LoadStmt>(*L[Site.J]);
    L[Site.J] = std::make_unique<AssignStmt>(B.reg(), Operand::reg(A.reg()));
    break;
  }
  case RuleKind::ERaW: {
    const auto &A = cast<StoreStmt>(*L[Site.I]);
    const auto &B = cast<LoadStmt>(*L[Site.J]);
    L[Site.J] = std::make_unique<AssignStmt>(B.reg(), A.src());
    break;
  }
  case RuleKind::EWaR:
    L.erase(L.begin() + static_cast<ptrdiff_t>(Site.J));
    break;
  case RuleKind::EWbW:
  case RuleKind::EIr:
    L.erase(L.begin() + static_cast<ptrdiff_t>(Site.I));
    break;
  default:
    std::swap(L[Site.I], L[Site.J]);
    break;
  }
  return Out;
}

namespace {

/// Non-asserting resolveList: nullptr when the path does not exist in \p P
/// (reduced programs routinely lose the thread or block a recorded site
/// pointed into).
const StmtList *tryResolveList(const Program &P, const ListPath &Path) {
  if (Path.Tid >= P.threadCount())
    return nullptr;
  const StmtList *Cur = &P.thread(Path.Tid);
  for (const auto &[Idx, Sel] : Path.Steps) {
    if (Idx >= Cur->size())
      return nullptr;
    const Stmt &S = *(*Cur)[Idx];
    const BlockStmt *B = nullptr;
    switch (Sel) {
    case PathSel::BlockBody:
      B = dyn_cast<BlockStmt>(&S);
      break;
    case PathSel::ThenBody:
      if (const auto *If = dyn_cast<IfStmt>(&S))
        B = dyn_cast<BlockStmt>(&If->thenStmt());
      break;
    case PathSel::ElseBody:
      if (const auto *If = dyn_cast<IfStmt>(&S))
        B = dyn_cast<BlockStmt>(&If->elseStmt());
      break;
    case PathSel::WhileBody:
      if (const auto *W = dyn_cast<WhileStmt>(&S))
        B = dyn_cast<BlockStmt>(&W->body());
      break;
    }
    if (!B)
      return nullptr;
    Cur = &B->body();
  }
  return Cur;
}

} // namespace

bool tracesafe::siteApplies(const Program &P, const RewriteSite &Site) {
  const StmtList *L = tryResolveList(P, Site.Path);
  if (!L || Site.I >= L->size() || Site.J >= L->size())
    return false;
  bool ShapeOk = isGapRule(Site.Rule) ? Site.I < Site.J
                                      : Site.J == Site.I + 1;
  return ShapeOk && matchesSite(P, *L, Site.Rule, Site.I, Site.J);
}

std::optional<Program> tracesafe::applyChain(
    const Program &P, const std::vector<RewriteSite> &Steps) {
  Program Cur = P;
  for (const RewriteSite &S : Steps) {
    if (!siteApplies(Cur, S))
      return std::nullopt;
    Cur = applyRewrite(Cur, S);
  }
  return Cur;
}
