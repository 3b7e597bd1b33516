#include "lang/SmallStep.h"

#include <cassert>

using namespace tracesafe;

ThreadState tracesafe::initialThreadState(const Program &P, ThreadId Tid) {
  assert(Tid < P.threadCount() && "no such thread");
  ThreadState S;
  const StmtList &Body = P.thread(Tid);
  S.Cont.reserve(Body.size());
  for (auto It = Body.rbegin(); It != Body.rend(); ++It)
    S.Cont.push_back(It->get());
  return S;
}

Value tracesafe::evalOperand(const ThreadState &S, const Operand &O) {
  if (O.IsImm)
    return O.Imm;
  auto It = S.Regs.find(O.Reg);
  return It == S.Regs.end() ? DefaultValue : It->second;
}

bool tracesafe::evalCond(const ThreadState &S, const Cond &C) {
  bool Eq = evalOperand(S, C.Lhs) == evalOperand(S, C.Rhs);
  return C.IsEq ? Eq : !Eq;
}

namespace {

/// Writes \p V into register \p Reg of \p S.
void setReg(ThreadState &S, SymbolId Reg, Value V) { S.Regs[Reg] = V; }

/// Pushes \p Stm onto the continuation of \p S.
void push(ThreadState &S, const Stmt *Stm) { S.Cont.push_back(Stm); }

/// Core of the step function. \p LoadValues lists the values a load may
/// return for a given location; inputs always branch over the context's
/// input values (the environment may supply any of them).
std::vector<Step>
steps(const ThreadState &S, const LangContext &Ctx,
      const std::function<std::vector<Value>(SymbolId)> &LoadValues) {
  std::vector<Step> Out;
  if (S.done())
    return Out;
  const Stmt *Top = S.Cont.back();
  ThreadState Base = S;
  Base.Cont.pop_back();

  switch (Top->kind()) {
  case StmtKind::Assign: { // REGS: silent.
    const auto &A = cast<AssignStmt>(*Top);
    ThreadState N = Base;
    setReg(N, A.reg(), evalOperand(S, A.src()));
    Out.push_back(Step{std::nullopt, std::move(N)});
    break;
  }
  case StmtKind::Load: { // READ: R[x=v] for each possible v.
    const auto &L = cast<LoadStmt>(*Top);
    bool Vol = Ctx.isVolatile(L.loc());
    for (Value V : LoadValues(L.loc())) {
      ThreadState N = Base;
      setReg(N, L.reg(), V);
      Out.push_back(Step{Action::mkRead(L.loc(), V, Vol), std::move(N)});
    }
    break;
  }
  case StmtKind::Store: { // WRITE.
    const auto &St = cast<StoreStmt>(*Top);
    bool Vol = Ctx.isVolatile(St.loc());
    Out.push_back(Step{Action::mkWrite(St.loc(), evalOperand(S, St.src()), Vol),
                       std::move(Base)});
    break;
  }
  case StmtKind::Lock: { // LOCK.
    const auto &L = cast<LockStmt>(*Top);
    ThreadState N = Base;
    ++N.Mon[L.monitor()];
    Out.push_back(Step{Action::mkLock(L.monitor()), std::move(N)});
    break;
  }
  case StmtKind::Unlock: { // ULK / E-ULK.
    const auto &U = cast<UnlockStmt>(*Top);
    auto It = S.Mon.find(U.monitor());
    int Depth = It == S.Mon.end() ? 0 : It->second;
    if (Depth > 0) {
      ThreadState N = Base;
      if (Depth == 1)
        N.Mon.erase(U.monitor());
      else
        N.Mon[U.monitor()] = Depth - 1;
      Out.push_back(Step{Action::mkUnlock(U.monitor()), std::move(N)});
    } else {
      // E-ULK: unlocking a monitor the thread does not hold is a silent
      // no-op; this is what keeps tracesets well locked.
      Out.push_back(Step{std::nullopt, std::move(Base)});
    }
    break;
  }
  case StmtKind::Skip: // SEQ on skip: silent.
    Out.push_back(Step{std::nullopt, std::move(Base)});
    break;
  case StmtKind::Print: { // EXT (output).
    const auto &P = cast<PrintStmt>(*Top);
    Out.push_back(
        Step{Action::mkExternal(evalOperand(S, P.src())), std::move(Base)});
    break;
  }
  case StmtKind::Input: { // EXT (input): X(v) for each input value.
    const auto &In = cast<InputStmt>(*Top);
    for (Value V : Ctx.Inputs) {
      ThreadState N = Base;
      setReg(N, In.reg(), V);
      Out.push_back(Step{Action::mkExternal(V), std::move(N)});
    }
    break;
  }
  case StmtKind::Block: { // BLOCK: silent unfolding.
    const auto &B = cast<BlockStmt>(*Top);
    ThreadState N = Base;
    for (auto It = B.body().rbegin(); It != B.body().rend(); ++It)
      push(N, It->get());
    Out.push_back(Step{std::nullopt, std::move(N)});
    break;
  }
  case StmtKind::If: { // COND-T / COND-F: silent.
    const auto &I = cast<IfStmt>(*Top);
    ThreadState N = Base;
    push(N, evalCond(S, I.cond()) ? &I.thenStmt() : &I.elseStmt());
    Out.push_back(Step{std::nullopt, std::move(N)});
    break;
  }
  case StmtKind::While: { // LOOP-T / LOOP-F: silent.
    const auto &W = cast<WhileStmt>(*Top);
    ThreadState N = Base;
    if (evalCond(S, W.cond())) {
      push(N, Top); // while (T) S again, after...
      push(N, &W.body()); // ...S.
    }
    Out.push_back(Step{std::nullopt, std::move(N)});
    break;
  }
  }
  return Out;
}

} // namespace

std::vector<Step> tracesafe::possibleSteps(const ThreadState &S,
                                           const LangContext &Ctx) {
  return steps(S, Ctx, [&](SymbolId) { return Ctx.Domain; });
}

std::vector<Step> tracesafe::possibleStepsWithMemory(
    const ThreadState &S, const LangContext &Ctx,
    const std::function<Value(SymbolId)> &Memory) {
  return steps(S, Ctx, [&](SymbolId Loc) {
    return std::vector<Value>{Memory(Loc)};
  });
}

ThreadState tracesafe::silentClosure(ThreadState S, const LangContext &Ctx,
                                     size_t MaxSilentRun, bool *Truncated) {
  for (size_t I = 0; I < MaxSilentRun; ++I) {
    if (S.done())
      return S;
    // Peek: a single silent successor means keep going; an action (or a
    // branching read) means we are at an action boundary.
    std::vector<Step> Next = possibleStepsWithMemory(
        S, Ctx, [](SymbolId) { return DefaultValue; });
    assert(!Next.empty() && "non-terminated state must step");
    if (Next.size() != 1 || Next[0].Act.has_value())
      return S;
    S = std::move(Next[0].Next);
  }
  if (Truncated)
    *Truncated = true;
  return S;
}
