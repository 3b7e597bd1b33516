//===----------------------------------------------------------------------===//
///
/// \file
/// Labelled small-step semantics of the language (paper Fig 7 and Fig 8).
///
/// A thread-local configuration is the paper's (sigma, s, C): a monitor
/// nesting map, a register file, and a code fragment. We represent the code
/// fragment as an explicit continuation stack of statement pointers into the
/// (immutable) program AST; the structural rules SEQ/BLOCK/EV-* of Fig 7
/// become stack pushes and pops.
///
/// The only non-determinism in a thread-local step is the value returned by
/// a read (rule READ: v ranges over the whole value domain) — this is
/// exactly what makes the meaning of a code fragment a *set* of traces.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_LANG_SMALLSTEP_H
#define TRACESAFE_LANG_SMALLSTEP_H

#include "lang/Ast.h"

#include <compare>
#include <functional>
#include <map>
#include <optional>
#include <vector>

namespace tracesafe {

/// Thread-local configuration (sigma, s, C).
struct ThreadState {
  /// sigma: monitor name -> nesting level of locks held by this thread.
  /// Zero entries are erased so equal states compare equal.
  std::map<SymbolId, int> Mon;
  /// s: register file; absent registers read as the default value 0.
  std::map<SymbolId, Value> Regs;
  /// C: continuation; back() is the next statement to execute. Pointers
  /// reference the Program's AST, which must outlive the state.
  std::vector<const Stmt *> Cont;

  bool done() const { return Cont.empty(); }

  friend auto operator<=>(const ThreadState &, const ThreadState &) = default;
};

/// Everything a step needs to know beyond the thread state: which locations
/// are volatile, the value domain reads range over, and the values the
/// environment may supply to `input` (empty means "the read domain").
struct LangContext {
  const std::set<SymbolId> *Volatiles;
  std::vector<Value> Domain;
  std::vector<Value> Inputs;

  explicit LangContext(const Program &P, std::vector<Value> Domain = {0, 1},
                       std::vector<Value> Inputs = {})
      : Volatiles(&P.volatiles()), Domain(std::move(Domain)),
        Inputs(Inputs.empty() ? this->Domain : std::move(Inputs)) {}

  bool isVolatile(SymbolId Loc) const { return Volatiles->count(Loc) != 0; }
};

/// One transition: the emitted action (nullopt for the paper's silent tau
/// steps) and the successor configuration.
struct Step {
  std::optional<Action> Act;
  ThreadState Next;
};

/// Initial configuration of thread \p Tid of \p P: sigma and s all-zero,
/// continuation = the thread body.
ThreadState initialThreadState(const Program &P, ThreadId Tid);

/// Val(s, ri): literal value or register content (default 0).
Value evalOperand(const ThreadState &S, const Operand &O);

/// Val(s, T) for conditions.
bool evalCond(const ThreadState &S, const Cond &C);

/// All successor steps of \p S per Fig 7. A configuration with an empty
/// continuation has no steps. Loads yield one step per domain value.
std::vector<Step> possibleSteps(const ThreadState &S, const LangContext &Ctx);

/// Variant used by the store-buffer machines (tso/): loads read the single
/// value \p Memory(loc) instead of branching over the domain. All other
/// rules are identical.
std::vector<Step>
possibleStepsWithMemory(const ThreadState &S, const LangContext &Ctx,
                        const std::function<Value(SymbolId)> &Memory);

/// Runs silent steps until the next step would emit an action, the thread
/// terminates, or \p MaxSilentRun steps have been taken (in which case
/// *Truncated is set). Silent steps are deterministic, so this is a plain
/// loop. Returns the resulting state.
ThreadState silentClosure(ThreadState S, const LangContext &Ctx,
                          size_t MaxSilentRun, bool *Truncated);

} // namespace tracesafe

#endif // TRACESAFE_LANG_SMALLSTEP_H
