//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax of the simple concurrent language (paper §6, Fig 6).
///
///   ri ::= r | i
///   T  ::= ri == ri | ri != ri
///   S  ::= l := r; | r := l; | r := ri; | lock m; | unlock m; | skip;
///        | print r; | {L} | if (T) S else S | while (T) S
///   L  ::= S | S L
///   P  ::= L || L || ... || L
///
/// Conservative extensions (documented in DESIGN.md): stores and prints
/// accept an operand `ri` (register or literal) where the paper's grammar
/// has a bare register; the examples in the paper (e.g. `x := 1`) already
/// use this sugar.
///
/// The statement hierarchy uses LLVM-style RTTI (a kind discriminator plus
/// classof) rather than dynamic_cast.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_LANG_AST_H
#define TRACESAFE_LANG_AST_H

#include "trace/Action.h"

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace tracesafe {

/// ri ::= r | i — a register name or an integer literal.
struct Operand {
  bool IsImm = true;
  Value Imm = 0;
  SymbolId Reg = 0;

  static Operand imm(Value V) {
    Operand O;
    O.IsImm = true;
    O.Imm = V;
    return O;
  }
  static Operand reg(SymbolId R) {
    Operand O;
    O.IsImm = false;
    O.Reg = R;
    return O;
  }
  static Operand reg(std::string_view Name) {
    return reg(Symbol::intern(Name));
  }

  friend auto operator<=>(const Operand &, const Operand &) = default;

  std::string str() const {
    return IsImm ? std::to_string(Imm) : Symbol::name(Reg);
  }
};

/// T ::= ri == ri | ri != ri.
struct Cond {
  bool IsEq = true;
  Operand Lhs;
  Operand Rhs;

  static Cond eq(Operand L, Operand R) { return Cond{true, L, R}; }
  static Cond ne(Operand L, Operand R) { return Cond{false, L, R}; }

  friend auto operator<=>(const Cond &, const Cond &) = default;

  std::string str() const {
    return Lhs.str() + (IsEq ? " == " : " != ") + Rhs.str();
  }
};

enum class StmtKind : uint8_t {
  Assign, ///< r := ri
  Load,   ///< r := l
  Store,  ///< l := ri
  Lock,   ///< lock m
  Unlock, ///< unlock m
  Skip,   ///< skip
  Print,  ///< print ri
  Input,  ///< input r — external input (X(v) with environment-chosen v)
  Block,  ///< { L }
  If,     ///< if (T) S else S
  While,  ///< while (T) S
};

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// Deep copy of a statement list.
StmtList cloneList(const StmtList &L);
/// Structural equality of statement lists.
bool listEquals(const StmtList &A, const StmtList &B);

/// Base class of all statements.
class Stmt {
public:
  virtual ~Stmt() = default;

  StmtKind kind() const { return Kind; }

  virtual StmtPtr clone() const = 0;

  /// Structural equality (same shape, same symbols, same literals).
  virtual bool equals(const Stmt &Other) const = 0;

  /// Collects every symbol the statement mentions into \p Regs (register
  /// names), \p Locs (shared-memory locations) and \p Mons (monitors).
  /// The union of Regs and Locs is the paper's fv(S) as used by the Fig 10
  /// side conditions.
  virtual void collectSymbols(std::set<SymbolId> &Regs,
                              std::set<SymbolId> &Locs,
                              std::set<SymbolId> &Mons) const = 0;

  /// §6.1: S is sync-free iff it contains no lock or unlock statements and
  /// no accesses to volatile locations.
  bool isSyncFree(const std::set<SymbolId> &Volatiles) const;

  /// True iff the statement mentions any symbol in \p Syms (register,
  /// location or monitor position).
  bool mentionsAny(const std::set<SymbolId> &Syms) const;

protected:
  explicit Stmt(StmtKind K) : Kind(K) {}
  Stmt(const Stmt &) = default;

private:
  StmtKind Kind;
};

/// r := ri.
class AssignStmt : public Stmt {
public:
  AssignStmt(SymbolId Reg, Operand Src)
      : Stmt(StmtKind::Assign), Reg(Reg), Src(Src) {}

  SymbolId reg() const { return Reg; }
  const Operand &src() const { return Src; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }

private:
  SymbolId Reg;
  Operand Src;
};

/// r := l.
class LoadStmt : public Stmt {
public:
  LoadStmt(SymbolId Reg, SymbolId Loc)
      : Stmt(StmtKind::Load), Reg(Reg), Loc(Loc) {}

  SymbolId reg() const { return Reg; }
  SymbolId loc() const { return Loc; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Load; }

private:
  SymbolId Reg;
  SymbolId Loc;
};

/// l := ri.
class StoreStmt : public Stmt {
public:
  StoreStmt(SymbolId Loc, Operand Src)
      : Stmt(StmtKind::Store), Loc(Loc), Src(Src) {}

  SymbolId loc() const { return Loc; }
  const Operand &src() const { return Src; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Store; }

private:
  SymbolId Loc;
  Operand Src;
};

/// lock m.
class LockStmt : public Stmt {
public:
  explicit LockStmt(SymbolId Mon) : Stmt(StmtKind::Lock), Mon(Mon) {}

  SymbolId monitor() const { return Mon; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Lock; }

private:
  SymbolId Mon;
};

/// unlock m.
class UnlockStmt : public Stmt {
public:
  explicit UnlockStmt(SymbolId Mon) : Stmt(StmtKind::Unlock), Mon(Mon) {}

  SymbolId monitor() const { return Mon; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Unlock; }

private:
  SymbolId Mon;
};

/// skip.
class SkipStmt : public Stmt {
public:
  SkipStmt() : Stmt(StmtKind::Skip) {}

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Skip; }
};

/// print ri.
class PrintStmt : public Stmt {
public:
  explicit PrintStmt(Operand Src) : Stmt(StmtKind::Print), Src(Src) {}

  const Operand &src() const { return Src; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Print; }

private:
  Operand Src;
};

/// input r — the paper's X(v) as an *input*: an external action whose
/// value is chosen by the environment (any value of the exploration
/// domain) and stored into register r. Externals are observable, so input
/// values appear in behaviours just like printed ones.
class InputStmt : public Stmt {
public:
  explicit InputStmt(SymbolId Reg) : Stmt(StmtKind::Input), Reg(Reg) {}

  SymbolId reg() const { return Reg; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Input; }

private:
  SymbolId Reg;
};

/// { L }.
class BlockStmt : public Stmt {
public:
  explicit BlockStmt(StmtList Body)
      : Stmt(StmtKind::Block), Body(std::move(Body)) {}

  const StmtList &body() const { return Body; }
  StmtList &body() { return Body; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Block; }

private:
  StmtList Body;
};

/// if (T) S else S.
class IfStmt : public Stmt {
public:
  IfStmt(Cond C, StmtPtr Then, StmtPtr Else)
      : Stmt(StmtKind::If), C(C), Then(std::move(Then)),
        Else(std::move(Else)) {}

  const Cond &cond() const { return C; }
  const Stmt &thenStmt() const { return *Then; }
  const Stmt &elseStmt() const { return *Else; }
  Stmt &thenStmt() { return *Then; }
  Stmt &elseStmt() { return *Else; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

private:
  Cond C;
  StmtPtr Then;
  StmtPtr Else;
};

/// while (T) S.
class WhileStmt : public Stmt {
public:
  WhileStmt(Cond C, StmtPtr Body)
      : Stmt(StmtKind::While), C(C), Body(std::move(Body)) {}

  const Cond &cond() const { return C; }
  const Stmt &body() const { return *Body; }
  Stmt &body() { return *Body; }

  StmtPtr clone() const override;
  bool equals(const Stmt &Other) const override;
  void collectSymbols(std::set<SymbolId> &Regs, std::set<SymbolId> &Locs,
                      std::set<SymbolId> &Mons) const override;

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::While; }

private:
  Cond C;
  StmtPtr Body;
};

/// isa/cast/dyn_cast in the LLVM style, specialised to Stmt.
template <typename T> bool isa(const Stmt &S) { return T::classof(&S); }
template <typename T> const T *dyn_cast(const Stmt *S) {
  return S && T::classof(S) ? static_cast<const T *>(S) : nullptr;
}
template <typename T> const T &cast(const Stmt &S) {
  assert(T::classof(&S) && "cast to wrong statement kind");
  return static_cast<const T &>(S);
}

/// P ::= L || ... || L, plus the set of volatile locations (§2: technically
/// part of a program).
class Program {
public:
  Program() = default;
  Program(const Program &Other);
  Program &operator=(const Program &Other);
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;

  /// Adds a thread body; returns its thread id (= index = entry point).
  ThreadId addThread(StmtList Body);

  size_t threadCount() const { return Threads.size(); }
  const StmtList &thread(ThreadId Tid) const { return Threads[Tid]; }
  StmtList &thread(ThreadId Tid) { return Threads[Tid]; }

  void markVolatile(SymbolId Loc) { Volatiles.insert(Loc); }
  void markVolatile(std::string_view Loc) {
    Volatiles.insert(Symbol::intern(Loc));
  }
  bool isVolatile(SymbolId Loc) const { return Volatiles.count(Loc) != 0; }
  const std::set<SymbolId> &volatiles() const { return Volatiles; }

  bool equals(const Program &Other) const;

  /// All shared-memory locations mentioned anywhere in the program.
  std::set<SymbolId> locations() const;
  /// All registers mentioned anywhere in the program.
  std::set<SymbolId> registers() const;
  /// All monitors mentioned anywhere in the program.
  std::set<SymbolId> monitors() const;

  /// §6.1 / Theorem 5 side condition: true iff the program contains a
  /// statement of the form r := c for constant c = V (the only way the
  /// language can mention a constant that flows into memory or output).
  bool containsConstant(Value V) const;

  /// True iff the program has an `input r` statement anywhere: with
  /// containsConstant, the only ways a value can enter the program text.
  bool containsInput() const;

private:
  std::vector<StmtList> Threads;
  std::set<SymbolId> Volatiles;
};

} // namespace tracesafe

#endif // TRACESAFE_LANG_AST_H
