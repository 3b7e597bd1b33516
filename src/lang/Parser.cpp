#include "lang/Parser.h"

#include "lang/Lexer.h"

#include <cstdio>
#include <cstdlib>

using namespace tracesafe;

bool tracesafe::isRegisterName(std::string_view Name) {
  return !Name.empty() && Name[0] == 'r';
}

namespace {

/// Recursive-descent parser over the token stream. Errors are reported by
/// setting Err and unwinding via null returns (no exceptions, per the
/// coding standards).
class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  ParseResult run() {
    Program P;
    // Optional volatile declarations.
    while (peekIdent("volatile")) {
      next();
      do {
        const Token &T = next();
        if (T.Kind != TokenKind::Ident)
          return fail(T, "expected location name in volatile declaration");
        P.markVolatile(T.Text);
      } while (accept(TokenKind::Comma));
      if (!expect(TokenKind::Semi, "';' after volatile declaration"))
        return takeError();
    }
    // Threads.
    while (peekIdent("thread")) {
      next();
      if (!expect(TokenKind::LBrace, "'{' after 'thread'"))
        return takeError();
      StmtList Body = parseStmtListUntilRBrace();
      if (!Err.empty())
        return takeError();
      P.addThread(std::move(Body));
    }
    const Token &T = peek();
    if (T.Kind != TokenKind::EndOfFile)
      return fail(T, "expected 'thread' or end of input");
    if (P.threadCount() == 0)
      return fail(T, "program has no threads");
    ParseResult R;
    R.Prog = std::move(P);
    return R;
  }

private:
  /// Statement-nesting cap: recursion depth is bounded by the input, so an
  /// adversarial "{{{{..." must become a diagnostic, not a stack overflow.
  static constexpr unsigned MaxNestingDepth = 200;

  std::vector<Token> Tokens;
  size_t Pos = 0;
  unsigned Depth = 0;
  std::string Err;

  const Token &peek() const { return Tokens[Pos]; }
  const Token &next() {
    return Tokens[Pos == Tokens.size() - 1 ? Pos : Pos++];
  }

  bool peekIdent(std::string_view S) const {
    return peek().Kind == TokenKind::Ident && peek().Text == S;
  }

  bool accept(TokenKind K) {
    if (peek().Kind != K)
      return false;
    next();
    return true;
  }

  bool expect(TokenKind K, std::string_view What) {
    if (accept(K))
      return true;
    error(peek(), "expected " + std::string(What));
    return false;
  }

  void error(const Token &T, const std::string &Msg) {
    if (!Err.empty())
      return; // Keep the first error.
    Err = "line " + std::to_string(T.Line) + ", col " +
          std::to_string(T.Col) + ": " + Msg;
  }

  ParseResult fail(const Token &T, const std::string &Msg) {
    error(T, Msg);
    return takeError();
  }

  ParseResult takeError() {
    ParseResult R;
    R.Error = Err.empty() ? "parse error" : Err;
    return R;
  }

  /// Parses statements until the matching '}' (consumed).
  StmtList parseStmtListUntilRBrace() {
    StmtList Out;
    while (Err.empty()) {
      if (accept(TokenKind::RBrace))
        return Out;
      if (peek().Kind == TokenKind::EndOfFile) {
        error(peek(), "unterminated block");
        return Out;
      }
      StmtPtr S = parseStmt();
      if (!S)
        return Out;
      Out.push_back(std::move(S));
    }
    return Out;
  }

  std::optional<Operand> parseOperand() {
    const Token &T = next();
    if (T.Kind == TokenKind::Number)
      return Operand::imm(T.Num);
    if (T.Kind == TokenKind::Ident && isRegisterName(T.Text))
      return Operand::reg(T.Text);
    error(T, "expected register or integer literal");
    return std::nullopt;
  }

  std::optional<Cond> parseCond() {
    std::optional<Operand> L = parseOperand();
    if (!L)
      return std::nullopt;
    const Token &Op = next();
    bool IsEq;
    if (Op.Kind == TokenKind::EqEq)
      IsEq = true;
    else if (Op.Kind == TokenKind::NotEq)
      IsEq = false;
    else {
      error(Op, "expected '==' or '!='");
      return std::nullopt;
    }
    std::optional<Operand> R = parseOperand();
    if (!R)
      return std::nullopt;
    return Cond{IsEq, *L, *R};
  }

  StmtPtr parseStmt() {
    if (Depth >= MaxNestingDepth) {
      error(peek(), "statements nested deeper than " +
                        std::to_string(MaxNestingDepth) + " levels");
      return nullptr;
    }
    ++Depth;
    StmtPtr S = parseStmtInner();
    --Depth;
    return S;
  }

  StmtPtr parseStmtInner() {
    const Token &T = next();
    switch (T.Kind) {
    case TokenKind::LBrace: {
      StmtList Body = parseStmtListUntilRBrace();
      if (!Err.empty())
        return nullptr;
      return std::make_unique<BlockStmt>(std::move(Body));
    }
    case TokenKind::Ident:
      break; // Handled below.
    default:
      error(T, "expected statement");
      return nullptr;
    }

    std::string_view Name = T.Text;
    if (Name == "skip") {
      if (!expect(TokenKind::Semi, "';' after skip"))
        return nullptr;
      return std::make_unique<SkipStmt>();
    }
    if (Name == "sync") {
      // Java-flavoured sugar: `sync m { L }` is
      // `{ lock m; { L } unlock m; }`.
      const Token &M = next();
      if (M.Kind != TokenKind::Ident) {
        error(M, "expected monitor name after 'sync'");
        return nullptr;
      }
      if (!expect(TokenKind::LBrace, "'{' after sync monitor"))
        return nullptr;
      StmtList Body = parseStmtListUntilRBrace();
      if (!Err.empty())
        return nullptr;
      SymbolId Mon = Symbol::intern(M.Text);
      StmtList Out;
      Out.push_back(std::make_unique<LockStmt>(Mon));
      Out.push_back(std::make_unique<BlockStmt>(std::move(Body)));
      Out.push_back(std::make_unique<UnlockStmt>(Mon));
      return std::make_unique<BlockStmt>(std::move(Out));
    }
    if (Name == "lock" || Name == "unlock") {
      const Token &M = next();
      if (M.Kind != TokenKind::Ident) {
        error(M, "expected monitor name after '" + std::string(Name) + "'");
        return nullptr;
      }
      if (!expect(TokenKind::Semi,
                  Name == "lock" ? "';' after lock" : "';' after unlock"))
        return nullptr;
      SymbolId Mon = Symbol::intern(M.Text);
      if (Name == "lock")
        return std::make_unique<LockStmt>(Mon);
      return std::make_unique<UnlockStmt>(Mon);
    }
    if (Name == "input") {
      const Token &Rg = next();
      if (Rg.Kind != TokenKind::Ident || !isRegisterName(Rg.Text)) {
        error(Rg, "expected register name after 'input'");
        return nullptr;
      }
      if (!expect(TokenKind::Semi, "';' after input"))
        return nullptr;
      return std::make_unique<InputStmt>(Symbol::intern(Rg.Text));
    }
    if (Name == "print") {
      std::optional<Operand> Src = parseOperand();
      if (!Src)
        return nullptr;
      if (!expect(TokenKind::Semi, "';' after print"))
        return nullptr;
      return std::make_unique<PrintStmt>(*Src);
    }
    if (Name == "if") {
      if (!expect(TokenKind::LParen, "'(' after 'if'"))
        return nullptr;
      std::optional<Cond> C = parseCond();
      if (!C)
        return nullptr;
      if (!expect(TokenKind::RParen, "')' after condition"))
        return nullptr;
      StmtPtr Then = parseStmt();
      if (!Then)
        return nullptr;
      if (!peekIdent("else")) {
        error(peek(), "expected 'else' (the grammar's if always has one)");
        return nullptr;
      }
      next();
      StmtPtr Else = parseStmt();
      if (!Else)
        return nullptr;
      return std::make_unique<IfStmt>(*C, std::move(Then), std::move(Else));
    }
    if (Name == "while") {
      if (!expect(TokenKind::LParen, "'(' after 'while'"))
        return nullptr;
      std::optional<Cond> C = parseCond();
      if (!C)
        return nullptr;
      if (!expect(TokenKind::RParen, "')' after condition"))
        return nullptr;
      StmtPtr Body = parseStmt();
      if (!Body)
        return nullptr;
      return std::make_unique<WhileStmt>(*C, std::move(Body));
    }

    // Assignment forms: `<ident> := ...`.
    if (!expect(TokenKind::Assign, "':=' in assignment"))
      return nullptr;
    if (isRegisterName(Name)) {
      SymbolId Reg = Symbol::intern(Name);
      const Token &Rhs = peek();
      if (Rhs.Kind == TokenKind::Ident && !isRegisterName(Rhs.Text)) {
        next();
        if (!expect(TokenKind::Semi, "';' after load"))
          return nullptr;
        return std::make_unique<LoadStmt>(Reg, Symbol::intern(Rhs.Text));
      }
      std::optional<Operand> Src = parseOperand();
      if (!Src)
        return nullptr;
      if (!expect(TokenKind::Semi, "';' after assignment"))
        return nullptr;
      return std::make_unique<AssignStmt>(Reg, *Src);
    }
    // Store to a location.
    SymbolId Loc = Symbol::intern(Name);
    std::optional<Operand> Src = parseOperand();
    if (!Src)
      return nullptr;
    if (!expect(TokenKind::Semi, "';' after store"))
      return nullptr;
    return std::make_unique<StoreStmt>(Loc, *Src);
  }
};

} // namespace

ParseResult tracesafe::parseProgram(std::string_view Source) {
  std::vector<Token> Tokens = lex(Source);
  for (const Token &T : Tokens)
    if (T.Kind == TokenKind::Error) {
      ParseResult R;
      R.Error = lexErrorMessage(T);
      return R;
    }
  return Parser(std::move(Tokens)).run();
}

Program tracesafe::parseOrDie(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  if (!R) {
    std::fprintf(stderr, "parseOrDie: %s\nsource:\n%s\n", R.Error.c_str(),
                 Source.c_str());
    std::abort();
  }
  return std::move(*R.Prog);
}
