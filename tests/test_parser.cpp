//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the lexer and parser: every statement form, error
/// reporting, and the register/location naming convention.
///
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

TEST(Lexer, TokenisesAllForms) {
  std::vector<Token> Ts =
      lex("r1 := x; // comment\n lock m; if (r1 == 0) {} while (r1 != 2)");
  std::vector<TokenKind> Kinds;
  for (const Token &T : Ts)
    Kinds.push_back(T.Kind);
  EXPECT_EQ(Kinds,
            (std::vector<TokenKind>{
                TokenKind::Ident, TokenKind::Assign, TokenKind::Ident,
                TokenKind::Semi, TokenKind::Ident, TokenKind::Ident,
                TokenKind::Semi, TokenKind::Ident, TokenKind::LParen,
                TokenKind::Ident, TokenKind::EqEq, TokenKind::Number,
                TokenKind::RParen, TokenKind::LBrace, TokenKind::RBrace,
                TokenKind::Ident, TokenKind::LParen, TokenKind::Ident,
                TokenKind::NotEq, TokenKind::Number, TokenKind::RParen,
                TokenKind::EndOfFile}));
}

TEST(Lexer, TracksLineNumbers) {
  std::vector<Token> Ts = lex("a\nb\n\nc");
  EXPECT_EQ(Ts[0].Line, 1u);
  EXPECT_EQ(Ts[1].Line, 2u);
  EXPECT_EQ(Ts[2].Line, 4u);
}

TEST(Lexer, ReportsBadCharacters) {
  std::vector<Token> Ts = lex("a $ b");
  ASSERT_GE(Ts.size(), 2u);
  EXPECT_EQ(Ts[1].Kind, TokenKind::Error);
  EXPECT_EQ(lexErrorMessage(Ts[1]), "line 1, col 3: unexpected character '$'");
}

TEST(Lexer, SpellingsViewTheSource) {
  std::string Src = "thread { r12 := x_1; lock m; }\t// tail";
  std::vector<Token> Ts = lex(Src);
  ASSERT_EQ(Ts.size(), 11u);
  EXPECT_EQ(Ts[0].Text, "thread");
  EXPECT_EQ(Ts[2].Text, "r12");
  EXPECT_EQ(Ts[3].Text, ":=");
  EXPECT_EQ(Ts[4].Text, "x_1");
  EXPECT_EQ(Ts[7].Text, "m");
  // No copies: every spelling points into the lexed source.
  for (const Token &T : Ts) {
    EXPECT_GE(T.Text.data(), Src.data());
    EXPECT_LE(T.Text.data() + T.Text.size(), Src.data() + Src.size());
  }
  EXPECT_EQ(Ts.back().Kind, TokenKind::EndOfFile);
}

TEST(Lexer, KeywordsAreSpellingsNotReservedWords) {
  for (const char *K : {"if", "else", "while", "skip", "sync", "lock",
                        "unlock", "print", "input", "thread", "volatile"})
    EXPECT_TRUE(isKeyword(K)) << K;
  for (const char *N : {"x", "r1", "elsewhere", "locks", "m", "Thread"})
    EXPECT_FALSE(isKeyword(N)) << N;
  // Only the grammar makes a keyword: a statement may store to `else`.
  EXPECT_TRUE(parseProgram("thread { else := 1; r1 := else; }"));
}

TEST(Parser, RegisterVsLocationConvention) {
  EXPECT_TRUE(isRegisterName("r1"));
  EXPECT_TRUE(isRegisterName("ready")); // Anything starting with 'r'.
  EXPECT_FALSE(isRegisterName("x"));
  EXPECT_FALSE(isRegisterName("flag"));
}

TEST(Parser, ParsesAllStatementForms) {
  ParseResult R = parseProgram(R"(
volatile v;
thread {
  r1 := x;        // load
  x := r1;        // store register
  x := 3;         // store literal
  r1 := 2;        // assign literal
  r2 := r1;       // assign register
  lock m;
  unlock m;
  skip;
  print r1;
  print 0;
  if (r1 == r2) { skip; } else { print 1; }
  while (r1 != 0) { r1 := 0; }
}
)");
  ASSERT_TRUE(R) << R.Error;
  const StmtList &L = R.Prog->thread(0);
  ASSERT_EQ(L.size(), 12u);
  EXPECT_EQ(L[0]->kind(), StmtKind::Load);
  EXPECT_EQ(L[1]->kind(), StmtKind::Store);
  EXPECT_EQ(L[2]->kind(), StmtKind::Store);
  EXPECT_EQ(L[3]->kind(), StmtKind::Assign);
  EXPECT_EQ(L[4]->kind(), StmtKind::Assign);
  EXPECT_EQ(L[5]->kind(), StmtKind::Lock);
  EXPECT_EQ(L[6]->kind(), StmtKind::Unlock);
  EXPECT_EQ(L[7]->kind(), StmtKind::Skip);
  EXPECT_EQ(L[8]->kind(), StmtKind::Print);
  EXPECT_EQ(L[9]->kind(), StmtKind::Print);
  EXPECT_EQ(L[10]->kind(), StmtKind::If);
  EXPECT_EQ(L[11]->kind(), StmtKind::While);
  EXPECT_TRUE(R.Prog->isVolatile(Symbol::intern("v")));
  EXPECT_FALSE(R.Prog->isVolatile(Symbol::intern("x")));
}

TEST(Parser, MultipleThreadsGetSequentialIds) {
  ParseResult R = parseProgram("thread { skip; } thread { skip; } "
                               "thread { skip; }");
  ASSERT_TRUE(R);
  EXPECT_EQ(R.Prog->threadCount(), 3u);
}

TEST(Parser, VolatileListWithCommas) {
  ParseResult R = parseProgram("volatile a, b; thread { skip; }");
  ASSERT_TRUE(R);
  EXPECT_EQ(R.Prog->volatiles().size(), 2u);
}

struct ErrorCase {
  const char *Source;
  const char *Name;
};

class ParserErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrors, RejectsMalformedInput) {
  ParseResult R = parseProgram(GetParam().Source);
  EXPECT_FALSE(R) << "should have failed: " << GetParam().Source;
  EXPECT_FALSE(R.Error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    All, ParserErrors,
    ::testing::Values(
        ErrorCase{"", "empty"},
        ErrorCase{"thread { r1 := ; }", "missing rhs"},
        ErrorCase{"thread { x := y; }", "memory-to-memory store"},
        ErrorCase{"thread { if (r1 == 0) { skip; } }", "if without else"},
        ErrorCase{"thread { lock ; }", "lock without monitor"},
        ErrorCase{"thread { print x; }", "print of a location"},
        ErrorCase{"thread { skip }", "missing semicolon"},
        ErrorCase{"thread { skip; ", "unterminated block"},
        ErrorCase{"volatile ; thread { skip; }", "empty volatile list"},
        ErrorCase{"thread { while r1 == 0 skip; }", "missing parens"},
        ErrorCase{"garbage", "top-level junk"},
        ErrorCase{"thread { r1 := 99999999999; }", "literal out of range"},
        ErrorCase{"thread { r1 := 2147483648; }", "literal int32 max plus 1"},
        ErrorCase{"thread { x @ 1; }", "stray character"},
        ErrorCase{"thread { sync m { skip; }", "unterminated sync"},
        ErrorCase{"thread { if (r1 == ) skip; else skip; }",
                  "condition missing rhs"},
        ErrorCase{"thread { input x; }", "input into a location"}),
    [](const auto &Info) {
      std::string N = Info.param.Name;
      for (char &C : N)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return N;
    });

TEST(Parser, ErrorsIncludeLineNumbers) {
  ParseResult R = parseProgram("thread {\n  skip;\n  lock ;\n}");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("line 3"), std::string::npos) << R.Error;
}

TEST(Parser, ErrorsIncludeColumns) {
  // The stray ';' after 'lock' sits at column 8 of line 3.
  ParseResult R = parseProgram("thread {\n  skip;\n  lock ;\n}");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("line 3, col 8"), std::string::npos) << R.Error;
}

TEST(Lexer, OutOfRangeLiteralIsDiagnosedNotFatal) {
  std::vector<Token> Ts = lex("r1 := 99999999999999999999999999;");
  bool SawError = false;
  for (const Token &T : Ts)
    if (T.Kind == TokenKind::Error) {
      SawError = true;
      std::string Msg = lexErrorMessage(T);
      EXPECT_NE(Msg.find("out of range"), std::string::npos) << Msg;
      EXPECT_NE(Msg.find("line 1, col 7"), std::string::npos) << Msg;
    }
  EXPECT_TRUE(SawError);
}

TEST(Lexer, MaxValueLiteralStillLexes) {
  std::vector<Token> Ts = lex("2147483647");
  ASSERT_GE(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Number);
  EXPECT_EQ(Ts[0].Num, 2147483647);
}

TEST(Parser, DeepNestingIsRejectedNotStackOverflow) {
  // ~10k nested blocks: without a depth cap this overflows the parser's
  // stack; with it, the input is rejected with a diagnostic.
  std::string Source = "thread { ";
  for (int I = 0; I < 10000; ++I)
    Source += "{ ";
  Source += "skip; ";
  for (int I = 0; I < 10000; ++I)
    Source += "} ";
  Source += "}";
  ParseResult R = parseProgram(Source);
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("nested"), std::string::npos) << R.Error;
}

TEST(Parser, ModerateNestingStillParses) {
  std::string Source = "thread { ";
  for (int I = 0; I < 50; ++I)
    Source += "{ ";
  Source += "skip; ";
  for (int I = 0; I < 50; ++I)
    Source += "} ";
  Source += "}";
  EXPECT_TRUE(parseProgram(Source));
}

TEST(Parser, SyncSugarDesugarsToLockBlockUnlock) {
  Program P = parseOrDie("thread { sync m { x := 1; r1 := x; } }");
  Program Expected = parseOrDie(
      "thread { { lock m; { x := 1; r1 := x; } unlock m; } }");
  EXPECT_TRUE(P.equals(Expected));
}

TEST(Parser, SyncSugarNests) {
  Program P = parseOrDie(
      "thread { sync m { sync m2 { x := 1; } } }");
  Program Expected = parseOrDie(
      "thread { { lock m; { { lock m2; { x := 1; } unlock m2; } } "
      "unlock m; } }");
  EXPECT_TRUE(P.equals(Expected));
}

TEST(Parser, SyncSugarErrors) {
  EXPECT_FALSE(parseProgram("thread { sync { x := 1; } }"));
  EXPECT_FALSE(parseProgram("thread { sync m x := 1; }"));
}

TEST(Parser, NestedBlocksAndControlFlow) {
  ParseResult R = parseProgram(R"(
thread {
  {
    { skip; }
    if (0 == 0) { { x := 1; } } else { skip; }
  }
}
)");
  ASSERT_TRUE(R) << R.Error;
  const StmtList &L = R.Prog->thread(0);
  ASSERT_EQ(L.size(), 1u);
  EXPECT_EQ(L[0]->kind(), StmtKind::Block);
}

} // namespace
