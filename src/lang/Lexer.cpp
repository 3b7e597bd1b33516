#include "lang/Lexer.h"

#include <array>
#include <limits>

using namespace tracesafe;

namespace {

// ASCII classes from one table: the grammar is ASCII, and the C locale's
// isspace/isalpha would cost a locale lookup per character.
enum CharClass : uint8_t { Other, Space, Digit, Letter };

constexpr std::array<uint8_t, 256> makeClasses() {
  std::array<uint8_t, 256> T{};
  for (char C : {' ', '\t', '\v', '\f', '\r'})
    T[static_cast<uint8_t>(C)] = Space;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = Digit;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = Letter;
  T['_'] = Letter;
  return T;
}
constexpr std::array<uint8_t, 256> Classes = makeClasses();

uint8_t classOf(char C) { return Classes[static_cast<uint8_t>(C)]; }
bool isSpace(char C) { return classOf(C) == Space; }
bool isDigit(char C) { return classOf(C) == Digit; }
bool isIdentStart(char C) { return classOf(C) == Letter; }
bool isIdentChar(char C) { return classOf(C) >= Digit; }

} // namespace

std::vector<Token> tracesafe::lex(std::string_view Source) {
  std::vector<Token> Out;
  lex(Source, Out);
  return Out;
}

void tracesafe::lex(std::string_view Source, std::vector<Token> &Out) {
  Out.clear();
  Out.reserve(Source.size() / 3 + 2);
  unsigned Line = 1;
  size_t LineStart = 0; // Index of the first character of the current line.
  size_t I = 0, N = Source.size();
  auto PushAt = [&](size_t At, size_t Len, TokenKind K, Value Num = 0) {
    Out.push_back(Token{K, Source.substr(At, Len), Num, Line,
                        static_cast<unsigned>(At - LineStart + 1)});
  };
  while (I < N) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      ++I;
      LineStart = I;
      continue;
    }
    if (isSpace(C)) {
      ++I;
      continue;
    }
    if (C == '/' && I + 1 < N && Source[I + 1] == '/') {
      while (I < N && Source[I] != '\n')
        ++I;
      continue;
    }
    if (isIdentStart(C)) {
      size_t Start = I;
      while (I < N && isIdentChar(Source[I]))
        ++I;
      PushAt(Start, I - Start, TokenKind::Ident);
      continue;
    }
    if (isDigit(C)) {
      size_t Start = I;
      // Accumulate with an explicit overflow check: a literal wider than
      // Value must become a diagnostic, not undefined behaviour or an
      // exception out of the lexer.
      int64_t Acc = 0;
      bool Overflow = false;
      while (I < N && isDigit(Source[I])) {
        if (!Overflow) {
          Acc = Acc * 10 + (Source[I] - '0');
          if (Acc > std::numeric_limits<Value>::max())
            Overflow = true;
        }
        ++I;
      }
      if (Overflow) {
        PushAt(Start, I - Start, TokenKind::Error);
        PushAt(I, 0, TokenKind::EndOfFile);
        return;
      }
      PushAt(Start, I - Start, TokenKind::Number, static_cast<Value>(Acc));
      continue;
    }
    TokenKind K;
    size_t Len = 1;
    if (C == ':' && I + 1 < N && Source[I + 1] == '=') {
      K = TokenKind::Assign;
      Len = 2;
    } else if (C == '=' && I + 1 < N && Source[I + 1] == '=') {
      K = TokenKind::EqEq;
      Len = 2;
    } else if (C == '!' && I + 1 < N && Source[I + 1] == '=') {
      K = TokenKind::NotEq;
      Len = 2;
    } else {
      switch (C) {
      case ';':
        K = TokenKind::Semi;
        break;
      case ',':
        K = TokenKind::Comma;
        break;
      case '{':
        K = TokenKind::LBrace;
        break;
      case '}':
        K = TokenKind::RBrace;
        break;
      case '(':
        K = TokenKind::LParen;
        break;
      case ')':
        K = TokenKind::RParen;
        break;
      default:
        PushAt(I, 1, TokenKind::Error);
        PushAt(I, 0, TokenKind::EndOfFile);
        return;
      }
    }
    PushAt(I, Len, K);
    I += Len;
  }
  PushAt(N, 0, TokenKind::EndOfFile);
}

std::string tracesafe::lexErrorMessage(const Token &T) {
  std::string Msg = "line " + std::to_string(T.Line) + ", col " +
                    std::to_string(T.Col) + ": ";
  if (!T.Text.empty() && isDigit(T.Text.front()))
    return Msg + "integer literal out of range";
  return Msg + "unexpected character '" + std::string(T.Text) + "'";
}

bool tracesafe::isKeyword(std::string_view S) {
  switch (S.size()) {
  case 2:
    return S == "if";
  case 4:
    return S == "skip" || S == "sync" || S == "lock" || S == "else";
  case 5:
    return S == "print" || S == "input" || S == "while";
  case 6:
    return S == "unlock" || S == "thread";
  case 8:
    return S == "volatile";
  default:
    return false;
  }
}
