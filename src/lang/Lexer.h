//===----------------------------------------------------------------------===//
///
/// \file
/// Tokeniser for the concrete syntax of the simple concurrent language.
///
/// The one tokeniser of the language: the parser and the verdict-key
/// builder (verify/Canonical) both read its token stream. Tokens view their
/// spelling in the source instead of owning it, so lexing allocates only
/// the token vector.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_LANG_LEXER_H
#define TRACESAFE_LANG_LEXER_H

#include "trace/Action.h"

#include <string>
#include <string_view>
#include <vector>

namespace tracesafe {

enum class TokenKind : uint8_t {
  Ident,     ///< identifier (location, register, monitor or keyword)
  Number,    ///< integer literal
  Assign,    ///< :=
  Semi,      ///< ;
  Comma,     ///< ,
  LBrace,    ///< {
  RBrace,    ///< }
  LParen,    ///< (
  RParen,    ///< )
  EqEq,      ///< ==
  NotEq,     ///< !=
  EndOfFile, ///< sentinel
  Error,     ///< lexing error; see lexErrorMessage
};

struct Token {
  TokenKind Kind;
  /// The token's spelling in the source (for Error, the offending
  /// literal or character). Valid while the lexed source is.
  std::string_view Text;
  Value Num = 0;    ///< for Number
  unsigned Line = 1;
  unsigned Col = 1; ///< 1-based column of the token's first character
};

/// Lexes \p Source. Line comments start with "//". On error the last token
/// is Error (followed by EndOfFile). Never crashes on malformed input:
/// out-of-range integer literals and stray characters become Error tokens
/// with line/column diagnostics. The tokens view \p Source.
std::vector<Token> lex(std::string_view Source);

/// The same tokens into \p Out (cleared first), so a caller lexing many
/// sources can reuse one buffer.
void lex(std::string_view Source, std::vector<Token> &Out);

/// The diagnostic for an Error token: "line L, col C: " and what is wrong.
std::string lexErrorMessage(const Token &T);

/// True iff \p S spells one of the language's keywords (if, else, while,
/// skip, sync, lock, unlock, print, input, thread, volatile). The lexer
/// does not reserve them: the parser reads an identifier as a keyword
/// only where its grammar expects one.
bool isKeyword(std::string_view S);

} // namespace tracesafe

#endif // TRACESAFE_LANG_LEXER_H
