//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the simple concurrent language.
///
/// Concrete syntax (see also Printer.h; printing then parsing is the
/// identity on ASTs):
///
/// \code
///   volatile v, w;          // optional; marks locations volatile
///   thread {                // one section per thread, in entry-point order
///     r1 := x;              // load (identifiers starting with 'r' are
///     x := 1;               //   registers; everything else is a location)
///     x := r1;              // store
///     r1 := 2;              // register := operand
///     r2 := r1;
///     lock m; unlock m;
///     sync m { x := 1; }    // sugar: { lock m; { ... } unlock m; }
///     skip;
///     print r1;  print 0;
///     if (r1 == r2) { ... } else { ... }    // else is mandatory, as in
///     while (r1 != 0) { ... }               //   the paper's grammar
///   }
/// \endcode
///
/// Registers are identifiers beginning with 'r' (the paper's convention in
/// §2); any other identifier on the left of `:=` or the right of a load is
/// a shared-memory location; identifiers after lock/unlock are monitors.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_LANG_PARSER_H
#define TRACESAFE_LANG_PARSER_H

#include "lang/Ast.h"

#include <optional>
#include <string>
#include <string_view>

namespace tracesafe {

/// Result of a parse: either a program or an error message carrying the
/// offending line and column. Malformed input never crashes the parser:
/// lexer errors (stray characters, out-of-range literals) surface here, and
/// pathologically deep nesting is rejected with a diagnostic instead of
/// overflowing the stack.
struct ParseResult {
  std::optional<Program> Prog;
  std::string Error;

  explicit operator bool() const { return Prog.has_value(); }
};

/// Parses \p Source into a Program.
ParseResult parseProgram(std::string_view Source);

/// Convenience for tests: parses and asserts success (aborts with the error
/// message otherwise).
Program parseOrDie(const std::string &Source);

/// True iff \p Name denotes a register (starts with 'r').
bool isRegisterName(std::string_view Name);

} // namespace tracesafe

#endif // TRACESAFE_LANG_PARSER_H
