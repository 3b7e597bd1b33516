//===----------------------------------------------------------------------===//
///
/// \file
/// Interned symbols for shared-memory locations, monitors and registers.
///
/// The paper ranges over location names l (x, y, z in examples), monitor
/// names m, and register names r. Interning them into small integer ids
/// keeps actions and traces cheap to copy and compare, which matters because
/// tracesets are ordered sets of traces.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_SYMBOL_H
#define TRACESAFE_SUPPORT_SYMBOL_H

#include <cstdint>
#include <string>
#include <string_view>

namespace tracesafe {

/// An interned identifier. Ids are dense, starting at 0, and stable for the
/// lifetime of the process. The same string always interns to the same id,
/// regardless of whether it is used as a location, monitor or register name;
/// the different name spaces of the language never mix because the grammar
/// separates them syntactically.
using SymbolId = uint32_t;

/// Global symbol interner.
///
/// The interner is a process-wide function-local static (no static
/// constructor), so symbols created in tests, benches and examples all agree.
class Symbol {
public:
  /// Interns \p Name and returns its id. Idempotent; allocates only when
  /// \p Name is new.
  static SymbolId intern(std::string_view Name);

  /// Returns the string for an id previously returned by intern().
  static const std::string &name(SymbolId Id);

  /// Number of symbols interned so far.
  static size_t count();
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_SYMBOL_H
