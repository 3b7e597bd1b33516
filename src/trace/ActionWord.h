//===----------------------------------------------------------------------===//
///
/// \file
/// Word encodings shared by the interned search engines.
///
/// The reduced engines (SC traceset enumeration in trace/Enumerate.cpp,
/// the TSO/PSO store-buffer machines in tso/BufferedEngine.cpp) encode
/// actions, events and states as short spans of uint64 words interned in
/// an InternPool. The tag constants and the one-word action packing live
/// here so every engine agrees on the encoding.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_TRACE_ACTIONWORD_H
#define TRACESAFE_TRACE_ACTIONWORD_H

#include "trace/Action.h"

#include <cassert>
#include <cstdint>

namespace tracesafe {

/// Span kind tags (top bits of the first word) keep the trie/event/state
/// encodings from colliding inside a shared intern pool.
inline constexpr uint64_t TagTrace = 0x1ULL << 62;
inline constexpr uint64_t TagEvent = 0x2ULL << 62;
inline constexpr uint64_t TagState = 0x3ULL << 62;

/// Set in the first word of store-buffer *drain* events (tso/), which have
/// no Action of their own, so they can never collide with instruction
/// events of the same thread.
inline constexpr uint64_t DrainBit = 1ULL << 48;

/// One action packed into a word: kind | volatile | wildcard | id | value.
inline uint64_t actionWord(const Action &A) {
  uint64_t Id = 0;
  uint64_t Val = 0;
  switch (A.kind()) {
  case ActionKind::Start:
    Id = A.entry();
    break;
  case ActionKind::Read:
    Id = A.location();
    if (!A.isWildcard())
      Val = static_cast<uint32_t>(A.value());
    break;
  case ActionKind::Write:
    Id = A.location();
    Val = static_cast<uint32_t>(A.value());
    break;
  case ActionKind::Lock:
  case ActionKind::Unlock:
    Id = A.monitor();
    break;
  case ActionKind::External:
    Val = static_cast<uint32_t>(A.value());
    break;
  }
  assert(Id < (1ULL << 25) && "symbol id exceeds action-word encoding");
  return (static_cast<uint64_t>(A.kind()) << 59) |
         (static_cast<uint64_t>(A.isVolatileAccess()) << 58) |
         (static_cast<uint64_t>(A.isWildcard()) << 57) | (Id << 32) | Val;
}

} // namespace tracesafe

#endif // TRACESAFE_TRACE_ACTIONWORD_H
