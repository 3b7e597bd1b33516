#include "support/Symbol.h"

#include <cassert>
#include <deque>
#include <mutex>
#include <unordered_map>

using namespace tracesafe;

namespace {

/// Names live in a deque so the references handed out by Symbol::name stay
/// valid while other threads intern (deque growth never moves elements).
/// The mutex makes interning safe from concurrent queries (the daemon's
/// workers, parallel fuzz jobs); ids are dense and stable for the process
/// lifetime as before.
/// Transparent, so a std::string_view probes the table without building a
/// std::string.
struct NameHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>{}(S);
  }
};

struct Interner {
  std::mutex M;
  std::unordered_map<std::string, SymbolId, NameHash, std::equal_to<>> Ids;
  std::deque<std::string> Names;
};

Interner &interner() {
  static Interner I;
  return I;
}

} // namespace

SymbolId Symbol::intern(std::string_view Name) {
  Interner &I = interner();
  std::lock_guard<std::mutex> Lock(I.M);
  auto It = I.Ids.find(Name);
  if (It != I.Ids.end())
    return It->second;
  SymbolId Id = static_cast<SymbolId>(I.Names.size());
  I.Names.emplace_back(Name);
  I.Ids.emplace(I.Names.back(), Id);
  return Id;
}

const std::string &Symbol::name(SymbolId Id) {
  Interner &I = interner();
  std::lock_guard<std::mutex> Lock(I.M);
  assert(Id < I.Names.size() && "unknown symbol id");
  return I.Names[Id];
}

size_t Symbol::count() {
  Interner &I = interner();
  std::lock_guard<std::mutex> Lock(I.M);
  return I.Names.size();
}
