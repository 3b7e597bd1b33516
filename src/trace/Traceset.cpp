#include "trace/Traceset.h"

#include <algorithm>
#include <cassert>

using namespace tracesafe;

void Traceset::insert(const Trace &T) {
  assert(!T.hasWildcards() && "tracesets hold concrete traces");
  assert(T.isProperlyStarted() && "trace must begin with a start action");
  assert(T.isWellLocked() && "trace must be well locked");
  // Insert longest-first; if a prefix is already present all shorter ones
  // are too (closure invariant).
  for (size_t N = T.size(); N > 0; --N) {
    auto [It, Inserted] = Traces.insert(T.prefix(N));
    (void)It;
    if (!Inserted)
      return;
  }
}

bool Traceset::belongsTo(const Trace &Wildcard) const {
  for (const Trace &Inst : Wildcard.instances(Domain))
    if (!contains(Inst))
      return false;
  return true;
}

std::vector<Action> Traceset::successors(const Trace &Prefix) const {
  std::vector<Action> Out;
  // Traces sharing Prefix form a contiguous range starting at
  // upper_bound(Prefix) (Prefix itself sorts immediately before its proper
  // extensions in lexicographic order).
  for (auto It = Traces.upper_bound(Prefix); It != Traces.end(); ++It) {
    if (!Prefix.isPrefixOf(*It))
      break;
    if (It->size() == Prefix.size())
      continue;
    const Action &Next = (*It)[Prefix.size()];
    if (Out.empty() || Out.back() != Next)
      Out.push_back(Next);
  }
  return Out;
}

bool Traceset::hasExtension(const Trace &Prefix) const {
  auto It = Traces.upper_bound(Prefix);
  return It != Traces.end() && Prefix.isPrefixOf(*It);
}

std::vector<ThreadId> Traceset::entryPoints() const {
  std::vector<ThreadId> Out;
  for (const Action &A : successors(Trace()))
    if (A.isStart())
      Out.push_back(A.entry());
  return Out;
}

bool Traceset::hasOriginFor(Value V) const {
  // Only maximal traces need checking: if a prefix is an origin for V, so is
  // every extension; checking all traces is still correct but slower.
  for (const Trace &T : Traces)
    if (T.isOriginFor(V))
      return true;
  return false;
}

bool Traceset::validate(std::string *Err) const {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (!Traces.count(Trace()))
    return Fail("traceset does not contain the empty trace");
  for (const Trace &T : Traces) {
    if (T.hasWildcards())
      return Fail("traceset contains a wildcard trace: " + T.str());
    if (!T.isProperlyStarted())
      return Fail("trace not properly started: " + T.str());
    if (!T.isWellLocked())
      return Fail("trace not well locked: " + T.str());
    if (T.size() > 0 && !Traces.count(T.prefix(T.size() - 1)))
      return Fail("traceset not prefix-closed at: " + T.str());
  }
  return true;
}

std::vector<Trace> Traceset::maximalTraces() const {
  std::vector<Trace> Out;
  for (const Trace &T : Traces)
    if (!hasExtension(T))
      Out.push_back(T);
  return Out;
}

size_t Traceset::maxTraceLength() const {
  size_t Max = 0;
  for (const Trace &T : Traces)
    Max = std::max(Max, T.size());
  return Max;
}

std::string Traceset::str() const {
  std::string Out = "{\n";
  for (const Trace &T : maximalTraces())
    Out += "  " + T.str() + "\n";
  Out += "}";
  return Out;
}
