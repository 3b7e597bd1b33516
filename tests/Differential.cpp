#include "Differential.h"

#include "trace/HappensBefore.h"
#include "trace/Interleaving.h"

#include <algorithm>
#include <map>

using namespace tracesafe;
using namespace tracesafe::racelog;

DifferentialCase racelog::makeDifferentialCase(const Interleaving &I,
                                               size_t EventsPerBlock) {
  DifferentialCase Out;
  LogWriter W(EventsPerBlock);
  // Log index of each interleaving position (~0 = no log representation).
  std::vector<uint64_t> LogIdx(I.size(), ~0ULL);
  uint64_t Next = 0;
  for (size_t P = 0; P < I.size(); ++P) {
    const Event &E = I[P];
    const Action &A = E.Act;
    switch (A.kind()) {
    case ActionKind::Start:
    case ActionKind::External:
      continue;
    case ActionKind::Read:
      if (A.isVolatileAccess())
        W.append(Op::Acquire, E.Tid, volatileLockId(A.location()));
      else
        W.append(Op::Read, E.Tid, dataAddr(A.location()));
      break;
    case ActionKind::Write:
      if (A.isVolatileAccess())
        W.append(Op::Release, E.Tid, volatileLockId(A.location()));
      else
        W.append(Op::Write, E.Tid, dataAddr(A.location()));
      break;
    case ActionKind::Lock:
      W.append(Op::Acquire, E.Tid, monitorLockId(A.monitor()));
      break;
    case ActionKind::Unlock:
      W.append(Op::Release, E.Tid, monitorLockId(A.monitor()));
      break;
    }
    LogIdx[P] = Next++;
  }
  Out.Events = Next;
  Out.Log = W.finish();

  // Ground truth from the quadratic §3 order: a position J races iff some
  // earlier conflicting position is unordered with it; per location keep
  // the earliest such J (what a streaming detector must report).
  HappensBefore HB(I);
  std::map<uint64_t, uint64_t> FirstRace; // addr -> log index
  for (size_t J = 0; J < I.size(); ++J) {
    if (!I[J].Act.isNormalAccess())
      continue;
    for (size_t K = 0; K < J; ++K) {
      if (!I[K].Act.conflictsWith(I[J].Act) || HB.ordered(K, J))
        continue;
      uint64_t Addr = dataAddr(I[J].Act.location());
      auto [It, New] = FirstRace.emplace(Addr, LogIdx[J]);
      if (!New)
        It->second = std::min(It->second, LogIdx[J]);
      break;
    }
  }
  for (const auto &[Addr, Idx] : FirstRace)
    Out.Races.push_back({Addr, Idx});
  std::sort(Out.Races.begin(), Out.Races.end(),
            [](const ExpectedRace &A, const ExpectedRace &B) {
              return A.EventIndex < B.EventIndex;
            });
  return Out;
}
