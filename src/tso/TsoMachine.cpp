#include "tso/TsoMachine.h"
#include "lang/Explore.h"
#include "tso/BufferedEngine.h"

#include <algorithm>
#include <iterator>

using namespace tracesafe;

namespace {

/// Behaviours the \p Model machine exhibits that SC does not; \p Stats
/// sums the two searches.
std::set<Behaviour> machineOnlyBehaviours(const Program &P,
                                          const TsoLimits &Limits,
                                          BufferModel Model,
                                          ExecStats *Stats) {
  ExecStats MachineStats, ScStats;
  std::set<Behaviour> Machine =
      bufferedBehaviours(P, Limits, Model, &MachineStats);
  std::set<Behaviour> Sc = programBehaviours(P, scLimitsFor(Limits), &ScStats);
  if (Stats) {
    Stats->Visited = MachineStats.Visited + ScStats.Visited;
    Stats->Truncated = MachineStats.Truncated || ScStats.Truncated;
    Stats->Reason = mergeReason(MachineStats.Reason, ScStats.Reason);
  }
  std::set<Behaviour> Out;
  std::set_difference(Machine.begin(), Machine.end(), Sc.begin(), Sc.end(),
                      std::inserter(Out, Out.end()));
  return Out;
}

} // namespace

std::set<Behaviour> tracesafe::tsoBehaviours(const Program &P,
                                             TsoLimits Limits,
                                             ExecStats *Stats) {
  return bufferedBehaviours(P, Limits, BufferModel::Tso, Stats);
}

std::set<Behaviour> tracesafe::tsoOnlyBehaviours(const Program &P,
                                                 TsoLimits Limits,
                                                 ExecStats *Stats) {
  return machineOnlyBehaviours(P, Limits, BufferModel::Tso, Stats);
}

std::set<Behaviour> tracesafe::psoBehaviours(const Program &P,
                                             TsoLimits Limits,
                                             ExecStats *Stats) {
  return bufferedBehaviours(P, Limits, BufferModel::Pso, Stats);
}

std::set<Behaviour> tracesafe::psoOnlyBehaviours(const Program &P,
                                                 TsoLimits Limits,
                                                 ExecStats *Stats) {
  return machineOnlyBehaviours(P, Limits, BufferModel::Pso, Stats);
}

ExecLimits tracesafe::scLimitsFor(const TsoLimits &Limits) {
  ExecLimits Sc;
  Sc.InputDomain = Limits.InputDomain;
  Sc.MaxActionsPerThread = Limits.MaxActionsPerThread;
  Sc.MaxSilentRun = Limits.MaxSilentRun;
  Sc.Shared = Limits.Shared;
  return Sc;
}
