//===----------------------------------------------------------------------===//
///
/// \file
/// The interned, sleep-set-reduced search over the store-buffer machines
/// (TSO and PSO).
///
/// This is the relaxed-memory counterpart of the reduced SC engine in
/// trace/Enumerate.cpp: machine states (thread configurations, FIFO
/// buffers, memory, locks, behaviour tail) are hash-consed in an
/// InternPool with real-byte Budget charging, and sleep-set POR prunes
/// commuting schedules of buffer drains and non-conflicting accesses. The
/// search runs sequentially in the calling thread. Behaviour sets are
/// identical to the seed explorers kept as the test-only oracle
/// (tests/TsoOracle.h) — the equivalence tests assert it on the litmus
/// corpus and on randomised programs.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_TSO_BUFFEREDENGINE_H
#define TRACESAFE_TSO_BUFFEREDENGINE_H

#include "tso/TsoMachine.h"

namespace tracesafe {

/// Which store-buffer semantics the engine runs: one FIFO buffer per
/// thread (TSO) or one FIFO buffer per (thread, location) pair (PSO).
enum class BufferModel { Tso, Pso };

/// The set of observable behaviours of \p P on the \p Model machine,
/// computed by the interned reduced engine. tsoBehaviours/psoBehaviours
/// are this engine with the model fixed.
std::set<Behaviour> bufferedBehaviours(const Program &P,
                                       const TsoLimits &Limits,
                                       BufferModel Model,
                                       ExecStats *Stats = nullptr);

} // namespace tracesafe

#endif // TRACESAFE_TSO_BUFFEREDENGINE_H
