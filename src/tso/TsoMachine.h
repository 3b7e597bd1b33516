//===----------------------------------------------------------------------===//
///
/// \file
/// An x86-/SPARC-TSO-style operational machine for the language (paper §8).
///
/// The paper's conclusion reports that the Sun TSO memory model can be
/// explained by the semantic transformations (write-read reordering plus
/// read-after-write elimination). This module provides the other side of
/// that statement: an exhaustive store-buffer semantics whose behaviours
/// the explanation must cover.
///
/// Machine model:
///  - each thread has a FIFO store buffer of (location, value) pairs;
///  - a non-volatile write enters the buffer; the oldest entry of any
///    buffer may non-deterministically drain to memory at any time;
///  - a non-volatile read takes the newest matching entry of the thread's
///    own buffer (store-to-load forwarding), else memory;
///  - volatile accesses and lock/unlock act as fences: they require the
///    thread's buffer to be empty (this is exactly the fencing a DRF-sound
///    compiler emits for synchronisation operations);
///  - external actions do not interact with memory.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_TSO_TSOMACHINE_H
#define TRACESAFE_TSO_TSOMACHINE_H

#include "lang/Explore.h"

namespace tracesafe {

struct TsoLimits {
  /// Values the environment may supply to `input` statements; empty means
  /// "use defaultDomainFor(P)".
  std::vector<Value> InputDomain{};
  size_t MaxActionsPerThread = 64;
  size_t MaxSilentRun = 512;
  size_t MaxBufferedStores = 8;
  uint64_t MaxVisited = 50'000'000;
  /// Search workers: 1 = sequential in the calling thread; 0 = the shared
  /// work-stealing pool at its default width (TRACESAFE_WORKERS or
  /// hardware concurrency); N > 1 = exactly N-wide forking on an owned
  /// pool. Behaviour sets are identical for every width.
  unsigned Workers = 1;
  /// Sleep-set partial-order reduction over store-buffer transitions
  /// (see tso/BufferedEngine.cpp for the independence relation). Sound:
  /// results are identical with and without; the switch exists for the
  /// cross-check tests and the POR state-count benchmarks.
  bool UseReduction = true;
  /// Run the seed's sequential std::set-memoised explorer instead of the
  /// interned engine. Cross-check oracle: equivalence tests assert
  /// identical behaviour sets between the two.
  bool ExhaustiveOracle = false;
  /// Optional shared query budget (deadline / visit / memory caps across
  /// every engine of one query). Non-owning; may be null. Only the
  /// interned engine charges it.
  Budget *Shared = nullptr;
};

/// The set of observable behaviours of \p P on the TSO machine.
/// Prefix-closed; always a superset of programBehaviours(P) (the machine
/// can drain every buffer immediately, which simulates SC).
std::set<Behaviour> tsoBehaviours(const Program &P, TsoLimits Limits = {},
                                  ExecStats *Stats = nullptr);

/// Behaviours the TSO machine exhibits that SC does not.
std::set<Behaviour> tsoOnlyBehaviours(const Program &P,
                                      TsoLimits Limits = {},
                                      ExecStats *Stats = nullptr);

/// The SC side of a machine-vs-SC comparison: the same bounds, input
/// domain, budget and engine choice as \p Limits.
ExecLimits scLimitsFor(const TsoLimits &Limits);

} // namespace tracesafe

#endif // TRACESAFE_TSO_TSOMACHINE_H
