//===----------------------------------------------------------------------===//
///
/// \file
/// The TSO and PSO store-buffer machines for the language (paper §8).
///
/// The paper's conclusion reports that the Sun TSO memory model can be
/// explained by the semantic transformations (write-read reordering plus
/// read-after-write elimination). This module provides the other side of
/// that statement: an exhaustive store-buffer semantics whose behaviours
/// the explanation must cover. It also conjectures "similar results can
/// be achieved for other processor memory models"; PSO is the natural
/// next model, and the E13 bench checks that the PSO-only behaviours of
/// the litmus battery are explained by the rule set too.
///
/// TSO machine model:
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
/// PSO machine model: like TSO, but each thread has one FIFO buffer per
/// location; a drain step commits the oldest entry of any (thread,
/// location) buffer. Reads forward from the own buffer of that location;
/// synchronisation actions require all of the thread's buffers to be
/// empty. Stores to different locations may thus drain out of order: the
/// extra relaxation over TSO is W->W reordering, which is exactly the
/// R-WW rule.
///
/// Both machines run on the interned, sleep-set-reduced engine of
/// tso/BufferedEngine.h.
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
  /// Sleep-set partial-order reduction over store-buffer transitions
  /// (see tso/BufferedEngine.cpp for the independence relation). Sound:
  /// results are identical with and without; the switch exists for the
  /// cross-check tests and the POR state-count benchmarks.
  bool UseReduction = true;
  /// The query budget (deadline / visit / memory caps across every engine
  /// of one query): the only visit bound of the machine search.
  /// Non-owning; null means no visit cap.
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

/// The set of observable behaviours of \p P on the PSO machine.
/// A superset of tsoBehaviours(P) (a TSO buffer schedule is a PSO schedule
/// that happens to respect inter-location store order).
std::set<Behaviour> psoBehaviours(const Program &P, TsoLimits Limits = {},
                                  ExecStats *Stats = nullptr);

/// Behaviours PSO exhibits that SC does not.
std::set<Behaviour> psoOnlyBehaviours(const Program &P,
                                      TsoLimits Limits = {},
                                      ExecStats *Stats = nullptr);

/// The SC side of a machine-vs-SC comparison: the same bounds, input
/// domain and budget as \p Limits.
ExecLimits scLimitsFor(const TsoLimits &Limits);

} // namespace tracesafe

#endif // TRACESAFE_TSO_TSOMACHINE_H
