//===----------------------------------------------------------------------===//
///
/// \file
/// The seed TSO and PSO machines: the test-only reference oracle for the
/// interned store-buffer engine (tso/BufferedEngine.h).
///
/// Each machine is a sequential depth-first search over whole machine
/// states, memoised in a std::set of (state, actions done, behaviour so
/// far) tuples, with no interning and no partial-order reduction. They
/// take the same TsoLimits as tsoBehaviours/psoBehaviours (UseReduction
/// and Shared are ignored). The machines share no code with the interned
/// engine or the traceset enumerator, so a test that compares them
/// checks the machine semantics of tso/TsoMachine.h against an
/// independent implementation.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_TESTS_TSOORACLE_H
#define TRACESAFE_TESTS_TSOORACLE_H

#include "tso/TsoMachine.h"

namespace tracesafe {

/// The set of observable behaviours of \p P on the TSO machine.
std::set<Behaviour> oracleTsoBehaviours(const Program &P,
                                        TsoLimits Limits = {},
                                        ExecStats *Stats = nullptr);

/// The set of observable behaviours of \p P on the PSO machine.
std::set<Behaviour> oraclePsoBehaviours(const Program &P,
                                        TsoLimits Limits = {},
                                        ExecStats *Stats = nullptr);

/// Behaviours the oracle TSO machine exhibits that SC does not. The SC
/// side runs the seed enumerator (ExecLimits::ExhaustiveOracle), so both
/// halves of the subtraction are reference engines.
std::set<Behaviour> oracleTsoOnlyBehaviours(const Program &P,
                                            TsoLimits Limits = {});

/// Behaviours the oracle PSO machine exhibits that SC does not.
std::set<Behaviour> oraclePsoOnlyBehaviours(const Program &P,
                                            TsoLimits Limits = {});

} // namespace tracesafe

#endif // TRACESAFE_TESTS_TSOORACLE_H
