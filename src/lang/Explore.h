//===----------------------------------------------------------------------===//
///
/// \file
/// Traceset generation: the meaning [[P]] of a program (paper §6).
///
/// The meaning of a code fragment is the set of traces it may issue, where
/// reads non-deterministically return any value of the domain (rule READ).
/// Over a finite value domain and with bounded trace length this set is
/// finite and we compute it by exhaustive DFS. Loop-free programs are
/// explored exactly (their traces are shorter than any sensible bound);
/// loops are truncated at the action bound, which keeps the set
/// prefix-closed — exactly the paper's model of partial executions.
///
/// The program-level SC queries (behaviours, data races) are answered on
/// [[P]] by the execution enumerator of trace/Enumerate.h: the enumerator
/// keeps exactly the reads that see the most recent write, so the
/// executions of [[P]] are the program's SC executions whenever the read
/// domain covers every value the program can store.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_LANG_EXPLORE_H
#define TRACESAFE_LANG_EXPLORE_H

#include "lang/SmallStep.h"
#include "support/Budget.h"
#include "trace/Enumerate.h"
#include "trace/Traceset.h"

#include <cstdint>

namespace tracesafe {

/// Bounds for thread exploration.
struct ExploreLimits {
  /// Maximum number of actions per trace (excluding the start action).
  size_t MaxActions = 24;
  /// Maximum consecutive silent steps before a thread is declared stuck
  /// (cuts `while (r0 == r0) skip;`).
  size_t MaxSilentRun = 512;
  /// The query budget (deadline / visit / memory caps across every engine
  /// of one query): the only visit bound of the exploration. Non-owning;
  /// null means no visit cap (the exploration still ends: MaxActions and
  /// MaxSilentRun bound every path).
  Budget *Shared = nullptr;
  /// Inert: programTraceset explores the threads one after another in the
  /// calling thread. It stays because the frozen perfbench replay model
  /// still assigns it (the ROADMAP's "Frozen API" ground rule).
  unsigned Workers = 1;
};

struct ExploreStats {
  uint64_t Visited = 0;
  bool Truncated = false;
  /// Why the search was truncated (None when !Truncated).
  TruncationReason Reason = TruncationReason::None;

  void truncate(TruncationReason R) {
    Truncated = true;
    Reason = mergeReason(Reason, R);
  }
  void merge(const ExploreStats &Other) {
    Visited += Other.Visited;
    Truncated |= Other.Truncated;
    Reason = mergeReason(Reason, Other.Reason);
  }
};

/// Adds every trace thread \p Tid of \p P may issue — prefixed with
/// S(Tid) — to \p Out. Reads range over \p Domain, `input` over \p Inputs
/// (empty: \p Domain).
ExploreStats exploreThread(const Program &P, ThreadId Tid,
                           const std::vector<Value> &Domain, Traceset &Out,
                           ExploreLimits Limits = {},
                           const std::vector<Value> &Inputs = {});

/// [[P]]: the union over all threads, with the traceset's value domain set
/// to \p Domain. `input` statements draw from \p Inputs (empty: \p Domain).
Traceset programTraceset(const Program &P, const std::vector<Value> &Domain,
                         ExploreLimits Limits = {},
                         ExploreStats *Stats = nullptr,
                         const std::vector<Value> &Inputs = {});

/// Picks a value domain large enough for \p P: every constant mentioned by
/// the program plus the default value, padded with fresh values up to at
/// least \p MinSize. Using the constants that actually occur keeps
/// tracesets small without losing any SC behaviour of the program itself
/// (reads can only ever observe written constants or 0); the padding gives
/// wildcard-instantiation room for the transformation checkers.
std::vector<Value> defaultDomainFor(const Program &P, size_t MinSize = 2);

//===----------------------------------------------------------------------===//
// Program-level SC queries
//===----------------------------------------------------------------------===//

/// Bounds for the program-level SC queries. They map onto ExploreLimits
/// (the [[P]] build) and EnumerationLimits (the execution search); both
/// run sequentially.
struct ExecLimits {
  /// Values the environment may supply to `input` statements; empty means
  /// "use defaultDomainFor(P)". Reads range over these plus
  /// defaultDomainFor(P): with no arithmetic in the language, that covers
  /// every value a write can store.
  std::vector<Value> InputDomain{};
  /// Maximum actions per thread.
  size_t MaxActionsPerThread = 64;
  /// Maximum consecutive silent steps per thread (cuts silent loops).
  size_t MaxSilentRun = 512;
  /// The query budget, charged by the [[P]] build and the search alike:
  /// their only visit bound. Non-owning; null means no visit cap.
  Budget *Shared = nullptr;
  /// Search with the seed's sequential std::set-memoised enumerator
  /// instead of the interned reduced one (EnumerationLimits::
  /// ExhaustiveOracle): the independent reference the daemon degrades to.
  bool ExhaustiveOracle = false;
};

using ExecStats = ExploreStats;

/// [[P]] built once, ready for the SC queries below; the pair checks of
/// verify/Checks.h share one per program. The statistics of every query
/// include the build's.
class ScProgram {
public:
  ScProgram(const Program &P, const ExecLimits &Limits);

  /// The set of observable SC behaviours. Prefix-closed, includes the
  /// empty behaviour.
  std::set<Behaviour> behaviours(ExecStats *Stats = nullptr) const;

  /// §3 data race search (adjacent conflicting actions of different
  /// threads) over the SC executions.
  RaceReport race() const;

private:
  Traceset Meaning;
  ExecStats Built;
  EnumerationLimits Search;
};

/// The set of observable behaviours of \p P under sequential consistency.
/// Prefix-closed, includes the empty behaviour.
std::set<Behaviour> programBehaviours(const Program &P, ExecLimits Limits = {},
                                      ExecStats *Stats = nullptr);

/// §3 data race search over the program's SC executions.
RaceReport findProgramRace(const Program &P, ExecLimits Limits = {});

/// Tri-state DRF query over the program's SC executions: Proved (no race,
/// exhaustive), Refuted (race found, witness attached — definitive even
/// under truncation), or Unknown (search truncated).
Verdict<Interleaving> checkProgramDrf(const Program &P,
                                      ExecLimits Limits = {});

/// Convenience wrapper: true iff the program is *proved* race free. A
/// truncated search returns false (conservative "not proved"), never
/// asserts; use checkProgramDrf to distinguish Refuted from Unknown.
bool isProgramDrf(const Program &P, ExecLimits Limits = {});

} // namespace tracesafe

#endif // TRACESAFE_LANG_EXPLORE_H
