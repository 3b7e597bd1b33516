//===----------------------------------------------------------------------===//
///
/// \file
/// Unified resource budgets and tri-state verdicts for the verification
/// harness.
///
/// Every exhaustive search in the library (traceset generation, execution
/// enumeration, the SC and TSO/PSO machines, the transformation checkers)
/// is exponential in the worst case. A Budget bounds a whole *query* — not
/// one engine — with a wall-clock deadline, a state-visit cap and an
/// approximate memory cap, shared cooperatively by every engine the query
/// touches. It is the only visit bound of every search: no engine has a
/// cap of its own, so a search without a budget has no visit cap. The
/// transformation checkers charge visits only, so the memory cap does not
/// cover them. When a budget is exhausted the engines stop and report a
/// structured TruncationReason; callers surface the query result as a
/// Verdict whose Unknown state carries that reason, never as a wrong or
/// asserted-away answer.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_BUDGET_H
#define TRACESAFE_SUPPORT_BUDGET_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace tracesafe {

/// Why a search stopped early. None means the search ran to completion.
enum class TruncationReason : uint8_t {
  None,
  StateCap,    ///< the query budget's visit cap reached
  DepthCap,    ///< per-trace/per-thread action bound reached
  SilentLoop,  ///< a thread exceeded its silent-step allowance
  MemoryCap,   ///< approximate memory charge exceeded the budget
  Deadline,    ///< wall-clock deadline passed
  Cancelled,   ///< external cancellation (signal, kill, shutdown)
  EngineFault, ///< an engine faulted (exception, injected failure) and the
               ///< query was contained instead of crashing the process
};

/// Printable reason name ("deadline", "state-cap", ...).
const char *truncationReasonName(TruncationReason R);

/// Merges two reasons, preferring the more specific (non-None) one. Used
/// when a query aggregates several engine runs.
inline TruncationReason mergeReason(TruncationReason A, TruncationReason B) {
  return A == TruncationReason::None ? B : A;
}

/// Cooperative cancellation flag. A token is requested exactly once (by a
/// signal handler, a watchdog, or a parent query) and observed by every
/// Budget it is attached to: the next charge() clock check turns into a
/// sticky Cancelled exhaustion, so all engines of the query unwind within
/// one budget check interval. request() is async-signal-safe when
/// std::atomic<bool> is lock-free (it is on every supported target).
class CancelToken {
public:
  void request() { Flag.store(true, std::memory_order_relaxed); }
  bool requested() const { return Flag.load(std::memory_order_relaxed); }
  /// Re-arms the token (between campaign phases; not thread-safe against
  /// concurrent request()).
  void reset() { Flag.store(false, std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

/// Declarative description of a budget. Zero means "unlimited" for every
/// field, so BudgetSpec{} never truncates anything by itself.
struct BudgetSpec {
  /// Wall-clock deadline in milliseconds from the budget's creation.
  int64_t DeadlineMs = 0;
  /// Cap on state visits charged across all engines of the query.
  uint64_t MaxVisited = 0;
  /// Cap on approximate bytes charged (memoisation tables dominate).
  uint64_t MaxMemoryBytes = 0;

  std::string str() const;
};

/// A live budget: the mutable counterpart of a BudgetSpec. Engines call
/// charge() once per state expansion; the call is cheap (the clock is only
/// consulted every few hundred charges). A Budget is shared by address —
/// the limit structs of the engines carry a non-owning pointer — so the
/// caps apply to the query as a whole, not per engine. Exhaustion is
/// sticky, so every engine of the query observes it on its next charge.
///
/// A query runs on one thread, and only that thread touches its Budget:
/// the counters are plain members. Other threads reach a running query
/// only through the CancelToken (observed on the slow path) and read its
/// progress only through the mirrorInto() atomics (published there).
class Budget {
public:
  explicit Budget(const BudgetSpec &Spec,
                  const CancelToken *Cancel = nullptr)
      : Spec(Spec), Start(std::chrono::steady_clock::now()),
        Cancel(Cancel) {
    if (Spec.DeadlineMs > 0)
      Deadline = Start + std::chrono::milliseconds(Spec.DeadlineMs);
  }
  /// Engines hold a Budget by address for the whole query.
  Budget(const Budget &) = delete;
  Budget &operator=(const Budget &) = delete;

  /// Charges one state visit plus \p Bytes of approximate memory. Returns
  /// true while the budget has headroom; once it returns false it keeps
  /// returning false (exhaustion is sticky) so deeply recursive searches
  /// unwind promptly.
  bool charge(uint64_t Bytes = 0) {
    if (Exhausted != TruncationReason::None)
      return false;
    uint64_t V = ++Visited;
    Bytes_ += Bytes;
    if (Spec.MaxVisited && V > Spec.MaxVisited) {
      exhaust(TruncationReason::StateCap);
      return false;
    }
    if (Spec.MaxMemoryBytes && Bytes_ > Spec.MaxMemoryBytes) {
      exhaust(TruncationReason::MemoryCap);
      return false;
    }
    // Consult the clock (and the cancel token, and the fault plan) only
    // every 256 charges: state expansion is far cheaper than a
    // syscall-free clock read, and deadlines are advisory to
    // ~milliseconds anyway. This interval is the cancellation latency
    // bound: a requested token is observed within 256 charges.
    if ((V & 0xFF) == 0 && !checkInterrupts())
      return false;
    return true;
  }

  /// Bulk charge: \p Visits state visits plus \p Bytes of memory in one
  /// call. Used when a cached result is replayed — the cache replays the
  /// recorded cost of the original computation against the current
  /// query's budget, so a cache hit truncates a tight budget exactly
  /// where the recomputation would have (warmth must not change
  /// verdicts). Checks the clock/cancel token unconditionally: bulk
  /// charges are rare.
  bool chargeMany(uint64_t Visits, uint64_t Bytes) {
    if (Exhausted != TruncationReason::None)
      return false;
    Visited += Visits;
    Bytes_ += Bytes;
    if (Spec.MaxVisited && Visited > Spec.MaxVisited) {
      exhaust(TruncationReason::StateCap);
      return false;
    }
    if (Spec.MaxMemoryBytes && Bytes_ > Spec.MaxMemoryBytes) {
      exhaust(TruncationReason::MemoryCap);
      return false;
    }
    return checkInterrupts();
  }

  /// Charges memory only, without consuming a state visit. Used by the
  /// interned-state containers, which charge their real allocation sizes
  /// as they grow rather than a per-entry guess. Container growth is rare
  /// (geometric), so unlike charge() this consults the deadline and the
  /// cancel token on every call — a memory-only growth phase (an
  /// InternPool rehash storm) must not run past the wall clock just
  /// because no state visit was charged.
  bool chargeBytes(uint64_t Bytes) {
    if (Exhausted != TruncationReason::None)
      return false;
    Bytes_ += Bytes;
    if (Spec.MaxMemoryBytes && Bytes_ > Spec.MaxMemoryBytes) {
      exhaust(TruncationReason::MemoryCap);
      return false;
    }
    return checkInterrupts();
  }

  /// Marks the budget exhausted with \p R (first writer wins, like any
  /// other exhaustion). Used to contain engine faults: every engine of
  /// the query observes the sticky flag on its next charge and unwinds.
  /// Called on the query's own thread; other threads cancel through the
  /// CancelToken instead.
  void poison(TruncationReason R) { exhaust(R); }

  /// Attaches live-progress mirrors: the existing every-256-charges slow
  /// path additionally publishes Base + the running counters into the
  /// given atomics, so an observer (the daemon's heartbeat tick) can
  /// sample a query's progress without touching the hot charge path. The
  /// bases let a multi-budget query (campaigns, oracle fallback) publish
  /// cumulative totals. The atomics must outlive the budget; either
  /// pointer may be null.
  void mirrorInto(std::atomic<uint64_t> *VisitedOut, uint64_t VisitedBase,
                  std::atomic<uint64_t> *BytesOut, uint64_t BytesBase) {
    MirrorVisited = VisitedOut;
    MirrorVisitedBase = VisitedBase;
    MirrorBytes = BytesOut;
    MirrorBytesBase = BytesBase;
  }

  bool exhausted() const { return Exhausted != TruncationReason::None; }
  TruncationReason reason() const { return Exhausted; }
  uint64_t visited() const { return Visited; }
  uint64_t chargedBytes() const { return Bytes_; }
  const BudgetSpec &spec() const { return Spec; }

  /// Milliseconds since the budget was created.
  int64_t elapsedMs() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }

  /// One-line human-readable usage summary.
  std::string describe() const;

private:
  /// First writer wins; later exhaustion reasons do not overwrite it.
  void exhaust(TruncationReason R) {
    if (Exhausted == TruncationReason::None)
      Exhausted = R;
  }

  /// Slow-path check shared by charge()/chargeBytes(): wall-clock
  /// deadline, cooperative cancellation, and the BudgetCharge fault-
  /// injection site. Returns false (after exhausting) when the query must
  /// stop. Out of line so the hot header does not pull in Failure.h.
  bool checkInterrupts();

  BudgetSpec Spec;
  std::chrono::steady_clock::time_point Start;
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  const CancelToken *Cancel = nullptr;
  uint64_t Visited = 0;
  uint64_t Bytes_ = 0;
  TruncationReason Exhausted = TruncationReason::None;
  std::atomic<uint64_t> *MirrorVisited = nullptr;
  std::atomic<uint64_t> *MirrorBytes = nullptr;
  uint64_t MirrorVisitedBase = 0;
  uint64_t MirrorBytesBase = 0;
};

/// The budget left over after \p Used ran under \p Spec: remaining wall
/// clock and remaining visits, floored at 1 so the result stays *bounded*
/// (0 means unlimited in BudgetSpec). The memory cap carries over
/// unreduced — the faulted attempt's tables are freed before the fallback
/// starts, so its charge is not actually occupied. The daemon runs its
/// oracle fallback for a faulted query under this budget.
BudgetSpec remainingBudget(const BudgetSpec &Spec, const Budget &Used);

/// Tri-state result of a verification query.
enum class VerdictKind : uint8_t {
  Proved,  ///< the property holds; the search was exhaustive
  Refuted, ///< a definitive counterexample was found
  Unknown, ///< the search was truncated before an answer was reached
};

const char *verdictKindName(VerdictKind K);

/// A verdict with an optional counterexample payload. Refuted verdicts are
/// definitive even under truncation (a witness is a witness); Proved
/// verdicts are only produced by exhaustive searches; Unknown carries the
/// truncation reason.
template <typename T> struct Verdict {
  VerdictKind Kind = VerdictKind::Unknown;
  std::optional<T> Witness; ///< populated when Refuted
  TruncationReason Reason = TruncationReason::None;

  static Verdict proved() { return Verdict{VerdictKind::Proved, {}, {}}; }
  static Verdict refuted(T W) {
    return Verdict{VerdictKind::Refuted, std::move(W),
                   TruncationReason::None};
  }
  static Verdict unknown(TruncationReason R) {
    return Verdict{VerdictKind::Unknown, {}, R};
  }

  bool isProved() const { return Kind == VerdictKind::Proved; }
  bool isRefuted() const { return Kind == VerdictKind::Refuted; }
  bool isUnknown() const { return Kind == VerdictKind::Unknown; }
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_BUDGET_H
