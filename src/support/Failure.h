//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the verification engines.
///
/// The robustness contract — "never a silently wrong answer" — is only
/// testable if faults can be *made to happen on demand*. A FaultPlan arms
/// a small set of well-known failure sites (allocation in the intern
/// pools, fuzz job threads that fail or stall at start, spurious budget
/// exhaustion) with per-site hit counters: the fault fires on the
/// Nth hit of its site and the Plan records how often it fired, so a
/// failing run replays exactly from (plan, seed) in sequential mode.
///
/// Sites are compiled in unconditionally but cost one relaxed atomic load
/// when no plan is installed. Installation is process-global and meant
/// for tests and the fuzz harness's --chaos mode, not for production
/// queries; the plan must outlive every query that can hit a site.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_FAILURE_H
#define TRACESAFE_SUPPORT_FAILURE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tracesafe {

/// The instrumented failure sites.
enum class FaultSite : uint8_t {
  InternAlloc,    ///< InternPool::intern throws std::bad_alloc
  TaskRun,        ///< a fuzz job thread throws before claiming a program
  TaskStall,      ///< a fuzz job thread sleeps StallMs before claiming
  BudgetCharge,   ///< Budget::charge spuriously exhausts with EngineFault
  BehaviourCache, ///< BehaviourCache lookup/insert throws InjectedFault
  BufferedIntern, ///< BufferedEngine state interning throws std::bad_alloc
  BufferedDrain,  ///< BufferedEngine drain step throws InjectedFault
  ProtoRead,      ///< daemon protocol read fails mid-frame
  ProtoWrite,     ///< daemon protocol write fails mid-frame
  Accept,         ///< daemon accept loop drops an incoming connection
  Admission,      ///< daemon admission control spuriously sheds a request
  RaceDetect,     ///< racelog detect loop throws InjectedFault mid-scan
  Canonicalise,   ///< query canonicaliser throws InjectedFault mid-rename
  Count_,
};

constexpr size_t FaultSiteCount = static_cast<size_t>(FaultSite::Count_);

/// Printable site name ("intern-alloc", "task-run", ...).
const char *faultSiteName(FaultSite S);

/// The exception thrown at TaskRun sites (and usable by tests to tell an
/// injected fault from a genuine engine bug).
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(FaultSite S)
      : std::runtime_error(std::string("injected fault at ") +
                           faultSiteName(S)),
        Site(S) {}
  FaultSite Site;
};

/// A deterministic schedule of failures. Each armed site carries a
/// trigger count (fire on the Nth hit, 1-based), a repeat count (how many
/// consecutive hits fire starting there) and, for stall sites, a stall
/// duration. Hit counters are atomic so the plan is safe to consult from
/// concurrent query threads; exact replay of *which query* faults is
/// guaranteed only when queries run one at a time (with concurrent
/// queries the hit order is scheduling-dependent, which is precisely what
/// the chaos mode wants to shake out).
class FaultPlan {
public:
  struct SiteArm {
    uint64_t FireAt = 0;  ///< 1-based hit index; 0 = site disabled
    uint64_t Repeat = 1;  ///< number of consecutive firing hits
    unsigned StallMs = 0; ///< TaskStall only
  };

  FaultPlan() = default;

  /// Arms \p S to fire on hit \p FireAt (1-based) for \p Repeat hits.
  void arm(FaultSite S, uint64_t FireAt, uint64_t Repeat = 1,
           unsigned StallMs = 0);

  /// Re-arms this plan as a seeded random plan for chaos runs: one to
  /// three sites with small trigger counts so faults land inside a short
  /// campaign. In place because the hit counters are atomics (the plan is
  /// neither copyable nor movable); also resets the counters. Draws from
  /// the original engine-side campaign sites only (intern, task, budget,
  /// cache) so chaos plans replay identically across releases that add
  /// new sites; daemon transports arm randomizeDaemon instead.
  void randomize(uint64_t Seed);

  /// Seeded random plan over the daemon sites (protocol read/write,
  /// accept, admission) plus the BufferedEngine search sites, used by
  /// `tracesafed --fault-seed` and the client retry tests. Trigger counts
  /// are tuned so a short daemon batch actually reaches them.
  void randomizeDaemon(uint64_t Seed);

  /// Disarms every site and resets the counters.
  void reset();

  /// Consults (and advances) the hit counter of \p S. True iff the fault
  /// fires on this hit.
  bool shouldFire(FaultSite S);

  /// Stall duration for TaskStall firings.
  unsigned stallMs() const {
    return Arms[static_cast<size_t>(FaultSite::TaskStall)].StallMs;
  }

  uint64_t hits(FaultSite S) const {
    return Hits[static_cast<size_t>(S)].load(std::memory_order_relaxed);
  }
  uint64_t fired(FaultSite S) const {
    return Fired[static_cast<size_t>(S)].load(std::memory_order_relaxed);
  }
  uint64_t totalFired() const;

  /// One-line description of the armed sites ("intern-alloc@3x1, ...").
  std::string describe() const;

  /// Installs \p Plan as the process-global plan consulted by every site
  /// (nullptr uninstalls). The caller keeps ownership; the plan must stay
  /// alive until uninstalled. Returns the previously installed plan.
  static FaultPlan *install(FaultPlan *Plan);
  static FaultPlan *active();

  /// RAII install/uninstall for tests.
  struct Scope {
    explicit Scope(FaultPlan &P) : Prev(install(&P)) {}
    ~Scope() { install(Prev); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    FaultPlan *Prev;
  };

private:
  std::array<SiteArm, FaultSiteCount> Arms{};
  std::array<std::atomic<uint64_t>, FaultSiteCount> Hits{};
  std::array<std::atomic<uint64_t>, FaultSiteCount> Fired{};
};

/// The hook the instrumented sites call: false (after one relaxed load)
/// when no plan is installed, otherwise the plan's verdict for this hit.
bool faultPoint(FaultSite S);

/// Throwing variants used at the exception sites.
void faultThrowBadAlloc(FaultSite S);  ///< throws std::bad_alloc on fire
void faultThrowInjected(FaultSite S);  ///< throws InjectedFault on fire

/// Sleeps for the active plan's stall duration when the site fires.
void faultMaybeStall(FaultSite S);

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_FAILURE_H
