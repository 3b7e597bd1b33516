#include "support/Failure.h"

#include <chrono>
#include <new>
#include <thread>

using namespace tracesafe;

namespace {

std::atomic<FaultPlan *> ActivePlan{nullptr};

/// SplitMix64: decorrelates the per-site trigger counts of random plans.
uint64_t mix64(uint64_t Z) {
  Z += 0x9E3779B97F4A7C15ULL;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

} // namespace

const char *tracesafe::faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::InternAlloc:
    return "intern-alloc";
  case FaultSite::TaskRun:
    return "task-run";
  case FaultSite::TaskStall:
    return "task-stall";
  case FaultSite::BudgetCharge:
    return "budget-charge";
  case FaultSite::BehaviourCache:
    return "behaviour-cache";
  case FaultSite::BufferedIntern:
    return "buffered-intern";
  case FaultSite::BufferedDrain:
    return "buffered-drain";
  case FaultSite::ProtoRead:
    return "proto-read";
  case FaultSite::ProtoWrite:
    return "proto-write";
  case FaultSite::Accept:
    return "accept";
  case FaultSite::Admission:
    return "admission";
  case FaultSite::RaceDetect:
    return "race-detect";
  case FaultSite::Canonicalise:
    return "canonicalise";
  case FaultSite::Count_:
    break;
  }
  return "invalid";
}

void FaultPlan::arm(FaultSite S, uint64_t FireAt, uint64_t Repeat,
                    unsigned StallMs) {
  SiteArm &A = Arms[static_cast<size_t>(S)];
  A.FireAt = FireAt;
  A.Repeat = Repeat ? Repeat : 1;
  A.StallMs = StallMs;
}

void FaultPlan::reset() {
  for (size_t I = 0; I < FaultSiteCount; ++I) {
    Arms[I] = SiteArm{};
    Hits[I].store(0, std::memory_order_relaxed);
    Fired[I].store(0, std::memory_order_relaxed);
  }
}

void FaultPlan::randomize(uint64_t Seed) {
  reset();
  // The campaign sites predate the daemon/engine extensions; drawing from
  // this fixed list (in enum order) keeps (seed -> plan) stable for the
  // recorded chaos seeds even as new sites are appended to the enum.
  static constexpr FaultSite CampaignSites[] = {
      FaultSite::InternAlloc, FaultSite::TaskRun, FaultSite::TaskStall,
      FaultSite::BudgetCharge, FaultSite::BehaviourCache};
  constexpr size_t NumCampaignSites =
      sizeof(CampaignSites) / sizeof(CampaignSites[0]);
  uint64_t Z = Seed;
  auto Next = [&Z] { return Z = mix64(Z); };
  // Arm one to three distinct sites. Trigger counts are kept small enough
  // that a short chaos campaign actually reaches them: the intern pools
  // and budgets see thousands of hits per campaign, the task sites tens.
  unsigned Sites = 1 + static_cast<unsigned>(Next() % 3);
  for (unsigned I = 0; I < Sites; ++I) {
    FaultSite S = CampaignSites[Next() % NumCampaignSites];
    uint64_t Repeat = 1 + Next() % 3;
    switch (S) {
    case FaultSite::InternAlloc:
      arm(S, 1 + Next() % 2'000, Repeat);
      break;
    case FaultSite::BudgetCharge:
      // The interrupt check (and thus this site) is probed once per 256
      // budget charges, so a short campaign only reaches O(100) hits.
      arm(S, 1 + Next() % 150, Repeat);
      break;
    case FaultSite::TaskRun:
      arm(S, 1 + Next() % 6, Repeat);
      break;
    case FaultSite::TaskStall: {
      uint64_t FireAt = 1 + Next() % 6;
      arm(S, FireAt, Repeat,
          /*StallMs=*/1 + static_cast<unsigned>(Next() % 20));
      break;
    }
    case FaultSite::BehaviourCache:
      // A fuzz campaign probes the cache a handful of times per program,
      // so the trigger must land within tens of hits.
      arm(S, 1 + Next() % 50, Repeat);
      break;
    default:
      break;
    }
  }
}

void FaultPlan::randomizeDaemon(uint64_t Seed) {
  reset();
  static constexpr FaultSite DaemonSites[] = {
      FaultSite::ProtoRead,      FaultSite::ProtoWrite,
      FaultSite::Accept,         FaultSite::Admission,
      FaultSite::BufferedIntern, FaultSite::BufferedDrain};
  constexpr size_t NumDaemonSites =
      sizeof(DaemonSites) / sizeof(DaemonSites[0]);
  uint64_t Z = mix64(Seed ^ 0xDAE110ULL);
  auto Next = [&Z] { return Z = mix64(Z); };
  unsigned Sites = 1 + static_cast<unsigned>(Next() % 3);
  for (unsigned I = 0; I < Sites; ++I) {
    FaultSite S = DaemonSites[Next() % NumDaemonSites];
    uint64_t Repeat = 1 + Next() % 3;
    switch (S) {
    case FaultSite::ProtoRead:
    case FaultSite::ProtoWrite:
      // A small batch moves tens of frames; land inside it.
      arm(S, 1 + Next() % 20, Repeat);
      break;
    case FaultSite::Accept:
    case FaultSite::Admission:
      // Accepts and admissions are one per connection / request.
      arm(S, 1 + Next() % 6, Repeat);
      break;
    case FaultSite::BufferedIntern:
      // The buffered search interns a state and its events per visit;
      // even a small TSO query racks up thousands of hits.
      arm(S, 1 + Next() % 2'000, Repeat);
      break;
    case FaultSite::BufferedDrain:
      arm(S, 1 + Next() % 50, Repeat);
      break;
    default:
      break;
    }
  }
}

bool FaultPlan::shouldFire(FaultSite S) {
  size_t I = static_cast<size_t>(S);
  const SiteArm &A = Arms[I];
  if (A.FireAt == 0)
    return false;
  uint64_t Hit = Hits[I].fetch_add(1, std::memory_order_relaxed) + 1;
  // Overflow-safe window test: Repeat may be ~0 ("fire forever").
  if (Hit < A.FireAt || Hit - A.FireAt >= A.Repeat)
    return false;
  Fired[I].fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint64_t FaultPlan::totalFired() const {
  uint64_t N = 0;
  for (const auto &F : Fired)
    N += F.load(std::memory_order_relaxed);
  return N;
}

std::string FaultPlan::describe() const {
  std::string Out;
  for (size_t I = 0; I < FaultSiteCount; ++I) {
    const SiteArm &A = Arms[I];
    if (A.FireAt == 0)
      continue;
    if (!Out.empty())
      Out += ", ";
    Out += std::string(faultSiteName(static_cast<FaultSite>(I))) + "@" +
           std::to_string(A.FireAt) + "x" + std::to_string(A.Repeat);
    if (A.StallMs)
      Out += "(" + std::to_string(A.StallMs) + "ms)";
  }
  return Out.empty() ? "none" : Out;
}

FaultPlan *FaultPlan::install(FaultPlan *Plan) {
  return ActivePlan.exchange(Plan, std::memory_order_acq_rel);
}

FaultPlan *FaultPlan::active() {
  return ActivePlan.load(std::memory_order_acquire);
}

bool tracesafe::faultPoint(FaultSite S) {
  FaultPlan *Plan = FaultPlan::active();
  return Plan && Plan->shouldFire(S);
}

void tracesafe::faultThrowBadAlloc(FaultSite S) {
  if (faultPoint(S))
    throw std::bad_alloc();
}

void tracesafe::faultThrowInjected(FaultSite S) {
  if (faultPoint(S))
    throw InjectedFault(S);
}

void tracesafe::faultMaybeStall(FaultSite S) {
  FaultPlan *Plan = FaultPlan::active();
  if (Plan && Plan->shouldFire(S))
    std::this_thread::sleep_for(std::chrono::milliseconds(Plan->stallMs()));
}
