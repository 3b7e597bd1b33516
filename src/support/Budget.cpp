#include "support/Budget.h"

#include "support/Failure.h"

using namespace tracesafe;

const char *tracesafe::truncationReasonName(TruncationReason R) {
  switch (R) {
  case TruncationReason::None:
    return "none";
  case TruncationReason::StateCap:
    return "state-cap";
  case TruncationReason::DepthCap:
    return "depth-cap";
  case TruncationReason::SilentLoop:
    return "silent-loop";
  case TruncationReason::MemoryCap:
    return "memory-cap";
  case TruncationReason::Deadline:
    return "deadline";
  case TruncationReason::Cancelled:
    return "cancelled";
  case TruncationReason::EngineFault:
    return "engine-fault";
  }
  return "unknown";
}

bool Budget::checkInterrupts() {
  // Already on the cold path (once per 256 charges), so publishing the
  // live counters here costs the mirrored observer nothing on the hot
  // loop and bounds the heartbeat staleness by one check interval.
  if (MirrorVisited)
    MirrorVisited->store(MirrorVisitedBase + Visited,
                         std::memory_order_relaxed);
  if (MirrorBytes)
    MirrorBytes->store(MirrorBytesBase + Bytes_, std::memory_order_relaxed);
  if (Cancel && Cancel->requested()) {
    exhaust(TruncationReason::Cancelled);
    return false;
  }
  if (Deadline && std::chrono::steady_clock::now() >= *Deadline) {
    exhaust(TruncationReason::Deadline);
    return false;
  }
  if (faultPoint(FaultSite::BudgetCharge)) {
    exhaust(TruncationReason::EngineFault);
    return false;
  }
  return true;
}

const char *tracesafe::verdictKindName(VerdictKind K) {
  switch (K) {
  case VerdictKind::Proved:
    return "proved";
  case VerdictKind::Refuted:
    return "refuted";
  case VerdictKind::Unknown:
    return "unknown";
  }
  return "invalid";
}

std::string BudgetSpec::str() const {
  std::string Out = "{";
  Out += "deadline=" +
         (DeadlineMs > 0 ? std::to_string(DeadlineMs) + "ms"
                         : std::string("none"));
  Out += ", states=" +
         (MaxVisited ? std::to_string(MaxVisited) : std::string("unlimited"));
  Out += ", mem=" + (MaxMemoryBytes ? std::to_string(MaxMemoryBytes) + "B"
                                    : std::string("unlimited"));
  Out += "}";
  return Out;
}

BudgetSpec tracesafe::remainingBudget(const BudgetSpec &Spec,
                                      const Budget &Used) {
  BudgetSpec Out = Spec;
  if (Spec.DeadlineMs > 0) {
    int64_t Left = Spec.DeadlineMs - Used.elapsedMs();
    Out.DeadlineMs = Left > 0 ? Left : 1;
  }
  if (Spec.MaxVisited > 0) {
    uint64_t V = Used.visited();
    Out.MaxVisited = V < Spec.MaxVisited ? Spec.MaxVisited - V : 1;
  }
  return Out;
}

std::string Budget::describe() const {
  std::string Out = "visited " + std::to_string(Visited) + " states, " +
                    std::to_string(Bytes_) + "B charged, " +
                    std::to_string(elapsedMs()) + "ms elapsed";
  if (exhausted())
    Out += std::string(" (exhausted: ") + truncationReasonName(Exhausted) +
           ")";
  return Out;
}
