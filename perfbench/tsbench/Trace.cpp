#include "Trace.h"

#include "Check.h"
#include "Daemon.h"

#include "daemon/Server.h"
#include "lang/Explore.h"
#include "lang/Parser.h"
#include "racelog/Detect.h"
#include "trace/Enumerate.h"
#include "verify/Canonical.h"
#include "verify/Checks.h"

#include <chrono>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace tsbench {
namespace {

using Clock = std::chrono::steady_clock;

double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Runs \p Fn, appending its duration to \p Into and to \p Total.
template <typename F> auto span(std::vector<double> &Into, double &Total, F &&Fn) {
  Clock::time_point T0 = Clock::now();
  auto Result = Fn();
  double Us = usBetween(T0, Clock::now());
  Into.push_back(Us);
  Total += Us;
  return Result;
}

VerdictKind outcomeVerdict(GuaranteeOutcome O) {
  return O == GuaranteeOutcome::Holds      ? VerdictKind::Proved
         : O == GuaranteeOutcome::Violated ? VerdictKind::Refuted
                                           : VerdictKind::Unknown;
}

QueryResponse badRequest(std::string Detail) {
  QueryResponse R;
  R.Status = ResponseStatus::BadRequest;
  R.Detail = std::move(Detail);
  return R;
}

/// evaluateQuery's primary path for one RaceLog query, spanned.
QueryResponse tracedRaceLog(const QueryRequest &Q, LayerSpans &S,
                            double &Spanned) {
  Budget B(clampBudget(Q.Budget, QuotaCeiling));
  racelog::RaceLogOptions O;
  O.Epochs = true;
  O.Shards = 4;
  O.Workers = 1;
  O.Shared = &B;
  racelog::RaceLogReport Rep =
      span(S.Scan, Spanned, [&] { return racelog::scanRaceLog(Q.Program, O); });
  S.ScanBytes += Q.Program.size();
  if (!Rep.FormatOk)
    return badRequest("bad log: " + Rep.FormatError);
  QueryResponse R;
  R.Status = ResponseStatus::Ok;
  R.Kind = Rep.verdict();
  if (Rep.Stats.Truncated)
    R.Reason = Rep.Stats.Reason;
  R.Detail = Rep.str();
  R.Visited = B.visited();
  return R;
}

/// evaluateQuery's primary path for one program query, spanned at every
/// layer call.
QueryResponse tracedProgram(const QueryRequest &Q, LayerSpans &S,
                            double &Spanned) {
  const bool Pair =
      Q.Kind == QueryKind::DrfGuarantee || Q.Kind == QueryKind::ThinAir;
  ParseResult O, T;
  span(S.Parse, Spanned, [&] {
    O = parseProgram(Q.Program);
    if (Pair)
      T = parseProgram(Q.Transformed);
    return 0;
  });
  if (!O)
    return badRequest("parse error (program): " + O.Error);
  if (Pair && !T)
    return badRequest("parse error (transformed): " + T.Error);
  BudgetSpec Spec = clampBudget(Q.Budget, QuotaCeiling);
  std::string Key = span(S.Canonical, Spanned, [&] {
    return canonicalQueryKey(static_cast<uint8_t>(Q.Kind), Q.Program,
                             Q.Transformed, Spec);
  });
  BehaviourCache &Cache = BehaviourCache::global();
  Budget B(Spec);
  QueryResponse R;
  R.Status = ResponseStatus::Ok;
  std::optional<BehaviourCache::CachedQuery> Hit =
      span(S.Probe, Spanned, [&] { return Cache.queryFor(Key, &B); });
  if (Hit) {
    R.Kind = Hit->Kind;
    R.Reason = Hit->Reason;
    R.Detail = Hit->Detail;
    R.Visited = B.visited();
    return R;
  }
  switch (Q.Kind) {
  case QueryKind::ProgramDrf:
  case QueryKind::Behaviours: {
    std::vector<Value> Domain = defaultDomainFor(*O.Prog, 2);
    ExploreLimits XL;
    XL.Shared = &B;
    XL.Workers = 1;
    ExploreStats XS;
    std::shared_ptr<const Traceset> TS = span(S.Traceset, Spanned, [&] {
      return Cache.tracesetFor(*O.Prog, Domain, XL, &XS);
    });
    S.TracesetVisited += XS.Visited;
    if (XS.Truncated) {
      R.Kind = VerdictKind::Unknown;
      R.Reason = XS.Reason;
      break;
    }
    EnumerationLimits EL;
    EL.Shared = &B;
    EL.Workers = 1;
    if (Q.Kind == QueryKind::ProgramDrf) {
      uint64_t V0 = B.visited();
      Verdict<Interleaving> V =
          span(S.Drf, Spanned, [&] { return Cache.drfFor(*TS, EL); });
      S.TraceVisited += B.visited() - V0;
      R.Kind = V.Kind;
      R.Reason = V.Reason;
      R.Detail = V.isProved() ? "data-race-free" : V.isRefuted() ? "race" : "";
      break;
    }
    EnumerationStats ES;
    std::set<Behaviour> Set = span(S.Behaviours, Spanned, [&] {
      return Cache.behavioursFor(*TS, EL, &ES);
    });
    S.TraceVisited += ES.Visited;
    if (ES.Truncated) {
      R.Kind = VerdictKind::Unknown;
      R.Reason = ES.Reason;
      break;
    }
    R.Kind = VerdictKind::Proved;
    R.Detail = renderBehaviours(Set);
    break;
  }
  case QueryKind::DrfGuarantee: {
    ExecLimits E;
    E.Shared = &B;
    DrfGuaranteeReport Rep = span(S.Checks, Spanned, [&] {
      return checkDrfGuarantee(*O.Prog, *T.Prog, E);
    });
    R.Kind = outcomeVerdict(Rep.outcome());
    if (R.Kind == VerdictKind::Unknown)
      R.Reason = Rep.Reason;
    R.Detail = std::string("orig-drf=") + (Rep.OriginalDrf ? "1" : "0") +
               " trans-drf=" + (Rep.TransformedDrf ? "1" : "0") +
               " preserved=" + (Rep.BehavioursPreserved ? "1" : "0");
    break;
  }
  case QueryKind::ThinAir: {
    Value C = 0;
    ThinAirReport Rep = span(S.Checks, Spanned, [&] {
      C = freshConstantFor(*O.Prog);
      ExecLimits E;
      E.Shared = &B;
      ExploreLimits XL;
      XL.Shared = &B;
      XL.Workers = 1;
      return checkThinAir(*O.Prog, *T.Prog, C, E, XL);
    });
    R.Kind = outcomeVerdict(Rep.outcome());
    if (R.Kind == VerdictKind::Unknown)
      R.Reason = Rep.Reason;
    R.Detail = "c=" + std::to_string(C) +
               " outputs=" + (Rep.TransformedOutputs ? "1" : "0") +
               " origin=" + (Rep.TransformedHasOrigin ? "1" : "0");
    break;
  }
  default:
    return badRequest("unknown query kind");
  }
  R.Visited = B.visited();
  if (R.Kind != VerdictKind::Unknown && !B.exhausted()) {
    BehaviourCache::CachedQuery E;
    E.Kind = R.Kind;
    E.Reason = R.Reason;
    E.Detail = R.Detail;
    E.CostVisits = R.Visited;
    E.CostBytes = B.chargedBytes();
    span(S.Insert, Spanned, [&] {
      Cache.insertQuery(Key, std::move(E));
      return 0;
    });
  }
  return R;
}

/// A Submit frame as the daemon receives it: encoded and framed by the
/// client, decoded by the server. The daemon evaluates the decoded copy,
/// right after its decoder has read every byte of it, and so do both
/// replays.
QueryRequest overTheWire(const QueryRequest &Q, uint64_t Id,
                         uint64_t &WireBytes) {
  Frame F;
  F.Type = FrameType::Submit;
  F.RequestId = Id;
  F.Payload = encodeSubmit(Q);
  std::string Wire = encodeFrame(F);
  WireBytes += Wire.size();
  Frame In;
  QueryRequest Decoded;
  if (decodeFrame(Wire, In) != DecodeStatus::Ok ||
      !decodeSubmit(In.Payload, Decoded))
    throw std::logic_error("submit frame does not round-trip");
  return Decoded;
}

/// The Protocol codec a query pays on the wire: Submit encoded by the
/// client and decoded by the server, Verdict encoded by the server and
/// decoded by the client.
struct Codec {
  LayerSpans &S;
  uint64_t Id = 0;
  double Us = 0;

  QueryRequest submit(const QueryRequest &Q) {
    Clock::time_point T0 = Clock::now();
    QueryRequest Decoded = overTheWire(Q, ++Id, S.WireBytes);
    Us = usBetween(T0, Clock::now());
    return Decoded;
  }

  void verdict(const QueryResponse &R) {
    Clock::time_point T0 = Clock::now();
    Frame F;
    F.Type = FrameType::Verdict;
    F.RequestId = Id;
    F.Payload = encodeResponse(R);
    std::string Wire = encodeFrame(F);
    S.WireBytes += Wire.size();
    Frame In;
    QueryResponse Decoded;
    if (decodeFrame(Wire, In) != DecodeStatus::Ok ||
        !decodeResponse(In.Payload, Decoded))
      throw std::logic_error("verdict frame does not round-trip");
    S.Codec.push_back(Us + usBetween(T0, Clock::now()));
  }
};

/// Empties the process cache and brings it to the state a daemon has
/// when its timed phase starts: warm and lazy queries answered.
void resetCache(const Workload &W) {
  BehaviourCache::global().clear();
  for (const std::vector<uint32_t> *L : {&W.Warm, &W.Lazy})
    for (uint32_t Index : *L)
      evaluateQuery(W.Queries[Index].Req, QuotaCeiling);
}

} // namespace

InProcessResult replayInProcess(const Workload &W, double Seconds) {
  InProcessResult Out;
  auto Query = [&W](size_t N) -> const QueryRequest & {
    return W.Queries[W.Stream[N % W.Stream.size()]].Req;
  };
  // Replay A: the evaluator itself, untraced. One evaluation of stream
  // entry N, returning its time and answer.
  uint64_t ScratchBytes = 0;
  auto Evaluate = [&](size_t N) {
    QueryRequest Q = overTheWire(Query(N), N, ScratchBytes);
    Clock::time_point T0 = Clock::now();
    QueryResponse R = evaluateQuery(Q, QuotaCeiling);
    return std::make_pair(usBetween(T0, Clock::now()), R.str());
  };
  // A runs over the stream prefix it gets through in Seconds, and again
  // after B (A2); each query's evaluator time is the mean of the two, so
  // warm-up and drift weigh on both sides of the comparison alike.
  std::vector<std::string> Answers;
  resetCache(W);
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  for (size_t N = 0; Clock::now() < Deadline; ++N) {
    auto [Us, Answer] = Evaluate(N);
    Out.EvaluateUs.push_back(Us);
    Out.FirstEvalUs += Us;
    Answers.push_back(std::move(Answer));
  }
  Out.Replayed = Answers.size();
  auto Mismatch = [&](size_t N, const std::string &What,
                      const std::string &Got) {
    ++Out.Mismatches;
    if (Out.Notes.size() < 4)
      Out.Notes.push_back(What + " of stream entry " + std::to_string(N) +
                          " answered '" + Got + "', the first evaluation '" +
                          Answers[N] + "'");
  };

  // Replay B: the same queries through the layers, spanned.
  resetCache(W);
  BehaviourCache::CacheStats Before = BehaviourCache::global().stats();
  Codec Wire{Out.Spans};
  for (size_t N = 0; N < Out.Replayed; ++N) {
    QueryRequest Q = Wire.submit(Query(N));
    Clock::time_point T0 = Clock::now();
    QueryResponse R;
    try {
      R = Q.Kind == QueryKind::RaceLog
              ? tracedRaceLog(Q, Out.Spans, Out.SpannedUs)
              : tracedProgram(Q, Out.Spans, Out.SpannedUs);
    } catch (const std::exception &E) {
      R = badRequest(std::string("traced replay threw: ") + E.what());
    }
    Out.TracedEvalUs += usBetween(T0, Clock::now());
    Wire.verdict(R);
    if (R.str() != Answers[N])
      Mismatch(N, "the traced replay", R.str());
  }
  BehaviourCache::CacheStats After = BehaviourCache::global().stats();
  auto &D = Out.CacheDelta;
  D.QueryHits = After.QueryHits - Before.QueryHits;
  D.QueryMisses = After.QueryMisses - Before.QueryMisses;
  D.TracesetHits = After.TracesetHits - Before.TracesetHits;
  D.TracesetMisses = After.TracesetMisses - Before.TracesetMisses;
  D.DrfHits = After.DrfHits - Before.DrfHits;
  D.DrfMisses = After.DrfMisses - Before.DrfMisses;
  D.BehaviourHits = After.BehaviourHits - Before.BehaviourHits;
  D.BehaviourMisses = After.BehaviourMisses - Before.BehaviourMisses;
  Out.CacheBytes = After.Bytes;

  // Replay A2.
  resetCache(W);
  for (size_t N = 0; N < Out.Replayed; ++N) {
    auto [Us, Answer] = Evaluate(N);
    Out.SecondEvalUs += Us;
    Out.EvaluateUs[N] = (Out.EvaluateUs[N] + Us) / 2;
    if (Answer != Answers[N])
      Mismatch(N, "the second evaluation", Answer);
  }
  return Out;
}

} // namespace tsbench
