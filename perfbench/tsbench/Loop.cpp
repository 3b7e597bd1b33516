#include "Loop.h"

#include "Daemon.h"

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <thread>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace tsbench {
namespace {

using Clock = std::chrono::steady_clock;

double usSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}

const char *outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Ok:
    return "ok";
  case Outcome::Undecided:
    return "undecided";
  case Outcome::Overloaded:
    return "overloaded";
  case Outcome::BadRequest:
    return "bad-request";
  case Outcome::Transport:
    return "transport";
  case Outcome::Wrong:
    return "wrong-verdict";
  }
  return "?";
}

/// Folds one answer into \p Into.
void record(const Workload &W, uint32_t Index, const QueryResponse &R,
            Outcome O, uint64_t Seed, LoopResult &Into) {
  ++Into.Attempted;
  if (R.Status == ResponseStatus::Ok)
    ++Into.Answered;
  if (O == Outcome::Undecided)
    ++Into.Undecided;
  if (failed(O)) {
    ++Into.Failed;
    if (Into.FailureNotes.size() < 4)
      Into.FailureNotes.push_back(std::string(outcomeName(O)) + " on query " +
                                  std::to_string(Index) + " (" +
                                  W.Queries[Index].Label + "): " + R.str());
    return;
  }
  Into.PayloadBytes += Workload::payloadBytes(W.Queries[Index]);
  if (O == Outcome::Ok && W.Queries[Index].OracleCheck &&
      inOracleSample(Seed, Index))
    Into.OracleSample.emplace(Index, R);
}

/// One query over \p C; a transport failure after the client's own
/// retries becomes an Error response.
QueryResponse callOnce(DaemonClient &C, const QueryRequest &Q) {
  try {
    return C.call(Q);
  } catch (const std::exception &E) {
    QueryResponse R;
    R.Status = ResponseStatus::Error;
    R.Detail = E.what();
    return R;
  }
}

ClientOptions clientOptions(const std::string &Name) {
  ClientOptions CO;
  CO.SocketPath = SocketName;
  CO.Name = Name;
  return CO;
}

} // namespace

void merge(LoopResult &Into, LoopResult &&From) {
  Into.LatencyUs.insert(Into.LatencyUs.end(), From.LatencyUs.begin(),
                        From.LatencyUs.end());
  Into.DoneAtS.insert(Into.DoneAtS.end(), From.DoneAtS.begin(),
                      From.DoneAtS.end());
  Into.DispatchWaitUs.insert(Into.DispatchWaitUs.end(),
                             From.DispatchWaitUs.begin(),
                             From.DispatchWaitUs.end());
  Into.Attempted += From.Attempted;
  Into.Answered += From.Answered;
  Into.Undecided += From.Undecided;
  Into.Failed += From.Failed;
  Into.PayloadBytes += From.PayloadBytes;
  Into.ClientRetries += From.ClientRetries;
  Into.ClientTransportErrors += From.ClientTransportErrors;
  Into.OracleSample.merge(From.OracleSample);
  for (std::string &N : From.FailureNotes)
    if (Into.FailureNotes.size() < 4)
      Into.FailureNotes.push_back(std::move(N));
}

LoopResult runClosedLoop(const Workload &W,
                         const std::map<uint32_t, std::string> &Bases,
                         const LoopOptions &O) {
  std::atomic<uint64_t> Cursor{O.FirstEntry};
  std::latch Ready(static_cast<std::ptrdiff_t>(O.Clients) + 1);
  std::vector<LoopResult> Per(O.Clients);
  Clock::time_point Start, Deadline;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < O.Clients; ++I)
    Threads.emplace_back([&, I] {
      LoopResult &Mine = Per[I];
      // Streaming: the Running frame of the request in flight.
      uint64_t InFlightId = 0;
      bool SawRunning = false;
      Clock::time_point SentAt;
      ClientOptions CO = clientOptions(O.Tag + "-" + std::to_string(I));
      CO.Seed = I + 1;
      CO.Streaming = O.Streaming;
      if (O.Streaming)
        CO.OnProgress = [&](uint64_t Id, const ProgressUpdate &U) {
          if (Id == InFlightId && !SawRunning &&
              U.Phase == ProgressPhase::Running) {
            SawRunning = true;
            Mine.DispatchWaitUs.push_back(usSince(SentAt));
          }
        };
      DaemonClient C(CO);
      QueryRequest Hello;
      Hello.Kind = QueryKind::Stats; // connects before the clock starts
      callOnce(C, Hello);
      Ready.arrive_and_wait();
      while (Clock::now() < Deadline) {
        uint64_t N = Cursor.fetch_add(1, std::memory_order_relaxed);
        uint32_t Index = W.Stream[N % W.Stream.size()];
        InFlightId = C.nextRequestId();
        SawRunning = false;
        SentAt = Clock::now();
        QueryResponse R = callOnce(C, W.Queries[Index].Req);
        Mine.LatencyUs.push_back(usSince(SentAt));
        Mine.DoneAtS.push_back(usSince(Start) / 1e6);
        record(W, Index, R, judge(W, Index, R, Bases), O.Seed, Mine);
      }
      Mine.ClientRetries = C.stats().Retries;
      Mine.ClientTransportErrors = C.stats().TransportErrors;
    });
  Start = Clock::now();
  Deadline = Start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(O.Seconds));
  // The deadline is written before the latch releases the clients.
  Ready.arrive_and_wait();
  for (std::thread &T : Threads)
    T.join();
  LoopResult Out;
  Out.ElapsedS = usSince(Start) / 1e6;
  for (LoopResult &R : Per)
    merge(Out, std::move(R));
  if (Cursor.load() > W.Stream.size())
    std::fprintf(stderr,
                 "tsbench: note: the %zu-entry stream wrapped (%llu sent)\n",
                 W.Stream.size(),
                 static_cast<unsigned long long>(Cursor.load()));
  return Out;
}

void answerAll(const Workload &W, const std::vector<uint32_t> &Indices,
               std::map<uint32_t, std::string> &Bases, LoopResult &Into,
               const std::string &ClientName, uint64_t Seed) {
  DaemonClient C(clientOptions(ClientName));
  for (uint32_t Index : Indices) {
    QueryResponse R = callOnce(C, W.Queries[Index].Req);
    Outcome O = judge(W, Index, R, Bases);
    // A query answered in an earlier daemon life must get the same bytes
    // now, whether from the preloaded cache file or recomputed.
    auto Earlier = Bases.find(Index);
    if (!failed(O) && Earlier != Bases.end() && Earlier->second != R.str())
      O = Outcome::Wrong;
    record(W, Index, R, O, Seed, Into);
    if (R.Status == ResponseStatus::Ok && Earlier == Bases.end())
      Bases.emplace(Index, R.str());
  }
  Into.ClientRetries += C.stats().Retries;
  Into.ClientTransportErrors += C.stats().TransportErrors;
}

std::string statsSnapshot(const std::string &ClientName) {
  DaemonClient C(clientOptions(ClientName));
  QueryRequest Q;
  Q.Kind = QueryKind::Stats;
  return callOnce(C, Q).Detail;
}

} // namespace tsbench
