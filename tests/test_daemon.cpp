//===----------------------------------------------------------------------===//
///
/// \file
/// In-process tests for the tracesafed server: verdict correctness against
/// the shared evaluateQuery oracle, structured Overloaded under
/// oversubscription (the daemon sheds, it never hangs), idempotent request
/// ids (a retry never recomputes or double-charges), per-request
/// cancellation, exception containment with oracle degradation, and the
/// client library's retry/backoff under injected transport faults.
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "racelog/Log.h"
#include "racelog/Synth.h"
#include "daemon/Server.h"
#include "daemon/Transport.h"
#include "support/Failure.h"
#include "support/Symbol.h"
#include "verify/BehaviourCache.h"
#include "verify/Canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

/// Deterministic ceiling: no wall clock, so verdicts (including Visited)
/// are byte-identical across runs and machines.
const BudgetSpec TestCeiling{/*DeadlineMs=*/0, /*MaxVisited=*/200'000,
                             /*MaxMemoryBytes=*/128ULL << 20};

std::string uniqueSocket(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("tracesafed_test_" + std::string(Tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(Counter.fetch_add(1)) + ".sock"))
      .string();
}

/// Runs a server on a background thread for the duration of a test.
/// Handles unix, TCP (ListenAddress; an ephemeral ":0" port is resolved
/// through BoundTcpPort and exposed via tcpAddress()), or both.
class ServerFixture {
public:
  explicit ServerFixture(ServerOptions O) : Opts(std::move(O)) {
    if (Opts.QuotaCeiling.DeadlineMs == 10'000) // default -> deterministic
      Opts.QuotaCeiling = TestCeiling;
    Opts.Stop = &Stop;
    if (!Opts.ListenAddress.empty())
      Opts.BoundTcpPort = &TcpPort;
    Thread = std::thread([this] { Rc = runServer(Opts, &Stats); });
    for (int I = 0; I < 500; ++I) {
      bool Up = true;
      if (!Opts.SocketPath.empty()) {
        // The unix listener is up once the socket path accepts a
        // connection.
        int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un Addr{};
        Addr.sun_family = AF_UNIX;
        std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                      Opts.SocketPath.c_str());
        Up = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                       sizeof(Addr)) == 0;
        ::close(Fd);
      }
      // The TCP listener is up once the bound port is published.
      Up = Up && (Opts.ListenAddress.empty() || TcpPort.load() != 0);
      if (Up)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "server did not come up";
  }

  /// "127.0.0.1:port" of the TCP listener (requires ListenAddress).
  std::string tcpAddress() const {
    return "127.0.0.1:" + std::to_string(TcpPort.load());
  }

  ServerStats shutdown() {
    if (Thread.joinable()) {
      Stop.request();
      Thread.join();
    }
    EXPECT_EQ(Rc, 0);
    return Stats;
  }

  ~ServerFixture() {
    shutdown();
    std::remove(Opts.SocketPath.c_str());
    if (!Opts.JournalPath.empty())
      std::remove(Opts.JournalPath.c_str());
  }

  ServerOptions Opts;

private:
  CancelToken Stop;
  ServerStats Stats;
  std::atomic<uint16_t> TcpPort{0};
  int Rc = -1;
  std::thread Thread;
};

/// One counter of a Stats Detail line, matched at a key boundary so
/// "open" cannot alias a longer key (~0 when absent).
uint64_t statsField(const std::string &Detail, const std::string &Key) {
  std::string Padded = " " + Detail;
  size_t Pos = Padded.find(" " + Key + "=");
  if (Pos == std::string::npos)
    return ~0ULL;
  return std::strtoull(Padded.c_str() + Pos + Key.size() + 2, nullptr, 10);
}

/// One Stats snapshot over \p C.
std::string statsDetail(DaemonClient &C) {
  QueryRequest SQ;
  SQ.Kind = QueryKind::Stats;
  return C.call(SQ).Detail;
}

QueryRequest drfQuery(const std::string &Src) {
  QueryRequest Q;
  Q.Kind = QueryKind::ProgramDrf;
  Q.Program = Src;
  return Q;
}

/// Racy program with a deliberately large interleaving space: keeps a
/// query in flight long enough for admission control to be observable.
/// Salted through a stored constant — an identifier salt would be
/// alpha-renamed away by the canonical verdict key, and the queries
/// would coalesce into one flight instead of loading the queue.
std::string slowProgram(unsigned Salt) {
  std::string P;
  for (int T = 0; T < 3; ++T) {
    P += "thread { ";
    for (int I = 0; I < 5; ++I)
      P += "x := " + std::to_string(I % 2 + 2 * (Salt + 1)) + "; r" +
           std::to_string(T) + " := x; ";
    P += "}\n";
  }
  return P;
}

/// Program big enough to hit the 200k-visit test ceiling: a long-running,
/// deterministically-truncated query for scheduling tests. Salted through
/// a stored *constant* so repeats stay distinct under the canonical
/// verdict key (an identifier salt would be alpha-renamed away and the
/// queries would coalesce via single-flight instead of queueing).
std::string hugeProgram(unsigned Salt = 0) {
  std::string P;
  for (int T = 0; T < 4; ++T) {
    P += "thread { ";
    for (int I = 0; I < 6; ++I)
      P += "x := " + std::to_string(I + 10 * (Salt + 1)) + "; r" +
           std::to_string(T) + " := x; ";
    P += "}\n";
  }
  return P;
}

TEST(Daemon, VerdictsMatchTheSharedEvaluator) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("verdicts");
  ServerFixture Server(O);

  std::vector<QueryRequest> Qs;
  Qs.push_back(drfQuery("thread { x := 1; }\nthread { r0 := x; }\n"));
  Qs.push_back(drfQuery(
      "thread { sync m { x := 1; } }\nthread { sync m { r0 := x; } }\n"));
  {
    QueryRequest Q;
    Q.Kind = QueryKind::Behaviours;
    Q.Program = "thread { x := 1; r0 := x; print r0; }\n";
    Qs.push_back(Q);
  }
  {
    QueryRequest Q;
    Q.Kind = QueryKind::DrfGuarantee;
    Q.Program = "thread { sync m { x := 1; x := 2; } }\n"
                "thread { sync m { r0 := x; print r0; } }\n";
    Q.Transformed = "thread { sync m { x := 2; } }\n"
                    "thread { sync m { r0 := x; print r0; } }\n";
    Qs.push_back(Q);
  }
  {
    QueryRequest Q;
    Q.Kind = QueryKind::ThinAir;
    Q.Program = "thread { r2 := y; x := r2; print r2; }\n"
                "thread { r1 := x; y := r1; }\n";
    Q.Transformed = Q.Program;
    Qs.push_back(Q);
  }

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "verdict-test";
  DaemonClient Client(CO);
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  ASSERT_EQ(Got.size(), Qs.size());
  for (size_t I = 0; I < Qs.size(); ++I) {
    QueryResponse Want = evaluateQuery(Qs[I], TestCeiling);
    EXPECT_EQ(Got[I].str(), Want.str()) << "query " << I;
    EXPECT_EQ(Got[I].Status, ResponseStatus::Ok);
    EXPECT_NE(Got[I].Kind, VerdictKind::Unknown) << "query " << I;
  }

  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, Qs.size());
  EXPECT_EQ(S.Completed, Qs.size());
  EXPECT_EQ(S.Overloaded, 0u);
}

TEST(Daemon, BadRequestsAreStructuredNotFatal) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("badreq");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "badreq-test";
  DaemonClient Client(CO);

  QueryResponse R = Client.call(drfQuery("thread { this is not a program"));
  EXPECT_EQ(R.Status, ResponseStatus::BadRequest);
  EXPECT_NE(R.Detail.find("parse error"), std::string::npos);

  // The connection and the server survive: a valid query still works.
  QueryResponse Ok = Client.call(drfQuery("thread { x := 1; }\n"));
  EXPECT_EQ(Ok.Status, ResponseStatus::Ok);
}

TEST(Daemon, OversubscriptionShedsWithStructuredOverloaded) {
  // 4x oversubscription against a queue of 2: the daemon must answer
  // every request — some Ok, some Overloaded — and never hang.
  ServerOptions O;
  O.SocketPath = uniqueSocket("overload");
  O.QueueCap = 2;
  O.PerClientCap = 2;
  ServerFixture Server(O);

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "overload-test";
  CO.RetryOverloaded = false; // surface the shedding
  DaemonClient Client(CO);

  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < 8; ++I)
    Qs.push_back(drfQuery(slowProgram(I)));
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  ASSERT_EQ(Got.size(), 8u);

  unsigned Ok = 0, Shed = 0;
  for (const QueryResponse &R : Got) {
    if (R.Status == ResponseStatus::Ok)
      ++Ok;
    else if (R.Status == ResponseStatus::Overloaded)
      ++Shed;
  }
  EXPECT_EQ(Ok + Shed, 8u) << "every request gets a structured answer";
  EXPECT_GE(Ok, 1u);
  EXPECT_GE(Shed, 1u) << "4x oversubscription must shed";
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Overloaded, Shed);
  EXPECT_EQ(S.Admitted + S.Overloaded, 8u);
}

TEST(Daemon, OverloadedRetriesEventuallyComplete) {
  // Same oversubscription, but the client retries shed requests through
  // its backoff: everything completes, nothing hangs.
  ServerOptions O;
  O.SocketPath = uniqueSocket("retryover");
  O.QueueCap = 2;
  ServerFixture Server(O);

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "retryover-test";
  CO.RetryOverloaded = true;
  CO.BackoffCapMs = 50;
  DaemonClient Client(CO);

  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < 8; ++I)
    Qs.push_back(drfQuery(slowProgram(I)));
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  for (const QueryResponse &R : Got)
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
}

TEST(Daemon, RetransmittedRequestIdsAreIdempotent) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("idem");
  ServerFixture Server(O);

  // Two clients with the same name and the same FirstRequestId simulate a
  // reconnecting client retransmitting its batch: the second submission
  // must replay stored verdicts, not recompute or re-admit.
  QueryRequest Q = drfQuery("thread { x := 1; }\nthread { r0 := x; }\n");
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "idem-test";
  CO.FirstRequestId = 1;
  QueryResponse First, Second;
  {
    DaemonClient A(CO);
    First = A.call(Q);
  }
  {
    DaemonClient B(CO); // same identity, same request id
    Second = B.call(Q);
  }
  EXPECT_EQ(First.str(), Second.str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, 1u) << "the retry must not be re-admitted";
  EXPECT_EQ(S.Completed, 1u) << "the retry must not recompute";
  EXPECT_EQ(S.Replayed, 1u);
}

TEST(Daemon, CancelAbortsAnInflightQuery) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("cancel");
  // Big visit ceiling: the query would run a long time if not cancelled.
  O.QuotaCeiling = BudgetSpec{0, 50'000'000, 512ULL << 20};
  ServerFixture Server(O);

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "cancel-test";
  DaemonClient Client(CO);

  std::string Big;
  for (int T = 0; T < 4; ++T) {
    Big += "thread { ";
    for (int I = 0; I < 6; ++I)
      Big += "x := " + std::to_string(I) + "; r" + std::to_string(T) +
             " := x; ";
    Big += "}\n";
  }
  uint64_t Id = Client.nextRequestId();
  std::thread Canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    DaemonClient Side(CO); // separate connection, same client name
    Side.cancel(Id);
  });
  QueryResponse R = Client.call(drfQuery(Big));
  Canceller.join();
  // Either the cancel landed (Unknown/Cancelled) or the query finished
  // first; it must never hang or crash.
  if (R.Kind == VerdictKind::Unknown) {
    EXPECT_EQ(R.Reason, TruncationReason::Cancelled);
  }
}

TEST(Daemon, EngineFaultsDegradeToTheSequentialOracle) {
  // A BehaviourCache fault inside the primary engine path must degrade
  // the query, not poison the daemon: the verdict is still computed (by
  // the oracle fallback or the cache's own recompute path) and later
  // queries are unaffected.
  ServerOptions O;
  O.SocketPath = uniqueSocket("degrade");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "degrade-test";
  DaemonClient Client(CO);

  QueryRequest Q = drfQuery("thread { x := 1; }\nthread { r0 := x; }\n");
  QueryResponse Want = evaluateQuery(Q, TestCeiling);

  FaultPlan Plan;
  Plan.arm(FaultSite::BufferedIntern, 1, /*Repeat=*/1'000'000);
  Plan.arm(FaultSite::BehaviourCache, 1, /*Repeat=*/1'000'000);
  QueryResponse Got;
  {
    FaultPlan::Scope Armed(Plan);
    Got = Client.call(Q);
  }
  EXPECT_EQ(Got.Status, ResponseStatus::Ok);
  EXPECT_EQ(Got.Kind, Want.Kind) << "faults must not change the verdict";

  // Faults disarmed: the daemon answers normally again.
  QueryResponse After = Client.call(Q);
  EXPECT_EQ(After.Kind, Want.Kind);
}

TEST(Daemon, PairChecksDegradeToTheSeedEnumerator) {
  // The pair checks' primary search interns its states. An allocation
  // fault there must degrade to the seed enumerator, which has no intern
  // pool, and answer exactly what a fault-free evaluation answers.
  std::vector<QueryRequest> Qs(2);
  Qs[0].Kind = QueryKind::DrfGuarantee;
  Qs[0].Program = "thread { sync m { x := 3; x := 4; } }\n"
                  "thread { sync m { r0 := x; print r0; } }\n";
  Qs[0].Transformed = "thread { sync m { x := 4; } }\n"
                      "thread { sync m { r0 := x; print r0; } }\n";
  Qs[1].Kind = QueryKind::ThinAir;
  Qs[1].Program = "thread { r2 := y; x := r2; print r2; }\n"
                  "thread { r1 := x; y := r1; print r1; }\n";
  Qs[1].Transformed = Qs[1].Program;
  for (const QueryRequest &Q : Qs) {
    QueryResponse Got;
    {
      FaultPlan Plan;
      Plan.arm(FaultSite::InternAlloc, 1, /*Repeat=*/1'000'000);
      FaultPlan::Scope Armed(Plan);
      Got = evaluateQuery(Q, TestCeiling);
      EXPECT_GT(Plan.fired(FaultSite::InternAlloc), 0u);
    }
    // Fault-free second: a degraded verdict is never cached, so this one
    // recomputes on the primary path.
    QueryResponse Want = evaluateQuery(Q, TestCeiling);
    EXPECT_EQ(Got.Status, ResponseStatus::Ok);
    EXPECT_TRUE(Got.Degraded) << Got.str();
    EXPECT_FALSE(Want.Degraded);
    EXPECT_NE(Want.Kind, VerdictKind::Unknown) << Want.str();
    EXPECT_EQ(Got.Kind, Want.Kind);
    EXPECT_EQ(Got.Detail, Want.Detail);
  }
}

TEST(Daemon, ClientRetriesThroughInjectedTransportFaults) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("retry");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "retry-test";
  CO.MaxAttempts = 32;
  CO.BackoffCapMs = 20;
  DaemonClient Client(CO);

  // The plan is process-global, so fires may land on either end of the
  // socket (client write, server read, server write, client read) — every
  // one of them must surface as a retried transport error, never a wrong
  // or lost verdict.
  FaultPlan Plan;
  Plan.arm(FaultSite::ProtoRead, 3, /*Repeat=*/2);
  Plan.arm(FaultSite::ProtoWrite, 5, /*Repeat=*/2);
  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < 6; ++I)
    Qs.push_back(drfQuery("thread { x := " + std::to_string(I % 2) +
                          "; }\nthread { r0 := x; }\n"));
  std::vector<QueryResponse> Got;
  {
    FaultPlan::Scope Armed(Plan);
    Got = Client.callBatch(Qs);
  }
  ASSERT_EQ(Got.size(), Qs.size());
  for (size_t I = 0; I < Qs.size(); ++I) {
    EXPECT_EQ(Got[I].Status, ResponseStatus::Ok) << I;
    EXPECT_EQ(Got[I].str(), evaluateQuery(Qs[I], TestCeiling).str()) << I;
  }
  EXPECT_GT(Plan.totalFired(), 0u) << "the faults must actually fire";
  EXPECT_GE(Client.stats().TransportErrors + Server.shutdown().ProtoErrors,
            1u);
}

TEST(Daemon, AcceptAndAdmissionFaultsAreSurvivable) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("acceptfault");
  ServerFixture Server(O);
  FaultPlan Plan;
  Plan.arm(FaultSite::Accept, 1, /*Repeat=*/2);
  Plan.arm(FaultSite::Admission, 1, /*Repeat=*/1);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "acceptfault-test";
  CO.MaxAttempts = 32;
  CO.BackoffCapMs = 20;
  QueryResponse R;
  {
    FaultPlan::Scope Armed(Plan);
    DaemonClient Client(CO);
    R = Client.call(drfQuery("thread { x := 1; }\n"));
  }
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_EQ(R.Kind, VerdictKind::Proved);
  ServerStats S = Server.shutdown();
  EXPECT_GE(S.AcceptFaults + S.Overloaded, 1u);
}

TEST(Daemon, ClampBudgetIsFieldWise) {
  BudgetSpec Ceiling{1000, 500, 1 << 20};
  BudgetSpec Unlimited{};
  BudgetSpec C = clampBudget(Unlimited, Ceiling);
  EXPECT_EQ(C.DeadlineMs, 1000);
  EXPECT_EQ(C.MaxVisited, 500u);
  EXPECT_EQ(C.MaxMemoryBytes, 1u << 20);
  BudgetSpec Tighter{10, 100, 1 << 10};
  C = clampBudget(Tighter, Ceiling);
  EXPECT_EQ(C.DeadlineMs, 10);
  EXPECT_EQ(C.MaxVisited, 100u);
  BudgetSpec Looser{100'000, 50'000, 1ULL << 40};
  C = clampBudget(Looser, Ceiling);
  EXPECT_EQ(C.DeadlineMs, 1000);
  EXPECT_EQ(C.MaxVisited, 500u);
  EXPECT_EQ(C.MaxMemoryBytes, 1u << 20);
  // A zero ceiling is unbounded: the request passes through.
  C = clampBudget(Looser, BudgetSpec{});
  EXPECT_EQ(C.MaxVisited, 50'000u);
}


TEST(Daemon, RaceLogQueriesAreServed) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("racelog");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "racelog-test";
  DaemonClient Client(CO);

  auto logQuery = [](std::string Log) {
    QueryRequest Q;
    Q.Kind = QueryKind::RaceLog;
    Q.Program = std::move(Log); // binary log image rides the Program field
    return Q;
  };
  racelog::SynthOptions SO;
  SO.Events = 4000;
  SO.Threads = 6;
  SO.Seed = 5;

  // Racy and race-free logs get definitive verdicts, identical to the
  // shared evaluator's (the chaos suite's replay contract).
  QueryRequest Racy = logQuery(racelog::makeMixedLog(SO));
  QueryRequest Clean = logQuery(racelog::makeLockHeavyLog(SO));
  QueryResponse RacyR = Client.call(Racy);
  EXPECT_EQ(RacyR.Status, ResponseStatus::Ok);
  EXPECT_EQ(RacyR.Kind, VerdictKind::Refuted);
  EXPECT_EQ(RacyR.str(), evaluateQuery(Racy, TestCeiling).str());
  QueryResponse CleanR = Client.call(Clean);
  EXPECT_EQ(CleanR.Kind, VerdictKind::Proved);
  EXPECT_EQ(CleanR.str(), evaluateQuery(Clean, TestCeiling).str());

  // Garbage bytes are a structured BadRequest, not a crash; the
  // connection survives for the next query.
  QueryResponse Bad = Client.call(logQuery("this is not a TSRL log"));
  EXPECT_EQ(Bad.Status, ResponseStatus::BadRequest);
  EXPECT_NE(Bad.Detail.find("bad log"), std::string::npos);

  // A torn tail over a race-free prefix is Unknown, with the tail noted.
  std::string Torn = racelog::makeLockHeavyLog(SO);
  Torn.resize(Torn.size() - 11);
  QueryResponse TornR = Client.call(logQuery(Torn));
  EXPECT_EQ(TornR.Status, ResponseStatus::Ok);
  EXPECT_EQ(TornR.Kind, VerdictKind::Unknown);
  EXPECT_NE(TornR.Detail.find("torn-tail"), std::string::npos);

  // The per-query quota applies: a tiny visit cap truncates with a
  // structured state-cap reason, never a wrong verdict.
  QueryRequest Capped = logQuery(racelog::makeLockHeavyLog(SO));
  Capped.Budget.MaxVisited = 100;
  QueryResponse CappedR = Client.call(Capped);
  EXPECT_EQ(CappedR.Kind, VerdictKind::Unknown);
  EXPECT_EQ(CappedR.Reason, TruncationReason::StateCap);
  Server.shutdown();
}

TEST(Daemon, RaceLogRetransmissionsReplayStoredVerdicts) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("racelogidem");
  ServerFixture Server(O);
  racelog::SynthOptions SO;
  SO.Events = 4000;
  QueryRequest Q;
  Q.Kind = QueryKind::RaceLog;
  Q.Program = racelog::makeMixedLog(SO);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "racelog-idem";
  CO.FirstRequestId = 1;
  QueryResponse First, Second;
  {
    DaemonClient A(CO);
    First = A.call(Q);
    // The completed request keeps only its verdict: its MiB-scale
    // payload is gone from the idempotency table.
    QueryRequest SQ;
    SQ.Kind = QueryKind::Stats;
    std::string D = A.call(SQ).Detail;
    EXPECT_EQ(statsField(D, "in-flight"), 0u) << D;
    EXPECT_EQ(statsField(D, "payload-bytes"), 0u) << D;
  }
  {
    DaemonClient B(CO); // same identity, same request id: a retransmit
    Second = B.call(Q);
  }
  // Byte-identical replay, from the stored verdict alone, relies on the
  // scan's deterministic Visited (one visit per ingested event, whatever
  // the engine configuration).
  EXPECT_EQ(First.str(), Second.str());
  EXPECT_EQ(First.str(), evaluateQuery(Q, TestCeiling).str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, 1u);
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_EQ(S.Replayed, 1u);
}

/// Bitwise CRC-32, independent of support/Crc32.h.
uint32_t referenceCrc32(const std::string &Data) {
  uint32_t C = 0xFFFFFFFFu;
  for (unsigned char B : Data) {
    C ^= B;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

void putLe(std::string &Out, uint64_t V, int Bytes) {
  for (int I = 0; I < Bytes; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

/// One journal record as the format defines it (Server.h), framed by this
/// test's own code: the reference the daemon's records must match.
std::string referenceRecord(const std::string &Body, const std::string &Client,
                            uint64_t Id, char Type) {
  std::string Payload = Body + Client;
  putLe(Payload, Client.size(), 4);
  putLe(Payload, Id, 8);
  Payload.push_back(Type);
  std::string Record;
  putLe(Record, JournalFormat.RecordMagic, 4);
  putLe(Record, Payload.size(), 4);
  putLe(Record, referenceCrc32(Payload), 4);
  putLe(Record, 0, 4);
  return Record + Payload;
}

/// Start offset and type byte of every record in the journal image
/// \p Data's valid prefix.
std::vector<std::pair<size_t, char>> journalRecords(const std::string &Data) {
  std::vector<std::pair<size_t, char>> Out;
  scanRecords(Data, JournalFormat, [&](std::string_view P) {
    Out.emplace_back(static_cast<size_t>(P.data() - Data.data()) -
                         RecordHeaderSize,
                     P.empty() ? '\0' : P.back());
  });
  return Out;
}

/// A racy TSRL log whose addresses are made of the bytes a text format
/// would have to escape (\\, \t, \n), so its image is full of them.
QueryRequest escapeHeavyLogQuery(uint64_t Salt) {
  racelog::LogWriter W;
  for (uint64_t I = 0; I < 3000; ++I)
    W.append(I % 3 ? racelog::Op::Write : racelog::Op::Read,
             static_cast<uint32_t>(I % 2),
             0x5C0A095C0A095C00ULL + (I + Salt) % 9);
  QueryRequest Q;
  Q.Kind = QueryKind::RaceLog;
  Q.Program = W.finish();
  return Q;
}

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

void writeAll(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

TEST(Daemon, BinaryPayloadJournalsResumeByteIdentically) {
  const QueryRequest Done = escapeHeavyLogQuery(0);
  const QueryRequest Orphan = escapeHeavyLogQuery(4);
  ASSERT_NE(Done.Program.find('\t'), std::string::npos);
  ASSERT_NE(Done.Program.find('\n'), std::string::npos);
  ASSERT_NE(Done.Program.find('\\'), std::string::npos);
  ServerOptions O;
  O.SocketPath = uniqueSocket("journalbin");
  O.JournalPath = O.SocketPath + ".journal";
  ClientOptions CO;
  CO.Name = "journal\tbin\n"; // binary-safe client names too
  CO.FirstRequestId = 1;

  // First life: one binary query, journaled. Its admission record must be
  // byte-identical to the format's reference framing.
  QueryResponse First;
  std::string Journal;
  {
    ServerFixture Server(O);
    CO.SocketPath = Server.Opts.SocketPath;
    DaemonClient A(CO);
    First = A.call(Done);
    Server.shutdown();
    Journal = readAll(O.JournalPath);
  }
  EXPECT_EQ(First.str(), evaluateQuery(Done, TestCeiling).str());
  EXPECT_NE(Journal.find(referenceRecord(encodeSubmit(Done), CO.Name, 1, 'A')),
            std::string::npos);
  // Every record the daemon wrote carries crc32(payload).
  std::vector<std::pair<size_t, char>> Records = journalRecords(Journal);
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].second, 'A');
  EXPECT_EQ(Records[1].second, 'V');
  EXPECT_EQ(scanRecords(Journal, JournalFormat, nullptr).ValidBytes,
            Journal.size());

  // Second life resumes that journal plus an orphaned admission framed by
  // the reference encoder: the completed query replays from the journal,
  // the orphan is recomputed from its payload.
  writeAll(O.JournalPath,
           Journal + referenceRecord(encodeSubmit(Orphan), CO.Name, 2, 'A'));
  O.Resume = true;
  ServerFixture Server(O);
  CO.SocketPath = Server.Opts.SocketPath;
  DaemonClient B(CO);
  std::vector<QueryResponse> Got = B.callBatch(std::vector{Done, Orphan});
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].str(), First.str());
  EXPECT_EQ(Got[1].str(), evaluateQuery(Orphan, TestCeiling).str());
  EXPECT_EQ(Got[1].Kind, VerdictKind::Refuted);
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, 0u);
  EXPECT_EQ(S.Resumed, 1u);
  EXPECT_GE(S.Replayed, 1u);
}

TEST(Daemon, AFlippedByteMidJournalIsNeverReplayed) {
  // Life 1 answers four queries one at a time, so the journal reads
  // A1 V1 A2 V2 A3 V3 A4 V4. A byte of V2's visit count is flipped: were it
  // replayed, its verdict would differ from a fresh evaluation. --resume
  // must keep only A1 V1 A2 — request 2 is recomputed, requests 3 and 4
  // are admitted afresh.
  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < 4; ++I)
    Qs.push_back(drfQuery("thread { x := " + std::to_string(I + 40) +
                          "; }\nthread { r0 := x; }\n"));
  ServerOptions O;
  O.SocketPath = uniqueSocket("journalflip");
  O.JournalPath = O.SocketPath + ".journal";
  ClientOptions CO;
  CO.Name = "flip-client";
  CO.FirstRequestId = 1;
  std::string Journal;
  {
    ServerFixture Server(O);
    CO.SocketPath = Server.Opts.SocketPath;
    DaemonClient A(CO);
    for (const QueryRequest &Q : Qs)
      A.call(Q);
    Server.shutdown();
    Journal = readAll(O.JournalPath);
  }
  std::vector<std::pair<size_t, char>> Records = journalRecords(Journal);
  ASSERT_EQ(Records.size(), 8u);
  ASSERT_EQ(Records[3].second, 'V');
  // Body of V2: status, kind, reason, degraded, then u64 visited.
  size_t Victim = Records[3].first + RecordHeaderSize + 4;
  Journal[Victim] = static_cast<char>(Journal[Victim] ^ 0x01);
  writeAll(O.JournalPath, Journal);

  O.Resume = true;
  ServerFixture Server(O);
  CO.SocketPath = Server.Opts.SocketPath;
  DaemonClient B(CO);
  for (const QueryRequest &Q : Qs)
    EXPECT_EQ(B.call(Q).str(), evaluateQuery(Q, TestCeiling).str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Resumed, 1u) << "request 2 is recomputed";
  EXPECT_EQ(S.Admitted, 2u) << "requests 3 and 4 are admitted afresh";
  RecordScan Scan = readRecordLog(O.JournalPath, JournalFormat, nullptr);
  EXPECT_FALSE(Scan.torn()) << "resume truncates the corrupt suffix";
  EXPECT_EQ(Scan.Records, 3u + 1 + 4) << "A1 V1 A2, V2, then A3 V3 A4 V4";
}

TEST(Daemon, ALifeWithoutResumeStartsANewJournal) {
  // Life 1 completes (X, 1, P1). Life 2 starts without --resume on the
  // same journal, admits (X, 1, P2) and dies before its verdict. Life 3
  // resumes: X's retry of request 1 must get P2's verdict. A life 2 that
  // appended to life 1's journal would let life 3 see P1's admission and
  // verdict first and answer the retry with them.
  ServerOptions O;
  O.SocketPath = uniqueSocket("threelives");
  O.JournalPath = O.SocketPath + ".journal";
  ClientOptions CO;
  CO.Name = "X";
  CO.FirstRequestId = 1;
  const QueryRequest P1 =
      drfQuery("thread { x := 1; }\nthread { r0 := x; }\n");
  const QueryRequest P2 = drfQuery(hugeProgram(11));
  QueryResponse First;
  std::string Journal;
  {
    ServerFixture Server(O);
    CO.SocketPath = Server.Opts.SocketPath;
    DaemonClient A(CO);
    First = A.call(P1);
    Server.shutdown();
    Journal = readAll(O.JournalPath);
  }
  ASSERT_EQ(First.str(), evaluateQuery(P1, TestCeiling).str());

  {
    writeAll(O.JournalPath, Journal);
    ServerOptions O2 = O;
    // Unbounded visits: P2 is still running when life 2 is stopped.
    O2.QuotaCeiling = BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/0,
                                 /*MaxMemoryBytes=*/128ULL << 20};
    ServerFixture Server(O2);
    ConnectOutcome Outcome;
    std::string Err;
    int Fd = connectUnix(O2.SocketPath, Outcome, Err);
    ASSERT_GE(Fd, 0) << Err;
    Frame Hello;
    Hello.Type = FrameType::Hello;
    Hello.Payload = encodeHello(CO.Name);
    writeFrame(Fd, Hello);
    std::string Buf;
    Frame Welcome;
    ASSERT_TRUE(readFrame(Fd, Buf, Welcome));
    Frame Submit;
    Submit.Type = FrameType::Submit;
    Submit.RequestId = 1;
    Submit.Payload = encodeSubmit(P2);
    writeFrame(Fd, Submit);
    bool Admitted = false;
    for (int I = 0; I < 2000 && !Admitted; ++I) {
      Admitted = !journalRecords(readAll(O2.JournalPath)).empty();
      if (!Admitted)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(Admitted) << "life 2 never journaled its admission";
    Server.shutdown(); // cancels P2: its admission stays orphaned
    ::close(Fd);
    Journal = readAll(O2.JournalPath);
  }
  std::vector<std::pair<size_t, char>> Records = journalRecords(Journal);
  EXPECT_EQ(Records.size(), 1u) << "life 2 journals only its own admission";
  EXPECT_EQ(Records.back().second, 'A');

  writeAll(O.JournalPath, Journal);
  O.Resume = true;
  ServerFixture Server(O);
  CO.SocketPath = Server.Opts.SocketPath;
  DaemonClient C(CO);
  QueryResponse Retry = C.call(P2);
  EXPECT_EQ(Retry.str(), evaluateQuery(P2, TestCeiling).str());
  EXPECT_NE(Retry.str(), First.str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Resumed, 1u);
  EXPECT_EQ(S.Admitted, 0u);
}

TEST(Daemon, ResumeRefusesALineFormatJournal) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("linejournal");
  O.JournalPath = O.SocketPath + ".journal";
  O.Resume = true;
  const std::string Old =
      "H\t1\ttracesafed\nA\tc\t1\t1\t0\t0\t0\tp\t\t0\t0\n";
  writeAll(O.JournalPath, Old);
  CancelToken Stop;
  O.Stop = &Stop;
  EXPECT_EQ(runServer(O), 1);
  EXPECT_EQ(readAll(O.JournalPath), Old) << "a refused journal is untouched";
  std::remove(O.JournalPath.c_str());
}

TEST(Daemon, TcpVerdictsMatchTheUnixTransport) {
  // Both listeners on one daemon: the protocol layer is shared, so the
  // same query must yield byte-identical verdicts over either transport
  // (the second arrives via the idempotent replay path — same client
  // name, same id — which also proves replay works across transports).
  ServerOptions O;
  O.SocketPath = uniqueSocket("tcp");
  O.ListenAddress = "127.0.0.1:0";
  ServerFixture Server(O);

  QueryRequest Q = drfQuery("thread { x := 1; }\nthread { r0 := x; }\n");
  ClientOptions UnixCO;
  UnixCO.SocketPath = Server.Opts.SocketPath;
  UnixCO.Name = "transport-test";
  UnixCO.FirstRequestId = 1;
  QueryResponse OverUnix, OverTcp;
  {
    DaemonClient C(UnixCO);
    OverUnix = C.call(Q);
  }
  ClientOptions TcpCO = UnixCO;
  setServerSpec(TcpCO, Server.tcpAddress());
  {
    DaemonClient C(TcpCO);
    OverTcp = C.call(Q);
  }
  EXPECT_EQ(OverUnix.str(), OverTcp.str());
  EXPECT_EQ(OverUnix.Status, ResponseStatus::Ok);
  ServerStats S = Server.shutdown();
  // 3 = the fixture's unix readiness probe + the two clients.
  EXPECT_EQ(S.Connections, 3u);
  EXPECT_EQ(S.Admitted, 1u);
  EXPECT_EQ(S.Replayed, 1u);
}

TEST(Daemon, StalledTcpReaderIsShedAndNeverBlocksOthers) {
  // The slow-client-shedding contract: a peer that stops reading while
  // the daemon answers it fills its bounded outbound queue and is
  // dropped — its verdicts stay journaled and replayable — while other
  // clients' queries keep completing. SendBufBytes shrinks the kernel's
  // send buffer to its floor so the writer actually blocks under test-
  // sized traffic.
  ServerOptions O;
  O.ListenAddress = "127.0.0.1:0";
  O.SendBufBytes = 1;         // clamped up to the kernel floor (~4KB)
  O.OutboundCapBytes = 2048;  // overflowed by the pipelined verdicts
  ServerFixture Server(O);

  // Raw stalled connection: handshake, then thousands of pipelined
  // Submits (every Verdict is a critical outbound frame) and silence —
  // the socket is deliberately never read again. The Submits go out on
  // their own thread: once the daemon sheds the connection the write
  // fails part-way, which is the point.
  std::string Host;
  uint16_t Port = 0;
  std::string Err;
  ASSERT_TRUE(parseHostPort(Server.tcpAddress(), Host, Port, Err));
  ConnectOutcome Outcome;
  int StallFd = connectTcp(Host, Port, 2000, Outcome, Err);
  ASSERT_GE(StallFd, 0) << Err;
  {
    Frame Hello;
    Hello.Type = FrameType::Hello;
    Hello.Payload = encodeHello("stalled-reader");
    writeFrame(StallFd, Hello);
    std::string Buf;
    Frame Welcome;
    ASSERT_TRUE(readFrame(StallFd, Buf, Welcome));
    ASSERT_EQ(Welcome.Type, FrameType::Welcome);
  }
  std::string Pipelined;
  {
    Frame Submit;
    Submit.Type = FrameType::Submit;
    Submit.Payload = encodeSubmit(drfQuery("thread { x := 1; }\n"));
    for (uint64_t Id = 1; Id <= 8192; ++Id) {
      Submit.RequestId = Id;
      Pipelined += encodeFrame(Submit);
    }
  }
  std::thread Stalled([&] {
    try {
      writeBytes(StallFd, Pipelined);
    } catch (const ProtocolError &) {
    }
  });

  // A live client on the same daemon: every query must complete while
  // the stalled connection backs up and is shed.
  ClientOptions CO;
  setServerSpec(CO, Server.tcpAddress());
  CO.Name = "live-client";
  DaemonClient Live(CO);
  for (unsigned I = 0; I < 4; ++I) {
    QueryResponse R =
        Live.call(drfQuery("thread { x := " + std::to_string(I) + "; }\n"));
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
    EXPECT_EQ(R.Kind, VerdictKind::Proved);
  }

  // The shed must actually happen (bounded wait for the verdicts to
  // overflow the queue).
  bool Shed = false;
  for (int I = 0; I < 1000 && !Shed; ++I) {
    QueryRequest SQ;
    SQ.Kind = QueryKind::Stats;
    QueryResponse R = Live.call(SQ);
    Shed = R.Detail.find("shed-slow=0") == std::string::npos;
    if (!Shed)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(Shed) << "the stalled reader was never shed";
  Stalled.join();
  ::close(StallFd);
  ServerStats S = Server.shutdown();
  EXPECT_GE(S.SlowClientsShed, 1u);
}

TEST(Daemon, InteractivePreemptsQueuedBatchWork) {
  // One worker serialises dispatch, so the class queues are
  // observable: with a convoy of slow batch queries admitted first, an
  // interactive query must jump the queue and complete while batch work
  // is still pending (asserted through the Stats query, no log
  // scraping).
  ServerOptions O;
  O.SocketPath = uniqueSocket("preempt");
  O.Workers = 1;
  O.AgingThreshold = 100; // out of the way: pure preemption here
  ServerFixture Server(O);

  ClientOptions BCO;
  BCO.SocketPath = Server.Opts.SocketPath;
  BCO.Name = "batch-client";
  std::vector<QueryRequest> Batch;
  for (unsigned I = 0; I < 4; ++I) {
    QueryRequest Q = drfQuery(hugeProgram(I));
    Q.Class = ClientClass::Batch;
    Batch.push_back(Q);
  }
  std::vector<QueryResponse> BatchGot;
  std::thread BatchThread([&] {
    DaemonClient C(BCO);
    BatchGot = C.callBatch(Batch);
  });
  // Let the convoy get admitted (first running, rest queued).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ClientOptions ICO;
  ICO.SocketPath = Server.Opts.SocketPath;
  ICO.Name = "interactive-client";
  DaemonClient Interactive(ICO);
  QueryResponse R = Interactive.call(drfQuery("thread { x := 1; }\n"));
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_EQ(R.Kind, VerdictKind::Proved);

  // The moment the interactive verdict is back, batch work must still be
  // waiting: it was admitted strictly earlier and would have won FIFO.
  QueryRequest SQ;
  SQ.Kind = QueryKind::Stats;
  QueryResponse Stats = Interactive.call(SQ);
  EXPECT_NE(Stats.Detail.find("pend-batch="), std::string::npos);
  EXPECT_EQ(Stats.Detail.find("pend-batch=0"), std::string::npos)
      << "no batch pending when the interactive query finished: "
      << Stats.Detail;

  BatchThread.join();
  for (const QueryResponse &B : BatchGot)
    EXPECT_EQ(B.Status, ResponseStatus::Ok);
  Server.shutdown();
}

TEST(Daemon, AgingKeepsBatchStarvationFree) {
  // AgingThreshold=1: after one interactive dispatch while batch work
  // waits, the next dispatch must take the batch query even though
  // interactive work is still queued — the deterministic starvation-
  // freedom guarantee, visible as AgedDispatches.
  ServerOptions O;
  O.SocketPath = uniqueSocket("aging");
  O.Workers = 1;
  O.AgingThreshold = 1;
  ServerFixture Server(O);

  ClientOptions ICO;
  ICO.SocketPath = Server.Opts.SocketPath;
  ICO.Name = "interactive-flood";
  // Distinct salts: a repeated program would be answered from the warm
  // behaviour cache in microseconds, closing the scheduling window —
  // and each query must run long enough (the full visit ceiling) that
  // interactive work is still queued when the batch query is aged in.
  std::vector<QueryRequest> Flood;
  for (unsigned I = 0; I < 6; ++I)
    Flood.push_back(drfQuery(hugeProgram(10 + I)));
  std::vector<QueryResponse> FloodGot;
  std::thread FloodThread([&] {
    DaemonClient C(ICO);
    FloodGot = C.callBatch(Flood);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ClientOptions BCO;
  BCO.SocketPath = Server.Opts.SocketPath;
  BCO.Name = "starved-batch";
  DaemonClient BatchClient(BCO);
  // Salted like the flood: a verdict already in the process-wide cache
  // (`y := 1` is an alpha-variant of an earlier test's `x := 1`) is
  // answered at admission and never queues, leaving aging nothing to
  // dispatch.
  QueryRequest BQ = drfQuery("thread { y := 917; }\n");
  BQ.Class = ClientClass::Batch;
  QueryResponse B = BatchClient.call(BQ);
  EXPECT_EQ(B.Status, ResponseStatus::Ok);
  EXPECT_EQ(B.Kind, VerdictKind::Proved);

  FloodThread.join();
  for (const QueryResponse &R : FloodGot)
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
  ServerStats S = Server.shutdown();
  EXPECT_GE(S.AgedDispatches, 1u)
      << "the batch query must have been aged past waiting interactive "
         "work at least once";
}

TEST(Daemon, RunningQueriesNeverOutnumberTheWorkers) {
  // One query, one thread: with two workers and a convoy of slow batch
  // queries, Stats never reports more than two running, and every query
  // of the convoy still gets its verdict.
  ServerOptions O;
  O.SocketPath = uniqueSocket("workers");
  O.Workers = 2;
  ServerFixture Server(O);

  ClientOptions BCO;
  BCO.SocketPath = Server.Opts.SocketPath;
  BCO.Name = "convoy-client";
  std::vector<QueryRequest> Convoy;
  for (unsigned I = 0; I < 6; ++I) {
    QueryRequest Q = drfQuery(hugeProgram(30 + I));
    Q.Class = ClientClass::Batch;
    Convoy.push_back(Q);
  }
  std::vector<QueryResponse> Got;
  std::atomic<bool> Done{false};
  std::thread ConvoyThread([&] {
    DaemonClient C(BCO);
    Got = C.callBatch(Convoy);
    Done = true;
  });

  ClientOptions SCO;
  SCO.SocketPath = Server.Opts.SocketPath;
  SCO.Name = "stats-client";
  DaemonClient Watcher(SCO);
  uint64_t MaxRunning = 0;
  while (!Done.load()) {
    MaxRunning =
        std::max(MaxRunning, statsField(statsDetail(Watcher), "running"));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ConvoyThread.join();
  EXPECT_LE(MaxRunning, 2u);
  EXPECT_EQ(MaxRunning, 2u) << "the convoy never occupied both workers";
  ASSERT_EQ(Got.size(), Convoy.size());
  for (const QueryResponse &R : Got)
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Completed, Convoy.size());
}

TEST(Daemon, StreamingClientsGetOrderedProgressOthersNone) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("streaming");
  ServerFixture Server(O);

  // A computed query (not a cache hit) is Queued, then Running, with
  // heartbeats while it explores: every Progress frame names the request
  // and carries a strictly increasing Seq.
  QueryRequest Q = drfQuery(hugeProgram(50));
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "streaming-client";
  CO.Streaming = true;
  uint64_t LastSeq = 0, Frames = 0, Running = 0, WantId = 0;
  CO.OnProgress = [&](uint64_t Id, const ProgressUpdate &U) {
    EXPECT_EQ(Id, WantId);
    EXPECT_GT(U.Seq, LastSeq) << "Seq must increase strictly";
    EXPECT_TRUE(U.Phase == ProgressPhase::Queued ||
                U.Phase == ProgressPhase::Running);
    LastSeq = U.Seq;
    ++Frames;
    Running += U.Phase == ProgressPhase::Running;
  };
  QueryResponse Streamed;
  {
    DaemonClient C(CO);
    WantId = C.nextRequestId();
    Streamed = C.call(Q);
    EXPECT_EQ(C.stats().ProgressFrames, Frames);
  }
  EXPECT_GE(Frames, 2u) << "a computed query is at least Queued and Running";
  EXPECT_GE(Running, 1u);

  // A client that did not ask for streaming gets no Progress frame, for
  // a computed query either.
  ClientOptions Quiet;
  Quiet.SocketPath = Server.Opts.SocketPath;
  Quiet.Name = "quiet-client";
  Quiet.OnProgress = [&](uint64_t, const ProgressUpdate &) {
    ADD_FAILURE() << "a client without Streaming must never get Progress";
  };
  QueryRequest Q2 = drfQuery(hugeProgram(51));
  QueryResponse Plain;
  {
    DaemonClient C(Quiet);
    Plain = C.call(Q2);
    EXPECT_EQ(C.stats().ProgressFrames, 0u);
  }
  // Progress never changes a verdict's bytes.
  EXPECT_EQ(Streamed.str(), evaluateQuery(Q, TestCeiling).str());
  EXPECT_EQ(Plain.str(), evaluateQuery(Q2, TestCeiling).str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Streamed, Frames);
}

TEST(Daemon, UnassignedKindSixIsABadRequest) {
  // Kind 6 names no query: the Submit is malformed, answered BadRequest,
  // and neither the connection nor the server notices beyond that.
  ServerOptions O;
  O.SocketPath = uniqueSocket("kind6");
  ServerFixture Server(O);
  ConnectOutcome Outcome;
  std::string Err;
  int Fd = connectUnix(Server.Opts.SocketPath, Outcome, Err);
  ASSERT_GE(Fd, 0) << Err;
  std::string Buf;
  Frame Hello;
  Hello.Type = FrameType::Hello;
  Hello.Payload = encodeHello("kind6-test");
  writeFrame(Fd, Hello);
  Frame In;
  ASSERT_TRUE(readFrame(Fd, Buf, In));
  ASSERT_EQ(In.Type, FrameType::Welcome);

  Frame Submit;
  Submit.Type = FrameType::Submit;
  Submit.RequestId = 1;
  Submit.Payload = encodeSubmit(drfQuery("thread { x := 1; }\n"));
  Submit.Payload[0] = 6; // the kind byte
  writeFrame(Fd, Submit);
  ASSERT_TRUE(readFrame(Fd, Buf, In));
  ASSERT_EQ(In.Type, FrameType::Verdict);
  EXPECT_EQ(In.RequestId, 1u);
  QueryResponse R;
  ASSERT_TRUE(decodeResponse(In.Payload, R));
  EXPECT_EQ(R.Status, ResponseStatus::BadRequest);
  EXPECT_EQ(R.Detail, "malformed submit payload");

  // The same connection still serves a well-formed query.
  Submit.RequestId = 2;
  Submit.Payload = encodeSubmit(drfQuery("thread { x := 1; }\n"));
  writeFrame(Fd, Submit);
  ASSERT_TRUE(readFrame(Fd, Buf, In));
  ASSERT_TRUE(decodeResponse(In.Payload, R));
  EXPECT_EQ(In.RequestId, 2u);
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  ::close(Fd);
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.BadRequests, 1u);
  EXPECT_EQ(S.Admitted, 1u);
}

TEST(Daemon, KeepaliveReapsAPeerThatNeverAnswersPings) {
  // A raw peer that says Hello and then never reads or answers: the
  // daemon pings it after KeepaliveTicks of silence and reaps it when
  // PingTimeoutTicks pass without a reply. A live client on the same
  // daemon keeps completing queries throughout.
  ServerOptions O;
  O.SocketPath = uniqueSocket("keepalive");
  O.KeepaliveTicks = 2;
  O.PingTimeoutTicks = 2;
  ServerFixture Server(O);

  ConnectOutcome Outcome;
  std::string Err;
  int DeadFd = connectUnix(Server.Opts.SocketPath, Outcome, Err);
  ASSERT_GE(DeadFd, 0) << Err;
  Frame Hello;
  Hello.Type = FrameType::Hello;
  Hello.Payload = encodeHello("dead-peer");
  writeFrame(DeadFd, Hello);

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "live-client";
  DaemonClient Live(CO);
  // The dead peer is reaped once its ping deadline passes; the live
  // client's queries keep it from ever being silent that long.
  uint64_t Reaped = 0;
  for (unsigned I = 0; I < 400 && Reaped == 0; ++I) {
    QueryResponse R = Live.call(
        drfQuery("thread { x := " + std::to_string(I) + "; }\n"));
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
    Reaped = statsField(statsDetail(Live), "reaped");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(Reaped, 1u) << "the silent peer was never reaped";

  // What the dead peer was sent before the daemon shut its socket down:
  // the Welcome, at least one Ping, then EOF.
  std::string Buf;
  std::vector<FrameType> Got;
  Frame F;
  for (;;) {
    ReadStatus St = ReadStatus::Timeout;
    try {
      St = readFrameTimed(DeadFd, Buf, F, /*TimeoutMs=*/5000);
    } catch (const ProtocolError &) {
      St = ReadStatus::Eof; // a reset counts as the end too
    }
    if (St != ReadStatus::Frame)
      break;
    Got.push_back(F.Type);
  }
  ASSERT_FALSE(Got.empty());
  EXPECT_EQ(Got.front(), FrameType::Welcome);
  EXPECT_NE(std::find(Got.begin(), Got.end(), FrameType::Ping), Got.end());
  ::close(DeadFd);
  EXPECT_EQ(Live.call(drfQuery("thread { y := 3; }\n")).Status,
            ResponseStatus::Ok);
  ServerStats S = Server.shutdown();
  EXPECT_GE(S.PingsSent, 1u);
  EXPECT_GE(S.Reaped, 1u);
}

TEST(Daemon, StatsQueryKindSnapshotsCountersWithoutAdmission) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("stats");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "stats-test";
  DaemonClient Client(CO);

  EXPECT_EQ(Client.call(drfQuery("thread { x := 1; }\n")).Status,
            ResponseStatus::Ok);
  EXPECT_EQ(Client.call(drfQuery("thread { y := 1; }\n")).Status,
            ResponseStatus::Ok);

  QueryRequest SQ;
  SQ.Kind = QueryKind::Stats;
  // The fixture's readiness probe is a connection of its own, and the
  // server may not have torn it down yet: poll (boundedly) until only
  // this client's connection is open. (No "connections=" check: the
  // probe also counts there.)
  QueryResponse R;
  uint64_t StatsCalls = 0;
  do {
    if (StatsCalls)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    R = Client.call(SQ);
    ++StatsCalls;
  } while (statsField(R.Detail, "open") != 1 && StatsCalls < 300);
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_EQ(statsField(R.Detail, "open"), 1u) << R.Detail;
  for (const char *Key :
       {"admitted=2", "completed=2", "in-flight=0", "payload-bytes=0",
        "pend-interactive=0", "pend-batch=0", "shed-slow=0", "reaped=0",
        "aged-dispatches=0"})
    EXPECT_NE((" " + R.Detail + " ").find(std::string(" ") + Key + " "),
              std::string::npos)
        << "missing " << Key << " in: " << R.Detail;
  EXPECT_EQ(statsField(R.Detail, "stats-queries"), StatsCalls);

  // The Stats kind is daemon-only and is never admitted or journaled.
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.StatsQueries, StatsCalls);
  EXPECT_EQ(S.Admitted, 2u);
  QueryResponse Local = evaluateQuery(SQ, TestCeiling);
  EXPECT_EQ(Local.Status, ResponseStatus::BadRequest);
}

TEST(Daemon, OccupiedTcpPortFailsStartupCleanly) {
  // EADDRINUSE at startup is a clean, immediate, non-zero exit — not a
  // crash, not a half-alive daemon on a listener it doesn't own.
  std::string Err;
  uint16_t Port = 0;
  int Occupier = listenTcp("127.0.0.1", 0, Err, &Port);
  ASSERT_GE(Occupier, 0) << Err;
  ServerOptions O;
  O.ListenAddress = "127.0.0.1:" + std::to_string(Port);
  CancelToken Stop;
  O.Stop = &Stop;
  ServerStats S;
  EXPECT_EQ(runServer(O, &S), 1);
  ::close(Occupier);
}

TEST(Daemon, PingDeadlineTurnsASilentServerIntoARetryableError) {
  // A fake "server" that completes the handshake and then goes
  // permanently silent — a SIGSTOPped daemon, a TCP black hole. The
  // client's liveness loop must ping, miss the pong deadline, and
  // surface a retryable ProtocolError in bounded time instead of
  // hanging forever on the read.
  std::string Host;
  uint16_t Port = 0;
  std::string BoundErr;
  int ListenFd = listenTcp("127.0.0.1", 0, BoundErr, &Port);
  ASSERT_GE(ListenFd, 0) << BoundErr;
  std::atomic<bool> Done{false};
  std::thread FakeServer([&] {
    while (!Done.load()) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0)
        break;
      try {
        std::string Buf;
        Frame Hello;
        if (readFrame(Fd, Buf, Hello) && Hello.Type == FrameType::Hello) {
          Frame Welcome;
          Welcome.Type = FrameType::Welcome;
          Welcome.Payload = encodeWelcome("black-hole");
          writeFrame(Fd, Welcome);
        }
        // ... and never speak again. Drain pings so the client's writes
        // keep succeeding; silence is on the *response* side.
        Frame F;
        while (readFrame(Fd, Buf, F)) {
        }
      } catch (const ProtocolError &) {
      }
      ::close(Fd);
    }
  });

  ClientOptions CO;
  CO.Address = "127.0.0.1:" + std::to_string(Port);
  CO.Name = "liveness-test";
  CO.MaxAttempts = 2;
  CO.BackoffCapMs = 10;
  CO.PingIntervalMs = 100;
  CO.PingTimeoutMs = 100;
  DaemonClient Client(CO);
  auto Start = std::chrono::steady_clock::now();
  EXPECT_THROW(Client.call(drfQuery("thread { x := 1; }\n")),
               ProtocolError);
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  // Two attempts, each bounded by interval + timeout (plus slack): the
  // whole call fails in seconds, not minutes.
  EXPECT_LT(Elapsed, 5000);
  EXPECT_GE(Client.stats().PingsSent, 1u);
  EXPECT_GE(Client.stats().TransportErrors, 2u);

  Done.store(true);
  ::shutdown(ListenFd, SHUT_RDWR);
  ::close(ListenFd);
  FakeServer.join();
}

//===----------------------------------------------------------------------===//
// Verdict memoisation plane: single-flight dedup, verdict caching,
// persistent warm start.
//===----------------------------------------------------------------------===//

TEST(Daemon, IdenticalInFlightQueriesCoalesceIntoOneFlight) {
  // One worker makes coalescing deterministic: a long-running query
  // occupies the only worker, so the 32 identical queries behind it are
  // admitted-but-queued together — every submit after the second must
  // attach to it as a follower instead of queueing its own computation.
  BehaviourCache::global().clear();
  ServerOptions O;
  O.SocketPath = uniqueSocket("singleflight");
  O.Workers = 1;
  ServerFixture Server(O);

  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "singleflight-test";
  DaemonClient Client(CO);

  std::vector<QueryRequest> Qs;
  Qs.push_back(drfQuery(hugeProgram(77))); // blocks the only worker
  // Alpha-variants of each other: same canonical key.
  for (int I = 0; I < 16; ++I) {
    Qs.push_back(drfQuery("thread { w := 41; r0 := w; r1 := w; }\n"));
    Qs.push_back(drfQuery("thread { q := 41; r5 := q; r6 := q; }\n"));
  }
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  ASSERT_EQ(Got.size(), 33u);
  for (const QueryResponse &R : Got)
    EXPECT_EQ(R.Status, ResponseStatus::Ok);
  for (size_t I = 2; I < Got.size(); ++I)
    EXPECT_EQ(Got[1].str(), Got[I].str())
        << "a fanned-out verdict must be byte-identical to the leader's";
  EXPECT_EQ(Got[2].Kind, VerdictKind::Proved);

  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, 33u) << "followers are charged admission";
  EXPECT_EQ(S.Completed, 33u) << "followers complete with the leader";
  EXPECT_EQ(S.Coalesced, 31u);
}

TEST(Daemon, WarmRunsReplayTheColdCostExactly) {
  // Every memoisable query goes through the verdict cache with cost
  // replay, so a warm answer — spent budget included — is byte-identical
  // to the cold one (warmth invariance end to end).
  BehaviourCache::global().clear();
  std::vector<QueryRequest> Qs;
  Qs.push_back(drfQuery("thread { c := 51; r0 := c; }\n"
                        "thread { c := 52; r1 := c; }\n"));
  Qs.push_back(drfQuery("thread { sync m { c := 53; } }\n"
                        "thread { sync m { r0 := c; } }\n"));
  {
    QueryRequest Q;
    Q.Kind = QueryKind::ThinAir;
    Q.Program =
        "thread { r2 := y; x := r2; }\nthread { r1 := x; y := r1; }\n";
    Q.Transformed = Q.Program;
    Qs.push_back(Q);
  }
  std::vector<QueryResponse> Cold;
  for (const QueryRequest &Q : Qs) {
    Cold.push_back(evaluateQuery(Q, TestCeiling));
    ASSERT_EQ(Cold.back().Status, ResponseStatus::Ok);
  }
  BehaviourCache::CacheStats AfterCold = BehaviourCache::global().stats();

  for (size_t I = 0; I < Qs.size(); ++I) {
    QueryResponse Warm = evaluateQuery(Qs[I], TestCeiling);
    EXPECT_EQ(Warm.str(), Cold[I].str())
        << "a warm answer must be byte-identical, Visited included";
    EXPECT_EQ(Warm.Visited, Cold[I].Visited);
  }
  BehaviourCache::CacheStats CS = BehaviourCache::global().stats();
  EXPECT_EQ(CS.QueryHits, AfterCold.QueryHits + Qs.size())
      << "every warm query must be served from the verdict cache";
  EXPECT_EQ(CS.QueryMisses, AfterCold.QueryMisses)
      << "the warm run must not miss";
}

TEST(Daemon, CachedVerdictsAreByteIdenticalAcrossWorkerWidths) {
  // The verdict cache is shared across daemon configurations: a verdict
  // computed at one worker must serve (and equal a recomputation at)
  // width 4 — same bytes, Visited included.
  BehaviourCache::global().clear();
  QueryRequest Q = drfQuery("thread { d := 61; r0 := d; r1 := d; }\n"
                            "thread { d := 62; r2 := d; }\n");
  QueryResponse Cold, Warm, ColdWide;
  {
    ServerOptions O;
    O.SocketPath = uniqueSocket("width1");
    O.Workers = 1;
    ServerFixture Server(O);
    ClientOptions CO;
    CO.SocketPath = Server.Opts.SocketPath;
    CO.Name = "width-test";
    DaemonClient C(CO);
    Cold = C.call(Q);
  }
  {
    ServerOptions O;
    O.SocketPath = uniqueSocket("width4");
    O.Workers = 4;
    ServerFixture Server(O);
    ClientOptions CO;
    CO.SocketPath = Server.Opts.SocketPath;
    CO.Name = "width-test";
    DaemonClient C(CO);
    Warm = C.call(Q); // served from the cache carried across fixtures
    BehaviourCache::global().clear();
    ColdWide = C.call(Q); // recomputed cold at width 4
  }
  EXPECT_EQ(Cold.Status, ResponseStatus::Ok);
  EXPECT_EQ(Cold.Kind, VerdictKind::Refuted);
  EXPECT_EQ(Warm.str(), Cold.str());
  EXPECT_EQ(ColdWide.str(), Cold.str());
}

TEST(Daemon, StatsExposeTheMemoisationCounters) {
  ServerOptions O;
  O.SocketPath = uniqueSocket("memostats");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "memostats-test";
  DaemonClient Client(CO);

  QueryResponse First =
      Client.call(drfQuery("thread { e := 71; r0 := e; }\n"));
  uint64_t HitsAfterFirst = BehaviourCache::global().stats().QueryHits;
  // An alpha-variant: same canonical key, served from the verdict cache.
  QueryResponse Second =
      Client.call(drfQuery("thread { f := 71; r9 := f; }\n"));
  EXPECT_EQ(Second.str(), First.str());
  EXPECT_GE(BehaviourCache::global().stats().QueryHits, HitsAfterFirst + 1);

  QueryRequest SQ;
  SQ.Kind = QueryKind::Stats;
  QueryResponse R = Client.call(SQ);
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  for (const char *Key :
       {"coalesced=", "cache-hits=", "cache-misses=", "cache-query-hits=",
        "cache-query-misses=", "cache-bytes=", "cache-evictions=",
        "persist-loaded=", "persist-spilled="})
    EXPECT_NE(R.Detail.find(Key), std::string::npos)
        << "missing " << Key << " in: " << R.Detail;
  Server.shutdown();
}

TEST(Daemon, PersistentCacheWarmStartsARestartedDaemon) {
  BehaviourCache::global().clear();
  std::string CachePath = uniqueSocket("cachefile") + ".cache";
  QueryRequest Q = drfQuery("thread { h := 81; r0 := h; }\n"
                            "thread { h := 82; r1 := h; }\n");
  QueryResponse Cold;
  {
    ServerOptions O;
    O.SocketPath = uniqueSocket("persist1");
    O.CacheFile = CachePath;
    ServerFixture Server(O);
    ClientOptions CO;
    CO.SocketPath = Server.Opts.SocketPath;
    CO.Name = "persist-test";
    DaemonClient C(CO);
    Cold = C.call(Q);
    EXPECT_EQ(Cold.Status, ResponseStatus::Ok);
    EXPECT_EQ(Cold.Kind, VerdictKind::Refuted);
    ServerStats S = Server.shutdown();
    EXPECT_GE(S.PersistSpilled, 1u)
        << "the fresh verdict must have been spilled to the store";
    EXPECT_EQ(S.PersistLoaded, 0u);
  }
  // A restarted daemon process starts cache-cold; simulate the restart by
  // clearing the in-process global cache before the second fixture.
  BehaviourCache::global().clear();
  {
    ServerOptions O;
    O.SocketPath = uniqueSocket("persist2");
    O.CacheFile = CachePath;
    ServerFixture Server(O);
    uint64_t Hits0 = BehaviourCache::global().stats().QueryHits;
    ClientOptions CO;
    CO.SocketPath = Server.Opts.SocketPath;
    CO.Name = "persist-test";
    DaemonClient C(CO);
    QueryResponse Warm = C.call(Q);
    EXPECT_EQ(Warm.str(), Cold.str())
        << "a warm-started verdict must be byte-identical to the cold one";
    EXPECT_GE(BehaviourCache::global().stats().QueryHits, Hits0 + 1)
        << "the restarted daemon must answer from the loaded store";
    ServerStats S = Server.shutdown();
    EXPECT_GE(S.PersistLoaded, 1u);
  }
  std::remove(CachePath.c_str());
}

//===----------------------------------------------------------------------===//
// Admission-time answers: a verdict-cache hit is answered by the reader
// thread, never queued, dispatched or parsed twice.
//===----------------------------------------------------------------------===//

TEST(Daemon, WarmHitsAreAnsweredPastABusyWorker) {
  // One worker and a query that runs until cancelled:
  // a computed query would wait behind it, a warm hit must not.
  const BudgetSpec Big{0, 50'000'000, 512ULL << 20};
  QueryRequest Warm = drfQuery("thread { k := 91; r0 := k; }\n"
                               "thread { k := 92; }\n");
  ASSERT_EQ(evaluateQuery(Warm, Big).Status, ResponseStatus::Ok);
  ServerOptions O;
  O.SocketPath = uniqueSocket("admithit");
  O.Workers = 1;
  O.QuotaCeiling = Big;
  ServerFixture Server(O);

  ClientOptions BCO;
  BCO.SocketPath = Server.Opts.SocketPath;
  BCO.Name = "busy-client";
  DaemonClient Busy(BCO);
  const uint64_t LongId = Busy.nextRequestId();
  std::atomic<bool> LongDone{false};
  QueryResponse Long;
  std::thread LongThread([&] {
    Long = Busy.call(drfQuery(hugeProgram(93)));
    LongDone = true;
  });

  ClientOptions WCO;
  WCO.SocketPath = Server.Opts.SocketPath;
  WCO.Name = "warm-client";
  DaemonClient Client(WCO);
  for (int I = 0; I < 500 && statsField(statsDetail(Client), "running") != 1;
       ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // An alpha-variant of the warmed query.
  QueryRequest Variant = drfQuery("thread { z := 91; r3 := z; }\n"
                                  "thread { z := 92; }\n");
  QueryResponse Hit = Client.call(Variant);
  EXPECT_FALSE(LongDone.load())
      << "the warm hit waited for the busy worker";
  EXPECT_EQ(Hit.Status, ResponseStatus::Ok);
  EXPECT_EQ(Hit.str(), evaluateQuery(Variant, Big).str());
  std::string Detail = statsDetail(Client);
  EXPECT_EQ(statsField(Detail, "answered-at-admission"), 1u) << Detail;
  EXPECT_EQ(statsField(Detail, "running"), 1u) << Detail;

  {
    DaemonClient Side(BCO); // same client name: may cancel its request
    statsDetail(Side);      // connects; cancel() needs a live connection
    Side.cancel(LongId);
  }
  LongThread.join();
  EXPECT_EQ(Long.Status, ResponseStatus::Ok);
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.AnsweredAtAdmission, 1u);
  EXPECT_EQ(S.Admitted, 2u);
}

TEST(Daemon, EveryAdmittedQueryProbesTheVerdictCacheOnce) {
  // N distinct cold queries miss once each (at admission; the worker
  // computes without probing again), then their alpha-variants hit once
  // each. A second probe anywhere shows up in these deltas.
  ServerOptions O;
  O.SocketPath = uniqueSocket("oneprobe");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "oneprobe-test";
  DaemonClient Client(CO);

  const unsigned N = 4;
  auto Query = [](unsigned I, const char *Loc) {
    std::string C = std::to_string(201 + I);
    return drfQuery(std::string("thread { ") + Loc + " := " + C +
                    "; r0 := " + Loc + "; }\nthread { " + Loc + " := " +
                    C + "; }\n");
  };
  std::string Before = statsDetail(Client);
  std::vector<QueryResponse> Cold;
  for (unsigned I = 0; I < N; ++I)
    Cold.push_back(Client.call(Query(I, "p")));
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Client.call(Query(I, "q")).str(), Cold[I].str()) << I;
  std::string After = statsDetail(Client);
  auto Delta = [&](const char *Key) {
    return statsField(After, Key) - statsField(Before, Key);
  };
  EXPECT_EQ(Delta("cache-query-misses"), N) << Before << "\n" << After;
  EXPECT_EQ(Delta("cache-query-hits"), N) << Before << "\n" << After;
  EXPECT_EQ(Delta("answered-at-admission"), N);
  EXPECT_EQ(Delta("completed"), 2 * N);
}

TEST(Daemon, AdmissionAnswersReplayOnRetryAndAfterResume) {
  QueryRequest Warm = drfQuery("thread { s := 301; r0 := s; }\n"
                               "thread { s := 302; }\n");
  ASSERT_EQ(evaluateQuery(Warm, TestCeiling).Status, ResponseStatus::Ok);
  QueryRequest Variant = drfQuery("thread { t := 301; r1 := t; }\n"
                                  "thread { t := 302; }\n");
  ServerOptions O;
  O.SocketPath = uniqueSocket("admitreplay");
  O.JournalPath = O.SocketPath + ".journal";
  ClientOptions CO;
  CO.Name = "admitreplay-test";
  CO.FirstRequestId = 1;

  QueryResponse First, Retry;
  std::string Journal;
  {
    ServerFixture Server(O);
    CO.SocketPath = Server.Opts.SocketPath;
    {
      DaemonClient A(CO);
      First = A.call(Variant);
    }
    {
      DaemonClient B(CO); // same identity, same request id
      Retry = B.call(Variant);
    }
    ServerStats S = Server.shutdown();
    EXPECT_EQ(S.AnsweredAtAdmission, 1u);
    EXPECT_EQ(S.Admitted, 1u);
    EXPECT_EQ(S.Completed, 1u);
    EXPECT_EQ(S.Replayed, 1u);
    Journal = readAll(O.JournalPath); // the fixture removes the file
  }
  EXPECT_EQ(First.str(), evaluateQuery(Variant, TestCeiling).str());
  EXPECT_EQ(Retry.str(), First.str());
  // The answer was journaled as an admission followed by its verdict.
  std::vector<std::pair<size_t, char>> Records = journalRecords(Journal);
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].second, 'A');
  EXPECT_EQ(Records[1].second, 'V');

  // A resumed daemon with a cold cache replays the id from the journal:
  // nothing is admitted, probed or recomputed.
  writeAll(O.JournalPath, Journal);
  BehaviourCache::global().clear();
  O.Resume = true;
  ServerFixture Server(O);
  CO.SocketPath = Server.Opts.SocketPath;
  DaemonClient C(CO);
  const uint64_t Misses = BehaviourCache::global().stats().QueryMisses;
  EXPECT_EQ(C.call(Variant).str(), First.str());
  EXPECT_EQ(BehaviourCache::global().stats().QueryMisses, Misses);
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.Admitted, 0u);
  EXPECT_EQ(S.Completed, 0u);
  EXPECT_EQ(S.Resumed, 0u);
  EXPECT_EQ(S.Replayed, 1u);
}

TEST(Daemon, AdmissionHitsReplayAnExhaustedBudgetLikeTheEvaluator) {
  // A cached verdict whose recorded cost exceeds the query's budget class
  // replays into an exhausted budget: Unknown, the same bytes on the
  // admission path as in evaluateQuery.
  QueryRequest Q = drfQuery("thread { u := 401; r0 := u; }\n");
  Q.Budget.MaxVisited = 10;
  BehaviourCache::CachedQuery E;
  E.Kind = VerdictKind::Proved;
  E.Detail = "data-race-free";
  E.CostVisits = 1000;
  BehaviourCache::global().insertQuery(
      canonicalQueryKey(static_cast<uint8_t>(Q.Kind), Q.Program, "",
                        clampBudget(Q.Budget, TestCeiling)),
      E);
  QueryResponse Want = evaluateQuery(Q, TestCeiling);
  ASSERT_EQ(Want.Kind, VerdictKind::Unknown);

  ServerOptions O;
  O.SocketPath = uniqueSocket("admitexhaust");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "admitexhaust-test";
  DaemonClient Client(CO);
  EXPECT_EQ(Client.call(Q).str(), Want.str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.AnsweredAtAdmission, 1u);
}

TEST(Daemon, AdversarialProgramsAnswerTheirOwnBadRequest) {
  // Each is either unframable (raw key) or framed but unparseable: the
  // daemon's answer is the shared evaluator's, naming the submitted
  // text's own line and column.
  std::vector<std::string> Srcs = {
      "thread { " + std::string(10000, '{') + "x := 1;" +
          std::string(10000, '}') + " }\n",
      "thread { " + std::string(10000, '{'),
      "thread { x := 1;\n",
      "thread { x := 1; }\nvolatile x;\n",
      "",
      "thread { x := 99999999999999999999; }\n",
      "thread { x := 1; @ }\n",
      "thread { skip := 1; }\n",
      "thread { x := ; }\n",
      "\n\nthread {\n   y  :=  ;\n}\n",
  };
  std::vector<QueryRequest> Qs;
  for (const std::string &Src : Srcs)
    Qs.push_back(drfQuery(Src));
  // A pair whose transformed half is the broken one.
  QueryRequest Pair;
  Pair.Kind = QueryKind::DrfGuarantee;
  Pair.Program = "thread { x := 1; }\n";
  Pair.Transformed = "thread { x := ; }\n";
  Qs.push_back(Pair);

  ServerOptions O;
  O.SocketPath = uniqueSocket("adversarial");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "adversarial-test";
  DaemonClient Client(CO);
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  ASSERT_EQ(Got.size(), Qs.size());
  for (size_t I = 0; I < Qs.size(); ++I) {
    QueryResponse Want = evaluateQuery(Qs[I], TestCeiling);
    EXPECT_EQ(Want.Status, ResponseStatus::BadRequest) << I;
    EXPECT_EQ(Got[I].str(), Want.str()) << I;
  }
}

TEST(Daemon, CoalescedMalformedVariantsKeepTheirOwnErrors) {
  // Layout variants of one malformed program share a key, so pipelined
  // together they may ride one flight; each still gets the BadRequest
  // naming its own line and column.
  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < 24; ++I)
    Qs.push_back(drfQuery(std::string(I % 6, '\n') + "thread {" +
                          std::string(I % 4, ' ') + " x := ; }\n"));
  ServerOptions O;
  O.SocketPath = uniqueSocket("badflight");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "badflight-test";
  DaemonClient Client(CO);
  std::vector<QueryResponse> Got = Client.callBatch(Qs);
  ASSERT_EQ(Got.size(), Qs.size());
  for (size_t I = 0; I < Qs.size(); ++I)
    EXPECT_EQ(Got[I].str(), evaluateQuery(Qs[I], TestCeiling).str()) << I;
}

TEST(Daemon, AdmissionHitsNeverParse) {
  // A hit is answered from the key alone: a variant spelled with names
  // the process has never seen interns none of them.
  ServerOptions O;
  O.SocketPath = uniqueSocket("noparse");
  ServerFixture Server(O);
  ClientOptions CO;
  CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "noparse-test";
  DaemonClient Client(CO);
  QueryResponse Cold = Client.call(
      drfQuery("thread { x := 1; r1 := y; }\nthread { y := 2; r2 := x; }\n"));
  ASSERT_EQ(Cold.Status, ResponseStatus::Ok);
  size_t Before = Symbol::count();
  QueryResponse Warm =
      Client.call(drfQuery("thread { daemon_fresh_b := 2; r_fresh_b := "
                           "daemon_fresh_a; }\nthread { daemon_fresh_a := 1; "
                           "r_fresh_a := daemon_fresh_b; }\n"));
  EXPECT_EQ(Symbol::count(), Before) << "the hit parsed the query";
  EXPECT_EQ(Warm.str(), Cold.str());
  ServerStats S = Server.shutdown();
  EXPECT_EQ(S.AnsweredAtAdmission, 1u);
}

/// This process's virtual size in KiB (VmSize of /proc/self/status).
uint64_t virtualKiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmSize:", 0) == 0)
      return std::strtoull(Line.c_str() + 7, nullptr, 10);
  return 0;
}

TEST(Daemon, FinishedReaderThreadsAreJoined) {
  // Every connection gets a reader thread with its own stack (8 MiB by
  // default). A reader that has exited is joined while the daemon lives,
  // so 64 connections opened and closed in turn leave no stack per
  // connection mapped. Virtual size, not the mapping count: sanitizer
  // runtimes add mappings per thread that stay after the join.
  ServerOptions O;
  O.SocketPath = uniqueSocket("readers");
  ServerFixture Server(O);
  auto OneConnection = [&] {
    ClientOptions CO;
    CO.SocketPath = Server.Opts.SocketPath;
    CO.Name = "reader-test";
    DaemonClient C(CO);
    statsDetail(C);
  };
  OneConnection();
  uint64_t Before = virtualKiB();
  for (int I = 0; I < 64; ++I)
    OneConnection();
  // A finished reader is joined at the next health tick (~100ms); without
  // the join the 64 stacks would stay mapped (512 MiB at 8 MiB each).
  const uint64_t Bound = 16 * 8192; // 16 default stacks, in KiB
  uint64_t After = virtualKiB();
  for (int I = 0; I < 100 && After >= Before + Bound; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    After = virtualKiB();
  }
  EXPECT_LT(After, Before + Bound)
      << "virtual size went from " << Before << " to " << After << " KiB";
}

} // namespace
