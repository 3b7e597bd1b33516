//===----------------------------------------------------------------------===//
///
/// \file
/// Chaos smoke test for tracesafed crash recovery, registered in ctest as
/// `daemon_chaos_smoke` and parameterised over both transports (unix
/// socket and TCP loopback). A real daemon process is spawned (fork +
/// exec of the installed binary — never fork-and-run, the test process
/// has threads), a v2 streaming client pumps a seeded 16-query batch at
/// it, and the daemon is SIGKILLed once the journal shows partial
/// progress. A second daemon started with --resume on the same listener
/// and journal must serve the rest, and the merged transcript must be
/// byte-identical to a single-process reference run of the same batch —
/// replayed verdicts arrive final-frame-only (no Progress), which this
/// client asserts. Finally the survivor is SIGTERMed and must exit 130
/// per the unified signal contract.
///
/// Determinism relies on a wall-clock-free quota (visit/memory caps only)
/// and on the daemon running each query's engines sequentially; cache
/// warmth invariance keeps Visited identical no matter which daemon — or
/// the reference process — computes a verdict.
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "daemon/Server.h"
#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "support/Rng.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

/// Must match the --quota-* flags passed to the daemon below.
const BudgetSpec ChaosCeiling{/*DeadlineMs=*/0, /*MaxVisited=*/50'000,
                              /*MaxMemoryBytes=*/128ULL << 20};

/// Where the daemon under test listens: a unix socket path or a TCP
/// loopback address, per test parameter.
struct Listener {
  std::string Transport; ///< "unix" or "tcp"
  std::string Spec;      ///< socket path, or "127.0.0.1:port"
};

pid_t spawnDaemon(const Listener &L, const std::string &Journal,
                  bool Resume) {
  const char *Flag = L.Transport == "tcp" ? "--listen" : "--socket";
  pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid;
  // Child: exec only — running C++ in a forked child of a threaded
  // process is undefined (another thread may hold the malloc lock).
  if (Resume)
    ::execl(TRACESAFE_TRACESAFED, "tracesafed", Flag, L.Spec.c_str(),
            "--journal", Journal.c_str(), "--resume", "--quota-deadline-ms",
            "0", "--quota-visited", "50000", "--quota-mem-mb", "128",
            (char *)nullptr);
  else
    ::execl(TRACESAFE_TRACESAFED, "tracesafed", Flag, L.Spec.c_str(),
            "--journal", Journal.c_str(), "--quota-deadline-ms", "0",
            "--quota-visited", "50000", "--quota-mem-mb", "128",
            (char *)nullptr);
  _exit(127);
}

/// Verdict records in the journal's valid prefix (a record's last payload
/// byte is its type; see JournalFormat).
size_t countVerdictRecords(const std::string &Path) {
  size_t N = 0;
  readRecordLog(Path, JournalFormat, [&](std::string_view P) {
    N += !P.empty() && P.back() == 'V';
  });
  return N;
}

/// A seeded batch rotating all four query kinds over generated programs,
/// with optimiser-produced transforms for the two-program kinds.
std::vector<QueryRequest> chaosBatch() {
  // Big enough that each query does real exploration work (tens of
  // milliseconds under the 50k-visit ceiling), so the SIGKILL below has a
  // wide mid-batch window to land in.
  Rng R(0xC4A05);
  GenOptions GO;
  GO.Threads = 3;
  GO.MinStmtsPerThread = 4;
  GO.MaxStmtsPerThread = 8;
  GO.Locations = 3;
  std::vector<QueryRequest> Qs;
  for (unsigned I = 0; I < 16; ++I) {
    Program P = generateProgram(R, GO);
    QueryRequest Q;
    Q.Program = printProgram(P);
    switch (I % 4) {
    case 0:
      Q.Kind = QueryKind::ProgramDrf;
      break;
    case 1:
      Q.Kind = QueryKind::Behaviours;
      break;
    case 2:
      Q.Kind = QueryKind::DrfGuarantee;
      Q.Transformed =
          printProgram(greedyChain(P, RuleSet::all(), 4).Result);
      break;
    default:
      Q.Kind = QueryKind::ThinAir;
      Q.Transformed =
          printProgram(greedyChain(P, RuleSet::eliminationsOnly(), 4).Result);
      break;
    }
    Qs.push_back(std::move(Q));
  }
  return Qs;
}

class DaemonChaos : public ::testing::TestWithParam<const char *> {};

TEST_P(DaemonChaos, Kill9MidBatchResumesToIdenticalTranscript) {
  namespace fs = std::filesystem;
  std::string Transport = GetParam();
  std::string Dir =
      (fs::temp_directory_path() /
       ("tracesafed_chaos_" + Transport + "_" + std::to_string(::getpid())))
          .string();
  fs::create_directories(Dir);
  std::string Journal = Dir + "/d.journal";
  Listener L;
  L.Transport = Transport;
  if (Transport == "tcp")
    // A pid-derived loopback port: ephemeral-range, collision-unlikely,
    // and identical for the pre- and post-crash daemons (SO_REUSEADDR
    // makes the rebind immediate).
    L.Spec = "127.0.0.1:" +
             std::to_string(20000 + (::getpid() * 7 + 3) % 20000);
  else
    L.Spec = Dir + "/d.sock";

  std::vector<QueryRequest> Qs = chaosBatch();

  // The reference transcript: the same shared evaluator the daemon
  // workers run, in this process, under the same ceiling.
  std::vector<std::string> Want;
  for (const QueryRequest &Q : Qs)
    Want.push_back(evaluateQuery(Q, ChaosCeiling).str());

  pid_t First = spawnDaemon(L, Journal, /*Resume=*/false);
  ASSERT_GT(First, 0);

  // The client rides through the crash: generous attempts and a short
  // backoff cap bridge the kill/restart window. It negotiates v2
  // streaming, so replay suppression is observable: requests whose
  // verdicts are served from the journal after the restart must arrive
  // final-frame-only.
  ClientOptions CO;
  setServerSpec(CO, L.Spec);
  CO.Name = "chaos-client";
  CO.FirstRequestId = 1;
  CO.MaxAttempts = 64;
  CO.BackoffCapMs = 100;
  CO.Streaming = true;
  std::mutex ProgressM;
  std::set<uint64_t> ProgressIds;
  uint64_t ProgressFrames = 0;
  CO.OnProgress = [&](uint64_t Id, const ProgressUpdate &) {
    std::lock_guard<std::mutex> Lock(ProgressM);
    ProgressIds.insert(Id);
    ++ProgressFrames;
  };
  std::vector<QueryResponse> Got;
  std::thread Client([&] {
    DaemonClient C(CO);
    Got = C.callBatch(Qs);
  });

  // Kill -9 once the journal proves partial progress (>=2 verdicts
  // durable, the rest orphaned admissions).
  bool SawProgress = false;
  for (int I = 0; I < 20000; ++I) {
    if (countVerdictRecords(Journal) >= 2) {
      SawProgress = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(SawProgress) << "daemon never journalled two verdicts";
  ASSERT_EQ(::kill(First, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(First, &Status, 0), First);
  ASSERT_TRUE(WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL);

  size_t Durable = countVerdictRecords(Journal);
  pid_t Second = spawnDaemon(L, Journal, /*Resume=*/true);
  ASSERT_GT(Second, 0);

  Client.join();

  ASSERT_EQ(Got.size(), Qs.size());
  for (size_t I = 0; I < Qs.size(); ++I) {
    EXPECT_EQ(Got[I].Status, ResponseStatus::Ok) << "query " << I;
    EXPECT_EQ(Got[I].str(), Want[I])
        << "query " << I << " diverged across the crash";
  }
  EXPECT_GE(countVerdictRecords(Journal), Qs.size())
      << "the merged journal must cover the whole batch";
  EXPECT_LT(Durable, Qs.size())
      << "the kill was supposed to land mid-batch (flaky-machine note: "
         "daemon finished everything before the signal)";
  {
    // Streaming was negotiated and live queries heartbeat; replayed
    // verdicts are final-frame-only, so fewer request ids stream than
    // complete. (Exact counts are timing-dependent; the invariants are
    // "some progress" and "not every id streamed after a mid-batch
    // kill with >=1 journal-replayed verdict".)
    std::lock_guard<std::mutex> Lock(ProgressM);
    EXPECT_GE(ProgressFrames, 1u) << "v2 streaming never delivered";
    EXPECT_LE(ProgressIds.size(), Qs.size());
  }

  // The unified signal contract: SIGTERM -> flush, cancel, exit 130.
  ASSERT_EQ(::kill(Second, SIGTERM), 0);
  ASSERT_EQ(::waitpid(Second, &Status, 0), Second);
  ASSERT_TRUE(WIFEXITED(Status)) << "daemon must exit, not be killed";
  EXPECT_EQ(WEXITSTATUS(Status), 130);

  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

INSTANTIATE_TEST_SUITE_P(Transports, DaemonChaos,
                         ::testing::Values("unix", "tcp"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace
