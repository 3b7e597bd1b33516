//===----------------------------------------------------------------------===//
///
/// \file
/// tracesafed throughput benches: queries/sec through the full daemon
/// stack — wire protocol, admission control, budget clamp, scheduling on
/// the query workers — against an in-process server listening on both a
/// unix socket and TCP loopback.
///
/// `daemon_query_warm` is the overhead floor (the verdict cache answers
/// the engine work, so the row is protocol + admission + scheduling);
/// `daemon_query_cold` includes a full exploration per query;
/// `daemon_batch32_warm` amortises round trips over a pipelined batch;
/// the `_c4` row drives four concurrent client connections; the `_tcp`
/// rows repeat the warm and batch shapes over TCP loopback, so the
/// unix-vs-TCP transport tax is one diff away.
///
/// The memoisation-plane rows: `daemon_dedup_burst32` submits 32
/// *identical* cold queries per iteration (single-flight computes one,
/// fans out 32 verdicts); `daemon_warm_restart` clears the process cache
/// and reloads it from the persisted TSCS store before every query — the
/// restarted-daemon path; `canonical_key` is the canonicalisation
/// microbench (parse + alpha-rename + key build). `daemon_racelog_2mib`
/// is the MiB-frame ingest path: one 2 MiB RaceLog round trip per
/// iteration (client encode and CRC, frame-sized reads, decode,
/// admission, single-shard scan). Each row sets items_per_second =
/// queries/sec for scripts/merge_bench_json.py, which surfaces them as
/// the `daemon` and `cache` families in BENCH_results.json; the racelog
/// row also sets bytes_per_second (log bytes verdicted), on which
/// check_bench_regression.py gates it.
///
/// `crc32_4mib` and `crc32_portable_4mib` price the checksum every frame,
/// TSRL block and record-log record pays, on a 4 MiB buffer (the top of
/// the racelog-scan query sizes): crc32 as dispatched on this host
/// against its slice-by-8 path alone. Both set bytes_per_second.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "daemon/Client.h"
#include "daemon/Server.h"
#include "racelog/Log.h"
#include "racelog/Synth.h"
#include "support/Crc32.h"
#include "verify/BehaviourCache.h"
#include "verify/CacheStore.h"
#include "verify/Canonical.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

const char *WarmSource = "thread { x := 1; r0 := x; print r0; }\n"
                         "thread { x := 0; r1 := x; }\n";

/// A repeat-hot-shaped query (~480 bytes): two threads, comments, mixed
/// indentation and assignment spacing, alpha-renamed names — what the
/// daemon keys on every submit of that workload.
const char *RepeatHotSource =
    "// v417\n"
    "volatile cell_3;\n"
    "thread {\n"
    "    rq_0  :=\tx_2;\n"
    "  // v88\n"
    "  if (rq_0 == 1) {\n"
    "      cell_3:=rq_0;   // 51723\n"
    "  } else {\n"
    "\tlk_5 := 2;\n"
    "  }\n"
    "    print rq_0;\n"
    "  x_2 := rq_0;   // 3391\n"
    "    rq_0 := x_2;   // 60021\n"
    "  rz_9 := 1007;\n"
    "}\n"
    "// v902\n"
    "thread {\n"
    "\tlock mu_4;\n"
    "      x_2 := 1;   // 90412\n"
    "  rk_1:=cell_3;\n"
    "\tunlock mu_4;\n"
    "  // v5\n"
    "\n"
    "  lk_5  :=\trk_1;\n"
    "    if (rk_1 != 0) {\n"
    "      rm_6 := lk_5;\n"
    "    } else {\n"
    "      skip;\n"
    "    }\n"
    "  print rk_1;\n"
    "\tprint rm_6;\n"
    "      cell_3 := 2;   // 7715\n"
    "  skip;\n"
    "}\n"
    "// v1\n";

/// Wall-clock-free ceiling: the rows measure work, not deadline jitter.
const BudgetSpec BenchCeiling{/*DeadlineMs=*/0, /*MaxVisited=*/500'000,
                              /*MaxMemoryBytes=*/256ULL << 20};

/// One in-process daemon shared by every benchmark in this binary.
struct BenchServer {
  ServerOptions Opts;
  CancelToken Stop;
  ServerStats Stats;
  std::atomic<uint16_t> TcpPort{0};
  std::thread Thread;

  std::string SeedFile; ///< claims-era snapshot of the cache store

  void start() {
    std::string Stem = (std::filesystem::temp_directory_path() /
                        ("tracesafed_bench_" + std::to_string(::getpid())))
                           .string();
    Opts.SocketPath = Stem + ".sock";
    Opts.CacheFile = Stem + ".cache";
    SeedFile = Stem + ".cache.seed";
    std::remove(Opts.CacheFile.c_str());
    std::remove(SeedFile.c_str());
    Opts.ListenAddress = "127.0.0.1:0";
    Opts.BoundTcpPort = &TcpPort;
    Opts.QuotaCeiling = BenchCeiling;
    Opts.QueueCap = 256;
    Opts.Stop = &Stop;
    Thread = std::thread([this] { runServer(Opts, &Stats); });
    for (int I = 0; I < 500; ++I) {
      int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                    Opts.SocketPath.c_str());
      bool Up = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr)) == 0;
      ::close(Fd);
      if (Up && TcpPort.load() != 0)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  void stop() {
    Stop.request();
    if (Thread.joinable())
      Thread.join();
    std::remove(Opts.SocketPath.c_str());
    std::remove(Opts.CacheFile.c_str());
    std::remove(SeedFile.c_str());
  }
};

BenchServer Server;

DaemonClient makeClient(const std::string &Tag, bool OverTcp = false) {
  static std::atomic<unsigned> Counter{0};
  ClientOptions CO;
  if (OverTcp)
    CO.Address = "127.0.0.1:" + std::to_string(Server.TcpPort.load());
  else
    CO.SocketPath = Server.Opts.SocketPath;
  CO.Name = "bench-" + Tag + "-" + std::to_string(Counter.fetch_add(1));
  return DaemonClient(CO);
}

QueryRequest warmQuery() {
  QueryRequest Q;
  Q.Kind = QueryKind::ProgramDrf;
  Q.Program = WarmSource;
  return Q;
}

/// Distinct program text per call: a fresh stored *constant* defeats the
/// verdict cache. (A fresh location name no longer would — canonical
/// keys alpha-rename identifiers away.) The program is race-free with
/// conflicting volatile accesses, so the DRF search has real
/// interleavings to cover and the row prices a genuine exploration.
QueryRequest coldQuery() {
  static std::atomic<uint64_t> Counter{0};
  uint64_t N = Counter.fetch_add(1);
  QueryRequest Q;
  Q.Kind = QueryKind::ProgramDrf;
  Q.Program = "volatile v;\nthread { v := " + std::to_string(N + 2) +
              "; r0 := v; v := r0; r1 := v; print r1; }\n"
              "thread { v := 1; r2 := v; v := r2; r3 := v; }\n";
  return Q;
}

/// One counter from a live Stats snapshot (0 when absent). Keys match at
/// a key boundary only, so "cache-hits" cannot alias a longer key.
uint64_t statsValue(DaemonClient &Client, const std::string &Key) {
  QueryRequest Q;
  Q.Kind = QueryKind::Stats;
  std::string D = Client.call(Q).Detail;
  std::string Needle = Key + "=";
  size_t Pos = D.find(Needle);
  while (Pos != std::string::npos && Pos != 0 && D[Pos - 1] != ' ')
    Pos = D.find(Needle, Pos + 1);
  if (Pos == std::string::npos)
    return 0;
  return std::strtoull(D.c_str() + Pos + Needle.size(), nullptr, 10);
}

void daemon_query_warm(benchmark::State &State) {
  DaemonClient Client = makeClient("warm");
  QueryRequest Q = warmQuery();
  uint64_t H0 = statsValue(Client, "cache-query-hits");
  uint64_t M0 = statsValue(Client, "cache-query-misses");
  for (auto _ : State) {
    QueryResponse R = Client.call(Q);
    benchmark::DoNotOptimize(R.Visited);
  }
  uint64_t Hits = statsValue(Client, "cache-query-hits") - H0;
  uint64_t Misses = statsValue(Client, "cache-query-misses") - M0;
  if (Hits + Misses)
    State.counters["cache_hit_rate"] =
        benchmark::Counter(static_cast<double>(Hits) /
                           static_cast<double>(Hits + Misses));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(daemon_query_warm)->UseRealTime()->Unit(benchmark::kMicrosecond);

void daemon_query_warm_c4(benchmark::State &State) {
  // Four concurrent connections hammering the admission path; aggregate
  // items/sec is the daemon's multi-client throughput.
  DaemonClient Client = makeClient("warm-c4");
  QueryRequest Q = warmQuery();
  for (auto _ : State) {
    QueryResponse R = Client.call(Q);
    benchmark::DoNotOptimize(R.Visited);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(daemon_query_warm_c4)->Threads(4)->UseRealTime()->Unit(benchmark::kMicrosecond);

void daemon_query_cold(benchmark::State &State) {
  DaemonClient Client = makeClient("cold");
  for (auto _ : State) {
    QueryResponse R = Client.call(coldQuery());
    benchmark::DoNotOptimize(R.Visited);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(daemon_query_cold)->UseRealTime()->Unit(benchmark::kMicrosecond);

void daemon_batch32_warm(benchmark::State &State) {
  DaemonClient Client = makeClient("batch");
  std::vector<QueryRequest> Qs(32, warmQuery());
  for (auto _ : State) {
    std::vector<QueryResponse> Rs = Client.callBatch(Qs);
    benchmark::DoNotOptimize(Rs.size());
  }
  State.SetItemsProcessed(State.iterations() * 32);
}
BENCHMARK(daemon_batch32_warm)->UseRealTime()->Unit(benchmark::kMicrosecond);

void daemon_query_warm_tcp(benchmark::State &State) {
  // The warm row over TCP loopback: diffing against daemon_query_warm
  // isolates the transport tax (TCP_NODELAY round trip vs unix socket).
  DaemonClient Client = makeClient("warm-tcp", /*OverTcp=*/true);
  QueryRequest Q = warmQuery();
  for (auto _ : State) {
    QueryResponse R = Client.call(Q);
    benchmark::DoNotOptimize(R.Visited);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(daemon_query_warm_tcp)->UseRealTime()->Unit(benchmark::kMicrosecond);

void daemon_batch32_warm_tcp(benchmark::State &State) {
  DaemonClient Client = makeClient("batch-tcp", /*OverTcp=*/true);
  std::vector<QueryRequest> Qs(32, warmQuery());
  for (auto _ : State) {
    std::vector<QueryResponse> Rs = Client.callBatch(Qs);
    benchmark::DoNotOptimize(Rs.size());
  }
  State.SetItemsProcessed(State.iterations() * 32);
}
BENCHMARK(daemon_batch32_warm_tcp)->UseRealTime()->Unit(benchmark::kMicrosecond);

void canonical_key(benchmark::State &State) {
  // The key every submit of a program query pays before its cache probe:
  // lex, frame, alpha-rename, thread-order sort, key build. Pure CPU — no
  // daemon round trip.
  BudgetSpec Spec = clampBudget(BudgetSpec{}, BenchCeiling);
  const std::string Source = RepeatHotSource;
  for (auto _ : State) {
    std::string K = canonicalQueryKey(
        static_cast<uint8_t>(QueryKind::ProgramDrf), Source, std::string(),
        Spec);
    benchmark::DoNotOptimize(K.data());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(canonical_key)->UseRealTime()->Unit(benchmark::kMicrosecond);

void daemon_dedup_burst32(benchmark::State &State) {
  // 32 byte-identical *cold* queries pipelined per iteration: the leader
  // pays the exploration once, single-flight fans the verdict out to the
  // other 31 (or they hit the cache if the leader already landed). The
  // per-query rate prices dedup against daemon_query_cold.
  DaemonClient Client = makeClient("dedup");
  for (auto _ : State) {
    std::vector<QueryRequest> Burst(32, coldQuery());
    std::vector<QueryResponse> Rs = Client.callBatch(Burst);
    benchmark::DoNotOptimize(Rs.size());
  }
  State.SetItemsProcessed(State.iterations() * 32);
}
BENCHMARK(daemon_dedup_burst32)->UseRealTime()->Unit(benchmark::kMicrosecond);

void daemon_racelog_2mib(benchmark::State &State) {
  // RaceLog verdicts are not memoised and every call is a fresh request
  // id, so each iteration moves and scans the whole log.
  DaemonClient Client = makeClient("racelog");
  racelog::SynthOptions SO;
  SO.Events = (2u << 20) / racelog::EventRecordSize;
  QueryRequest Q;
  Q.Kind = QueryKind::RaceLog;
  Q.Program = racelog::makeMixedLog(SO);
  for (auto _ : State) {
    QueryResponse R = Client.call(Q);
    benchmark::DoNotOptimize(R.Visited);
  }
  State.SetItemsProcessed(State.iterations());
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Q.Program.size()));
}
BENCHMARK(daemon_racelog_2mib)->UseRealTime()->Unit(benchmark::kMillisecond);

/// A 4 MiB buffer of run-time bytes for the CRC rows.
const std::string &crcInput() {
  static const std::string Buf = [] {
    racelog::SynthOptions SO;
    SO.Events = (4u << 20) / racelog::EventRecordSize;
    return racelog::makeMixedLog(SO);
  }();
  return Buf;
}

void crcRow(benchmark::State &State,
            uint32_t (*Crc)(const void *, size_t, uint32_t)) {
  const std::string &Buf = crcInput();
  for (auto _ : State) {
    uint32_t C = Crc(Buf.data(), Buf.size(), 0);
    benchmark::DoNotOptimize(C);
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Buf.size()));
}

void crc32_4mib(benchmark::State &State) { crcRow(State, crc32); }
BENCHMARK(crc32_4mib)->UseRealTime()->Unit(benchmark::kMicrosecond);

void crc32_portable_4mib(benchmark::State &State) {
  crcRow(State, crc32Portable);
}
BENCHMARK(crc32_portable_4mib)->UseRealTime()->Unit(benchmark::kMicrosecond);

// Registered last: it clears the process-global cache every iteration,
// which would turn any later warm row cold.
void daemon_warm_restart(benchmark::State &State) {
  // The restarted-daemon path: drop every in-memory entry, reload the
  // persisted store (snapshotted by claims() while it held exactly the
  // warm verdict), then answer the query from the reloaded cache.
  DaemonClient Client = makeClient("restart");
  QueryRequest Q = warmQuery();
  for (auto _ : State) {
    BehaviourCache::global().clear();
    loadCacheStore(Server.SeedFile, BehaviourCache::global());
    QueryResponse R = Client.call(Q);
    benchmark::DoNotOptimize(R.Visited);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(daemon_warm_restart)->UseRealTime()->Unit(benchmark::kMicrosecond);

void claims() {
  using tracesafe::benchutil::claim;
  tracesafe::benchutil::header(
      "tracesafed throughput",
      "daemonised verification with admission control");
  Server.start();
  DaemonClient Client = makeClient("claims");
  QueryResponse Remote = Client.call(warmQuery());
  QueryResponse Local = evaluateQuery(warmQuery(), BenchCeiling);
  claim("remote verdict bytes match the in-process evaluator",
        Remote.str() == Local.str());
  claim("warm query is answered Ok (admission not saturated)",
        Remote.Status == ResponseStatus::Ok);
  DaemonClient Tcp = makeClient("claims-tcp", /*OverTcp=*/true);
  QueryResponse OverTcp = Tcp.call(warmQuery());
  claim("TCP loopback verdict bytes match the unix transport",
        OverTcp.str() == Remote.str());

  // Warm-restart seed: snapshot the spill file while it holds exactly
  // the claims-era warm verdict, before the cold rows flood it.
  std::error_code Ec;
  std::filesystem::copy_file(
      Server.Opts.CacheFile, Server.SeedFile,
      std::filesystem::copy_options::overwrite_existing, Ec);
  claim("the warm verdict was spilled to the persistent store",
        !Ec && std::filesystem::file_size(Server.SeedFile, Ec) > 16);
  BehaviourCache::global().clear();
  CacheStoreInfo Info =
      loadCacheStore(Server.SeedFile, BehaviourCache::global());
  QueryResponse Reloaded = Client.call(warmQuery());
  claim("a cache-cleared daemon answers warm from the reloaded store",
        Info.Loaded > 0 && Reloaded.str() == Remote.str());

  QueryRequest D = coldQuery();
  std::vector<QueryRequest> Burst(32, D);
  std::vector<QueryResponse> Rs = Client.callBatch(Burst);
  bool AllEqual = Rs.size() == 32;
  for (const QueryResponse &R : Rs)
    AllEqual = AllEqual && R.str() == Rs[0].str();
  claim("a 32-identical burst returns 32 byte-identical verdicts",
        AllEqual);
  claim("the burst was served by single-flight dedup or the cache",
        statsValue(Client, "coalesced") +
                statsValue(Client, "cache-query-hits") >=
            31);
}

} // namespace

int main(int argc, char **argv) {
  claims();
  ::benchmark::AddCustomContext("tracesafe_build_type",
                                ::tracesafe::benchutil::buildType());
  ::benchmark::Initialize(&argc, argv);
  int Rc = 1;
  if (!::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    Rc = ::tracesafe::benchutil::Failures == 0 ? 0 : 2;
  }
  Server.stop(); // before exit: the listener thread must join
  return Rc;
}
