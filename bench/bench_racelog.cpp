//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming race-detector throughput benches over synthetic TSRL logs.
///
/// Three workload mixes (racelog/Synth.h) at 1M-50M events:
///  - `racelog_racefree_epoch`: private-ownership traffic, the epoch
///    engine's same-epoch fast path — the single-thread MB/s headline.
///  - `racelog_mixed_epoch`: lock-protected cross-thread traffic plus a
///    racy pool.
///  - `racelog_mixed_oracle`: the same mix through the full-vector-clock
///    oracle engine — the baseline the epoch optimisation is measured
///    against (its writes scan an O(threads) read clock the epoch engine
///    replaces with one compare).
///  - `racelog_lockheavy_epoch`: acquire/release-dominated traffic, the
///    clock-join path.
///  - `racelog_mixed128_*`: the mixed workload at 128 threads, where the
///    oracle's per-write scan is at full width — the epoch-vs-oracle
///    speedup headline.
///
/// Every row sets bytes_per_second (log bytes scanned) and
/// items_per_second (events); scripts/merge_bench_json.py surfaces them
/// as the `racelog` throughput family and
/// scripts/check_bench_regression.py fails on >15% throughput drops.
/// The up-front claims are semantic only — the engines must agree on
/// every mix — never timing thresholds.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "racelog/Detect.h"
#include "racelog/Synth.h"

#include <string>
#include <vector>

using namespace tracesafe;
using namespace tracesafe::racelog;

namespace {

/// Synthetic logs are deterministic; generate each size once and share it
/// across iterations of every row that scans it.
const std::string &logFor(int Kind, uint64_t Events) {
  struct Key {
    int Kind;
    uint64_t Events;
    std::string Log;
  };
  static std::vector<Key> Cache;
  for (const Key &K : Cache)
    if (K.Kind == Kind && K.Events == Events)
      return K.Log;
  SynthOptions O;
  O.Events = Events;
  O.Threads = Kind == 3 ? 128 : 8; // kind 3: wide mixed — the oracle's
                                   // O(threads) write scan at full width
  Cache.push_back({Kind, Events,
                   Kind == 0   ? makeRaceFreeLog(O)
                   : Kind == 2 ? makeLockHeavyLog(O)
                               : makeMixedLog(O)});
  return Cache.back().Log;
}

void scanRow(benchmark::State &State, int Kind, bool Epochs) {
  const std::string &Log = logFor(Kind, static_cast<uint64_t>(State.range(0)));
  RaceLogOptions O;
  O.Epochs = Epochs;
  uint64_t Events = 0;
  for (auto _ : State) {
    RaceLogReport R = scanRaceLog(Log, O);
    benchmark::DoNotOptimize(R.Stats.RacyLocations);
    Events = R.Stats.Events;
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Log.size()));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Events));
}

void racelog_racefree_epoch(benchmark::State &S) { scanRow(S, 0, true); }
void racelog_mixed_epoch(benchmark::State &S) { scanRow(S, 1, true); }
void racelog_mixed_oracle(benchmark::State &S) { scanRow(S, 1, false); }
void racelog_lockheavy_epoch(benchmark::State &S) { scanRow(S, 2, true); }
void racelog_mixed128_epoch(benchmark::State &S) { scanRow(S, 3, true); }
void racelog_mixed128_oracle(benchmark::State &S) { scanRow(S, 3, false); }

BENCHMARK(racelog_racefree_epoch)
    ->Arg(1 << 20)
    ->Arg(8 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(racelog_mixed_epoch)->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK(racelog_mixed_oracle)->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK(racelog_lockheavy_epoch)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(racelog_mixed128_epoch)->Arg(1 << 20)->Unit(benchmark::kMillisecond);
BENCHMARK(racelog_mixed128_oracle)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void claims() {
  using benchutil::claim;
  benchutil::header("racelog streaming detector",
                    "FastTrack-style epochs vs full vector clocks");
  // Semantic claims only: the rows above are timing, these are verdicts.
  for (int Kind = 0; Kind < 4; ++Kind) {
    const std::string &Log = logFor(Kind, 1 << 18);
    RaceLogOptions Epoch;
    RaceLogOptions Oracle;
    Oracle.Epochs = false;
    RaceLogReport RE = scanRaceLog(Log, Epoch);
    RaceLogReport RO = scanRaceLog(Log, Oracle);
    const char *Name = Kind == 0   ? "race-free"
                       : Kind == 1 ? "mixed"
                       : Kind == 2 ? "lock-heavy"
                                   : "wide-mixed";
    bool ExpectRacy = Kind == 1 || Kind == 3;
    claim(std::string(Name) + " mix: epoch engine verdict is " +
              (ExpectRacy ? "racy" : "race-free"),
          RE.Races.empty() != ExpectRacy);
    claim(std::string(Name) +
              " mix: oracle agrees with the epoch engine race-by-race",
          RO.Stats.RacyLocations == RE.Stats.RacyLocations &&
              RO.Races.size() == RE.Races.size());
  }
}

} // namespace

TRACESAFE_BENCH_MAIN(claims)
