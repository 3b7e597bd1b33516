//===----------------------------------------------------------------------===//
///
/// \file
/// Exploration engine benches: the seed's exhaustive enumerator
/// (ExhaustiveOracle) against the reduced engine (hash-consed interned
/// states + sleep-set POR), both sequential, on the two memoised
/// workhorse queries — behaviour collection and adjacent-race search.
///
/// The headline claim: the reduced engine is at least 4x faster than the
/// seed engine on the interleaving-heavy tracesets. The speedup is
/// algorithmic — sleep sets prune redundant arrivals and interning
/// replaces lexicographic std::set compares.
///
/// Bench names encode the engine configuration for BENCH_results.json
/// (scripts/merge_bench_json.py): `_oracle` is the seed engine, `_nopor`
/// the interned engine without reduction, `_por` the full engine; `_w1`
/// keeps the row names of earlier recordings.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Symbol.h"
#include "trace/Enumerate.h"

#include <chrono>

using namespace tracesafe;

namespace {

/// N threads, each a single straight-line trace of K writes to its own
/// location. Fully independent across threads: the worst case for the
/// exhaustive enumerator (every interleaving order re-arrives at every
/// product state) and the best case for sleep sets.
Traceset independentWriters(unsigned Threads, unsigned Writes) {
  Traceset T({0, 1});
  for (ThreadId Tid = 0; Tid < Threads; ++Tid) {
    SymbolId Loc = Symbol::intern("ind" + std::to_string(Tid));
    Trace Tr{Action::mkStart(Tid)};
    for (unsigned I = 0; I < Writes; ++I)
      Tr.push_back(Action::mkWrite(Loc, I % 2));
    T.insert(Tr);
  }
  return T;
}

/// Like independentWriters but the last action of every thread hits one
/// shared location, so a race exists and the race query has real work in
/// both the clean prefix and the conflicting tail.
Traceset sharedTailWriters(unsigned Threads, unsigned Writes) {
  Traceset T({0, 1});
  SymbolId Shared = Symbol::intern("shared_tail");
  for (ThreadId Tid = 0; Tid < Threads; ++Tid) {
    SymbolId Loc = Symbol::intern("pfx" + std::to_string(Tid));
    Trace Tr{Action::mkStart(Tid)};
    for (unsigned I = 0; I + 1 < Writes; ++I)
      Tr.push_back(Action::mkWrite(Loc, I % 2));
    Tr.push_back(Action::mkWrite(Shared, Tid % 2));
    T.insert(Tr);
  }
  return T;
}

/// Reader/writer mix over a small shared state with prints: value
/// branching in the reads and a non-trivial behaviour set.
Traceset readersAndWriters(unsigned Readers) {
  Traceset T({0, 1});
  SymbolId X = Symbol::intern("rw_x");
  T.insert(Trace{Action::mkStart(0), Action::mkWrite(X, 1),
                 Action::mkWrite(X, 0)});
  for (ThreadId Tid = 1; Tid <= Readers; ++Tid) {
    SymbolId Loc = Symbol::intern("rw_l" + std::to_string(Tid));
    for (Value V : {0, 1})
      T.insert(Trace{Action::mkStart(Tid), Action::mkWrite(Loc, 1),
                     Action::mkRead(X, V), Action::mkExternal(V)});
  }
  return T;
}

EnumerationLimits engine(bool Oracle, bool Por = true) {
  EnumerationLimits L;
  L.ExhaustiveOracle = Oracle;
  L.SleepSets = Por;
  return L;
}

// --- timed claims -----------------------------------------------------------

/// Median-of-3 wall time of one query run.
template <typename Fn> double secondsFor(Fn &&F) {
  double Best = 1e100;
  for (int I = 0; I < 3; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    F();
    auto T1 = std::chrono::steady_clock::now();
    Best = std::min(Best, std::chrono::duration<double>(T1 - T0).count());
  }
  return Best;
}

void claims() {
  benchutil::header("exploration engine", "sleep-set POR + interning");

  Traceset Ind = independentWriters(4, 10);
  Traceset Tail = sharedTailWriters(4, 10);
  Traceset BigTail = sharedTailWriters(5, 9);
  Traceset Rw = readersAndWriters(3);

  // Verdict parity first: a fast wrong engine is worthless.
  std::set<Behaviour> WantB = collectBehaviours(Rw, engine(true));
  benchutil::claim("reduced engine behaviour set == seed oracle",
                   collectBehaviours(Rw, engine(false)) == WantB);
  bool WantRace = findAdjacentRace(Tail, engine(true)).HasRace;
  benchutil::claim("reduced engine race verdict == seed oracle (racy set)",
                   findAdjacentRace(Tail, engine(false)).HasRace ==
                       WantRace);
  benchutil::claim("seed oracle finds the shared-tail race", WantRace);
  benchutil::claim(
      "reduced engine proves the independent set race-free",
      !findAdjacentRace(Ind, engine(false)).HasRace &&
          !findAdjacentRace(Ind, engine(true)).HasRace);

  // The acceptance bar: >= 4x on both memoised queries.
  double RaceOracle =
      secondsFor([&] { findAdjacentRace(Ind, engine(true)); });
  double RacePor = secondsFor([&] { findAdjacentRace(Ind, engine(false)); });
  double BehOracle =
      secondsFor([&] { collectBehaviours(BigTail, engine(true)); });
  double BehPor =
      secondsFor([&] { collectBehaviours(BigTail, engine(false)); });
  std::printf("  race query:      oracle %.1fms, reduced %.1fms (%.1fx)\n",
              RaceOracle * 1e3, RacePor * 1e3, RaceOracle / RacePor);
  std::printf("  behaviour query: oracle %.1fms, reduced %.1fms (%.1fx)\n",
              BehOracle * 1e3, BehPor * 1e3, BehOracle / BehPor);
  benchutil::claim("race query >= 4x faster than seed engine",
                   RaceOracle / RacePor >= 4.0);
  benchutil::claim("behaviour query >= 4x faster than seed engine",
                   BehOracle / BehPor >= 4.0);

  // Source sets layered on sleep sets: same answers, fewer arrivals on
  // independence-heavy tracesets.
  EnumerationLimits Src = engine(false);
  EnumerationLimits NoSrc = engine(false);
  NoSrc.SourceSets = false;
  EnumerationStats WithSrc, WithoutSrc;
  std::set<Behaviour> SrcB = collectBehaviours(Ind, Src, &WithSrc);
  std::set<Behaviour> NoSrcB = collectBehaviours(Ind, NoSrc, &WithoutSrc);
  std::printf("  source sets: %llu states vs %llu sleep-sets-only\n",
              static_cast<unsigned long long>(WithSrc.Visited),
              static_cast<unsigned long long>(WithoutSrc.Visited));
  benchutil::claim("source sets preserve the behaviour set", SrcB == NoSrcB);
  benchutil::claim("source sets do not explore more than sleep sets alone",
                   WithSrc.Visited <= WithoutSrc.Visited);
}

// --- timed benchmarks -------------------------------------------------------

void BM_race_independent_oracle(benchmark::State &S) {
  Traceset T = independentWriters(4, 10);
  for (auto _ : S)
    benchmark::DoNotOptimize(findAdjacentRace(T, engine(true)).HasRace);
}
BENCHMARK(BM_race_independent_oracle)->Unit(benchmark::kMillisecond);

void BM_race_independent_nopor_w1(benchmark::State &S) {
  Traceset T = independentWriters(4, 10);
  for (auto _ : S)
    benchmark::DoNotOptimize(
        findAdjacentRace(T, engine(false, /*Por=*/false)).HasRace);
}
BENCHMARK(BM_race_independent_nopor_w1)->Unit(benchmark::kMillisecond);

void BM_race_independent_por_w1(benchmark::State &S) {
  Traceset T = independentWriters(4, 10);
  for (auto _ : S)
    benchmark::DoNotOptimize(findAdjacentRace(T, engine(false)).HasRace);
}
BENCHMARK(BM_race_independent_por_w1)->Unit(benchmark::kMillisecond);

void BM_behaviours_sharedtail_oracle(benchmark::State &S) {
  Traceset T = sharedTailWriters(5, 9);
  for (auto _ : S)
    benchmark::DoNotOptimize(collectBehaviours(T, engine(true)).size());
}
BENCHMARK(BM_behaviours_sharedtail_oracle)->Unit(benchmark::kMillisecond);

void BM_behaviours_sharedtail_por_w1(benchmark::State &S) {
  Traceset T = sharedTailWriters(5, 9);
  for (auto _ : S)
    benchmark::DoNotOptimize(collectBehaviours(T, engine(false)).size());
}
BENCHMARK(BM_behaviours_sharedtail_por_w1)->Unit(benchmark::kMillisecond);

// Source-set sweep on the independence-heavy traceset (best case for the
// grouping: fully disjoint thread footprints).

void BM_behaviours_independent_oracle(benchmark::State &S) {
  Traceset T = independentWriters(4, 10);
  for (auto _ : S)
    benchmark::DoNotOptimize(collectBehaviours(T, engine(true)).size());
}
BENCHMARK(BM_behaviours_independent_oracle)->Unit(benchmark::kMillisecond);

void BM_behaviours_independent_nopor_w1(benchmark::State &S) {
  Traceset T = independentWriters(4, 10);
  for (auto _ : S)
    benchmark::DoNotOptimize(
        collectBehaviours(T, engine(false, /*Por=*/false)).size());
}
BENCHMARK(BM_behaviours_independent_nopor_w1)->Unit(benchmark::kMillisecond);

void BM_behaviours_independent_por_w1(benchmark::State &S) {
  Traceset T = independentWriters(4, 10);
  for (auto _ : S)
    benchmark::DoNotOptimize(collectBehaviours(T, engine(false)).size());
}
BENCHMARK(BM_behaviours_independent_por_w1)->Unit(benchmark::kMillisecond);

void BM_behaviours_readers_oracle(benchmark::State &S) {
  Traceset T = readersAndWriters(5);
  for (auto _ : S)
    benchmark::DoNotOptimize(collectBehaviours(T, engine(true)).size());
}
BENCHMARK(BM_behaviours_readers_oracle)->Unit(benchmark::kMillisecond);

void BM_behaviours_readers_por_w1(benchmark::State &S) {
  Traceset T = readersAndWriters(5);
  for (auto _ : S)
    benchmark::DoNotOptimize(collectBehaviours(T, engine(false)).size());
}
BENCHMARK(BM_behaviours_readers_por_w1)->Unit(benchmark::kMillisecond);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
