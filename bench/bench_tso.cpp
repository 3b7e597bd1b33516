//===----------------------------------------------------------------------===//
///
/// \file
/// E13 — §8: TSO explained by transformations. The litmus battery on SC
/// and TSO, the explanation check, and machine throughput.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "lang/Parser.h"
#include "tso/Litmus.h"
#include "tso/PsoMachine.h"
#include "tso/TsoExplain.h"

#include <chrono>

using namespace tracesafe;
using namespace tracesafe::benchutil;

namespace {

TsoLimits tsoEngine(bool Oracle, bool Por = true) {
  TsoLimits L;
  L.ExhaustiveOracle = Oracle;
  L.UseReduction = Por;
  return L;
}

/// Interleaving-heavy TSO workload: three threads on disjoint locations,
/// so every cross-thread pair of steps and drains commutes. The worst
/// case for the seed machine (each interleaving order re-arrives at each
/// product state) and the best case for store-buffer sleep sets. The
/// sweep benches and the speedup claim run on this.
Program sweepProgram() {
  return parseOrDie(R"(
thread { a := 1; a := 2; a := 3; r0 := a; print r0; }
thread { b := 1; b := 2; b := 3; r1 := b; print r1; }
thread { c := 1; c := 2; c := 3; r2 := c; print r2; }
thread { d := 1; d := 2; d := 3; r3 := d; print r3; }
)");
}

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
  header("E13 / §8", "TSO (and PSO) as safe transformations");
  for (const LitmusTest &T : litmusTests()) {
    Program P = parseOrDie(T.Source);
    bool ScHas = T.observedIn(programBehaviours(P));
    bool TsoHas = T.observedIn(tsoBehaviours(P));
    bool PsoHas = T.observedIn(psoBehaviours(P));
    claim(T.Name + ": SC " + (T.ScAllows ? "allows" : "forbids") +
              " the asked outcome",
          ScHas == T.ScAllows);
    claim(T.Name + ": TSO " + (T.TsoAllows ? "allows" : "forbids") + " it",
          TsoHas == T.TsoAllows);
    claim(T.Name + ": PSO " + (T.PsoAllows ? "allows" : "forbids") + " it",
          PsoHas == T.PsoAllows);
    TsoExplainResult E = explainTsoByTransformations(P, 3);
    claim(T.Name + ": every TSO behaviour reached by W->R reordering + "
                   "RaW elimination",
          E.Explained && !E.Truncated);
    bool UnionTruncated = false;
    std::set<Behaviour> Union =
        reachableScBehaviours(P, 3, {}, {}, &UnionTruncated);
    bool PsoExplained = !UnionTruncated;
    for (const Behaviour &B : psoBehaviours(P))
      PsoExplained &= Union.count(B) != 0;
    claim(T.Name + ": PSO behaviours also explained (adds R-WW, §8 "
                   "conjecture)",
          PsoExplained);
  }

  // Interned engine: verdict parity with the seed machine, the
  // store-buffer POR state-count reduction, and the speedup bar.
  Program Sweep = sweepProgram();
  std::set<Behaviour> Want = tsoBehaviours(Sweep, tsoEngine(true));
  claim("interned TSO engine behaviour set == seed machine",
        tsoBehaviours(Sweep, tsoEngine(false)) == Want);
  claim("interned PSO engine behaviour set == seed machine",
        psoBehaviours(Sweep, tsoEngine(false)) ==
            psoBehaviours(Sweep, tsoEngine(true)));

  ExecStats Por, NoPor;
  tsoBehaviours(Sweep, tsoEngine(false, /*Por=*/true), &Por);
  tsoBehaviours(Sweep, tsoEngine(false, /*Por=*/false), &NoPor);
  std::printf("  store-buffer POR: %llu states vs %llu unreduced (%.1fx "
              "fewer)\n",
              static_cast<unsigned long long>(Por.Visited),
              static_cast<unsigned long long>(NoPor.Visited),
              Por.Visited ? static_cast<double>(NoPor.Visited) /
                                static_cast<double>(Por.Visited)
                          : 0.0);
  claim("sleep-set POR prunes store-buffer states",
        Por.Visited < NoPor.Visited);

  // Speedup over the seed machine, both sequential. The speedup is
  // algorithmic (interned states + sleep sets over the seed's
  // std::set-memoised recursion). The acceptance number (>= 3x) is read
  // from BENCH_results.json's speedups section, which compares best-of-N
  // benchmark repetitions; this in-binary claim uses a conservative 2x
  // bar so host noise cannot flip a one-shot run.
  double Oracle = secondsFor([&] { tsoBehaviours(Sweep, tsoEngine(true)); });
  double Reduced =
      secondsFor([&] { tsoBehaviours(Sweep, tsoEngine(false)); });
  std::printf("  TSO behaviours: oracle %.1fms, interned %.1fms (%.1fx)\n",
              Oracle * 1e3, Reduced * 1e3, Oracle / Reduced);
  claim("TSO behaviours >= 2x faster than seed machine",
        Oracle / Reduced >= 2.0);
}

void benchTsoMachine(benchmark::State &State) {
  const LitmusTest &T = litmusTests()[static_cast<size_t>(State.range(0))];
  Program P = parseOrDie(T.Source);
  for (auto _ : State)
    benchmark::DoNotOptimize(tsoBehaviours(P).size());
  State.SetLabel(T.Name);
}
BENCHMARK(benchTsoMachine)->DenseRange(0, 7);

void benchPsoMachine(benchmark::State &State) {
  const LitmusTest &T = litmusTests()[static_cast<size_t>(State.range(0))];
  Program P = parseOrDie(T.Source);
  for (auto _ : State)
    benchmark::DoNotOptimize(psoBehaviours(P).size());
  State.SetLabel(T.Name);
}
BENCHMARK(benchPsoMachine)->DenseRange(0, 7);

void benchScBaseline(benchmark::State &State) {
  const LitmusTest &T = litmusTests()[static_cast<size_t>(State.range(0))];
  Program P = parseOrDie(T.Source);
  for (auto _ : State)
    benchmark::DoNotOptimize(programBehaviours(P).size());
  State.SetLabel(T.Name);
}
BENCHMARK(benchScBaseline)->DenseRange(0, 7);

void benchExplanationSearch(benchmark::State &State) {
  Program P = parseOrDie(litmusTests()[0].Source); // SB.
  size_t Programs = 0;
  for (auto _ : State) {
    TsoExplainResult E = explainTsoByTransformations(
        P, static_cast<size_t>(State.range(0)));
    Programs = E.ProgramsExplored;
    benchmark::DoNotOptimize(E.Explained);
  }
  State.counters["programs"] = static_cast<double>(Programs);
}
BENCHMARK(benchExplanationSearch)->Arg(1)->Arg(2)->Arg(3);

// POR sweep on the interleaving-heavy workload. Names encode the engine
// configuration for scripts/merge_bench_json.py: `_oracle` is the seed
// machine, `_nopor` the interned engine without reduction, `_por` the
// full engine; `_w1` keeps the row names of earlier recordings.

void BM_tso_sweep_oracle(benchmark::State &State) {
  Program P = sweepProgram();
  for (auto _ : State)
    benchmark::DoNotOptimize(tsoBehaviours(P, tsoEngine(true)).size());
}
BENCHMARK(BM_tso_sweep_oracle)->Unit(benchmark::kMillisecond);

void BM_tso_sweep_nopor_w1(benchmark::State &State) {
  Program P = sweepProgram();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        tsoBehaviours(P, tsoEngine(false, /*Por=*/false)).size());
}
BENCHMARK(BM_tso_sweep_nopor_w1)->Unit(benchmark::kMillisecond);

void BM_tso_sweep_por_w1(benchmark::State &State) {
  Program P = sweepProgram();
  for (auto _ : State)
    benchmark::DoNotOptimize(tsoBehaviours(P, tsoEngine(false)).size());
}
BENCHMARK(BM_tso_sweep_por_w1)->Unit(benchmark::kMillisecond);

void BM_pso_sweep_oracle(benchmark::State &State) {
  Program P = sweepProgram();
  for (auto _ : State)
    benchmark::DoNotOptimize(psoBehaviours(P, tsoEngine(true)).size());
}
BENCHMARK(BM_pso_sweep_oracle)->Unit(benchmark::kMillisecond);

void BM_pso_sweep_por_w1(benchmark::State &State) {
  Program P = sweepProgram();
  for (auto _ : State)
    benchmark::DoNotOptimize(psoBehaviours(P, tsoEngine(false)).size());
}
BENCHMARK(BM_pso_sweep_por_w1)->Unit(benchmark::kMillisecond);

void benchBufferBoundAblation(benchmark::State &State) {
  Program P = parseOrDie(litmusTests()[5].Source); // SB+RFI.
  TsoLimits Limits;
  Limits.MaxBufferedStores = static_cast<size_t>(State.range(0));
  size_t Behaviours = 0;
  for (auto _ : State) {
    Behaviours = tsoBehaviours(P, Limits).size();
    benchmark::DoNotOptimize(Behaviours);
  }
  State.counters["behaviours"] = static_cast<double>(Behaviours);
}
BENCHMARK(benchBufferBoundAblation)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

} // namespace

TRACESAFE_BENCH_MAIN(claims)
