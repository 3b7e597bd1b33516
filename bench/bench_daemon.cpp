//===----------------------------------------------------------------------===//
///
/// \file
/// Micro rows on tracesafed's per-query path that the end-to-end
/// benchmark (perfbench/) cannot isolate. perfbench drives the daemon as
/// deployed; these rows price two of its fixed costs on their own.
///
/// `canonical_key` is the key every program query pays before its cache
/// probe: lex, frame, alpha-rename, thread-order sort, key build, on a
/// `repeat-hot`-shaped query.
///
/// `crc32_4mib` and `crc32_portable_4mib` price the checksum every frame,
/// TSRL block and record-log record pays, on a 4 MiB buffer (the top of
/// the racelog-scan query sizes): crc32 as dispatched on this host
/// against its slice-by-8 path alone. Both set bytes_per_second.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "daemon/Server.h"
#include "racelog/Log.h"
#include "racelog/Synth.h"
#include "support/Crc32.h"
#include "verify/Canonical.h"

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

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

/// Wall-clock-free ceiling: the key embeds the budget class.
const BudgetSpec BenchCeiling{/*DeadlineMs=*/0, /*MaxVisited=*/500'000,
                              /*MaxMemoryBytes=*/256ULL << 20};

std::string programDrfKey(const std::string &Source) {
  return canonicalQueryKey(static_cast<uint8_t>(QueryKind::ProgramDrf),
                           Source, std::string(),
                           clampBudget(BudgetSpec{}, BenchCeiling));
}

void canonical_key(benchmark::State &State) {
  // Pure CPU — no daemon round trip.
  const std::string Source = RepeatHotSource;
  for (auto _ : State) {
    std::string K = programDrfKey(Source);
    benchmark::DoNotOptimize(K.data());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(canonical_key)->UseRealTime()->Unit(benchmark::kMicrosecond);

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

void claims() {
  using tracesafe::benchutil::claim;
  tracesafe::benchutil::header("tracesafed per-query costs",
                               "canonical keys and frame checksums");
  claim("an alpha-renamed, re-spaced variant keys like the original",
        programDrfKey("thread { x := 1; r0 := x; print r0; }\n"
                      "thread { x := 0; r1 := x; }\n") ==
            programDrfKey("// variant\nthread {\n  y:=1; r7 := y;\n"
                          "  print r7;\n}\nthread { y := 0; r3:=y; }\n"));
  const std::string &Buf = crcInput();
  claim("the dispatched crc32 equals slice-by-8 on the 4 MiB buffer",
        crc32(Buf.data(), Buf.size(), 0) ==
            crc32Portable(Buf.data(), Buf.size(), 0));
}

} // namespace

TRACESAFE_BENCH_MAIN(claims)
