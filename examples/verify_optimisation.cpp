//===----------------------------------------------------------------------===//
///
/// \file
/// Scenario: a compiler writer wants to know whether a hand-written
/// transformation of a concurrent program is DRF-sound. This reproduces
/// the paper's Fig 1 (elimination) and Fig 2 (reordering) end to end:
/// both transformations change the behaviours of these *racy* programs —
/// yet both are certified safe, because the DRF guarantee only constrains
/// race-free programs and the semantic checkers accept them.
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "semantics/Reordering.h"
#include "support/Signal.h"
#include "verify/Checks.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include <unistd.h>

using namespace tracesafe;

namespace {

/// Non-null in --server mode: the DRF-guarantee leg of each scenario is
/// answered by a tracesafed daemon instead of in-process (the behaviour
/// diff and semantic checks stay local — they are the demo).
std::unique_ptr<daemon::DaemonClient> GRemote;

void printBehaviourDiff(const Program &O, const Program &T) {
  std::set<Behaviour> BO = programBehaviours(O);
  std::set<Behaviour> BT = programBehaviours(T);
  for (const Behaviour &B : BT) {
    if (BO.count(B))
      continue;
    std::printf("  new behaviour: [");
    for (size_t I = 0; I < B.size(); ++I)
      std::printf("%s%d", I ? ", " : "", B[I]);
    std::printf("]\n");
  }
}

void analyse(const char *Title, const char *Orig, const char *Transformed,
             bool Reordering) {
  std::printf("==== %s ====\n", Title);
  Program O = parseOrDie(Orig);
  Program T = parseOrDie(Transformed);
  std::printf("original is %s\n", isProgramDrf(O) ? "DRF" : "racy");
  printBehaviourDiff(O, T);

  std::vector<Value> Domain = defaultDomainFor(O, 3);
  Traceset TO = programTraceset(O, Domain);
  Traceset TT = programTraceset(T, Domain);
  TransformCheckResult R =
      Reordering ? checkEliminationThenReordering(TO, TT)
                 : checkElimination(TO, TT);
  std::printf("semantic %s check: %s\n", Reordering ? "reordering"
                                                    : "elimination",
              checkVerdictName(R.Verdict).c_str());
  if (GRemote) {
    daemon::QueryRequest Q;
    Q.Kind = daemon::QueryKind::DrfGuarantee;
    Q.Program = printProgram(O);
    Q.Transformed = printProgram(T);
    std::printf("DRF guarantee (remote): %s\n\n",
                GRemote->call(Q).str().c_str());
    return;
  }
  DrfGuaranteeReport G = checkDrfGuarantee(O, T);
  std::printf("DRF guarantee: %s%s\n\n", G.holds() ? "holds" : "VIOLATED",
              G.OriginalDrf ? "" : " (vacuously: original has races)");
}

} // namespace

int main(int argc, char **argv) {
  static CancelToken Stop;
  installCancelOnSignal(Stop);
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--server") == 0 && I + 1 < argc) {
      daemon::ClientOptions CO;
      daemon::setServerSpec(CO, argv[++I]);
      CO.Name = "verify-optimisation-" + std::to_string(::getpid());
      GRemote = std::make_unique<daemon::DaemonClient>(std::move(CO));
    } else {
      std::fprintf(stderr, "usage: %s [--server SOCKET|HOST:PORT]\n",
                   argv[0]);
      return 2;
    }
  }
  analyse("Fig 1: overwritten write + redundant read elimination",
          R"(
thread { x := 2; y := 1; x := 1; }
thread { r1 := y; print r1; r1 := x; r2 := x; print r2; }
)",
          R"(
thread { y := 1; x := 1; }
thread { r1 := y; print r1; r1 := x; r2 := r1; print r2; }
)",
          /*Reordering=*/false);

  analyse("Fig 2: read-write reordering (needs the wildcard-read trick)",
          R"(
thread { r1 := x; y := r1; }
thread { r2 := y; x := 1; print r2; }
)",
          R"(
thread { r1 := x; y := r1; }
thread { x := 1; r2 := y; print r2; }
)",
          /*Reordering=*/true);
  return signalled() ? ExitInterrupted : 0;
}
