//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: parse a concurrent program, explore its behaviours, check
/// data race freedom, apply one compiler optimisation, and verify the
/// optimisation against the paper's DRF guarantee.
///
/// Build and run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "semantics/Elimination.h"
#include "verify/Checks.h"
#include "support/Signal.h"

#include <cstdio>

using namespace tracesafe;

int main() {
  static CancelToken Stop;
  installCancelOnSignal(Stop);
  // A lock-protected producer/consumer: data race free by construction.
  Program P = parseOrDie(R"(
thread {
  lock m;
  counter := 1;
  r1 := counter;
  r2 := counter;
  print r2;
  unlock m;
}
thread {
  lock m;
  r3 := counter;
  counter := r3;
  print r3;
  unlock m;
}
)");

  std::printf("== program ==\n%s\n", printProgram(P).c_str());

  // 1. Sequentially consistent behaviours (exhaustive).
  std::printf("== SC behaviours ==\n");
  for (const Behaviour &B : programBehaviours(P)) {
    std::printf("  [");
    for (size_t I = 0; I < B.size(); ++I)
      std::printf("%s%d", I ? ", " : "", B[I]);
    std::printf("]\n");
  }

  // 2. Data race freedom.
  std::printf("== data race freedom ==\n  %s\n",
              isProgramDrf(P) ? "data race free" : "RACY");

  // 3. Apply the compiler: greedy application of the paper's Fig 10/11
  // rules (here E-RAW turns r1/r2 into constant copies and E-WAR kills the
  // redundant write-back).
  TransformChain Chain = greedyChain(P, RuleSet::all(), /*MaxSteps=*/4);
  std::printf("== applied rules ==\n");
  for (const RewriteSite &S : Chain.Steps)
    std::printf("  %s\n", S.str().c_str());
  std::printf("== optimised program ==\n%s\n",
              printProgram(Chain.Result).c_str());

  // 4. Verify the DRF guarantee end to end.
  DrfGuaranteeReport R = checkDrfGuarantee(P, Chain.Result);
  std::printf("== DRF guarantee ==\n"
              "  original DRF:          %s\n"
              "  transformed DRF:       %s\n"
              "  behaviours preserved:  %s\n"
              "  guarantee:             %s\n",
              R.OriginalDrf ? "yes" : "no", R.TransformedDrf ? "yes" : "no",
              R.BehavioursPreserved ? "yes" : "no",
              R.holds() ? "HOLDS" : "VIOLATED");

  // 5. And at the semantic level: the optimised traceset is an elimination
  // of the original traceset (Theorem 3's premise).
  std::vector<Value> Domain = defaultDomainFor(P, 2);
  Traceset Orig = programTraceset(P, Domain);
  Traceset Opt = programTraceset(Chain.Result, Domain);
  TransformCheckResult E = checkElimination(Orig, Opt);
  std::printf("== semantic elimination check ==\n  verdict: %s\n",
              checkVerdictName(E.Verdict).c_str());
  if (signalled())
    return ExitInterrupted;
  return E.Verdict == CheckVerdict::Holds && R.holds() ? 0 : 1;
}
