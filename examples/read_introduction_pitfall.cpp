//===----------------------------------------------------------------------===//
///
/// \file
/// Scenario: the Fig 3 pitfall. A loop-hoisting-style pass introduces an
/// irrelevant read; a later (individually sound!) redundant-read
/// elimination reuses it across a lock acquire; the combination makes a
/// data-race-free program print two zeros on a sequentially consistent
/// machine. The checkers pinpoint the unsound step.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Unsafe.h"
#include "semantics/Reordering.h"
#include "verify/Checks.h"
#include "support/Signal.h"

#include <cstdio>

using namespace tracesafe;

namespace {

const char *StageA = R"(
thread { lock m; x := 1; r3 := y; print r3; unlock m; }
thread { lock m; y := 1; r4 := x; print r4; unlock m; }
)";

const char *StageC = R"(
thread { r1 := y; lock m; x := 1; print r1; unlock m; }
thread { r2 := x; lock m; y := 1; print r2; unlock m; }
)";

bool canPrintTwoZeros(const Program &P) {
  return programBehaviours(P).count(Behaviour{0, 0}) != 0;
}

const char *verdictOf(const Traceset &From, const Traceset &To) {
  TransformCheckResult E = checkElimination(From, To);
  if (E.Verdict == CheckVerdict::Holds)
    return "elimination: holds";
  TransformCheckResult R = checkEliminationThenReordering(From, To);
  if (R.Verdict == CheckVerdict::Holds)
    return "elimination+reordering: holds";
  return "NOT a safe transformation";
}

} // namespace

int main() {
  static CancelToken Stop;
  installCancelOnSignal(Stop);
  Program A = parseOrDie(StageA);
  std::printf("stage (a): lock-protected exchange\n%s\n",
              printProgram(A).c_str());
  std::printf("  DRF: %s; can print (0,0): %s\n\n",
              isProgramDrf(A) ? "yes" : "no",
              canPrintTwoZeros(A) ? "yes" : "no");

  // Stage (b): the pass introduces reads of y and x before the critical
  // sections (what a hoisting pass does to reads it wants to reuse).
  ListPath T0, T1;
  T0.Tid = 0;
  T1.Tid = 1;
  Program B = introduceRead(A, T0, 0, Symbol::intern("r1"),
                            Symbol::intern("y"));
  B = introduceRead(B, T1, 0, Symbol::intern("r2"), Symbol::intern("x"));
  std::printf("stage (b): after irrelevant read introduction\n%s\n",
              printProgram(B).c_str());
  std::printf("  DRF: %s (the introduced reads race with the locked "
              "writes)\n",
              isProgramDrf(B) ? "yes" : "no");

  std::vector<Value> Domain = defaultDomainFor(A, 2);
  Traceset TA = programTraceset(A, Domain);
  Traceset TB = programTraceset(B, Domain);
  std::printf("  (a) -> (b): %s\n\n", verdictOf(TA, TB));

  // Stage (c): redundant read elimination across the acquire (legal by
  // Definition 1: a lone acquire is not a release-acquire pair).
  Program C = parseOrDie(StageC);
  std::printf("stage (c): after redundant read elimination\n%s\n",
              printProgram(C).c_str());
  Traceset TC = programTraceset(C, Domain);
  std::printf("  (b) -> (c): %s\n", verdictOf(TB, TC));
  std::printf("  can print (0,0): %s  <- new behaviour for a DRF program!\n",
              canPrintTwoZeros(C) ? "yes" : "no");
  std::printf("\nconclusion: the unsound step is the read *introduction*;\n"
              "every elimination/reordering after it is individually safe.\n");
  return signalled() ? ExitInterrupted : 0;
}
