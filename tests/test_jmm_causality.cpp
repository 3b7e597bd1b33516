//===----------------------------------------------------------------------===//
///
/// \file
/// Causality test cases in the style of the Java Memory Model's litmus
/// suite (Pugh et al.), adapted to the paper's arithmetic-free language.
/// §7 names the JMM as the motivation for validating optimisations; these
/// cases probe exactly the behaviours the paper's transformations justify:
///
///  - "allowed" outcomes must be *derivable*: some certified chain of
///    semantic eliminations/reorderings produces a program whose SC
///    executions exhibit the outcome;
///  - "forbidden" (out-of-thin-air) outcomes must remain impossible under
///    every transformation (Theorem 5).
///
/// The TC2 case additionally showcases the paper's main selling point: the
/// required if-collapse is invisible to the *syntactic* rules but is a
/// trace-preserving identity at the *semantic* level (§2.1).
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "opt/Rewrite.h"
#include "semantics/Composition.h"
#include "semantics/Reordering.h"
#include "tso/TsoExplain.h"
#include "verify/Checks.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

/// Asserts that \p Transformed is certified against \p Orig (elimination
/// then reordering) and that it exhibits \p Outcome under SC while the
/// original does not.
void expectDerivable(const char *Orig, const char *Transformed,
                     const Behaviour &Outcome) {
  Program O = parseOrDie(Orig);
  Program T = parseOrDie(Transformed);
  std::vector<Value> D = defaultDomainFor(O, 2);
  TransformCheckResult R = checkEliminationThenReordering(
      programTraceset(O, D), programTraceset(T, D));
  ASSERT_EQ(R.Verdict, CheckVerdict::Holds)
      << "not a certified transformation; counterexample: "
      << R.Counterexample.str();
  EXPECT_FALSE(programBehaviours(O).count(Outcome))
      << "outcome already SC-reachable; the case is trivial";
  EXPECT_TRUE(programBehaviours(T).count(Outcome))
      << "transformed program does not exhibit the outcome";
}

// --- TC1 (adapted): a condition that is always true does not prevent the
// --- reordering. Observed: r1 = r2 = 1.
TEST(JmmCausality, TC1StyleAlwaysTrueGuard) {
  expectDerivable(
      R"(
thread { r1 := x; if (r1 == r1) { y := 1; } else { skip; } print r1; }
thread { r2 := y; x := r2; print r2; }
)",
      R"(
thread { y := 1; r1 := x; print r1; }
thread { r2 := y; x := r2; print r2; }
)",
      /*Outcome=*/{1, 1});
}

// --- TC2 (adapted): two reads of the same variable compared for equality;
// --- redundant read elimination collapses the guard. Observed: prints 1,1.
// --- This one genuinely needs a *chain*: first the E-RAR collapse (an
// --- elimination; the collapsed guard is then a trace-preserving
// --- identity), then the Fig 2 style elimination+reordering.
TEST(JmmCausality, TC2StyleRedundantReadGuard) {
  Program P0 = parseOrDie(R"(
thread {
  r1 := x;
  r2 := x;
  if (r1 == r2) { y := 1; } else { skip; }
  print r1;
}
thread { r3 := y; x := r3; print r3; }
)");
  // After E-RAR, `r2 := r1` makes the guard a tautology: the traceset is
  // that of the straight-line program.
  Program P1 = parseOrDie(R"(
thread { r1 := x; y := 1; print r1; }
thread { r3 := y; x := r3; print r3; }
)");
  Program P2 = parseOrDie(R"(
thread { y := 1; r1 := x; print r1; }
thread { r3 := y; x := r3; print r3; }
)");
  std::vector<Value> D = defaultDomainFor(P0, 2);
  std::vector<Traceset> Chain = {programTraceset(P0, D),
                                 programTraceset(P1, D),
                                 programTraceset(P2, D)};
  ChainReport Report = checkChain(
      Chain, {TransformKind::Elimination,
              TransformKind::EliminationThenReordering});
  EXPECT_TRUE(Report.linksHold());
  // The single-shot composite genuinely fails — the first read of x has no
  // Definition-1 justification once the write moved to the front.
  EXPECT_NE(checkEliminationThenReordering(Chain[0], Chain[2]).Verdict,
            CheckVerdict::Holds);
  // The outcome appears only at the end of the chain.
  EXPECT_FALSE(programBehaviours(P0).count(Behaviour{1, 1}));
  EXPECT_TRUE(programBehaviours(P2).count(Behaviour{1, 1}));
}

TEST(JmmCausality, TC2CollapseIsInvisibleToTheSyntacticRules) {
  // The guard collapse is beyond Fig 10/11: no rule chain reaches the
  // transformed program — yet the semantic checker certifies it. This is
  // the paper's "independence from syntax" advantage, checked.
  Program O = parseOrDie(R"(
thread {
  r1 := x;
  r2 := x;
  if (r1 == r2) { y := 1; } else { skip; }
  print r1;
}
thread { r3 := y; x := r3; print r3; }
)");
  bool Truncated = false;
  std::set<Behaviour> Reachable =
      reachableScBehaviours(O, 4, RuleSet::withExtensions(), {}, &Truncated);
  ASSERT_FALSE(Truncated);
  EXPECT_FALSE(Reachable.count(Behaviour{1, 1}))
      << "if a syntactic chain now reaches it, this showcase is stale";
}

// --- TC4/TC5 shape (forbidden): out-of-thin-air 42 through copy cycles.
TEST(JmmCausality, ThinAirCopyCycleStaysForbidden) {
  Program P = parseOrDie(R"(
thread { r1 := y; x := r1; print r1; }
thread { r2 := x; y := r2; }
)");
  // No transformation may output 42 (Theorem 5) — checked exhaustively
  // over 1/2-step chains plus the identity.
  ASSERT_FALSE(P.containsConstant(42));
  EXPECT_TRUE(exploreThinAir(P, P, 42).holds());
  for (const RewriteSite &S1 :
       findRewriteSites(P, RuleSet::withExtensions())) {
    Program P1 = applyRewrite(P, S1);
    EXPECT_TRUE(exploreThinAir(P, P1, 42).holds()) << S1.str();
    for (const RewriteSite &S2 :
         findRewriteSites(P1, RuleSet::withExtensions()))
      EXPECT_TRUE(exploreThinAir(P, applyRewrite(P1, S2), 42).holds());
  }
}

// --- TC6 shape: an irrelevant guard on an unrelated variable.
TEST(JmmCausality, GuardOnUnrelatedVariableCollapses) {
  // z is written 1 by the same thread before the guard reads it, so the
  // guard is statically true after constant propagation through memory —
  // a pure elimination, then the write moves up by reordering.
  expectDerivable(
      R"(
thread {
  z := 1;
  r0 := z;
  r1 := x;
  if (r0 == 1) { y := 1; } else { skip; }
  print r1;
}
thread { r2 := y; x := r2; print r2; }
)",
      R"(
thread { z := 1; y := 1; r1 := x; print r1; }
thread { r2 := y; x := r2; print r2; }
)",
      /*Outcome=*/{1, 1});
}

// --- Volatile guard (forbidden): the same shape with a volatile flag must
// --- NOT be derivable — the read is an acquire, nothing crosses it.
TEST(JmmCausality, VolatileGuardBlocksTheDerivation) {
  Program O = parseOrDie(R"(
volatile x;
thread { r1 := x; if (r1 == r1) { y := 1; } else { skip; } print r1; }
thread { r2 := y; x := r2; print r2; }
)");
  Program T = parseOrDie(R"(
volatile x;
thread { y := 1; r1 := x; print r1; }
thread { r2 := y; x := r2; print r2; }
)");
  std::vector<Value> D = defaultDomainFor(O, 2);
  TransformCheckResult R = checkEliminationThenReordering(
      programTraceset(O, D), programTraceset(T, D));
  EXPECT_NE(R.Verdict, CheckVerdict::Holds)
      << "moving a write before a volatile (acquire) read must fail";
}

} // namespace
