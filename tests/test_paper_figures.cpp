//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests reproducing the paper's worked examples: the §1
/// introduction example, Fig 1 (elimination), Fig 2 (reordering), Fig 3
/// (irrelevant read introduction) and the §5 out-of-thin-air program.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Explore.h"
#include "opt/Unsafe.h"
#include "semantics/Elimination.h"
#include "semantics/Reordering.h"
#include "verify/Checks.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

bool hasBehaviour(const std::set<Behaviour> &Bs, std::vector<Value> B) {
  return Bs.count(B) != 0;
}

// --- Fig 1: elimination example -----------------------------------------

const char *Fig1Original = R"(
thread {
  x := 2;
  y := 1;
  x := 1;
}
thread {
  r1 := y;
  print r1;
  r1 := x;
  r2 := x;
  print r2;
}
)";

const char *Fig1Transformed = R"(
thread {
  y := 1;
  x := 1;
}
thread {
  r1 := y;
  print r1;
  r1 := x;
  r2 := r1;
  print r2;
}
)";

TEST(Fig1Elimination, OriginalCannotPrint1Then0) {
  Program P = parseOrDie(Fig1Original);
  std::set<Behaviour> Bs = programBehaviours(P);
  EXPECT_FALSE(hasBehaviour(Bs, {1, 0}));
  EXPECT_TRUE(hasBehaviour(Bs, {1, 1}));
  EXPECT_TRUE(hasBehaviour(Bs, {0, 0}));
}

TEST(Fig1Elimination, TransformedCanPrint1Then0) {
  Program P = parseOrDie(Fig1Transformed);
  std::set<Behaviour> Bs = programBehaviours(P);
  EXPECT_TRUE(hasBehaviour(Bs, {1, 0}));
}

TEST(Fig1Elimination, BothProgramsAreRacy) {
  EXPECT_FALSE(isProgramDrf(parseOrDie(Fig1Original)));
  EXPECT_FALSE(isProgramDrf(parseOrDie(Fig1Transformed)));
}

TEST(Fig1Elimination, TransformedIsSemanticEliminationOfOriginal) {
  Program O = parseOrDie(Fig1Original);
  Program T = parseOrDie(Fig1Transformed);
  std::vector<Value> Domain = defaultDomainFor(O, 3);
  Traceset TO = programTraceset(O, Domain);
  Traceset TT = programTraceset(T, Domain);
  TransformCheckResult R = checkElimination(TO, TT);
  EXPECT_EQ(R.Verdict, CheckVerdict::Holds)
      << "counterexample: " << R.Counterexample.str();
}

TEST(Fig1Elimination, PaperTraceIsEliminationOfPaperWildcardTrace) {
  // t  = [S(1), R[y=1], X(1), R[x=0], R[x=0], X(0)]
  // t' = [S(1), R[y=1], X(1), R[x=0], X(0)]
  SymbolId X = Symbol::intern("x"), Y = Symbol::intern("y");
  Trace T{Action::mkStart(1), Action::mkRead(Y, 1), Action::mkExternal(1),
          Action::mkRead(X, 0), Action::mkRead(X, 0), Action::mkExternal(0)};
  Trace TPrime{Action::mkStart(1), Action::mkRead(Y, 1),
               Action::mkExternal(1), Action::mkRead(X, 0),
               Action::mkExternal(0)};
  EXPECT_TRUE(isEliminationOfTrace(T, TPrime));
  EXPECT_TRUE(isEliminationOfTrace(T, TPrime, /*ProperOnly=*/true));
}

// --- Fig 2: reordering example ------------------------------------------

const char *Fig2Original = R"(
thread {
  r1 := x;
  y := r1;
}
thread {
  r2 := y;
  x := 1;
  print r2;
}
)";

const char *Fig2Transformed = R"(
thread {
  r1 := x;
  y := r1;
}
thread {
  x := 1;
  r2 := y;
  print r2;
}
)";

TEST(Fig2Reordering, OriginalCannotPrint1) {
  std::set<Behaviour> Bs = programBehaviours(parseOrDie(Fig2Original));
  EXPECT_FALSE(hasBehaviour(Bs, {1}));
  EXPECT_TRUE(hasBehaviour(Bs, {0}));
}

TEST(Fig2Reordering, TransformedCanPrint1) {
  std::set<Behaviour> Bs = programBehaviours(parseOrDie(Fig2Transformed));
  EXPECT_TRUE(hasBehaviour(Bs, {1}));
}

TEST(Fig2Reordering, PureReorderingFailsAsInSection4) {
  // §4: T' is *not* a reordering of T — the trace [S(0), W[x=1]] of the
  // transformed thread has no de-permutation into T. (Thread ids differ
  // from §4's presentation; the phenomenon is thread 1's prefix
  // [S(1), W[x=1]].)
  Program O = parseOrDie(Fig2Original);
  Program T = parseOrDie(Fig2Transformed);
  std::vector<Value> Domain = defaultDomainFor(O, 2);
  Traceset TO = programTraceset(O, Domain);
  Traceset TT = programTraceset(T, Domain);
  TransformCheckResult R = checkReordering(TO, TT);
  EXPECT_EQ(R.Verdict, CheckVerdict::Fails);
}

TEST(Fig2Reordering, EliminationThenReorderingHolds) {
  Program O = parseOrDie(Fig2Original);
  Program T = parseOrDie(Fig2Transformed);
  std::vector<Value> Domain = defaultDomainFor(O, 2);
  Traceset TO = programTraceset(O, Domain);
  Traceset TT = programTraceset(T, Domain);
  TransformCheckResult R = checkEliminationThenReordering(TO, TT);
  EXPECT_EQ(R.Verdict, CheckVerdict::Holds)
      << "counterexample: " << R.Counterexample.str();
}

// --- Fig 3: irrelevant read introduction --------------------------------

const char *Fig3A = R"(
thread {
  lock m;
  x := 1;
  r3 := y;
  print r3;
  unlock m;
}
thread {
  lock m;
  y := 1;
  r4 := x;
  print r4;
  unlock m;
}
)";

const char *Fig3B = R"(
thread {
  r1 := y;
  lock m;
  x := 1;
  r3 := y;
  print r3;
  unlock m;
}
thread {
  r2 := x;
  lock m;
  y := 1;
  r4 := x;
  print r4;
  unlock m;
}
)";

const char *Fig3C = R"(
thread {
  r1 := y;
  lock m;
  x := 1;
  print r1;
  unlock m;
}
thread {
  r2 := x;
  lock m;
  y := 1;
  print r2;
  unlock m;
}
)";

TEST(Fig3Introduction, OriginalIsDrfAndCannotPrintTwoZeros) {
  Program A = parseOrDie(Fig3A);
  EXPECT_TRUE(isProgramDrf(A));
  std::set<Behaviour> Bs = programBehaviours(A);
  EXPECT_FALSE(hasBehaviour(Bs, {0, 0}));
}

TEST(Fig3Introduction, ReadIntroductionIsNotAnElimination) {
  Program A = parseOrDie(Fig3A);
  Program B = parseOrDie(Fig3B);
  std::vector<Value> Domain = defaultDomainFor(A, 2);
  Traceset TA = programTraceset(A, Domain);
  Traceset TB = programTraceset(B, Domain);
  EXPECT_EQ(checkElimination(TA, TB).Verdict, CheckVerdict::Fails);
  EXPECT_EQ(checkEliminationThenReordering(TA, TB).Verdict,
            CheckVerdict::Fails);
}

TEST(Fig3Introduction, IntroducedReadsMakeTheProgramRacy) {
  EXPECT_FALSE(isProgramDrf(parseOrDie(Fig3B)));
}

TEST(Fig3Introduction, CrossSyncReadEliminationIsAValidElimination) {
  // (b) -> (c) eliminates r3:=y using the introduced r1:=y across a lock
  // acquire: there is no release-acquire *pair* between the two reads, so
  // Definition 1 case 1 applies — the step itself is sound.
  Program B = parseOrDie(Fig3B);
  Program C = parseOrDie(Fig3C);
  std::vector<Value> Domain = defaultDomainFor(B, 2);
  Traceset TB = programTraceset(B, Domain);
  Traceset TC = programTraceset(C, Domain);
  TransformCheckResult R = checkElimination(TB, TC);
  EXPECT_EQ(R.Verdict, CheckVerdict::Holds)
      << "counterexample: " << R.Counterexample.str();
}

TEST(Fig3Introduction, CombinedPassesPrintTwoZerosOnSC) {
  std::set<Behaviour> Bs = programBehaviours(parseOrDie(Fig3C));
  EXPECT_TRUE(hasBehaviour(Bs, {0, 0}));
}

TEST(Fig3Introduction, IntroduceReadHelperBuildsB) {
  Program A = parseOrDie(Fig3A);
  ListPath T0;
  T0.Tid = 0;
  Program Step1 = introduceRead(A, T0, 0, Symbol::intern("r1"),
                                Symbol::intern("y"));
  ListPath T1;
  T1.Tid = 1;
  Program B = introduceRead(Step1, T1, 0, Symbol::intern("r2"),
                            Symbol::intern("x"));
  EXPECT_TRUE(B.equals(parseOrDie(Fig3B)));
}

// --- §1 introduction example ---------------------------------------------

const char *IntroProgram = R"(
thread {
  data := 1;
  flagReq := 1;
  r1 := flagResp;
  if (r1 == 1) {
    r2 := data;
    print r2;
  } else {
    skip;
  }
}
thread {
  r3 := flagReq;
  if (r3 == 1) {
    data := 2;
    flagResp := 1;
  } else {
    skip;
  }
}
)";

const char *IntroProgramVolatile = R"(
volatile flagReq, flagResp;
thread {
  data := 1;
  flagReq := 1;
  r1 := flagResp;
  if (r1 == 1) {
    r2 := data;
    print r2;
  } else {
    skip;
  }
}
thread {
  r3 := flagReq;
  if (r3 == 1) {
    data := 2;
    flagResp := 1;
  } else {
    skip;
  }
}
)";

TEST(IntroExample, CannotPrint1UnderSC) {
  std::set<Behaviour> Bs = programBehaviours(parseOrDie(IntroProgram));
  EXPECT_FALSE(hasBehaviour(Bs, {1}));
  EXPECT_TRUE(hasBehaviour(Bs, {2}));
}

TEST(IntroExample, VolatileVersionIsDrf) {
  EXPECT_TRUE(isProgramDrf(parseOrDie(IntroProgramVolatile)));
  EXPECT_FALSE(isProgramDrf(parseOrDie(IntroProgram)));
}

TEST(IntroExample, UnsafeConstantPropagationPrints1) {
  Program P = parseOrDie(IntroProgramVolatile);
  std::vector<ConstPropSite> Sites = findUnsafeConstProp(P);
  ASSERT_FALSE(Sites.empty());
  Program T = applyUnsafeConstProp(P, Sites.front());
  std::set<Behaviour> Bs = programBehaviours(T);
  EXPECT_TRUE(hasBehaviour(Bs, {1}));
  // The original is DRF; the pass violates the DRF guarantee.
  DrfGuaranteeReport R = exploreDrfGuarantee(P, T);
  EXPECT_TRUE(R.OriginalDrf);
  EXPECT_FALSE(R.holds());
}

// --- §5 out-of-thin-air example ------------------------------------------

const char *ThinAirProgram = R"(
thread {
  r2 := y;
  x := r2;
  print r2;
}
thread {
  r1 := x;
  y := r1;
}
)";

TEST(ThinAir, ProgramCannotOutput42) {
  Program P = parseOrDie(ThinAirProgram);
  EXPECT_FALSE(P.containsConstant(42));
  EXPECT_FALSE(programCanOutput(P, 42));
  ThinAirReport R = exploreThinAir(P, P, 42);
  EXPECT_TRUE(R.holds());
  EXPECT_FALSE(R.OrigHasOrigin);
}

} // namespace
