//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the verification queries: behaviour comparison, the DRF
/// guarantee report, and the thin-air report, plus a sweep asserting the
/// reduced and the seed enumerator produce identical reports.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "verify/Checks.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

TEST(CompareBehaviours, EqualPrograms) {
  Program P = parseOrDie("thread { x := 1; print 1; }");
  BehaviourComparison C = compareBehaviours(P, P);
  EXPECT_TRUE(C.Subset);
  EXPECT_TRUE(C.Equal);
  EXPECT_FALSE(C.Truncated);
}

TEST(CompareBehaviours, ProperSubset) {
  Program O = parseOrDie("thread { r1 := x; print r1; } thread { x := 1; }");
  Program T = parseOrDie("thread { print 0; } thread { x := 1; }");
  BehaviourComparison C = compareBehaviours(O, T);
  EXPECT_TRUE(C.Subset);
  EXPECT_FALSE(C.Equal);
}

TEST(CompareBehaviours, NewBehaviourIsWitnessed) {
  Program O = parseOrDie("thread { print 1; }");
  Program T = parseOrDie("thread { print 2; }");
  BehaviourComparison C = compareBehaviours(O, T);
  EXPECT_FALSE(C.Subset);
  ASSERT_TRUE(C.NewBehaviour.has_value());
  EXPECT_EQ(*C.NewBehaviour, (Behaviour{2}));
}

TEST(DrfGuarantee, HoldsOnIdentity) {
  Program P = parseOrDie(
      "thread { lock m; x := 1; unlock m; } "
      "thread { lock m; r1 := x; unlock m; print r1; }");
  DrfGuaranteeReport R = checkDrfGuarantee(P, P);
  EXPECT_TRUE(R.OriginalDrf);
  EXPECT_TRUE(R.TransformedDrf);
  EXPECT_TRUE(R.BehavioursPreserved);
  EXPECT_TRUE(R.holds());
}

TEST(DrfGuarantee, VacuousForRacyOriginals) {
  Program O = parseOrDie("thread { x := 1; } thread { r1 := x; print r1; }");
  Program T = parseOrDie("thread { x := 1; } thread { print 9; }");
  DrfGuaranteeReport R = checkDrfGuarantee(O, T);
  EXPECT_FALSE(R.OriginalDrf);
  EXPECT_FALSE(R.BehavioursPreserved);
  EXPECT_TRUE(R.holds()) << "racy original => guarantee is vacuous";
}

TEST(DrfGuarantee, ViolationIsDetected) {
  Program O = parseOrDie("thread { print 1; }");
  Program T = parseOrDie("thread { print 2; }");
  DrfGuaranteeReport R = checkDrfGuarantee(O, T);
  EXPECT_TRUE(R.OriginalDrf);
  EXPECT_FALSE(R.holds());
  ASSERT_TRUE(R.NewBehaviour.has_value());
}

TEST(DrfGuarantee, RaceIntroductionIsAViolation) {
  Program O = parseOrDie(
      "thread { lock m; x := 1; unlock m; } "
      "thread { lock m; r1 := x; unlock m; }");
  Program T = parseOrDie(
      "thread { x := 1; } thread { r1 := x; }");
  DrfGuaranteeReport R = checkDrfGuarantee(O, T);
  EXPECT_TRUE(R.OriginalDrf);
  EXPECT_FALSE(R.TransformedDrf);
  EXPECT_FALSE(R.holds());
}

TEST(ProgramCanOutput, FindsValuesAnywhereInBehaviours) {
  Program P = parseOrDie("thread { print 1; print 2; }");
  EXPECT_TRUE(programCanOutput(P, 1));
  EXPECT_TRUE(programCanOutput(P, 2));
  EXPECT_FALSE(programCanOutput(P, 3));
}

TEST(ThinAir, HoldsWhenConstantAbsent) {
  Program P = parseOrDie("thread { r1 := x; y := r1; print r1; } "
                         "thread { r2 := y; x := r2; }");
  ThinAirReport R = checkThinAir(P, P, 42);
  EXPECT_FALSE(R.OrigContainsConstant);
  EXPECT_FALSE(R.TransformedOutputs);
  EXPECT_FALSE(R.OrigHasOrigin);
  EXPECT_FALSE(R.TransformedHasOrigin);
  EXPECT_TRUE(R.holds());
}

TEST(ThinAir, VacuousWhenConstantPresent) {
  Program P = parseOrDie("thread { x := 42; }");
  ThinAirReport R = checkThinAir(P, P, 42);
  EXPECT_TRUE(R.OrigContainsConstant);
  EXPECT_TRUE(R.holds());
}

TEST(ThinAir, DetectsManufacturedConstants) {
  // A "transformation" that invents 42 out of thin air.
  Program O = parseOrDie("thread { r1 := x; print r1; }");
  Program T = parseOrDie("thread { r1 := 42; print r1; }");
  ThinAirReport R = checkThinAir(O, T, 42);
  EXPECT_FALSE(R.OrigContainsConstant);
  EXPECT_TRUE(R.TransformedOutputs);
  EXPECT_TRUE(R.TransformedHasOrigin);
  EXPECT_FALSE(R.holds());
}

TEST(ThinAir, LaunderedValuesAreNotOrigins) {
  // The transformed program writes 42 only after reading it: no origin.
  Program O = parseOrDie("thread { r1 := x; y := r1; }");
  ThinAirReport R = checkThinAir(O, O, 42);
  EXPECT_FALSE(R.TransformedHasOrigin);
  EXPECT_TRUE(R.holds());
}

TEST(CompareBehaviours, TruncationPropagates) {
  Program P = parseOrDie("thread { x := 1; } thread { r1 := x; print r1; }");
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/2,
                      /*MaxMemoryBytes=*/0});
  ExecLimits Limits;
  Limits.Shared = &B;
  BehaviourComparison C = compareBehaviours(P, P, Limits);
  EXPECT_TRUE(C.Truncated);
}

TEST(DrfGuarantee, TruncationMeansNotProven) {
  Program P = parseOrDie("thread { lock m; x := 1; unlock m; }");
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/1,
                      /*MaxMemoryBytes=*/0});
  ExecLimits Limits;
  Limits.Shared = &B;
  DrfGuaranteeReport R = checkDrfGuarantee(P, P, Limits);
  EXPECT_TRUE(R.Truncated);
  EXPECT_FALSE(R.holds()) << "a truncated check must not claim the "
                             "guarantee";
}

TEST(FreshConstant, AvoidsProgramConstantsAndZero) {
  Program P = parseOrDie("thread { x := 42; r1 := 43; print 44; }");
  Value C = freshConstantFor(P);
  EXPECT_NE(C, 0);
  EXPECT_FALSE(P.containsConstant(C));
  EXPECT_EQ(C, 45);
}

TEST(CompareBehaviours, InputsDrawOnlyFromTheInputDomain) {
  // T's own constant 5 joins the read domain (x may hold 5), but the
  // environment still supplies only the original's input values: were
  // inputs drawn from the read domain, T would print a spurious [5].
  Program O = parseOrDie("thread { input r1; print r1; }");
  Program T = parseOrDie("thread { input r1; print r1; x := 5; }");
  BehaviourComparison C = compareBehaviours(O, T);
  EXPECT_TRUE(C.Equal);
  EXPECT_FALSE(C.NewBehaviour.has_value());
  EXPECT_TRUE(checkDrfGuarantee(O, T).holds());
}

void expectSameDrfReports(const DrfGuaranteeReport &A,
                          const DrfGuaranteeReport &B,
                          const std::string &Label) {
  EXPECT_EQ(A.outcome(), B.outcome()) << Label;
  EXPECT_EQ(A.OriginalDrf, B.OriginalDrf) << Label;
  EXPECT_EQ(A.TransformedDrf, B.TransformedDrf) << Label;
  EXPECT_EQ(A.BehavioursPreserved, B.BehavioursPreserved) << Label;
  EXPECT_EQ(A.NewBehaviour, B.NewBehaviour) << Label;
  EXPECT_EQ(A.Truncated, B.Truncated) << Label;
  // The oracle never certifies; a certified report computes no Comparison.
  EXPECT_EQ(B.Route, CheckRoute::Search) << Label;
  if (A.Route == CheckRoute::Search) {
    EXPECT_EQ(A.Comparison.Equal, B.Comparison.Equal) << Label;
  }
}

void expectSameThinAirReports(const ThinAirReport &A, const ThinAirReport &B,
                              const std::string &Label) {
  EXPECT_EQ(A.outcome(), B.outcome()) << Label;
  EXPECT_EQ(A.TransformedOutputs, B.TransformedOutputs) << Label;
  EXPECT_EQ(A.OrigHasOrigin, B.OrigHasOrigin) << Label;
  EXPECT_EQ(A.TransformedHasOrigin, B.TransformedHasOrigin) << Label;
  EXPECT_EQ(A.Truncated, B.Truncated) << Label;
  EXPECT_EQ(B.Route, CheckRoute::Search) << Label;
}

TEST(Checks, SeedEnumeratorGivesIdenticalReports) {
  ExecLimits Oracle;
  Oracle.ExhaustiveOracle = true;
  for (GenDiscipline D :
       {GenDiscipline::Racy, GenDiscipline::LockDiscipline,
        GenDiscipline::VolatileLocations, GenDiscipline::Mixed})
    for (bool Input : {false, true})
      for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
        GenOptions Options;
        Options.Discipline = D;
        Options.AllowInput = Input;
        Options.MaxStmtsPerThread = 4;
        Rng R(Seed);
        Program P = generateProgram(R, Options);
        Program T = randomChain(P, RuleSet::all(), 2, R).Result;
        std::string Label = printProgram(P) + "=>\n" + printProgram(T);
        expectSameDrfReports(checkDrfGuarantee(P, T),
                             checkDrfGuarantee(P, T, Oracle), Label);
        Value C = freshConstantFor(P);
        expectSameThinAirReports(checkThinAir(P, T, C),
                                 checkThinAir(P, T, C, Oracle), Label);
      }
}

} // namespace
