//===----------------------------------------------------------------------===//
///
/// \file
/// The theorem harness property tests: Theorems 1-5 and Lemmas 4/5 checked
/// end-to-end on random (program, transformation-chain) instances. Any
/// failure here would be a counterexample to the paper.
///
//===----------------------------------------------------------------------===//

#include "lang/Printer.h"
#include "lang/Parser.h"
#include "verify/ProgramGen.h"
#include "verify/Theorems.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

struct TheoremCase {
  uint64_t Seed;
  GenDiscipline Discipline;
  bool Extensions;
};

class TheoremSweep : public ::testing::TestWithParam<TheoremCase> {};

TEST_P(TheoremSweep, GuaranteesHoldOnRandomChains) {
  const TheoremCase &C = GetParam();
  GenOptions Options;
  Options.Discipline = C.Discipline;
  Options.MaxStmtsPerThread = 4;
  Options.Locations = 2;
  Options.Registers = 3;
  Rng R(C.Seed);
  Program P = generateProgram(R, Options);

  RuleSet Rules = C.Extensions ? RuleSet::withExtensions() : RuleSet::all();
  TransformChain Chain = randomChain(P, Rules, /*MaxSteps=*/3, R);

  TheoremCheckOptions TOpts;
  TheoremCaseReport Report = checkTheoremsOnChain(P, Chain, TOpts);
  EXPECT_TRUE(Report.allHold())
      << Report.summary() << "\noriginal:\n" << printProgram(P)
      << "transformed:\n" << printProgram(Chain.Result);
}

std::vector<TheoremCase> sweepCases() {
  std::vector<TheoremCase> Out;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Out.push_back(TheoremCase{Seed, GenDiscipline::LockDiscipline, false});
    Out.push_back(TheoremCase{Seed, GenDiscipline::VolatileLocations, false});
    Out.push_back(TheoremCase{Seed, GenDiscipline::Mixed, false});
    Out.push_back(TheoremCase{Seed, GenDiscipline::Racy, true});
  }
  return Out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TheoremSweep,
                         ::testing::ValuesIn(sweepCases()),
                         [](const auto &Info) {
                           const TheoremCase &C = Info.param;
                           std::string D =
                               C.Discipline == GenDiscipline::Racy ? "racy"
                               : C.Discipline == GenDiscipline::LockDiscipline
                                   ? "locked"
                               : C.Discipline == GenDiscipline::Mixed
                                   ? "mixed"
                                   : "volatile";
                           return D + "_seed" + std::to_string(C.Seed);
                         });

TEST(TheoremHarness, DetectsABrokenTransformation) {
  // A deliberately wrong "optimisation": change a printed constant. The
  // harness must flag the DRF-guarantee violation.
  Program O = parseOrDie("thread { print 1; }");
  TransformChain Fake;
  Fake.Result = parseOrDie("thread { print 2; }");
  TheoremCheckOptions TOpts;
  TOpts.VerifySemanticSteps = false; // No rule steps to verify.
  TheoremCaseReport Report = checkTheoremsOnChain(O, Fake, TOpts);
  EXPECT_FALSE(Report.allHold());
  EXPECT_FALSE(Report.Drf.holds());
}

TEST(TheoremHarness, EmptyChainAlwaysHolds) {
  Program P = parseOrDie(
      "thread { lock m; x := 1; r1 := x; print r1; unlock m; }");
  TransformChain Chain;
  Chain.Result = P;
  TheoremCaseReport Report = checkTheoremsOnChain(P, Chain);
  EXPECT_TRUE(Report.allHold()) << Report.summary();
}

TEST(TheoremHarness, VerifiesEachStepSemantically) {
  Program P = parseOrDie(
      "thread { lock m; data := 1; r1 := data; r2 := data; print r2; "
      "unlock m; }");
  TransformChain Chain = greedyChain(P, RuleSet::all(), 3);
  ASSERT_FALSE(Chain.Steps.empty());
  TheoremCaseReport Report = checkTheoremsOnChain(P, Chain);
  EXPECT_EQ(Report.Steps.size(), Chain.Steps.size());
  for (const StepVerification &S : Report.Steps)
    EXPECT_EQ(S.Semantic, CheckVerdict::Holds) << S.Site.str();
  EXPECT_TRUE(Report.allHold()) << Report.summary();
}

TEST(TheoremHarness, SummaryMentionsEverything) {
  Program P = parseOrDie("thread { r1 := x; r2 := x; print r2; }");
  TransformChain Chain = greedyChain(P, RuleSet::eliminationsOnly(), 1);
  TheoremCaseReport Report = checkTheoremsOnChain(P, Chain);
  std::string S = Report.summary();
  EXPECT_NE(S.find("DRF guarantee"), std::string::npos);
  EXPECT_NE(S.find("thin-air"), std::string::npos);
}

TEST(TheoremHarness, StepSearchesChargeTheAttachedBudget) {
  // A budget whose visit cap covers both traceset builds of a one-step
  // chain, and not one visit more, must stop the step's witness search:
  // the step is Unknown and the budget names the visit cap. One chain per
  // checker: Lemma 4 (an E rule) and Lemma 5 (an R rule).
  struct StepCase {
    const char *Source;
    RuleSet Rules;
    bool Elimination;
  };
  for (const StepCase &C :
       {StepCase{"thread { r1 := x; r2 := x; print r2; }",
                 RuleSet::eliminationsOnly(), true},
        StepCase{"thread { x := 1; r1 := y; print r1; }",
                 RuleSet::reorderingsOnly(), false}}) {
    SCOPED_TRACE(C.Source);
    Program P = parseOrDie(C.Source);
    TransformChain Chain = greedyChain(P, C.Rules, 1);
    ASSERT_EQ(Chain.Steps.size(), 1u);
    ASSERT_EQ(isEliminationRule(Chain.Steps[0].Rule), C.Elimination);
    ASSERT_EQ(verifyChainSteps(P, Chain)[0].Semantic, CheckVerdict::Holds);

    Budget Builds(BudgetSpec{});
    ExploreLimits XL;
    XL.Shared = &Builds;
    std::vector<Value> Domain = defaultDomainFor(P, 2);
    programTraceset(P, Domain, XL);
    programTraceset(Chain.Result, Domain, XL);

    Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/Builds.visited(),
                        /*MaxMemoryBytes=*/0});
    TheoremCheckOptions Options;
    Options.attachBudget(B);
    std::vector<StepVerification> Steps = verifyChainSteps(P, Chain, Options);
    ASSERT_EQ(Steps.size(), 1u);
    EXPECT_EQ(Steps[0].Semantic, CheckVerdict::Unknown);
    EXPECT_EQ(B.reason(), TruncationReason::StateCap);
  }
}

TEST(TheoremHarness, RuleClassification) {
  EXPECT_TRUE(isEliminationRule(RuleKind::ERaR));
  EXPECT_TRUE(isEliminationRule(RuleKind::EIr));
  EXPECT_FALSE(isEliminationRule(RuleKind::RRR));
  EXPECT_FALSE(isEliminationRule(RuleKind::RWX));
}

} // namespace
