//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the dataflow optimiser: classic CSE/constant-propagation/
/// dead-store shapes, synchronisation barriers, and semantic certification
/// of the whole pass on random programs (the §2.1 claim that such
/// dataflow-based optimisations are semantic eliminations).
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/DataflowOpt.h"
#include "semantics/Elimination.h"
#include "verify/Checks.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

void expectOptimisesTo(const char *Source, const char *Expected) {
  Program P = parseOrDie(Source);
  Program Out = runDataflowOpt(P);
  EXPECT_TRUE(Out.equals(parseOrDie(Expected)))
      << "got:\n" << printProgram(Out);
}

TEST(DataflowOpt, ConstantPropagationThroughMemory) {
  expectOptimisesTo("thread { x := 5; r1 := x; print r1; }",
                    "thread { x := 5; r1 := 5; print r1; }");
}

TEST(DataflowOpt, CommonSubexpressionElimination) {
  expectOptimisesTo("thread { r1 := x; r2 := x; r3 := x; }",
                    "thread { r1 := x; r2 := r1; r3 := r1; }");
}

TEST(DataflowOpt, ForwardingChainsThroughStores) {
  expectOptimisesTo("thread { r1 := x; y := r1; r2 := y; }",
                    "thread { r1 := x; y := r1; r2 := r1; }");
}

TEST(DataflowOpt, SynchronisationKillsFacts) {
  expectOptimisesTo("thread { x := 5; lock m; r1 := x; unlock m; }",
                    "thread { x := 5; lock m; r1 := x; unlock m; }");
  expectOptimisesTo(
      "volatile v; thread { x := 5; r9 := v; r1 := x; print r1; }",
      "volatile v; thread { x := 5; r9 := v; r1 := x; print r1; }");
}

TEST(DataflowOpt, RegisterRedefinitionKillsFacts) {
  expectOptimisesTo("thread { r1 := x; r1 := 7; r2 := x; }",
                    // The dead read r1:=x is removed (E-IR), and x's fact
                    // dies with r1, so r2 := x stays a load.
                    "thread { r1 := 7; r2 := x; }");
}

TEST(DataflowOpt, StoreInvalidatesOldFact) {
  expectOptimisesTo("thread { x := 1; x := 2; r1 := x; print r1; }",
                    // The overwritten store dies (E-WBW) and the load is
                    // forwarded from the surviving store.
                    "thread { x := 2; r1 := 2; print r1; }");
}

TEST(DataflowOpt, WriteBackRemoval) {
  expectOptimisesTo("thread { r1 := x; skip; x := r1; print r1; }",
                    "thread { r1 := x; skip; print r1; }");
}

TEST(DataflowOpt, WriteBackBlockedByRegisterClobber) {
  expectOptimisesTo("thread { r1 := x; r1 := 3; x := r1; }",
                    // r1 := x is a dead read (E-IR); the write-back is NOT
                    // removable because r1 changed.
                    "thread { r1 := 3; x := r1; }");
}

TEST(DataflowOpt, NestedBlocksAreOptimisedIndependently) {
  expectOptimisesTo(
      "thread { if (r0 == 0) { x := 4; r1 := x; } else "
      "{ r2 := y; r3 := y; } }",
      "thread { if (r0 == 0) { x := 4; r1 := 4; } else "
      "{ r2 := y; r3 := r2; } }");
}

TEST(DataflowOpt, FactsSurviveDisjointNestedStatements) {
  expectOptimisesTo(
      "thread { x := 5; if (r0 == 0) { y := 1; } else { skip; } r1 := x; }",
      "thread { x := 5; if (r0 == 0) { y := 1; } else { skip; } r1 := 5; }");
}

TEST(DataflowOpt, FactsDieOnNestedClobber) {
  expectOptimisesTo(
      "thread { x := 5; if (r0 == 0) { x := 6; } else { skip; } r1 := x; }",
      "thread { x := 5; if (r0 == 0) { x := 6; } else { skip; } r1 := x; }");
}

TEST(DataflowOpt, VolatileAccessesAreNeverForwarded) {
  expectOptimisesTo("volatile v; thread { v := 1; r1 := v; }",
                    "volatile v; thread { v := 1; r1 := v; }");
}

TEST(DataflowOpt, ReportCountsApplications) {
  Program P = parseOrDie(
      "thread { x := 1; x := 2; r1 := x; r2 := x; print r2; }");
  DataflowOptReport Report;
  runDataflowOpt(P, &Report);
  EXPECT_EQ(Report.StoresRemoved, 1u);   // x := 1.
  EXPECT_EQ(Report.LoadsForwarded, 2u);  // Both loads become constants.
  EXPECT_GE(Report.Iterations, 1u);
}

TEST(DataflowOpt, IdempotentAtFixpoint) {
  Program P = parseOrDie(
      "thread { x := 1; x := 2; r1 := x; r2 := x; print r2; }");
  Program Once = runDataflowOpt(P);
  Program Twice = runDataflowOpt(Once);
  EXPECT_TRUE(Once.equals(Twice));
}

class DataflowCertification : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DataflowCertification, EveryRewriteStepIsASemanticElimination) {
  // Certify the audit-trail chain step by step — the whole pass is a
  // *composition* of eliminations, which in general is not itself a single
  // elimination (the paper's Theorem 1 is stated over chains for exactly
  // this reason; see DataflowOpt.h).
  for (GenDiscipline D :
       {GenDiscipline::Racy, GenDiscipline::LockDiscipline,
        GenDiscipline::VolatileLocations, GenDiscipline::Mixed}) {
    GenOptions Options;
    Options.Discipline = D;
    Options.MaxStmtsPerThread = 5;
    Rng R(GetParam());
    Program P = generateProgram(R, Options);
    std::vector<Program> Chain;
    Program Out = runDataflowOpt(P, nullptr, &Chain);
    ASSERT_FALSE(Chain.empty());
    EXPECT_TRUE(Chain.back().equals(Out));
    std::vector<Value> Dom = defaultDomainFor(P, 2);
    Traceset Prev = programTraceset(Chain.front(), Dom);
    for (size_t K = 1; K < Chain.size(); ++K) {
      Traceset Next = programTraceset(Chain[K], Dom);
      TransformCheckResult Check = checkElimination(Prev, Next);
      EXPECT_EQ(Check.Verdict, CheckVerdict::Holds)
          << "step " << K << ":\n" << printProgram(Chain[K - 1]) << "->\n"
          << printProgram(Chain[K])
          << "counterexample: " << Check.Counterexample.str();
      Prev = std::move(Next);
    }
    DrfGuaranteeReport G = exploreDrfGuarantee(P, Out);
    EXPECT_TRUE(G.holds()) << printProgram(P);
  }
}

TEST(DataflowOpt, CompositionCounterexampleNeedsTheChain) {
  // The case the certification sweep uncovered: E-WBW exposes an E-WAR;
  // the two-step chain verifies, the end-to-end single elimination does
  // not.
  Program P = parseOrDie(
      "thread { lock m; r0 := x; x := 0; x := r0; unlock m; }");
  std::vector<Program> Chain;
  Program Out = runDataflowOpt(P, nullptr, &Chain);
  ASSERT_EQ(Chain.size(), 3u);
  std::vector<Value> Dom = defaultDomainFor(P, 2);
  Traceset T0 = programTraceset(Chain[0], Dom);
  Traceset T1 = programTraceset(Chain[1], Dom);
  Traceset T2 = programTraceset(Chain[2], Dom);
  EXPECT_EQ(checkElimination(T0, T1).Verdict, CheckVerdict::Holds);
  EXPECT_EQ(checkElimination(T1, T2).Verdict, CheckVerdict::Holds);
  EXPECT_EQ(checkElimination(T0, T2).Verdict, CheckVerdict::Fails)
      << "if this starts holding, the composition remark in DataflowOpt.h "
         "is stale";
  // The guarantee nevertheless holds end to end (Theorem 1 composes).
  EXPECT_TRUE(exploreDrfGuarantee(P, Out).holds());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowCertification,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
