//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the TSO store-buffer machine and the §8 "TSO as
/// transformations" claim.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "tso/Litmus.h"
#include "tso/TsoExplain.h"
#include "tso/TsoMachine.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

TEST(TsoMachine, TsoIsASupersetOfSC) {
  for (const LitmusTest &T : litmusTests()) {
    Program P = parseOrDie(T.Source);
    std::set<Behaviour> Sc = programBehaviours(P);
    std::set<Behaviour> Tso = tsoBehaviours(P);
    for (const Behaviour &B : Sc)
      EXPECT_TRUE(Tso.count(B))
          << T.Name << ": SC behaviour missing under TSO";
  }
}

class LitmusSuite : public ::testing::TestWithParam<LitmusTest> {};

TEST_P(LitmusSuite, OutcomeMatchesTheModel) {
  const LitmusTest &T = GetParam();
  Program P = parseOrDie(T.Source);
  std::set<Behaviour> Sc = programBehaviours(P);
  std::set<Behaviour> Tso = tsoBehaviours(P);
  std::set<Behaviour> Pso = psoBehaviours(P);
  EXPECT_EQ(T.observedIn(Sc), T.ScAllows) << T.Name << " (SC)";
  EXPECT_EQ(T.observedIn(Tso), T.TsoAllows) << T.Name << " (TSO)";
  EXPECT_EQ(T.observedIn(Pso), T.PsoAllows) << T.Name << " (PSO)";
  // The relaxation hierarchy: SC within TSO within PSO.
  for (const Behaviour &B : Sc)
    EXPECT_TRUE(Tso.count(B)) << T.Name;
  for (const Behaviour &B : Tso)
    EXPECT_TRUE(Pso.count(B)) << T.Name;
}

INSTANTIATE_TEST_SUITE_P(AllLitmus, LitmusSuite,
                         ::testing::ValuesIn(litmusTests()),
                         [](const auto &Info) {
                           std::string N = Info.param.Name;
                           for (char &C : N)
                             if (!std::isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

TEST(TsoExplain, EveryLitmusTestIsExplainedByTransformations) {
  for (const LitmusTest &T : litmusTests()) {
    Program P = parseOrDie(T.Source);
    TsoExplainResult R = explainTsoByTransformations(P, /*MaxDepth=*/3);
    EXPECT_FALSE(R.Truncated) << T.Name;
    EXPECT_TRUE(R.Explained)
        << T.Name << ": unexplained TSO behaviour of size "
        << R.Unexplained.size();
  }
}

TEST(TsoExplain, PsoBehavioursAreAlsoExplained) {
  // The §8 conjecture for the next model: PSO adds W->W reordering, which
  // R-WW covers, so the same transformation neighbourhood explains the
  // PSO-only behaviours too (checked against the SC union).
  for (const LitmusTest &T : litmusTests()) {
    Program P = parseOrDie(T.Source);
    std::set<Behaviour> Pso = psoBehaviours(P);
    bool Truncated = false;
    std::set<Behaviour> Union =
        reachableScBehaviours(P, 3, {}, {}, &Truncated);
    ASSERT_FALSE(Truncated) << T.Name;
    for (const Behaviour &B : Pso)
      EXPECT_TRUE(Union.count(B))
          << T.Name << ": PSO behaviour of size " << B.size()
          << " not explained";
  }
}

TEST(TsoExplain, FencedSBNeedsNoTransformations) {
  // The volatile SB has identical SC and TSO behaviour sets already.
  Program P = parseOrDie(litmusTests()[1].Source);
  EXPECT_TRUE(tsoOnlyBehaviours(P).empty());
}

TEST(TsoMachine, DrfProgramsSeeNoTsoOnlyBehaviours) {
  // Lock-protected SB: DRF, so TSO (with fencing synchronisation) must be
  // observationally SC.
  Program P = parseOrDie(R"(
thread { lock m; x := 1; r1 := y; unlock m; print r1; }
thread { lock m; y := 1; r2 := x; unlock m; print r2; }
)");
  EXPECT_TRUE(isProgramDrf(P));
  EXPECT_TRUE(tsoOnlyBehaviours(P).empty());
}

TEST(TsoMachine, ScSideSharesTheMachineInputDomain) {
  // 7 is no constant of P: if the SC side drew inputs from P's default
  // domain, the echoed 7 would read as a machine-only behaviour.
  Program P = parseOrDie("thread { input r1; print r1; }");
  TsoLimits Limits;
  Limits.InputDomain = {0, 7};
  ASSERT_TRUE(tsoBehaviours(P, Limits).count(Behaviour{7, 7}));
  EXPECT_TRUE(tsoOnlyBehaviours(P, Limits).empty());
  EXPECT_TRUE(psoOnlyBehaviours(P, Limits).empty());
  EXPECT_TRUE(explainTsoByTransformations(P, 1, {}, Limits).Explained);
}

TEST(TsoMachine, BufferBoundForcesTruncationFlag) {
  Program P = parseOrDie(R"(
thread { x := 1; x := 2; x := 3; r1 := y; print r1; }
thread { y := 1; }
)");
  TsoLimits Limits;
  Limits.MaxBufferedStores = 1;
  // With a tiny buffer the machine still terminates and SB-style delays are
  // limited to one store; all SC behaviours remain present.
  std::set<Behaviour> Tso = tsoBehaviours(P, Limits);
  for (const Behaviour &B : programBehaviours(P))
    EXPECT_TRUE(Tso.count(B));
}

} // namespace
