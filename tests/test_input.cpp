//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for input actions — the paper's X(v) as an environment-supplied
/// *input*: parsing, semantics, cross-engine agreement, the reordering
/// rules, memory-model machines, and the thin-air caveat (values the
/// environment can supply are not out-of-thin-air).
///
//===----------------------------------------------------------------------===//

#include "TsoOracle.h"

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Rewrite.h"
#include "semantics/Reordering.h"
#include "trace/Enumerate.h"
#include "tso/TsoMachine.h"
#include "verify/Checks.h"
#include "verify/ProgramGen.h"
#include "verify/Theorems.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

TEST(Input, ParsesAndPrints) {
  Program P = parseOrDie("thread { input r1; print r1; }");
  EXPECT_EQ(P.thread(0)[0]->kind(), StmtKind::Input);
  ParseResult Back = parseProgram(printProgram(P));
  ASSERT_TRUE(Back);
  EXPECT_TRUE(P.equals(*Back.Prog));
  EXPECT_FALSE(parseProgram("thread { input x; }")); // Not a register.
  EXPECT_FALSE(parseProgram("thread { input 3; }"));
}

TEST(Input, SmallStepBranchesOverTheDomain) {
  Program P = parseOrDie("thread { input r1; }");
  LangContext Ctx(P, {0, 1, 2});
  std::vector<Step> Steps = possibleSteps(initialThreadState(P, 0), Ctx);
  ASSERT_EQ(Steps.size(), 3u);
  std::set<Value> Seen;
  for (const Step &S : Steps) {
    ASSERT_TRUE(S.Act && S.Act->isExternal());
    Seen.insert(S.Act->value());
    EXPECT_EQ(S.Next.Regs.at(Symbol::intern("r1")), S.Act->value());
  }
  EXPECT_EQ(Seen, (std::set<Value>{0, 1, 2}));
}

TEST(Input, EchoBehaviours) {
  Program P = parseOrDie("thread { input r1; print r1; }");
  ExecLimits Limits;
  Limits.InputDomain = {0, 1, 2};
  std::set<Behaviour> Bs = programBehaviours(P, Limits);
  for (Value V : {0, 1, 2})
    EXPECT_TRUE(Bs.count(Behaviour{V, V}));
  EXPECT_FALSE(Bs.count(Behaviour{1, 2}));
}

TEST(Input, InputValuesFlowIntoMemory) {
  Program P = parseOrDie(R"(
thread { input r1; x := r1; }
thread { r2 := x; print r2; }
)");
  ExecLimits Limits;
  Limits.InputDomain = {0, 7};
  std::set<Behaviour> Bs = programBehaviours(P, Limits);
  EXPECT_TRUE(Bs.count(Behaviour{7, 7})); // Input 7, then read 7.
  EXPECT_TRUE(Bs.count(Behaviour{7, 0})); // Read before the store.
}

TEST(Input, CrossEngineAgreement) {
  // programBehaviours runs on [[P]]. The seed TSO machine with every
  // location volatile fences every access and reads real memory, so it
  // runs SC without sharing code with the traceset enumerator. 7 is not a
  // constant of P: only the input domain can make it readable.
  Program P = parseOrDie(R"(
thread { input r1; x := r1; }
thread { r2 := x; print r2; }
)");
  ExecLimits Limits;
  Limits.InputDomain = {0, 7};
  Program Fenced = P;
  for (SymbolId Loc : P.locations())
    Fenced.markVolatile(Loc);
  TsoLimits Machine;
  Machine.InputDomain = {0, 7};
  EXPECT_EQ(programBehaviours(P, Limits),
            oracleTsoBehaviours(Fenced, Machine));
}

TEST(Input, ExternalRulesApplyWithRegisterConditions) {
  auto HasRule = [](const char *Src, RuleKind K) {
    Program P = parseOrDie(Src);
    for (const RewriteSite &S :
         findRewriteSites(P, RuleSet::withExtensions()))
      if (S.Rule == K)
        return true;
    return false;
  };
  EXPECT_TRUE(HasRule("thread { input r1; r2 := x; }", RuleKind::RXR));
  EXPECT_FALSE(HasRule("thread { input r1; r1 := x; }", RuleKind::RXR));
  EXPECT_TRUE(HasRule("thread { input r1; x := r2; }", RuleKind::RXW));
  EXPECT_FALSE(HasRule("thread { input r1; x := r1; }", RuleKind::RXW));
  EXPECT_TRUE(HasRule("thread { r2 := x; input r1; }", RuleKind::RRX));
  EXPECT_FALSE(HasRule("thread { r1 := x; input r1; }", RuleKind::RRX));
  EXPECT_TRUE(HasRule("thread { x := r2; input r1; }", RuleKind::RWX));
  EXPECT_FALSE(HasRule("thread { x := r1; input r1; }", RuleKind::RWX));
}

TEST(Input, ReorderedInputIsAnEliminationThenReordering) {
  Program O = parseOrDie("thread { input r1; x := r2; print r1; }");
  std::vector<RewriteSite> Sites;
  for (const RewriteSite &S : findRewriteSites(O))
    if (S.Rule == RuleKind::RXW)
      Sites.push_back(S);
  ASSERT_EQ(Sites.size(), 1u);
  Program T = applyRewrite(O, Sites[0]);
  std::vector<Value> D = defaultDomainFor(O, 2);
  TransformCheckResult R = checkEliminationThenReordering(
      programTraceset(O, D), programTraceset(T, D));
  EXPECT_EQ(R.Verdict, CheckVerdict::Holds)
      << "counterexample: " << R.Counterexample.str();
  EXPECT_TRUE(exploreDrfGuarantee(O, T).holds());
}

TEST(Input, TheoremHarnessOnInputPrograms) {
  GenOptions Options;
  Options.Discipline = GenDiscipline::LockDiscipline;
  Options.AllowInput = true;
  Options.MaxStmtsPerThread = 4;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Rng R(Seed);
    Program P = generateProgram(R, Options);
    TransformChain Chain = randomChain(P, RuleSet::all(), 2, R);
    TheoremCaseReport Report = checkTheoremsOnChain(P, Chain);
    EXPECT_TRUE(Report.allHold())
        << Report.summary() << "\n" << printProgram(P);
  }
}

TEST(Input, TsoAndPsoHandleInputs) {
  Program P = parseOrDie(R"(
thread { input r1; x := r1; r2 := y; print r2; }
thread { y := 1; }
)");
  TsoLimits Limits;
  Limits.InputDomain = {0, 1};
  std::set<Behaviour> Tso = tsoBehaviours(P, Limits);
  ExecLimits ScLimits;
  ScLimits.InputDomain = {0, 1};
  for (const Behaviour &B : programBehaviours(P, ScLimits))
    EXPECT_TRUE(Tso.count(B));
}

TEST(Input, EnvironmentValuesAreNotThinAir) {
  // An input of 42 is an external action carrying 42 without a prior read:
  // by the §5 definition the trace *is* an origin for 42 — correctly so,
  // the environment supplied it. The guarantee only covers values the
  // program must manufacture itself.
  Program P = parseOrDie("thread { input r1; x := r1; }");
  std::vector<Value> D = {0, 42};
  Traceset T = programTraceset(P, D);
  EXPECT_TRUE(T.hasOriginFor(42));
  // Without 42 in the environment's repertoire, it stays impossible.
  ExecLimits Limits;
  Limits.InputDomain = {0, 1};
  EXPECT_FALSE(programCanOutput(P, 42, Limits));
}

TEST(Input, PairwiseChecksPinTheEnvironmentToTheOriginal) {
  // Dead-store elimination removes the only occurrence of constant 5; the
  // comparison must still run both programs against the original's input
  // domain, so the echoed 5 stays comparable.
  Program O = parseOrDie("thread { input r1; print r1; zz := 5; zz := 0; }");
  Program T = parseOrDie("thread { input r1; print r1; zz := 0; }");
  EXPECT_FALSE(T.containsConstant(5));
  BehaviourComparison C = compareBehaviours(O, T);
  EXPECT_TRUE(C.Subset);
  EXPECT_TRUE(C.Equal) << "input echo of 5 must exist on both sides";
  DrfGuaranteeReport G = exploreDrfGuarantee(O, T);
  EXPECT_TRUE(G.holds());
}

TEST(Input, DataflowFactsDieAtInputs) {
  // input writes its register, so a fact held in that register dies.
  Program P = parseOrDie("thread { r1 := x; input r1; r2 := x; }");
  std::vector<RewriteSite> Sites;
  for (const RewriteSite &S : findRewriteSites(P))
    if (S.Rule == RuleKind::ERaR)
      Sites.push_back(S);
  EXPECT_TRUE(Sites.empty()) << "E-RAR must not reuse a clobbered register";
}

} // namespace
