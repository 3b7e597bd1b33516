//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Lemma 1 unelimination construction (§5, Fig 5) and its
/// follow-up property: for DRF originals, the instance of an unelimination
/// of an execution is itself an execution with the same behaviour.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "semantics/Unelimination.h"
#include "trace/Enumerate.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

/// The Fig 5 example: original "v:=1; y:=1  ||  r1:=x; r2:=v; print r2"
/// (v volatile); eliminated "y:=1  ||  r2:=v; print r2" (the last release
/// v:=1 and the irrelevant read r1:=x are gone).
Program fig5Original() {
  return parseOrDie(R"(
volatile v;
thread { v := 1; y := 1; }
thread { r1 := x; r2 := v; print r2; }
)");
}

Program fig5Eliminated() {
  return parseOrDie(R"(
volatile v;
thread { y := 1; }
thread { r2 := v; print r2; }
)");
}

/// The execution I' from Fig 5.
Interleaving fig5Execution() {
  SymbolId Y = Symbol::intern("y"), V = Symbol::intern("v");
  return Interleaving({{0, Action::mkStart(0)},
                       {1, Action::mkStart(1)},
                       {0, Action::mkWrite(Y, 1)},
                       {1, Action::mkRead(V, 0, true)},
                       {1, Action::mkExternal(0)}});
}

TEST(Unelimination, Fig5TracesetsAreRelatedByElimination) {
  std::vector<Value> D = {0, 1};
  Traceset TO = programTraceset(fig5Original(), D);
  Traceset TT = programTraceset(fig5Eliminated(), D);
  EXPECT_EQ(checkElimination(TO, TT).Verdict, CheckVerdict::Holds);
}

TEST(Unelimination, Fig5ConstructionSucceeds) {
  std::vector<Value> D = {0, 1};
  Traceset TO = programTraceset(fig5Original(), D);
  Interleaving IPrime = fig5Execution();
  ASSERT_TRUE(IPrime.isExecutionOf(programTraceset(fig5Eliminated(), D)));

  UneliminationResult R = findUnelimination(TO, IPrime);
  ASSERT_EQ(R.Verdict, CheckVerdict::Holds);
  EXPECT_TRUE(isUneliminationFunction(IPrime, R.I, R.F));
  // The uneliminated interleaving belongs to the original traceset.
  EXPECT_TRUE(R.I.isInterleavingOf(TO));
  // The paper's key subtlety: the introduced volatile write W[v=1] must
  // come *after* the kept volatile read R[v=0] — the instance is then a
  // genuine execution of the original traceset.
  Interleaving Inst = R.I.instance();
  EXPECT_TRUE(Inst.isExecutionOf(TO)) << Inst.str();
  // Same behaviour (introduced externals could only trail; here there are
  // none).
  EXPECT_EQ(Inst.behaviour(), IPrime.behaviour());
}

TEST(Unelimination, FunctionConditionsAreEnforced) {
  Interleaving IPrime = fig5Execution();
  std::vector<Value> D = {0, 1};
  Traceset TO = programTraceset(fig5Original(), D);
  UneliminationResult R = findUnelimination(TO, IPrime);
  ASSERT_EQ(R.Verdict, CheckVerdict::Holds);
  // Tamper with the matching: swapping two images of one thread breaks
  // program order.
  std::vector<size_t> Bad = R.F;
  std::swap(Bad[0], Bad[2]); // Thread 0's start and write.
  EXPECT_FALSE(isUneliminationFunction(IPrime, R.I, Bad));
  // Truncating the matching is not a complete matching.
  std::vector<size_t> Short(R.F.begin(), R.F.end() - 1);
  EXPECT_FALSE(isUneliminationFunction(IPrime, R.I, Short));
}

TEST(Unelimination, PropertyOnDrfPrograms) {
  // For every execution I' of the eliminated program, an unelimination
  // exists and its instance is an execution of the original with the same
  // behaviour (all prefixes of I' are race-free because the program is
  // DRF).
  Program O = fig5Original();
  Program T = fig5Eliminated();
  std::vector<Value> D = {0, 1};
  Traceset TO = programTraceset(O, D);
  Traceset TT = programTraceset(T, D);
  ASSERT_TRUE(isDataRaceFree(TO));

  size_t Checked = 0;
  forEachExecution(TT, [&](const Interleaving &IPrime) {
    UneliminationResult R = findUnelimination(TO, IPrime);
    EXPECT_EQ(R.Verdict, CheckVerdict::Holds) << IPrime.str();
    if (R.Verdict == CheckVerdict::Holds) {
      EXPECT_TRUE(isUneliminationFunction(IPrime, R.I, R.F));
      Interleaving Inst = R.I.instance();
      EXPECT_TRUE(Inst.isExecutionOf(TO))
          << IPrime.str() << " -> " << Inst.str();
      // Behaviour equality up to introduced trailing externals.
      Behaviour B = Inst.behaviour();
      Behaviour BP = IPrime.behaviour();
      EXPECT_LE(BP.size(), B.size());
      if (BP.size() <= B.size()) {
        EXPECT_TRUE(std::equal(BP.begin(), BP.end(), B.begin()));
      }
    }
    ++Checked;
    return true;
  });
  EXPECT_GT(Checked, 0u);
}

TEST(Unelimination, FailsWhenNoWitnessExists) {
  // An "execution" whose thread trace was never in any elimination of the
  // original: a write of a foreign value.
  Program O = fig5Original();
  Traceset TO = programTraceset(O, {0, 1});
  Interleaving Bogus({{0, Action::mkStart(0)},
                      {0, Action::mkWrite(Symbol::intern("zz"), 1)}});
  EXPECT_EQ(findUnelimination(TO, Bogus).Verdict, CheckVerdict::Fails);
}

} // namespace
