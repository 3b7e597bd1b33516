//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the unsafe transformations: read introduction and the
/// §1-style constant propagation, including its sequential-correctness
/// guardrails.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Unsafe.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

TEST(IntroduceRead, InsertsAtTheRequestedPosition) {
  Program P = parseOrDie("thread { x := 1; print 0; }");
  ListPath Path;
  Path.Tid = 0;
  Program Out = introduceRead(P, Path, 1, Symbol::intern("r9"),
                              Symbol::intern("y"));
  EXPECT_TRUE(Out.equals(parseOrDie("thread { x := 1; r9 := y; print 0; }")));
  // At the end.
  Program Out2 = introduceRead(P, Path, 2, Symbol::intern("r9"),
                               Symbol::intern("y"));
  EXPECT_TRUE(
      Out2.equals(parseOrDie("thread { x := 1; print 0; r9 := y; }")));
}

TEST(IntroduceRead, DoesNotChangeScBehavioursWhenRegisterIsFresh) {
  Program P = parseOrDie(R"(
thread { x := 1; r1 := y; print r1; }
thread { y := 1; r2 := x; print r2; }
)");
  ListPath Path;
  Path.Tid = 0;
  Program Out = introduceRead(P, Path, 0, Symbol::intern("r9"),
                              Symbol::intern("y"));
  EXPECT_EQ(programBehaviours(P), programBehaviours(Out));
}

TEST(ConstProp, FindsStraightLineSites) {
  Program P = parseOrDie("thread { x := 3; skip; r1 := x; }");
  std::vector<ConstPropSite> Sites = findUnsafeConstProp(P);
  ASSERT_EQ(Sites.size(), 1u);
  Program Out = applyUnsafeConstProp(P, Sites[0]);
  EXPECT_TRUE(Out.equals(parseOrDie("thread { x := 3; skip; r1 := 3; }")));
}

TEST(ConstProp, StopsAtInterveningStores) {
  Program P = parseOrDie("thread { x := 3; x := 4; r1 := x; }");
  std::vector<ConstPropSite> Sites = findUnsafeConstProp(P);
  // Only the second store may propagate.
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_EQ(Sites[0].StoreIndex, 1u);
  Program Out = applyUnsafeConstProp(P, Sites[0]);
  EXPECT_TRUE(Out.equals(parseOrDie("thread { x := 3; x := 4; r1 := 4; }")));
}

TEST(ConstProp, DescendsIntoBranches) {
  Program P = parseOrDie(R"(
thread {
  x := 7;
  if (r0 == 0) { r1 := x; } else { r2 := x; }
}
)");
  std::vector<ConstPropSite> Sites = findUnsafeConstProp(P);
  EXPECT_EQ(Sites.size(), 2u);
  Program Out = P;
  // Apply one at a time; sites are recomputed against the same original
  // shape (the load replacement does not shift indices).
  for (const ConstPropSite &S : Sites)
    Out = applyUnsafeConstProp(Out, S);
  EXPECT_TRUE(Out.equals(parseOrDie(R"(
thread {
  x := 7;
  if (r0 == 0) { r1 := 7; } else { r2 := 7; }
}
)"))) << printProgram(Out);
}

TEST(ConstProp, BranchLocalStoreStopsLaterLoads) {
  Program P = parseOrDie(R"(
thread {
  x := 7;
  if (r0 == 0) { x := 8; } else { skip; }
  r1 := x;
}
)");
  // After the if, x may be 7 or 8: no propagation to r1.
  EXPECT_TRUE(findUnsafeConstProp(P).empty());
}

TEST(ConstProp, WhileBodiesWithStoresAreOffLimits) {
  Program P = parseOrDie(R"(
thread {
  x := 7;
  while (r0 == 0) { r1 := x; x := 8; }
}
)");
  EXPECT_TRUE(findUnsafeConstProp(P).empty());
  // Store-free while bodies are fine.
  Program Q = parseOrDie(R"(
thread {
  x := 7;
  while (r0 == 0) { r1 := x; r0 := 1; }
}
)");
  EXPECT_EQ(findUnsafeConstProp(Q).size(), 1u);
}

TEST(ConstProp, OnlyLiteralStoresPropagate) {
  Program P = parseOrDie("thread { x := r2; r1 := x; }");
  EXPECT_TRUE(findUnsafeConstProp(P).empty());
}

TEST(ConstProp, IsSequentiallyCorrectOnSingleThreadPrograms) {
  // The pass must preserve behaviours of sequential programs — it is only
  // *concurrently* unsound.
  const char *Sources[] = {
      "thread { x := 3; r1 := x; print r1; }",
      "thread { x := 3; if (r0 == 0) { r1 := x; print r1; } "
      "else { print 9; } }",
      "thread { x := 1; x := 2; r1 := x; print r1; }",
  };
  for (const char *Src : Sources) {
    Program P = parseOrDie(Src);
    Program Out = P;
    // Apply sites to a fixpoint (each application can expose nothing new
    // here, one round suffices).
    for (const ConstPropSite &S : findUnsafeConstProp(P))
      Out = applyUnsafeConstProp(Out, S);
    EXPECT_EQ(programBehaviours(P), programBehaviours(Out)) << Src;
  }
}

} // namespace
