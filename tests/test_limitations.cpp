//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "surprising limitations of the DRF guarantee" and the
/// transformations the paper rules out, demonstrated as concrete
/// counterexamples that the checkers catch:
///
///  - write introduction / speculation (§2.1: "write introduction ...
///    generally violates the DRF guarantee");
///  - lock elision (acquires are not eliminable in Definition 1 — and
///    removing a lock/unlock pair from a DRF program can introduce races);
///  - redundant read elimination is fine across a lone acquire but not
///    across a release-acquire pair;
///  - eliminating a release that is *not* last is unsafe.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "opt/Unsafe.h"
#include "semantics/Reordering.h"
#include "verify/Checks.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

// --- Write speculation -------------------------------------------------------

/// DRF by volatile handshake: thread 0 writes x only after seeing the
/// flag; thread 1 reads x before raising it.
const char *SpeculationOriginal = R"(
volatile v;
thread {
  r1 := v;
  if (r1 == 1) { x := 1; } else { skip; }
}
thread {
  r2 := x;
  print r2;
  v := 1;
}
)";

/// "Optimised": the store is performed speculatively and compensated —
/// sequentially equivalent, concurrently disastrous.
const char *SpeculationTransformed = R"(
volatile v;
thread {
  x := 1;
  r1 := v;
  if (r1 == 1) { skip; } else { x := 0; }
}
thread {
  r2 := x;
  print r2;
  v := 1;
}
)";

TEST(WriteSpeculation, OriginalIsDrf) {
  EXPECT_TRUE(isProgramDrf(parseOrDie(SpeculationOriginal)));
}

TEST(WriteSpeculation, ViolatesTheDrfGuarantee) {
  Program O = parseOrDie(SpeculationOriginal);
  Program T = parseOrDie(SpeculationTransformed);
  DrfGuaranteeReport R = exploreDrfGuarantee(O, T);
  EXPECT_TRUE(R.OriginalDrf);
  EXPECT_FALSE(R.holds());
  // Both failure modes occur: a race is introduced and a new behaviour
  // appears (thread 1 can print the speculative 1).
  EXPECT_FALSE(R.TransformedDrf);
  EXPECT_FALSE(R.BehavioursPreserved);
  ASSERT_TRUE(R.NewBehaviour.has_value());
  EXPECT_EQ(*R.NewBehaviour, (Behaviour{1}));
}

TEST(WriteSpeculation, IsNotASemanticTransformation) {
  Program O = parseOrDie(SpeculationOriginal);
  Program T = parseOrDie(SpeculationTransformed);
  std::vector<Value> D = defaultDomainFor(O, 2);
  Traceset TO = programTraceset(O, D);
  Traceset TT = programTraceset(T, D);
  EXPECT_EQ(checkElimination(TO, TT).Verdict, CheckVerdict::Fails);
  EXPECT_EQ(checkEliminationThenReordering(TO, TT).Verdict,
            CheckVerdict::Fails);
}

// --- Lock elision ------------------------------------------------------------

const char *ElisionOriginal = R"(
thread { lock m; x := 1; unlock m; }
thread { lock m; r1 := x; unlock m; print r1; }
)";

TEST(LockElision, PairFinderLocatesBothSections) {
  Program P = parseOrDie(ElisionOriginal);
  std::vector<LockPair> Pairs = findLockPairs(P);
  ASSERT_EQ(Pairs.size(), 2u);
  EXPECT_EQ(Pairs[0].LockIndex, 0u);
  EXPECT_EQ(Pairs[0].UnlockIndex, 2u);
}

TEST(LockElision, HandlesNesting) {
  Program P = parseOrDie(
      "thread { lock m; lock m; skip; unlock m; unlock m; }");
  std::vector<LockPair> Pairs = findLockPairs(P);
  ASSERT_EQ(Pairs.size(), 2u);
  EXPECT_EQ(Pairs[0].LockIndex, 0u);
  EXPECT_EQ(Pairs[0].UnlockIndex, 4u); // Outer pair matches outer unlock.
  EXPECT_EQ(Pairs[1].LockIndex, 1u);
  EXPECT_EQ(Pairs[1].UnlockIndex, 3u);
}

TEST(LockElision, IntroducesARaceIntoADrfProgram) {
  Program O = parseOrDie(ElisionOriginal);
  ASSERT_TRUE(isProgramDrf(O));
  std::vector<LockPair> Pairs = findLockPairs(O);
  Program T = elideLockPair(O, Pairs[1]); // Elide the reader's section.
  EXPECT_FALSE(isProgramDrf(T));
  DrfGuaranteeReport R = exploreDrfGuarantee(O, T);
  EXPECT_FALSE(R.holds());
}

TEST(LockElision, IsNotASemanticElimination) {
  // Definition 1 has no case for acquires; the checker refutes the elision
  // even on a single-threaded program where behaviours are unaffected.
  Program O = parseOrDie("thread { lock m; x := 1; unlock m; print 0; }");
  std::vector<LockPair> Pairs = findLockPairs(O);
  ASSERT_EQ(Pairs.size(), 1u);
  Program T = elideLockPair(O, Pairs[0]);
  std::vector<Value> D = defaultDomainFor(O, 2);
  Traceset TO = programTraceset(O, D);
  Traceset TT = programTraceset(T, D);
  EXPECT_EQ(checkElimination(TO, TT).Verdict, CheckVerdict::Fails);
  EXPECT_EQ(checkEliminationThenReordering(TO, TT).Verdict,
            CheckVerdict::Fails);
}

// --- Releases: last-action eliminations only ---------------------------------

TEST(ReleaseElimination, TrailingReleaseIsEliminable) {
  // Fig 5's shape: a volatile store with nothing relevant after it.
  Program O = parseOrDie("volatile v; thread { v := 1; y := 1; }");
  Program T = parseOrDie("volatile v; thread { y := 1; }");
  std::vector<Value> D = {0, 1};
  EXPECT_EQ(checkElimination(programTraceset(O, D), programTraceset(T, D))
                .Verdict,
            CheckVerdict::Holds);
}

TEST(ReleaseElimination, NonTrailingReleaseIsNot) {
  // With an external action after it, case 7 does not apply.
  Program O = parseOrDie("volatile v; thread { v := 1; print 0; }");
  Program T = parseOrDie("volatile v; thread { print 0; }");
  std::vector<Value> D = {0, 1};
  EXPECT_EQ(checkElimination(programTraceset(O, D), programTraceset(T, D))
                .Verdict,
            CheckVerdict::Fails);
}

// --- The full §2.1 taxonomy sanity table -------------------------------------

TEST(Limitations, TransformationTaxonomy) {
  // One entry per §2.1 class: trace-preserving (safe, trivially),
  // elimination (safe), reordering (safe), introduction (unsafe). All on
  // the same DRF base program.
  Program Base = parseOrDie(
      "thread { lock m; x := 1; r1 := x; print r1; unlock m; }");
  ASSERT_TRUE(isProgramDrf(Base));
  std::vector<Value> D = defaultDomainFor(Base, 2);
  Traceset TB = programTraceset(Base, D);

  // Trace-preserving: duplicate control flow with identical effects.
  Program TracePreserving = parseOrDie(
      "thread { lock m; x := 1; r1 := x; if (r1 == r1) { print r1; } "
      "else { print r1; } unlock m; }");
  EXPECT_EQ(programTraceset(TracePreserving, D), TB);

  // Elimination (E-RAW shape).
  Program Elim = parseOrDie(
      "thread { lock m; x := 1; r1 := 1; print r1; unlock m; }");
  EXPECT_EQ(checkElimination(TB, programTraceset(Elim, D)).Verdict,
            CheckVerdict::Holds);

  // Introduction: an extra read of a fresh location.
  Program Intro = parseOrDie(
      "thread { r9 := zz; lock m; x := 1; r1 := x; print r1; unlock m; }");
  EXPECT_EQ(checkElimination(TB, programTraceset(Intro, D)).Verdict,
            CheckVerdict::Fails);
}

} // namespace
