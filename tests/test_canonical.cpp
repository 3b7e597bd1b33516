//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the query canonicaliser behind the verdict memoisation plane:
/// alpha-variants (consistent renamings, thread permutations, formatting)
/// collapse onto one canonical text / cache key, semantically distinct
/// programs do not collide, volatility is preserved, pairs are
/// canonicalised jointly, the budget class and kind tag separate keys, and
/// injected Canonicalise faults degrade to a raw-text key instead of
/// escaping.
///
//===----------------------------------------------------------------------===//

#include "verify/Canonical.h"

#include "lang/Parser.h"
#include "support/Failure.h"

#include <gtest/gtest.h>

using namespace tracesafe;

namespace {

std::string canon(const std::string &Src) {
  ParseResult R = parseProgram(Src);
  if (!R) {
    ADD_FAILURE() << "parse error: " << R.Error;
    return "<parse-error>";
  }
  return canonicalProgramText(*R.Prog);
}

const BudgetSpec KeySpec{/*DeadlineMs=*/0, /*MaxVisited=*/200'000,
                         /*MaxMemoryBytes=*/128ULL << 20};

TEST(Canonical, AlphaVariantsCollapseToOneText) {
  // Consistent renaming of registers, locations and monitors; different
  // whitespace and comments. All three spell the same program.
  std::string A = "thread { lock m; x := 1; r1 := x; print r1; unlock m; }\n"
                  "thread { lock m; r2 := x; unlock m; }\n";
  std::string B = "thread { lock mutex; buf := 1; r9 := buf; print r9; "
                  "unlock mutex; }\n"
                  "thread { lock mutex; r7 := buf; unlock mutex; }\n";
  std::string C = "// a comment\n"
                  "thread {\n  lock m;\n  x := 1;\n  r1 := x;\n"
                  "  print r1;\n  unlock m;\n}\n"
                  "thread { lock m; r2 := x; unlock m; }\n";
  EXPECT_EQ(canon(A), canon(B));
  EXPECT_EQ(canon(A), canon(C));
}

TEST(Canonical, ThreadPermutationsCollapseToOneText) {
  std::string AB = "thread { x := 1; r1 := y; }\n"
                   "thread { y := 2; r2 := x; }\n";
  std::string BA = "thread { y := 2; r2 := x; }\n"
                   "thread { x := 1; r1 := y; }\n";
  EXPECT_EQ(canon(AB), canon(BA));
  // ... and renaming composed with permutation still collides.
  std::string Renamed = "thread { q := 2; r5 := p; }\n"
                        "thread { p := 1; r6 := q; }\n";
  EXPECT_EQ(canon(AB), canon(Renamed));
}

TEST(Canonical, DistinctProgramsStayDistinct) {
  std::string Base = "thread { x := 1; r1 := x; }\n";
  EXPECT_NE(canon(Base), canon("thread { x := 2; r1 := x; }\n"))
      << "different constants must not collide";
  EXPECT_NE(canon(Base), canon("thread { x := 1; r1 := x; r2 := x; }\n"))
      << "different structure must not collide";
  EXPECT_NE(canon(Base), canon("thread { r1 := x; x := 1; }\n"))
      << "statement order matters";
  EXPECT_NE(canon("thread { x := 1; r1 := y; }\n"),
            canon("thread { x := 1; r1 := x; }\n"))
      << "two locations vs one is a semantic difference";
}

TEST(Canonical, VolatilityIsPreservedAndUnusedVolatilesDrop) {
  std::string Plain = "thread { v := 1; r1 := v; }\n";
  std::string Volatile = "volatile v;\n" + Plain;
  EXPECT_NE(canon(Plain), canon(Volatile))
      << "volatile and non-volatile programs differ semantically";
  // A volatile the program never touches cannot influence behaviour and
  // is dropped from the canonical text.
  std::string DeadVolatile = "volatile unused;\n" + Plain;
  EXPECT_EQ(canon(Plain), canon(DeadVolatile));
  // Renamed volatile programs still collide with each other.
  EXPECT_EQ(canon(Volatile),
            canon("volatile cell;\nthread { cell := 1; r8 := cell; }\n"));
}

TEST(Canonical, PairsAreCanonicalisedJointly) {
  // The same renaming + thread permutation applied to both halves of a
  // (source, transformed) pair must collapse onto the same canonical
  // pair, with the thread correspondence intact.
  std::string P1 = "thread { x := 1; x := 2; }\nthread { r1 := x; }\n";
  std::string T1 = "thread { x := 2; }\nthread { r1 := x; }\n";
  std::string P2 = "thread { r4 := buf; }\nthread { buf := 1; buf := 2; }\n";
  std::string T2 = "thread { r4 := buf; }\nthread { buf := 2; }\n";

  std::string A1, B1, A2, B2;
  canonicalPairText(*parseProgram(P1).Prog, *parseProgram(T1).Prog, A1, B1);
  canonicalPairText(*parseProgram(P2).Prog, *parseProgram(T2).Prog, A2, B2);
  EXPECT_EQ(A1, A2);
  EXPECT_EQ(B1, B2);

  // Pairing is part of the identity: swapping which half was transformed
  // yields a different canonical pair.
  std::string A3, B3;
  canonicalPairText(*parseProgram(T1).Prog, *parseProgram(P1).Prog, A3, B3);
  EXPECT_NE(A1 + '\x01' + B1, A3 + '\x01' + B3);

  // Mismatched thread counts: no reordering, but the key still works.
  std::string Shrunk = "thread { x := 2; }\n";
  std::string A4, B4;
  canonicalPairText(*parseProgram(P1).Prog, *parseProgram(Shrunk).Prog, A4,
                    B4);
  EXPECT_FALSE(A4.empty());
  EXPECT_FALSE(B4.empty());
}

TEST(Canonical, QueryKeySeparatesKindAndBudgetClass) {
  std::string Src = "thread { x := 1; }\n";
  std::string K1 = canonicalQueryKey(1, Src, "", KeySpec);
  EXPECT_EQ(K1, canonicalQueryKey(1, "thread { y := 1; }\n", "", KeySpec))
      << "alpha-variants share a key";
  EXPECT_NE(K1, canonicalQueryKey(2, Src, "", KeySpec))
      << "the kind tag is part of the key";
  BudgetSpec Tighter = KeySpec;
  Tighter.MaxVisited = 100;
  EXPECT_NE(K1, canonicalQueryKey(1, Src, "", Tighter))
      << "the clamped budget class is part of the key "
         "(truncation points are part of the answer)";
  BudgetSpec Memier = KeySpec;
  Memier.MaxMemoryBytes = 1 << 20;
  EXPECT_NE(K1, canonicalQueryKey(1, Src, "", Memier));
}

TEST(Canonical, PairQueryKeysCollideForJointAlphaVariants) {
  std::string P1 = "thread { x := 1; x := 2; }\nthread { r1 := x; }\n";
  std::string T1 = "thread { x := 2; }\nthread { r1 := x; }\n";
  std::string P2 = "thread { r4 := buf; }\nthread { buf := 1; buf := 2; }\n";
  std::string T2 = "thread { r4 := buf; }\nthread { buf := 2; }\n";
  EXPECT_EQ(canonicalQueryKey(3, P1, T1, KeySpec),
            canonicalQueryKey(3, P2, T2, KeySpec));
  EXPECT_NE(canonicalQueryKey(3, P1, T1, KeySpec),
            canonicalQueryKey(3, P1, P1, KeySpec));
}

TEST(Canonical, UnparseableInputDegradesToARawKey) {
  // A key is always produced; distinct raw texts get distinct keys.
  std::string Bad1 = "thread { this is not a program";
  std::string Bad2 = "thread { neither is this";
  std::string K1 = canonicalQueryKey(1, Bad1, "", KeySpec);
  std::string K2 = canonicalQueryKey(1, Bad2, "", KeySpec);
  EXPECT_FALSE(K1.empty());
  EXPECT_NE(K1, K2);
  EXPECT_EQ(K1, canonicalQueryKey(1, Bad1, "", KeySpec))
      << "degraded keys are still deterministic";
}

TEST(Canonical, InjectedFaultsDegradeToARawKeyNotAnEscape) {
  std::string Src = "thread { foo := 1; }\n";
  std::string Canonical = canonicalQueryKey(1, Src, "", KeySpec);

  FaultPlan Plan;
  Plan.arm(FaultSite::Canonicalise, /*FireAt=*/1, /*Repeat=*/100);
  std::string Degraded, Degraded2;
  {
    FaultPlan::Scope Armed(Plan);
    Degraded = canonicalQueryKey(1, Src, "", KeySpec);
    Degraded2 = canonicalQueryKey(1, "thread { foo := 2; }\n", "", KeySpec);
  }
  EXPECT_GE(Plan.fired(FaultSite::Canonicalise), 2u)
      << "the fault must actually fire";
  EXPECT_NE(Degraded, Canonical)
      << "the degraded key is the raw text, not the canonical one";
  EXPECT_NE(Degraded, Degraded2)
      << "degraded keys still separate distinct queries";

  // Disarmed, the canonical key is back — a fault is never sticky.
  EXPECT_EQ(canonicalQueryKey(1, Src, "", KeySpec), Canonical);
}

TEST(Canonical, ParsedAndTextKeysAgree) {
  // The daemon parses a query once and keys the ASTs; the key must be the
  // text overload's, canonical or degraded, or warm verdicts would miss.
  auto Parsed = [](uint8_t Kind, const std::string &P, const std::string &T,
                   const BudgetSpec &B) {
    ParseResult PP = parseProgram(P), PT = parseProgram(T);
    return canonicalQueryKey(Kind, P, PP ? &*PP.Prog : nullptr, T,
                             PT ? &*PT.Prog : nullptr, B);
  };
  std::string P = "thread { x := 1; x := 2; }\nthread { r1 := x; }\n";
  std::string T = "thread { x := 2; }\nthread { r1 := x; }\n";
  std::string Bad = "thread { this is not a program";
  EXPECT_EQ(Parsed(1, P, "", KeySpec), canonicalQueryKey(1, P, "", KeySpec));
  EXPECT_EQ(Parsed(3, P, T, KeySpec), canonicalQueryKey(3, P, T, KeySpec));
  EXPECT_EQ(Parsed(1, Bad, "", KeySpec),
            canonicalQueryKey(1, Bad, "", KeySpec));
  EXPECT_EQ(Parsed(3, P, Bad, KeySpec),
            canonicalQueryKey(3, P, Bad, KeySpec));

  FaultPlan Plan;
  Plan.arm(FaultSite::Canonicalise, /*FireAt=*/1, /*Repeat=*/100);
  std::string FromText, FromAst;
  {
    FaultPlan::Scope Armed(Plan);
    FromText = canonicalQueryKey(1, P, "", KeySpec);
    FromAst = Parsed(1, P, "", KeySpec);
  }
  EXPECT_GE(Plan.fired(FaultSite::Canonicalise), 2u);
  EXPECT_EQ(FromAst, FromText) << "both overloads degrade to the raw key";
  EXPECT_NE(FromAst, canonicalQueryKey(1, P, "", KeySpec));
}

TEST(Canonical, CanonicalTextReparsesToItself) {
  // Idempotence: canonical names follow the parser's register convention,
  // so the canonical text is itself a valid program whose canonical text
  // is byte-identical (the property the cache key relies on).
  for (const char *Src : {
           "thread { lock m; x := 1; r1 := x; unlock m; }\n"
           "thread { sync m { r2 := x; print r2; } }\n",
           "volatile v;\nthread { v := 1; r1 := v; }\n",
           "thread { if (r1 == 0) { x := 1; } else { skip; } "
           "while (r1 != 3) { r1 := 3; } }\n",
       }) {
    std::string Once = canon(Src);
    EXPECT_EQ(canon(Once), Once) << "not idempotent for:\n" << Src;
  }
}

} // namespace
