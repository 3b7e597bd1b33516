//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the verdict key builder behind the memoisation plane:
/// alpha-variants (consistent renamings, thread permutations, formatting)
/// collapse onto one canonical text / cache key, semantically distinct
/// programs do not collide, volatility is preserved, pairs are
/// canonicalised jointly, the budget class and kind tag separate keys,
/// injected Canonicalise faults degrade to a raw-text key instead of
/// escaping, and adversarial inputs get the raw key or a key whose query
/// still answers its own BadRequest.
///
//===----------------------------------------------------------------------===//

#include "verify/Canonical.h"

#include "CanonicalOracle.h"
#include "daemon/Server.h"
#include "lang/Parser.h"
#include "support/Failure.h"
#include "support/Symbol.h"
#include "verify/BehaviourCache.h"

#include <gtest/gtest.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

const BudgetSpec KeySpec{/*DeadlineMs=*/0, /*MaxVisited=*/200'000,
                         /*MaxMemoryBytes=*/128ULL << 20};

/// The builder's canonical text of a single program.
std::string canon(const std::string &Src) {
  std::string Key = canonicalQueryKey(1, Src, "", KeySpec);
  return std::string(keyPrograms(Key).first);
}

/// The key the builder degrades to: the raw source bytes.
std::string rawKey(uint8_t Kind, const std::string &P, const std::string &T,
                   const BudgetSpec &B) {
  std::string Key(1, static_cast<char>(Kind));
  auto Word = [&](uint64_t W) {
    for (int I = 0; I < 8; ++I)
      Key.push_back(static_cast<char>((W >> (I * 8)) & 0xFF));
  };
  Word(P.size());
  Key += P;
  Word(T.size());
  Key += T;
  Word(static_cast<uint64_t>(B.DeadlineMs));
  Word(B.MaxVisited);
  Word(B.MaxMemoryBytes);
  return Key;
}

std::string oracle(const std::string &Src) {
  ParseResult R = parseProgram(Src);
  if (!R) {
    ADD_FAILURE() << "parse error: " << R.Error;
    return "<parse-error>";
  }
  return canonicalProgramText(*R.Prog);
}

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
  EXPECT_EQ(canon("thread { r1 := 007; }"), canon("thread{r5:=7;}"))
      << "numbers are emitted by value";
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

TEST(Canonical, TiedThreadsCollapseInEveryOrder) {
  // Both threads read alike alone (g0 := 1; g1 := 1;) but share only y,
  // so the global renaming depends on which goes first; the builder
  // tries both orders and keeps the smaller text.
  std::string XY = "thread { x := 1; y := 1; }\nthread { y := 1; z := 1; }\n";
  std::string YX = "thread { y := 1; z := 1; }\nthread { x := 1; y := 1; }\n";
  EXPECT_EQ(canon(XY), canon(YX));
  // Three tied threads, all six orders.
  std::vector<std::string> Ts = {"thread { a := 1; b := 1; }\n",
                                 "thread { b := 1; c := 1; }\n",
                                 "thread { c := 1; a := 1; }\n"};
  std::vector<size_t> Perm = {0, 1, 2};
  std::string First;
  do {
    std::string Src;
    for (size_t I : Perm)
      Src += Ts[I];
    if (First.empty())
      First = canon(Src);
    EXPECT_EQ(canon(Src), First) << Src;
  } while (std::next_permutation(Perm.begin(), Perm.end()));
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
  EXPECT_NE(canon("thread { lock m; unlock m; }\nthread { lock m; }\n"),
            canon("thread { lock m; unlock m; }\nthread { lock n; }\n"))
      << "one monitor vs two";
}

TEST(Canonical, NamesGetTheParsersClasses) {
  // The name after lock/unlock/sync is a monitor even when it starts with
  // 'r'; a monitor and a location may share a spelling and stay apart.
  EXPECT_EQ(canon("thread { lock r1; r1 := 1; unlock r1; }\n"),
            canon("thread { lock m; r7 := 1; unlock m; }\n"));
  EXPECT_EQ(canon("thread { lock x; x := 1; unlock x; }\n"),
            canon("thread { lock m; y := 1; unlock m; }\n"));
  EXPECT_EQ(canon("thread { sync q { r1 := q; } }\n"),
            canon("thread { sync m { r2 := v; } }\n"));
  // Canonical names: r/g/m by class, keywords verbatim, no spaces where
  // the lexer does not need them.
  EXPECT_EQ(canon("volatile v;\nthread { lock l; v := 1; r1 := v; "
                  "if (r1 == 1) { skip; } else { print r1; } unlock l; }\n"),
            "volatile g0;\nthread{lock m0;g0:=1;r0:=g0;"
            "if(r0==1){skip;}else{print r0;}unlock m0;}\n");
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
  // Renamed volatile programs still collide with each other, whatever
  // the declaration order.
  EXPECT_EQ(canon(Volatile),
            canon("volatile cell;\nthread { cell := 1; r8 := cell; }\n"));
  EXPECT_EQ(canon("volatile a, b;\nthread { a := 1; b := 1; }\n"),
            canon("volatile q; volatile p, zz;\nthread { p := 1; q := 1; }\n"));
}

TEST(Canonical, PairsAreCanonicalisedJointly) {
  // The same renaming + thread permutation applied to both halves of a
  // (source, transformed) pair must collapse onto the same canonical
  // pair, with the thread correspondence intact.
  std::string P1 = "thread { x := 1; x := 2; }\nthread { r1 := x; }\n";
  std::string T1 = "thread { x := 2; }\nthread { r1 := x; }\n";
  std::string P2 = "thread { r4 := buf; }\nthread { buf := 1; buf := 2; }\n";
  std::string T2 = "thread { r4 := buf; }\nthread { buf := 2; }\n";
  auto Pair = [](const std::string &P, const std::string &T) {
    std::string Key = canonicalQueryKey(3, P, T, KeySpec);
    auto [CP, CT] = keyPrograms(Key);
    return std::make_pair(std::string(CP), std::string(CT));
  };
  EXPECT_EQ(Pair(P1, T1), Pair(P2, T2));

  // Pairing is part of the identity: swapping which half was transformed
  // yields a different canonical pair.
  EXPECT_NE(Pair(P1, T1), Pair(T1, P1));

  // Mismatched thread counts: no reordering, but the key still works.
  auto [A4, B4] = Pair(P1, "thread { x := 2; }\n");
  EXPECT_EQ(A4, "thread{g0:=1;g0:=2;}\nthread{r0:=g0;}\n");
  EXPECT_EQ(B4, "thread{g0:=2;}\n");
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
  EXPECT_EQ(K1, rawKey(1, Bad1, "", KeySpec));
  EXPECT_NE(K1, K2);
  EXPECT_EQ(K1, canonicalQueryKey(1, Bad1, "", KeySpec))
      << "degraded keys are still deterministic";
  // A pair degrades as a whole when either half cannot be framed.
  std::string P = "thread { x := 1; }\n";
  EXPECT_EQ(canonicalQueryKey(3, P, Bad1, KeySpec),
            rawKey(3, P, Bad1, KeySpec));
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
  EXPECT_EQ(Degraded, rawKey(1, Src, "", KeySpec))
      << "the degraded key is the raw text, not the canonical one";
  EXPECT_NE(Degraded, Canonical);
  EXPECT_NE(Degraded, Degraded2)
      << "degraded keys still separate distinct queries";

  // Disarmed, the canonical key is back — a fault is never sticky.
  EXPECT_EQ(canonicalQueryKey(1, Src, "", KeySpec), Canonical);
}

TEST(Canonical, KeysAgreeWithTheAstOracle) {
  // The AST canonicaliser is the reference: alpha-variants are equal
  // under both, and equal builder texts always mean equal oracle texts.
  // The converse may fail: the oracle sees through `sync` sugar.
  std::vector<std::string> Progs = {
      "thread { x := 1; r1 := y; }\nthread { y := 1; r2 := x; }\n",
      "thread { q := 1; r7 := p; }\nthread { p := 1; r3 := q; }\n",
      "thread { y := 1; r2 := x; }\nthread { x := 1; r1 := y; }\n",
      "thread { x := 1; r1 := x; }\nthread { y := 1; r2 := x; }\n",
      "volatile x;\nthread { x := 1; r1 := y; }\nthread { y := 1; }\n",
      "volatile y;\nthread { x := 1; r1 := y; }\nthread { y := 1; }\n",
      "thread { sync m { x := 1; } }\n",
      "thread { { lock m; { x := 1; } unlock m; } }\n",
      "thread { lock m; x := 1; unlock m; }\n",
      "thread { if (r1 == 0) { x := 1; } else { skip; } }\n",
      "thread { if (r1 == 0) x := 1; else skip; }\n",
      "thread { while (r1 != 2) { r1 := x; } }\n",
  };
  for (size_t I = 0; I < Progs.size(); ++I)
    for (size_t J = 0; J < Progs.size(); ++J) {
      SCOPED_TRACE(Progs[I] + "--- vs ---\n" + Progs[J]);
      if (canon(Progs[I]) == canon(Progs[J])) {
        EXPECT_EQ(oracle(Progs[I]), oracle(Progs[J]));
      }
    }
  EXPECT_EQ(canon(Progs[0]), canon(Progs[1]));
  EXPECT_EQ(canon(Progs[0]), canon(Progs[2]));
  EXPECT_EQ(oracle(Progs[0]), oracle(Progs[1]));
  EXPECT_EQ(oracle(Progs[6]), oracle(Progs[7]));
  EXPECT_NE(canon(Progs[6]), canon(Progs[7]));
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
           "thread { x := 1; y := 1; }\nthread { y := 1; z := 1; }\n",
       }) {
    std::string Once = canon(Src);
    EXPECT_TRUE(parseProgram(Once)) << Once;
    EXPECT_EQ(canon(Once), Once) << "not idempotent for:\n" << Src;
    EXPECT_EQ(canonicalQueryKey(1, Once, "", KeySpec),
              canonicalQueryKey(1, Src, "", KeySpec));
  }
}

TEST(Canonical, WarmHitsNeverParse) {
  // A hit is answered from the key alone: a variant spelled with names
  // the process has never seen interns none of them.
  BehaviourCache::global().clear();
  QueryRequest Q;
  Q.Kind = QueryKind::ProgramDrf;
  Q.Program = "thread { x := 1; r1 := y; }\nthread { y := 1; r2 := x; }\n";
  QueryResponse Cold = evaluateQuery(Q, KeySpec);
  ASSERT_EQ(Cold.Status, ResponseStatus::Ok);
  Q.Program = "thread { never_seen_b := 1; r_never_a := never_seen_a; }\n"
              "thread { never_seen_a := 1; r_never_b := never_seen_b; }\n";
  size_t Before = Symbol::count();
  QueryResponse Warm = evaluateQuery(Q, KeySpec);
  EXPECT_EQ(Symbol::count(), Before) << "the hit parsed the query";
  EXPECT_EQ(Warm.str(), Cold.str());
}

//===----------------------------------------------------------------------===//
// Adversarial inputs: each gets the raw key, or a key whose query still
// answers the BadRequest its own parse gives.
//===----------------------------------------------------------------------===//

/// The response evaluateQuery must give \p Src when it does not parse.
std::string parseFailureBytes(const std::string &Src) {
  QueryResponse R;
  R.Status = ResponseStatus::BadRequest;
  R.Detail = "parse error (program): " + parseProgram(Src).Error;
  return R.str();
}

std::string evaluate(const std::string &Src) {
  BehaviourCache::global().clear();
  QueryRequest Q;
  Q.Kind = QueryKind::ProgramDrf;
  Q.Program = Src;
  return evaluateQuery(Q, KeySpec).str();
}

void expectRawKeyAndOwnBadRequest(const std::string &Src) {
  ASSERT_FALSE(parseProgram(Src));
  EXPECT_EQ(canonicalQueryKey(1, Src, "", KeySpec),
            rawKey(1, Src, "", KeySpec));
  EXPECT_EQ(evaluate(Src), parseFailureBytes(Src));
}

TEST(CanonicalAdversarial, DeepNestingNeedsNoRecursion) {
  // 10k balanced braces frame fine (iteratively) and get a canonical key;
  // the parser rejects them at depth 200, and so does the query.
  std::string Deep = "thread { " + std::string(10000, '{') + "x := 1;" +
                     std::string(10000, '}') + " }\n";
  ASSERT_FALSE(parseProgram(Deep));
  std::string Key = canonicalQueryKey(1, Deep, "", KeySpec);
  EXPECT_NE(Key, rawKey(1, Deep, "", KeySpec));
  EXPECT_EQ(evaluate(Deep), parseFailureBytes(Deep));
  EXPECT_NE(evaluate(Deep).find("nested deeper"), std::string::npos);
  // Unbalanced, the thread never closes: raw key.
  expectRawKeyAndOwnBadRequest("thread { " + std::string(10000, '{'));
}

TEST(CanonicalAdversarial, UnterminatedThread) {
  expectRawKeyAndOwnBadRequest("thread { x := 1;\n");
  expectRawKeyAndOwnBadRequest("thread { x := 1; }\nthread {");
}

TEST(CanonicalAdversarial, VolatileAfterAThread) {
  expectRawKeyAndOwnBadRequest("thread { x := 1; }\nvolatile x;\n");
}

TEST(CanonicalAdversarial, ZeroThreads) {
  expectRawKeyAndOwnBadRequest("");
  expectRawKeyAndOwnBadRequest("volatile x;\n");
  expectRawKeyAndOwnBadRequest("// only a comment\n");
}

TEST(CanonicalAdversarial, OutOfRangeLiteral) {
  expectRawKeyAndOwnBadRequest("thread { x := 99999999999999999999; }\n");
}

TEST(CanonicalAdversarial, StrayCharacter) {
  expectRawKeyAndOwnBadRequest("thread { x := 1; @ }\n");
}

TEST(CanonicalAdversarial, FramedButMalformedBodiesAnswerTheirOwnError) {
  // The builder frames these, so they get canonical keys; two of them
  // that differ only in layout share a key, yet each answers with its own
  // line and column.
  std::string A = "thread { x := ; }\n";
  std::string B = "\n\nthread {\n   y  :=  ;\n}\n";
  ASSERT_FALSE(parseProgram(A));
  EXPECT_EQ(canonicalQueryKey(1, A, "", KeySpec),
            canonicalQueryKey(1, B, "", KeySpec));
  EXPECT_EQ(evaluate(A), parseFailureBytes(A));
  EXPECT_EQ(evaluate(B), parseFailureBytes(B));
  EXPECT_NE(evaluate(A), evaluate(B));
}

TEST(CanonicalAdversarial, KeywordSpelledLocations) {
  // `else := 1;` is a store to a location named else: the parser only
  // reads statement keywords at the start of a statement. Keywords stay
  // verbatim in the key, so the query keeps its meaning.
  std::string Src = "thread { else := 1; r1 := else; }\n"
                    "thread { thread := 2; r2 := volatile; }\n";
  ASSERT_TRUE(parseProgram(Src));
  std::string Key = canonicalQueryKey(1, Src, "", KeySpec);
  std::string Text(keyPrograms(Key).first);
  EXPECT_NE(Text.find("else:=1"), std::string::npos) << Text;
  EXPECT_TRUE(parseProgram(Text)) << Text;
  EXPECT_EQ(canonicalQueryKey(1, Text, "", KeySpec), Key);
  std::string Plain = "thread { a := 1; r1 := a; }\n"
                      "thread { b := 2; r2 := c; }\n";
  EXPECT_EQ(evaluate(Src), evaluate(Plain));
  // A keyword the parser rejects as a store target keeps failing.
  std::string Bad = "thread { skip := 1; }\n";
  ASSERT_FALSE(parseProgram(Bad));
  EXPECT_EQ(evaluate(Bad), parseFailureBytes(Bad));
  // A keyword declared volatile keeps the raw key.
  std::string Vol = "volatile else;\nthread { else := 1; }\n";
  ASSERT_TRUE(parseProgram(Vol));
  EXPECT_EQ(canonicalQueryKey(1, Vol, "", KeySpec),
            rawKey(1, Vol, "", KeySpec));
}

} // namespace
