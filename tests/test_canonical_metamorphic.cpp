//===----------------------------------------------------------------------===//
///
/// \file
/// Metamorphic suite for the verdict key builder (verify/Canonical.h),
/// over ProgramGen programs of every discipline and all four program
/// query kinds:
///
///  - alpha-renaming, thread permutation (joint for pairs), comment and
///    whitespace noise, and an added unused volatile must each leave the
///    key byte-identical *and* the cold-computed verdict byte-identical
///    (under a thread permutation, all but its visit count: the engines
///    explore in the submitted thread order);
///  - soundness: whenever two generated queries share a key, the AST
///    canonicaliser (the test-only oracle) gives them equal texts too;
///  - the canonical text is a valid program and a fixed point of the
///    builder.
///
//===----------------------------------------------------------------------===//

#include "CanonicalOracle.h"
#include "daemon/Server.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Rewrite.h"
#include "support/Rng.h"
#include "verify/BehaviourCache.h"
#include "verify/Canonical.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

#include <map>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

const BudgetSpec Ceiling{/*DeadlineMs=*/0, /*MaxVisited=*/200'000,
                         /*MaxMemoryBytes=*/128ULL << 20};

struct Query {
  QueryKind Kind;
  std::string P, T; ///< T is empty for single-program kinds
};

std::string key(const Query &Q) {
  return canonicalQueryKey(static_cast<uint8_t>(Q.Kind), Q.P, Q.T, Ceiling);
}

/// The verdict of \p Q computed cold: no cache family is warm.
QueryResponse coldVerdict(const Query &Q) {
  BehaviourCache::global().clear();
  QueryRequest R;
  R.Kind = Q.Kind;
  R.Program = Q.P;
  R.Transformed = Q.T;
  return evaluateQuery(R, Ceiling);
}

/// A verdict without its visit count: what a cold run must give every
/// thread order of a query. The engines explore threads in the submitted
/// order, so a search that stops early (at the first race, say) visits
/// more or fewer states when the order changes.
std::string answer(const QueryResponse &R) {
  QueryResponse A = R;
  A.Visited = 0;
  return A.str();
}

/// The oracle's canonical text of \p Q (both halves for a pair).
std::string oracleText(const Query &Q) {
  ParseResult P = parseProgram(Q.P);
  if (!P) {
    ADD_FAILURE() << P.Error << "\n" << Q.P;
    return {};
  }
  if (Q.T.empty())
    return canonicalProgramText(*P.Prog);
  ParseResult T = parseProgram(Q.T);
  if (!T) {
    ADD_FAILURE() << T.Error << "\n" << Q.T;
    return {};
  }
  std::string CP, CT;
  canonicalPairText(*P.Prog, *T.Prog, CP, CT);
  return CP + '\x01' + CT;
}

/// Renames every name spelling of \p Src through \p Map (filled on first
/// sight with fresh names that keep the parser's register convention),
/// leaving layout and comments as they are.
std::string renameText(const std::string &Src,
                       std::map<std::string, std::string> &Map, Rng &R) {
  static const char *const Prefixes[] = {"a", "cell", "x", "lk", "v", "mu"};
  std::string Out;
  size_t Pos = 0;
  for (const Token &T : lex(Src)) {
    if (T.Kind != TokenKind::Ident || isKeyword(T.Text))
      continue;
    size_t At = static_cast<size_t>(T.Text.data() - Src.data());
    Out.append(Src, Pos, At - Pos);
    std::string &Fresh = Map[std::string(T.Text)];
    if (Fresh.empty()) {
      Fresh = T.Text[0] == 'r'
                  ? "r" + std::string(1, static_cast<char>('a' + R.below(26)))
                  : Prefixes[R.below(6)];
      Fresh += "_" + std::to_string(Map.size());
    }
    Out += Fresh;
    Pos = At + T.Text.size();
  }
  Out.append(Src, Pos);
  return Out;
}

Query alphaRenamed(const Query &Q, Rng &R) {
  std::map<std::string, std::string> Map;
  Query V = Q;
  V.P = renameText(Q.P, Map, R);
  if (!Q.T.empty())
    V.T = renameText(Q.T, Map, R);
  return V;
}

/// One random permutation applied to the thread sections of both halves.
Query threadPermuted(const Query &Q, Rng &R) {
  Program P = parseOrDie(Q.P);
  std::vector<size_t> Perm(P.threadCount());
  for (size_t I = 0; I < Perm.size(); ++I)
    Perm[I] = I;
  for (size_t I = Perm.size(); I > 1; --I)
    std::swap(Perm[I - 1], Perm[R.below(I)]);
  auto Apply = [&](const std::string &Src) {
    Program In = parseOrDie(Src);
    Program Out;
    for (SymbolId V : In.volatiles())
      Out.markVolatile(V);
    if (In.threadCount() != Perm.size())
      return Src; // a mismatched pair keeps its order
    for (size_t I : Perm)
      Out.addThread(std::move(In.thread(static_cast<ThreadId>(I))));
    return printProgram(Out);
  };
  Query V = Q;
  V.P = Apply(Q.P);
  if (!Q.T.empty())
    V.T = Apply(Q.T);
  return V;
}

/// Re-emits the tokens with random whitespace, comments and leading
/// zeros on numbers.
std::string noisy(const std::string &Src, Rng &R) {
  static const char *const Seps[] = {" ",   "  ", "\n",          "\t",
                                     "\r\n", " // noise\n", "\n\n    "};
  std::string Out = R.chance(1, 2) ? "// a header comment\n" : "";
  for (const Token &T : lex(Src)) {
    if (T.Kind == TokenKind::EndOfFile)
      break;
    if (T.Kind == TokenKind::Number && R.chance(1, 3))
      Out += "00";
    Out += T.Text;
    Out += Seps[R.below(7)];
  }
  return Out;
}

Query withNoise(const Query &Q, Rng &R) {
  Query V = Q;
  V.P = noisy(Q.P, R);
  if (!Q.T.empty())
    V.T = noisy(Q.T, R);
  return V;
}

Query withUnusedVolatile(const Query &Q) {
  Query V = Q;
  V.P = "volatile never_used_loc;\n" + Q.P;
  if (!Q.T.empty())
    V.T = "volatile never_used_loc, also_unused;\n" + Q.T;
  return V;
}

/// The generated base queries: every discipline, 1-3 threads, all four
/// kinds (pairs are a program and one Fig 10/11 rewrite of it).
std::vector<Query> baseQueries(unsigned Count, uint64_t Seed) {
  static const GenDiscipline Disciplines[] = {
      GenDiscipline::Racy, GenDiscipline::LockDiscipline,
      GenDiscipline::VolatileLocations, GenDiscipline::Mixed};
  static const QueryKind Kinds[] = {QueryKind::ProgramDrf,
                                    QueryKind::Behaviours,
                                    QueryKind::DrfGuarantee,
                                    QueryKind::ThinAir};
  Rng R(Seed);
  std::vector<Query> Out;
  for (unsigned I = 0; Out.size() < Count; ++I) {
    GenOptions G;
    G.Discipline = Disciplines[I % 4];
    G.Threads = static_cast<unsigned>(R.range(1, 3));
    G.MaxStmtsPerThread = 4;
    Program P = generateProgram(R, G);
    Query Q{Kinds[Out.size() % 4], printProgram(P), ""};
    if (Q.Kind == QueryKind::DrfGuarantee || Q.Kind == QueryKind::ThinAir) {
      std::vector<RewriteSite> Sites = findRewriteSites(P);
      if (Sites.empty())
        continue;
      Q.T = printProgram(applyRewrite(P, Sites[R.below(Sites.size())]));
    }
    Out.push_back(std::move(Q));
  }
  return Out;
}

TEST(CanonicalMetamorphic, VariantsKeepTheKeyAndTheColdVerdict) {
  Rng R(20261017);
  std::map<QueryKind, unsigned> PerKind;
  for (const Query &Base : baseQueries(96, 7)) {
    const std::string BaseKey = key(Base);
    ASSERT_NE(keyPrograms(BaseKey).first, Base.P)
        << "a generated program must get a canonical key";
    const QueryResponse BaseVerdict = coldVerdict(Base);
    ++PerKind[Base.Kind];
    struct Variant {
      const char *What;
      Query Q;
      bool Reordered; ///< threads permuted: the visit count may differ
    };
    std::vector<Variant> Variants = {
        {"alpha-renamed", alphaRenamed(Base, R), false},
        {"noisy", withNoise(Base, R), false},
        {"unused volatile", withUnusedVolatile(Base), false},
        {"all but permutation",
         withUnusedVolatile(withNoise(alphaRenamed(Base, R), R)), false},
        {"thread-permuted", threadPermuted(Base, R), true},
        {"all four",
         withUnusedVolatile(
             withNoise(threadPermuted(alphaRenamed(Base, R), R), R)),
         true},
    };
    for (const Variant &V : Variants) {
      SCOPED_TRACE(std::string(V.What) + " variant of\n" + Base.P +
                   (Base.T.empty() ? "" : "---\n" + Base.T) + "as\n" +
                   V.Q.P + (V.Q.T.empty() ? "" : "---\n" + V.Q.T));
      EXPECT_EQ(key(V.Q), BaseKey);
      QueryResponse Got = coldVerdict(V.Q);
      if (V.Reordered) {
        EXPECT_EQ(answer(Got), answer(BaseVerdict));
      } else {
        EXPECT_EQ(Got.str(), BaseVerdict.str());
      }
    }
  }
  for (QueryKind K : {QueryKind::ProgramDrf, QueryKind::Behaviours,
                      QueryKind::DrfGuarantee, QueryKind::ThinAir})
    EXPECT_EQ(PerKind[K], 24u) << "kind " << static_cast<int>(K);
}

TEST(CanonicalMetamorphic, EqualKeysMeanEqualOracleTexts) {
  // A collision hunt: many tiny programs, so that equal keys are common.
  // Every key collision must be an oracle collision too.
  Rng R(99);
  std::map<std::string, std::string> OracleByKey;
  unsigned Collisions = 0;
  for (unsigned I = 0; I < 1500; ++I) {
    GenOptions G;
    G.Discipline = static_cast<GenDiscipline>(I % 4);
    G.Threads = static_cast<unsigned>(R.range(1, 2));
    G.MinStmtsPerThread = 1;
    G.MaxStmtsPerThread = 2;
    G.MaxConst = 1;
    Program P = generateProgram(R, G);
    Query Q{QueryKind::Behaviours, printProgram(P), ""};
    if (R.chance(1, 2))
      Q = alphaRenamed(threadPermuted(Q, R), R);
    auto [It, Fresh] = OracleByKey.emplace(key(Q), oracleText(Q));
    if (!Fresh) {
      ++Collisions;
      EXPECT_EQ(It->second, oracleText(Q)) << Q.P;
    }
  }
  EXPECT_GT(Collisions, 100u) << "the hunt must actually find collisions";
}

TEST(CanonicalMetamorphic, CanonicalTextIsAFixedPoint) {
  for (const Query &Q : baseQueries(64, 11)) {
    const std::string Key = key(Q);
    auto [CPView, CTView] = keyPrograms(Key);
    std::string CP(CPView), CT(CTView);
    SCOPED_TRACE(Q.P + "->\n" + CP);
    EXPECT_TRUE(parseProgram(CP));
    if (!Q.T.empty()) {
      EXPECT_TRUE(parseProgram(CT));
    }
    EXPECT_EQ(key(Query{Q.Kind, CP, CT}), Key);
    // The canonical program means what the query means.
    EXPECT_EQ(oracleText(Query{Q.Kind, CP, CT}), oracleText(Q));
  }
}

} // namespace
