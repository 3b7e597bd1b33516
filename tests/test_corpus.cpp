//===----------------------------------------------------------------------===//
///
/// \file
/// Regression replay of the corpus in tests/corpus/: minimised `.tsl`
/// repros written by past fuzz runs, plus hand-minimised engine cases.
/// Each file declares its expectation in its header comments:
///
///   `// property: drf-guarantee`  — re-running the unsafe injection on
///        this program must still violate the DRF guarantee (the failure
///        the fuzzer minimised must keep reproducing);
///   `// expect-race: yes|no`      — the program's traceset must (not)
///        contain an adjacent race, agreed on by the seed oracle and the
///        reduced engine.
///
/// Dropping a failure found in the wild into tests/corpus/ is the whole
/// workflow for turning a fuzz repro into a permanent regression test.
///
/// The file also pins the engines' observable costs on a seeded generated
/// set: verdict bytes, visit counts and charged bytes, which no
/// equivalence suite compares (see VerdictBytesAndCostsArePinned).
///
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"
#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Rewrite.h"
#include "opt/Unsafe.h"
#include "support/Rng.h"
#include "trace/Enumerate.h"
#include "tso/BufferedEngine.h"
#include "verify/BehaviourCache.h"
#include "verify/Checks.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

/// FNV-1a over a stream of fields; each field is length- or
/// width-delimited, so distinct streams cannot collide by concatenation.
class Digest {
public:
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
  void add(const std::string &S) {
    add(S.size());
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }
  uint64_t value() const { return H; }

private:
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001B3ULL;
  }
  uint64_t H = 0xCBF29CE484222325ULL;
};

/// The engines' observable costs, pinned. Verdict bytes, visit counts and
/// charged bytes are all functions of the query alone, and the verdict
/// cache replays recorded costs as if they were recomputed, so any engine
/// change that moves them changes what a daemon answers. Over a seeded
/// generated set this digests:
///  - kinds 1-4 through evaluateQuery: the encoded response (verdict,
///    detail and Visited), cold, uncapped and under a memory cap;
///  - collectBehaviours / findAdjacentRace on [[P]] and the TSO/PSO
///    bufferedBehaviours: Visited, chargedBytes and the truncation reason,
///    uncapped and under the same memory cap, which truncates some of them.
/// A deliberate change to any of these must re-record the digest and say
/// why; an accidental one fails here.
///
/// This must stay the first test of the binary: symbol ids are
/// process-global and assigned in first-seen order, and exploration order
/// (hence every visit count) follows them, so a test that parses other
/// names first would move the digest.
TEST(Corpus, VerdictBytesAndCostsArePinned) {
  static const GenDiscipline Disciplines[] = {
      GenDiscipline::Racy, GenDiscipline::LockDiscipline,
      GenDiscipline::VolatileLocations, GenDiscipline::Mixed};
  static const QueryKind Kinds[] = {QueryKind::ProgramDrf,
                                    QueryKind::Behaviours,
                                    QueryKind::DrfGuarantee,
                                    QueryKind::ThinAir};
  constexpr uint64_t MemoryCap = 150'000;
  const BudgetSpec Uncapped{/*DeadlineMs=*/0, /*MaxVisited=*/200'000,
                            /*MaxMemoryBytes=*/0};
  BudgetSpec Capped = Uncapped;
  Capped.MaxMemoryBytes = MemoryCap;

  Digest D;
  unsigned Truncated = 0, Complete = 0;
  auto Tally = [&](bool WasTruncated) {
    (WasTruncated ? Truncated : Complete)++;
  };
  Rng R(20261017);
  for (unsigned I = 0; I < 120; ++I) {
    GenOptions G;
    G.Discipline = Disciplines[I % 4];
    G.Threads = static_cast<unsigned>(R.range(2, 3));
    G.MaxStmtsPerThread = 5;
    Program P = generateProgram(R, G);
    std::string Src = printProgram(P);
    std::vector<RewriteSite> Sites = findRewriteSites(P);
    std::string Transformed =
        Sites.empty() ? Src
                      : printProgram(applyRewrite(
                            P, Sites[R.below(Sites.size())]));

    for (const BudgetSpec &Ceiling : {Uncapped, Capped})
      for (QueryKind K : Kinds) {
        QueryRequest Q;
        Q.Kind = K;
        Q.Program = Src;
        if (K == QueryKind::DrfGuarantee || K == QueryKind::ThinAir)
          Q.Transformed = Transformed;
        BehaviourCache::global().clear();
        D.add(encodeResponse(evaluateQuery(Q, Ceiling)));
      }

    ExploreLimits XL;
    XL.MaxActions = 10;
    Traceset T = programTraceset(P, defaultDomainFor(P, 2), XL);
    for (uint64_t Cap : {uint64_t{0}, MemoryCap}) {
      auto Record = [&](const Budget &B, uint64_t Visited,
                        TruncationReason Reason) {
        D.add(Visited);
        D.add(B.chargedBytes());
        D.add(static_cast<uint64_t>(Reason));
        Tally(Reason != TruncationReason::None);
      };
      {
        Budget B(BudgetSpec{0, 0, Cap});
        EnumerationLimits L;
        L.Shared = &B;
        EnumerationStats S;
        collectBehaviours(T, L, &S);
        Record(B, S.Visited, S.Reason);
      }
      {
        Budget B(BudgetSpec{0, 0, Cap});
        EnumerationLimits L;
        L.Shared = &B;
        RaceReport Race = findAdjacentRace(T, L);
        D.add(Race.HasRace);
        Record(B, Race.Stats.Visited, Race.Stats.Reason);
      }
      for (BufferModel M : {BufferModel::Tso, BufferModel::Pso}) {
        Budget B(BudgetSpec{0, 0, Cap});
        TsoLimits L;
        L.Shared = &B;
        ExecStats S;
        bufferedBehaviours(P, L, M, &S);
        Record(B, S.Visited, S.Reason);
      }
    }
  }
  BehaviourCache::global().clear();
  EXPECT_GT(Truncated, 0u) << "the memory cap truncated nothing";
  EXPECT_GT(Complete, 0u);
  EXPECT_EQ(D.value(), 0xC6DF50DB8C3EDA53ULL)
      << "pinned verdict digest moved: 0x" << std::hex << D.value();
}

struct CorpusEntry {
  std::string Name;
  std::string Source;
  bool CheckInjection = false; ///< `// property: drf-guarantee`
  bool CheckRace = false;      ///< `// expect-race: ...`
  bool ExpectRace = false;
};

std::vector<CorpusEntry> loadCorpus() {
  std::vector<CorpusEntry> Out;
  for (const auto &File :
       std::filesystem::directory_iterator(TRACESAFE_CORPUS_DIR)) {
    if (File.path().extension() != ".tsl")
      continue;
    std::ifstream In(File.path());
    std::stringstream Ss;
    Ss << In.rdbuf();
    CorpusEntry E;
    E.Name = File.path().filename().string();
    E.Source = Ss.str();
    if (E.Source.find("// property: drf-guarantee") != std::string::npos)
      E.CheckInjection = true;
    if (E.Source.find("// expect-race: yes") != std::string::npos) {
      E.CheckRace = true;
      E.ExpectRace = true;
    } else if (E.Source.find("// expect-race: no") != std::string::npos) {
      E.CheckRace = true;
    }
    Out.push_back(std::move(E));
  }
  return Out;
}

TEST(Corpus, EveryEntryDeclaresAnExpectation) {
  std::vector<CorpusEntry> Corpus = loadCorpus();
  ASSERT_GE(Corpus.size(), 6u) << "corpus missing from " TRACESAFE_CORPUS_DIR;
  for (const CorpusEntry &E : Corpus)
    EXPECT_TRUE(E.CheckInjection || E.CheckRace)
        << E.Name << " declares no expectation";
}

TEST(Corpus, InjectedFailuresStillReproduce) {
  for (const CorpusEntry &E : loadCorpus()) {
    if (!E.CheckInjection)
      continue;
    SCOPED_TRACE(E.Name);
    ParseResult PR = parseProgram(E.Source);
    ASSERT_TRUE(PR) << PR.Error;
    const Program &P = *PR.Prog;
    // Same injection the fuzzer used: elide the first lock pair (const
    // prop is the fallback it never minimises to).
    std::vector<LockPair> Pairs = findLockPairs(P);
    ASSERT_FALSE(Pairs.empty()) << "repro lost its lock pair";
    Program T = elideLockPair(P, Pairs.front());
    EXPECT_EQ(checkDrfGuarantee(P, T).outcome(), GuaranteeOutcome::Violated);
  }
}

TEST(Corpus, RaceVerdictsAgreeAcrossEngines) {
  for (const CorpusEntry &E : loadCorpus()) {
    if (!E.CheckRace)
      continue;
    SCOPED_TRACE(E.Name);
    ParseResult PR = parseProgram(E.Source);
    ASSERT_TRUE(PR) << PR.Error;
    ExploreLimits EL;
    EL.MaxActions = 10;
    Traceset T =
        programTraceset(*PR.Prog, defaultDomainFor(*PR.Prog, 2), EL);
    for (bool Oracle : {false, true}) {
      EnumerationLimits L;
      L.ExhaustiveOracle = Oracle;
      RaceReport R = findAdjacentRace(T, L);
      ASSERT_FALSE(R.Stats.Truncated);
      EXPECT_EQ(R.HasRace, E.ExpectRace) << "oracle=" << Oracle;
    }
  }
}

} // namespace
