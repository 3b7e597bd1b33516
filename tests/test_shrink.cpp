//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the counterexample shrinker and the differential fuzz
/// harness: candidate generation, greedy reduction, and the end-to-end
/// injected-failure path (find -> minimise -> write repro).
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "opt/Unsafe.h"
#include "verify/Checks.h"
#include "verify/Fuzz.h"
#include "verify/Shrink.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

using namespace tracesafe;

namespace {

TEST(Shrink, CountStatementsCountsNestedOnes) {
  Program P = parseOrDie(R"(
thread {
  x := 1;
  if (r1 == 0) { skip; } else { print 1; }
  while (r1 != 0) { r1 := 0; }
}
thread { skip; }
)");
  // Thread 1: x:=1 (1), if + two branch blocks + skip + print (5),
  // while + body block + r1:=0 (3); thread 2: skip (1).
  EXPECT_EQ(countStatements(P), 10u);
}

TEST(Shrink, CandidatesAreStrictlySimpler) {
  Program P = parseOrDie(R"(
thread { x := 4; if (r1 == 0) { x := 2; } else { skip; } }
thread { r1 := x; print r1; }
)");
  size_t Size = countStatements(P);
  std::vector<Program> Cands = shrinkCandidates(P);
  EXPECT_FALSE(Cands.empty());
  for (const Program &C : Cands) {
    // Every candidate is no bigger, and round-trips through the printer
    // (i.e. is structurally valid).
    EXPECT_LE(countStatements(C), Size);
    if (C.threadCount() > 0) {
      EXPECT_TRUE(parseProgram(printProgram(C))) << printProgram(C);
    }
  }
}

TEST(Shrink, ReducesToSyntacticCore) {
  // Predicate: "the program still stores 7 to x". Everything else —
  // the second thread, the control flow, the other statements — must
  // shrink away.
  Program P = parseOrDie(R"(
thread {
  r1 := 5;
  x := 7;
  print r1;
  skip;
  if (r1 == 5) { skip; } else { print 2; }
}
thread { y := 1; skip; }
)");
  FailurePredicate Pred = [](const Program &Q) {
    return printProgram(Q).find("x := 7") != std::string::npos;
  };
  ASSERT_TRUE(Pred(P));
  ShrinkResult R = shrinkProgram(P, Pred);
  EXPECT_TRUE(Pred(R.Reduced));
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(R.Reduced.threadCount(), 1u);
  EXPECT_EQ(countStatements(R.Reduced), 1u) << printProgram(R.Reduced);
  EXPECT_GT(R.CandidatesAccepted, 0u);
}

TEST(Shrink, FalsePredicateReturnsInputUnchanged) {
  Program P = parseOrDie("thread { skip; }");
  ShrinkResult R =
      shrinkProgram(P, [](const Program &) { return false; });
  EXPECT_EQ(countStatements(R.Reduced), countStatements(P));
  EXPECT_EQ(R.CandidatesAccepted, 0u);
}

TEST(Shrink, ReducedProgramStillReproducesLockElisionFailure) {
  // The real fuzzing predicate shape: transform the candidate with the
  // unsafe lock-elision pass and check the DRF guarantee definitively.
  Program P = parseOrDie(R"(
thread { lock m; x := 1; unlock m; print 3; skip; r2 := 0; }
thread { lock m; r1 := x; unlock m; skip; }
)");
  FailurePredicate Pred = [](const Program &Q) {
    if (Q.threadCount() == 0)
      return false;
    std::vector<LockPair> Pairs = findLockPairs(Q);
    if (Pairs.empty())
      return false;
    Program T = elideLockPair(Q, Pairs.front());
    return checkDrfGuarantee(Q, T).outcome() == GuaranteeOutcome::Violated;
  };
  ASSERT_TRUE(Pred(P)) << "seed failure must reproduce before shrinking";
  ShrinkResult R = shrinkProgram(P, Pred);
  EXPECT_TRUE(Pred(R.Reduced)) << printProgram(R.Reduced);
  EXPECT_LT(countStatements(R.Reduced), countStatements(P));
  // The minimal shape keeps both critical sections (6 statements): with
  // either lock pair gone the original is racy and the guarantee vacuous.
  EXPECT_GE(countStatements(R.Reduced), 4u);
}

TEST(Fuzz, CleanRunHasNoUninjectedFailures) {
  FuzzOptions Options;
  Options.Seed = 7;
  Options.Programs = 12;
  Options.CheckThinAir = true;
  Options.Budget = BudgetSpec{400, 80'000, 128u << 20};
  FuzzReport R = runFuzz(Options);
  EXPECT_EQ(R.ProgramsRun, 12u);
  EXPECT_GT(R.ChecksRun, 0u);
  EXPECT_EQ(R.uninjectedFailures(), 0u) << R.summary();
  // Machine-readable report stays well formed.
  EXPECT_NE(R.toJson().find("\"programs_run\": 12"), std::string::npos);
}

TEST(Fuzz, InjectedFailureIsFoundMinimisedAndWritten) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / "tracesafe_fuzz_test")
          .string();
  std::filesystem::remove_all(Dir);

  FuzzOptions Options;
  Options.Seed = 3;
  Options.Programs = 20;
  Options.CheckThinAir = false; // DRF guarantee is what lock elision breaks.
  Options.InjectUnsafe = true;
  Options.InjectEvery = 1;
  Options.ReproDir = Dir;
  Options.Budget = BudgetSpec{800, 200'000, 128u << 20};
  Options.Shrink = ShrinkOptions{/*MaxRounds=*/8, /*MaxCandidates=*/200,
                                 /*DeadlineMs=*/5'000};
  FuzzReport R = runFuzz(Options);
  EXPECT_GT(R.InjectedRuns, 0u);
  ASSERT_FALSE(R.Failures.empty())
      << "injected unsafe passes must produce failures: " << R.summary();
  EXPECT_EQ(R.uninjectedFailures(), 0u) << R.summary();

  for (const FuzzFailure &F : R.Failures) {
    EXPECT_TRUE(F.Injected);
    EXPECT_LE(F.ReducedStmts, F.OriginalStmts);
    // The minimised repro reparses: it is a valid standalone .tsl file.
    ASSERT_FALSE(F.ReproPath.empty());
    std::ifstream Is(F.ReproPath);
    ASSERT_TRUE(Is.good()) << F.ReproPath;
    std::string Contents((std::istreambuf_iterator<char>(Is)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(Contents.find("// tracesafe fuzz repro"), std::string::npos);
    ParseResult Reparsed = parseProgram(F.ReducedSource);
    EXPECT_TRUE(Reparsed) << Reparsed.Error;
  }

  std::filesystem::remove_all(Dir);
}

TEST(Fuzz, ProgramDependsOnlyOnSeedAndIndex) {
  // Program I of a campaign is a function of (Seed, I) alone: how many of
  // the earlier programs' queries came back Unknown must not change it.
  // A tight visit cap makes Unknowns from the start; a generous one makes
  // almost none. The failures both runs find must name the same program.
  FuzzOptions Options;
  Options.Seed = 3;
  Options.Programs = 100;
  Options.CheckThinAir = false;
  Options.InjectUnsafe = true;
  Options.InjectEvery = 1;
  Options.Shrink = ShrinkOptions{/*MaxRounds=*/1, /*MaxCandidates=*/1,
                                 /*DeadlineMs=*/0};
  Options.Budget = BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/300,
                              /*MaxMemoryBytes=*/0};
  FuzzReport Tight = runFuzz(Options);
  Options.Budget.MaxVisited = 1'000'000;
  FuzzReport Generous = runFuzz(Options);
  ASSERT_EQ(Tight.ProgramsRun, 100u);
  ASSERT_EQ(Generous.ProgramsRun, 100u);
  EXPECT_GT(Tight.UnknownQueries, Generous.UnknownQueries);

  std::map<uint64_t, std::string> TightSources;
  for (const FuzzFailure &F : Tight.Failures)
    TightSources[F.ProgramIndex] = F.OriginalSource;
  size_t Compared = 0;
  for (const FuzzFailure &F : Generous.Failures) {
    auto It = TightSources.find(F.ProgramIndex);
    if (F.ProgramIndex < 32 || It == TightSources.end())
      continue;
    ++Compared;
    EXPECT_EQ(It->second, F.OriginalSource)
        << "program " << F.ProgramIndex << " depends on the visit cap";
  }
  EXPECT_GT(Compared, 0u) << Tight.summary() << "\n" << Generous.summary();
}

TEST(Fuzz, FailuresComeFromTheirIndexCase) {
  // fuzzCase is the one definition of "program I" (fuzz_harness --server
  // builds its batch from it): every failure of an injection campaign is
  // recorded on the original of its own index's case, with the same
  // injected flag.
  FuzzOptions Options;
  Options.Seed = 2;
  Options.Programs = 24;
  Options.CheckThinAir = false;
  Options.InjectUnsafe = true;
  Options.InjectEvery = 1;
  Options.Shrink = ShrinkOptions{/*MaxRounds=*/1, /*MaxCandidates=*/1,
                                 /*DeadlineMs=*/0};
  FuzzReport R = runFuzz(Options);
  ASSERT_FALSE(R.Failures.empty()) << R.summary();
  for (const FuzzFailure &F : R.Failures) {
    FuzzCase Case = fuzzCase(Options, F.ProgramIndex);
    EXPECT_EQ(F.OriginalSource, printProgram(Case.Original))
        << "program " << F.ProgramIndex;
    EXPECT_EQ(F.Injected, Case.Injected) << "program " << F.ProgramIndex;
  }
  // The case is a function of (Options, index) alone.
  EXPECT_EQ(printProgram(fuzzCase(Options, 5).Transformed),
            printProgram(fuzzCase(Options, 5).Transformed));
}

//===----------------------------------------------------------------------===//
// Chain minimisation
//===----------------------------------------------------------------------===//

TEST(ChainShrink, SiteAppliesIsATotalCheck) {
  Program P = parseOrDie("thread { r1 := x; r2 := y; }\n");
  std::vector<RewriteSite> Sites = findRewriteSites(P);
  ASSERT_FALSE(Sites.empty());
  for (const RewriteSite &S : Sites)
    EXPECT_TRUE(siteApplies(P, S)) << S.str();

  // Dangling variants must return false, never assert.
  RewriteSite Bad = Sites.front();
  Bad.Path.Tid = 99;
  EXPECT_FALSE(siteApplies(P, Bad));
  Bad = Sites.front();
  Bad.I = 99;
  Bad.J = 100;
  EXPECT_FALSE(siteApplies(P, Bad));
  Bad = Sites.front();
  Bad.Path.Steps.push_back({0, PathSel::BlockBody});
  EXPECT_FALSE(siteApplies(P, Bad));
}

TEST(ChainShrink, ApplyChainReplaysAndRejectsDanglingSteps) {
  Program P = parseOrDie("thread { r1 := x; r2 := y; r3 := z; }\n");
  Rng R(11);
  TransformChain Chain = randomChain(P, RuleSet::all(), 4, R);
  ASSERT_FALSE(Chain.Steps.empty());
  std::optional<Program> Replayed = applyChain(P, Chain.Steps);
  ASSERT_TRUE(Replayed.has_value());
  EXPECT_EQ(printProgram(*Replayed), printProgram(Chain.Result));

  // An out-of-range site anywhere in the list makes the whole replay fail.
  std::vector<RewriteSite> Broken = Chain.Steps;
  Broken.front().I = 99;
  Broken.front().J = 100;
  EXPECT_FALSE(applyChain(P, Broken).has_value());
  // The empty chain is the identity.
  std::optional<Program> Id = applyChain(P, {});
  ASSERT_TRUE(Id.has_value());
  EXPECT_EQ(printProgram(*Id), printProgram(P));
}

TEST(ChainShrink, RemovesEveryIrrelevantStep) {
  // Synthetic ddmin check, no programs involved: steps are "relevant" iff
  // their I field is even, and the predicate needs all relevant ones.
  std::vector<RewriteSite> Steps;
  for (size_t I = 0; I < 12; ++I) {
    RewriteSite S;
    S.Rule = RuleKind::RRR;
    S.I = I;
    S.J = I + 1;
    Steps.push_back(S);
  }
  auto Relevant = [](const RewriteSite &S) { return S.I % 2 == 0; };
  ChainFailurePredicate Pred =
      [&](const std::vector<RewriteSite> &Cand) {
        size_t N = 0;
        for (const RewriteSite &S : Cand)
          if (Relevant(S))
            ++N;
        return N == 6; // all six even-I steps still present
      };
  ASSERT_TRUE(Pred(Steps));
  ChainShrinkResult R = shrinkChain(Steps, Pred, {});
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(R.Steps.size(), 6u);
  for (const RewriteSite &S : R.Steps)
    EXPECT_TRUE(Relevant(S));
  EXPECT_GT(R.CandidatesTried, 0u);
}

TEST(ChainShrink, EmptyChainIsConverged) {
  ChainShrinkResult R = shrinkChain(
      {}, [](const std::vector<RewriteSite> &) { return true; }, {});
  EXPECT_TRUE(R.Steps.empty());
  EXPECT_TRUE(R.Converged);
}

TEST(ChainShrink, ReducibleChainShrinksToNothing) {
  // Predicate holds for every subsequence: ddmin must reach the empty
  // chain (the strongest reduction).
  std::vector<RewriteSite> Steps(8);
  ChainShrinkResult R = shrinkChain(
      Steps, [](const std::vector<RewriteSite> &) { return true; }, {});
  EXPECT_TRUE(R.Steps.empty());
  EXPECT_TRUE(R.Converged);
}

TEST(ChainShrink, CandidateBudgetIsRespected) {
  std::vector<RewriteSite> Steps(16);
  for (size_t I = 0; I < Steps.size(); ++I)
    Steps[I].I = I;
  ShrinkOptions Options;
  Options.MaxCandidates = 3;
  uint64_t Calls = 0;
  ChainShrinkResult R = shrinkChain(
      Steps,
      [&](const std::vector<RewriteSite> &) {
        ++Calls;
        return false; // nothing ever removable
      },
      Options);
  EXPECT_LE(Calls, 3u);
  EXPECT_FALSE(R.Converged); // budget, not 1-minimality, ended the run
  EXPECT_EQ(R.Steps.size(), 16u);
}

TEST(ChainShrink, FuzzReportsMinimisedChains) {
  // End-to-end: a semantic-step violation found by the fuzzer carries a
  // minimised chain that is no longer than the original one.
  FuzzOptions Options;
  Options.Seed = 5;
  Options.Programs = 30;
  Options.CheckThinAir = false;
  Options.CheckSemanticSteps = true;
  Options.Budget = BudgetSpec{400, 80'000, 128u << 20};
  FuzzReport R = runFuzz(Options);
  for (const FuzzFailure &F : R.Failures) {
    if (F.Injected)
      continue;
    EXPECT_LE(F.ReducedChainSteps, F.ChainSteps);
  }
  // Healthy build: safe chains violate nothing, so this is usually empty;
  // the assertion above only bites when a genuine bug is found.
  EXPECT_EQ(R.uninjectedFailures(), 0u) << R.summary();
}

} // namespace
