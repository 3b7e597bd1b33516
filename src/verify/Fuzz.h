//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing harness for the optimisation pipeline.
///
/// Drives seeded random programs (ProgramGen) through random chains of the
/// Fig 10/11 rewrite rules (opt/Pipeline) and checks the paper's
/// guarantees on each (original, transformed) pair:
///   - the DRF guarantee (DRF preservation + behaviour inclusion,
///     Theorems 1-4);
///   - the out-of-thin-air guarantee (Theorem 5).
/// Every query runs once under one budget (FuzzOptions::Budget), so
/// pathological programs degrade to counted Unknowns instead of hangs;
/// retrying an Unknown under a larger budget would only re-run a
/// deterministic search further. Program I of seed S is a function of
/// (S, I) alone. A genuine guarantee
/// violation would be a counterexample to the paper (or a bug in this
/// implementation); the harness delta-debugs it to a minimal program and
/// writes a `.tsl` repro to disk.
///
/// For validating the harness itself, injection mode routes every Nth
/// program through one of the paper's deliberately *unsafe* passes
/// (cross-sync constant propagation, lock elision) so real failures exist
/// to find, minimise and write out.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_FUZZ_H
#define TRACESAFE_VERIFY_FUZZ_H

#include "support/Budget.h"
#include "support/RecordLog.h"
#include "verify/ProgramGen.h"
#include "verify/Shrink.h"

#include <string>
#include <vector>

namespace tracesafe {

/// The checkpoint journal (FuzzOptions::CheckpointPath): a
/// support/RecordLog ("TSFC" file, "TSFR" records) whose first record names
/// the campaign and whose every later record is one finished program
/// index. Payload layouts are in verify/Fuzz.cpp.
constexpr RecordLogFormat CheckpointFormat{"fuzz checkpoint", 0x43465354, 2,
                                           0x52465354, 64u << 20};

/// The most job threads one campaign runs: `fuzz_harness --jobs` refuses
/// more, and runFuzz clamps FuzzOptions::Jobs to it.
constexpr unsigned MaxFuzzJobs = 256;

struct FuzzOptions {
  uint64_t Seed = 1;
  /// Number of generated programs to drive (the run may stop earlier on
  /// DeadlineMs).
  uint64_t Programs = 500;
  /// Whole-run wall-clock cap in milliseconds (0 = none).
  int64_t DeadlineMs = 0;
  /// Base program shape; the harness varies discipline, thread count and
  /// input-statement use per iteration on top of this.
  GenOptions Gen;
  /// Maximum random rewrite-rule applications per chain.
  size_t MaxChainSteps = 4;
  /// The budget of every query: each guarantee check, each semantic step
  /// check (the traceset builds and the Lemma 4/5 witness and
  /// de-permutation searches all charge it), each shrink re-check and each
  /// degraded retry of a faulted query.
  BudgetSpec Budget{/*DeadlineMs=*/12'800, /*MaxVisited=*/6'400'000,
                    /*MaxMemoryBytes=*/512u << 20};
  /// Check Theorem 5 (thin air) in addition to the DRF guarantee.
  bool CheckThinAir = true;
  /// Additionally chain the semantic checkers on every safe chain: each
  /// step must be a semantic elimination (Lemma 4) or a reordering of an
  /// elimination (Lemma 5) of the previous program's traceset.
  bool CheckSemanticSteps = false;
  /// Campaign threads: 1 = one job thread (sequential); 0 =
  /// std::thread::hardware_concurrency(); N > 1 = exactly N, at most
  /// MaxFuzzJobs and at most Programs. Each thread runs one program at a time.
  /// Programs are claimed by index and every program depends only on
  /// (Seed, index), so the report is identical for every width (failures
  /// are sorted by program index).
  unsigned Jobs = 1;
  /// Route every InjectEvery-th program through an unsafe pass.
  bool InjectUnsafe = false;
  unsigned InjectEvery = 5;
  /// Directory for minimised `.tsl` repros ("" = do not write files).
  std::string ReproDir;
  /// Reduction limits for failure minimisation.
  ShrinkOptions Shrink{/*MaxRounds=*/32, /*MaxCandidates=*/1500,
                       /*DeadlineMs=*/10'000};
  /// Append-only checkpoint journal ("" = none; CheckpointFormat). One
  /// record per finished program index, written as it completes, so a
  /// killed campaign loses at most the indices that were in flight.
  std::string CheckpointPath;
  /// Load the valid prefix of CheckpointPath first, skip every index it
  /// records as done (their recorded results are merged instead) and
  /// append to it. A journal of another (Seed, Programs) campaign, or a
  /// file that is not a checkpoint journal, is discarded and started over.
  bool Resume = false;
  /// Cooperative cancellation for the whole campaign (non-owning; may be
  /// null). Wired into every query budget, so a request unwinds in-flight
  /// searches within one budget check interval; an index whose run was cut
  /// by cancellation is discarded (not journaled), so a resumed campaign
  /// reproduces it exactly.
  const CancelToken *Cancel = nullptr;
};

/// One minimised guarantee violation.
struct FuzzFailure {
  uint64_t ProgramIndex = 0;  ///< which generated program
  std::string Property;       ///< "drf-guarantee" or "thin-air"
  bool Injected = false;      ///< produced by an unsafe pass on purpose
  std::string Detail;         ///< human-readable description
  std::string OriginalSource; ///< generated program
  std::string ReducedSource;  ///< minimised program (still failing)
  std::string ReproPath;      ///< written repro file ("" if not written)
  size_t OriginalStmts = 0;
  size_t ReducedStmts = 0;
  unsigned ShrinkRounds = 0;
  uint64_t ShrinkCandidates = 0;
  /// The minimised rewrite chain that still reproduces the failure on the
  /// reduced program ("" when the transform was not a rewrite chain, e.g.
  /// an injected unsafe pass). Steps joined by "; " in RewriteSite::str()
  /// form; also written as a `// chain:` line in the repro header.
  std::string ReducedChain;
  size_t ChainSteps = 0;        ///< chain length before minimisation
  size_t ReducedChainSteps = 0; ///< chain length after minimisation
};

struct FuzzReport {
  uint64_t ProgramsRun = 0;
  uint64_t ChecksRun = 0;
  uint64_t ProvedQueries = 0;
  /// Queries that stayed Unknown under the budget.
  uint64_t UnknownQueries = 0;
  uint64_t InjectedRuns = 0;
  /// Queries whose final answer was Unknown(EngineFault) — an engine
  /// threw (real or injected) and containment turned it into a verdict
  /// instead of a crash.
  uint64_t FaultedQueries = 0;
  /// Faulted queries that the sequential degraded retry then answered
  /// (Proved/Refuted, or an honest budget-bound Unknown).
  uint64_t DegradedQueries = 0;
  bool DeadlineHit = false;
  /// The campaign was cut short by cooperative cancellation; counters
  /// cover only the indices that completed beforehand.
  bool Cancelled = false;
  /// Indices loaded from a resume journal instead of being re-run.
  uint64_t SkippedFromCheckpoint = 0;
  int64_t ElapsedMs = 0;
  std::vector<FuzzFailure> Failures;

  /// Violations of a guarantee by a *safe* chain — a paper counterexample
  /// or an implementation bug; always zero in healthy runs.
  uint64_t uninjectedFailures() const;

  std::string summary() const;
  /// Machine-readable report (stable key order, no external deps). With
  /// \p IncludeVolatile false the wall-clock and campaign-lifecycle fields
  /// (elapsed_ms, cancelled, skipped_from_checkpoint) are omitted: that
  /// form is byte-identical between a fresh run and a kill/resume of the
  /// same campaign, which the resume tests assert.
  std::string toJson(bool IncludeVolatile = true) const;
};

/// Program \p Index of the campaign \p Options describes: the generated
/// original, the program the guarantee checks compare it with, and how
/// that program was made. A function of (Options, Index) alone; runFuzz
/// checks exactly this pair, and `fuzz_harness --server` sends exactly
/// this pair to a daemon, so both runs of one campaign check the same
/// programs.
struct FuzzCase {
  Program Original;
  Program Transformed;
  /// Transformed comes from an unsafe pass (FuzzOptions::InjectUnsafe),
  /// not from a rewrite chain.
  bool Injected = false;
  /// Seed of the random rewrite chain (applied when !Injected; the
  /// semantic step checks and the shrinker regenerate the chain from it).
  uint64_t ChainSeed = 0;
};

FuzzCase fuzzCase(const FuzzOptions &Options, uint64_t Index);

FuzzReport runFuzz(const FuzzOptions &Options);

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_FUZZ_H
