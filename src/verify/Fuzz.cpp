#include "verify/Fuzz.h"

#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "opt/Unsafe.h"
#include "support/FieldCodec.h"
#include "support/Failure.h"
#include "support/Rng.h"
#include "verify/Theorems.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

using namespace tracesafe;

namespace {

/// A deterministic transformation of a program: the same function is used
/// on the generated program and on every shrink candidate, so the failure
/// predicate stays meaningful as the program gets smaller.
using TransformFn = std::function<std::optional<Program>(const Program &)>;

Program applySafeChain(const Program &P, uint64_t ChainSeed,
                       size_t MaxSteps) {
  Rng R(ChainSeed);
  return randomChain(P, RuleSet::all(), MaxSteps, R).Result;
}

std::string drfDetail(const DrfGuaranteeReport &R) {
  if (!R.TransformedDrf)
    return "transformation introduced a data race into a DRF program";
  if (!R.BehavioursPreserved)
    return "transformation introduced a new behaviour";
  return "DRF guarantee violated";
}

std::string thinAirDetail(const ThinAirReport &R) {
  if (R.TransformedOutputs)
    return "transformed program outputs the fresh constant " +
           std::to_string(R.Constant);
  return "transformed traceset has an out-of-thin-air origin for " +
         std::to_string(R.Constant);
}

/// Satellite check: Lemma 4/5 on every step of a safe chain
/// (verifyChainSteps), folded into one verdict — Fails if any step fails,
/// otherwise Unknown if any step was truncated.
CheckVerdict semanticChainVerdict(const Program &Orig,
                                  const TransformChain &Chain, Budget &B) {
  TheoremCheckOptions O;
  O.attachBudget(B);
  CheckVerdict Out = CheckVerdict::Holds;
  for (const StepVerification &S : verifyChainSteps(Orig, Chain, O)) {
    if (S.Semantic == CheckVerdict::Fails)
      return CheckVerdict::Fails;
    if (S.Semantic == CheckVerdict::Unknown)
      Out = CheckVerdict::Unknown;
  }
  return Out;
}

/// Definitive re-check of one property on a shrink candidate, under a
/// fixed one-shot budget. Unknown counts as "does not reproduce" so budget
/// noise cannot steer the reduction toward expensive programs. For the
/// semantic-step property the chain is regenerated from \p ChainSeed on
/// the candidate itself.
bool propertyViolated(const Program &Orig, const Program &Transformed,
                      const std::string &Property, const BudgetSpec &Spec,
                      uint64_t ChainSeed, size_t MaxChainSteps,
                      const CancelToken *Cancel) {
  Budget B(Spec, Cancel);
  if (Property == "semantic-step") {
    Rng R(ChainSeed);
    TransformChain C = randomChain(Orig, RuleSet::all(), MaxChainSteps, R);
    return semanticChainVerdict(Orig, C, B) == CheckVerdict::Fails;
  }
  ExecLimits Exec;
  Exec.Shared = &B;
  if (Property == "drf-guarantee")
    return checkDrfGuarantee(Orig, Transformed, Exec).outcome() ==
           GuaranteeOutcome::Violated;
  ExploreLimits Explore;
  Explore.Shared = &B;
  return checkThinAir(Orig, Transformed, freshConstantFor(Orig), Exec,
                      Explore)
             .outcome() == GuaranteeOutcome::Violated;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

//===--------------------------------------------------------------------===//
// Checkpoint journal.
//
// A support/RecordLog (CheckpointFormat in Fuzz.h). The first record names
// the campaign; every later one is one finished program index, written as
// a single CRC-framed record, so a crash mid-record leaves a torn tail the
// reader drops and the index is simply re-run on resume. Payloads
// (support/FieldCodec.h):
//   campaign: u8 'C' | u64 seed | u64 programs
//   index:    u8 'I' | u64 idx | u64 checks | u64 proved | u64 unknown
//             | u64 escalated | u8 injected | u64 faulted | u64 degraded
//             | u32 failure count | failures
//   failure:  str property | u8 injected | u64 originalStmts
//             | u64 reducedStmts | u64 shrinkRounds | u64 shrinkCandidates
//             | u64 chainSteps | u64 reducedChainSteps | str reproPath
//             | str detail | str reducedChain | str originalSource
//             | str reducedSource
//===--------------------------------------------------------------------===//

constexpr uint8_t CampaignRecord = 'C';
constexpr uint8_t IndexRecordType = 'I';

/// One finished program index's contribution to the campaign report.
/// RunOne accumulates into this, and exactly this is journaled, so a
/// resumed index merges identically to a re-run one.
struct IndexRecord {
  uint64_t Checks = 0;
  uint64_t Proved = 0;
  uint64_t Unknown = 0;
  uint64_t Escalated = 0;
  bool Injected = false;
  uint64_t Faulted = 0;
  uint64_t Degraded = 0;
  std::vector<FuzzFailure> Failures;
};

std::string campaignHeaderRecord(uint64_t Seed, uint64_t Programs) {
  std::string Out;
  putU8(Out, CampaignRecord);
  putU64(Out, Seed);
  putU64(Out, Programs);
  return Out;
}

std::string encodeIndex(uint64_t Idx, const IndexRecord &R) {
  std::string Out;
  putU8(Out, IndexRecordType);
  putU64(Out, Idx);
  putU64(Out, R.Checks);
  putU64(Out, R.Proved);
  putU64(Out, R.Unknown);
  putU64(Out, R.Escalated);
  putU8(Out, R.Injected);
  putU64(Out, R.Faulted);
  putU64(Out, R.Degraded);
  putU32(Out, static_cast<uint32_t>(R.Failures.size()));
  for (const FuzzFailure &F : R.Failures) {
    putStr(Out, F.Property);
    putU8(Out, F.Injected);
    putU64(Out, F.OriginalStmts);
    putU64(Out, F.ReducedStmts);
    putU64(Out, F.ShrinkRounds);
    putU64(Out, F.ShrinkCandidates);
    putU64(Out, F.ChainSteps);
    putU64(Out, F.ReducedChainSteps);
    putStr(Out, F.ReproPath);
    putStr(Out, F.Detail);
    putStr(Out, F.ReducedChain);
    putStr(Out, F.OriginalSource);
    putStr(Out, F.ReducedSource);
  }
  return Out;
}

bool decodeIndex(std::string_view Payload, uint64_t &Idx, IndexRecord &R) {
  PayloadReader Rd(Payload);
  uint8_t Type = 0, Injected = 0;
  uint32_t NumFailures = 0;
  if (!Rd.u8(Type) || Type != IndexRecordType || !Rd.u64(Idx) ||
      !Rd.u64(R.Checks) || !Rd.u64(R.Proved) || !Rd.u64(R.Unknown) ||
      !Rd.u64(R.Escalated) || !Rd.u8(Injected) || !Rd.u64(R.Faulted) ||
      !Rd.u64(R.Degraded) || !Rd.u32(NumFailures))
    return false;
  R.Injected = Injected != 0;
  for (uint32_t I = 0; I < NumFailures; ++I) {
    FuzzFailure F;
    uint64_t OriginalStmts = 0, ReducedStmts = 0, ShrinkRounds = 0,
             ChainSteps = 0, ReducedChainSteps = 0;
    if (!Rd.str(F.Property) || !Rd.u8(Injected) || !Rd.u64(OriginalStmts) ||
        !Rd.u64(ReducedStmts) || !Rd.u64(ShrinkRounds) ||
        !Rd.u64(F.ShrinkCandidates) || !Rd.u64(ChainSteps) ||
        !Rd.u64(ReducedChainSteps) || !Rd.str(F.ReproPath) ||
        !Rd.str(F.Detail) || !Rd.str(F.ReducedChain) ||
        !Rd.str(F.OriginalSource) || !Rd.str(F.ReducedSource))
      return false;
    F.ProgramIndex = Idx;
    F.Injected = Injected != 0;
    F.OriginalStmts = OriginalStmts;
    F.ReducedStmts = ReducedStmts;
    F.ShrinkRounds = static_cast<unsigned>(ShrinkRounds);
    F.ChainSteps = ChainSteps;
    F.ReducedChainSteps = ReducedChainSteps;
    R.Failures.push_back(std::move(F));
  }
  return Rd.done();
}

/// The checkpoint journal's writer; concurrent campaign workers append
/// whole records.
class Journal {
public:
  /// Opens \p Path for the (Seed, Programs) campaign. With \p Resume, a
  /// journal of the same campaign keeps its valid prefix, whose index
  /// records land in \p Resumed (an index recorded twice keeps the later
  /// record), and is appended to. Anything else (no journal, another
  /// campaign, not a checkpoint journal) is started over.
  bool open(const std::string &Path, bool Resume, uint64_t Seed,
            uint64_t Programs, std::map<uint64_t, IndexRecord> &Resumed) {
    std::string Err;
    if (Resume) {
      const std::string Campaign = campaignHeaderRecord(Seed, Programs);
      bool First = true, Ours = false;
      auto Visit = [&](std::string_view Payload) {
        if (std::exchange(First, false)) {
          Ours = Payload == Campaign;
          return;
        }
        uint64_t Idx = 0;
        IndexRecord R;
        if (Ours && decodeIndex(Payload, Idx, R) && Idx < Programs)
          Resumed[Idx] = std::move(R);
      };
      if (Log.open(Path, CheckpointFormat, RecordLogWriter::Mode::Resume, Err,
                   Visit) &&
          Ours)
        return true;
      Resumed.clear();
    }
    return Log.open(Path, CheckpointFormat, RecordLogWriter::Mode::Fresh,
                    Err) &&
           Log.append(campaignHeaderRecord(Seed, Programs));
  }

  void record(uint64_t Idx, const IndexRecord &R) {
    if (Log.isOpen())
      Log.append(encodeIndex(Idx, R));
  }

private:
  RecordLogWriter Log;
};

//===--------------------------------------------------------------------===//
// Coverage-guided seed scheduling.
//
// Program indices are grouped into epochs of SchedulerEpoch. Inside epoch
// 0 the generator discipline rotates uniformly (exactly the seed
// campaign's schedule); from epoch 1 on it is a seeded weighted pick,
// with each discipline bucket weighted by how "interesting" its programs
// of *earlier* epochs were (Unknowns, escalations, and uninjected repros
// score; proved-everywhere programs do not). The campaign loop places a
// completion barrier at every epoch boundary, so the weights for epoch k
// are a pure function of a deterministic record set — the report stays
// identical for every worker count and fault schedule, and a resumed
// campaign recomputes the same schedule from its journal.
//===--------------------------------------------------------------------===//

constexpr uint64_t SchedulerEpoch = 32;

constexpr std::array<GenDiscipline, 4> SchedulerBuckets = {
    GenDiscipline::Racy, GenDiscipline::LockDiscipline,
    GenDiscipline::VolatileLocations, GenDiscipline::Mixed};

class SeedScheduler {
public:
  explicit SeedScheduler(uint64_t Seed) : Seed(Seed) {}

  GenDiscipline disciplineFor(uint64_t I) {
    std::lock_guard<std::mutex> Lock(M);
    return SchedulerBuckets[bucketLocked(I)];
  }

  /// Folds a committed record into its index's bucket. Placeholder
  /// records (Checks == 0: the index faulted before running any check)
  /// are ignored — in the run that faulted they contributed nothing to
  /// the weights either, so ignoring them keeps a resumed campaign's
  /// schedule identical to the original's.
  void observe(uint64_t I, const IndexRecord &R) {
    if (R.Checks == 0)
      return;
    uint64_t Score = R.Unknown + R.Escalated;
    for (const FuzzFailure &F : R.Failures)
      if (!F.Injected)
        Score += 4;
    std::lock_guard<std::mutex> Lock(M);
    Observed[I] = Score;
  }

private:
  struct Bucket {
    uint64_t Runs = 0;
    uint64_t Score = 0;
  };

  unsigned bucketLocked(uint64_t I) {
    uint64_t E = I / SchedulerEpoch;
    if (E == 0)
      return static_cast<unsigned>(I % SchedulerBuckets.size());
    const std::array<uint64_t, 4> &W = weightsLocked(E);
    uint64_t Total = W[0] + W[1] + W[2] + W[3];
    uint64_t R = mixSeeds(Seed ^ 0x5EEDC0DEULL, I) % Total;
    for (unsigned B = 0; B + 1 < W.size(); ++B) {
      if (R < W[B])
        return B;
      R -= W[B];
    }
    return static_cast<unsigned>(W.size()) - 1;
  }

  /// Weights for epoch \p E (E >= 1), built lazily in epoch order:
  /// Weights[K] covers epoch K+1 and is computed by folding epoch K's
  /// observed records into the cumulative bucket aggregate. The fold
  /// calls bucketLocked for epoch-K indices, whose weights are already
  /// built (or epoch 0's rotation), so the recursion is well-founded.
  const std::array<uint64_t, 4> &weightsLocked(uint64_t E) {
    while (Weights.size() < E) {
      uint64_t Prev = Weights.size();
      uint64_t Begin = Prev * SchedulerEpoch;
      for (uint64_t I = Begin; I < Begin + SchedulerEpoch; ++I) {
        auto It = Observed.find(I);
        if (It == Observed.end())
          continue;
        Bucket &B = Agg[bucketLocked(I)];
        ++B.Runs;
        B.Score += It->second;
      }
      std::array<uint64_t, 4> W;
      for (unsigned B = 0; B < W.size(); ++B)
        W[B] = 1 + (Agg[B].Runs ? 16 * Agg[B].Score / Agg[B].Runs : 0);
      Weights.push_back(W);
    }
    return Weights[E - 1];
  }

  const uint64_t Seed;
  std::mutex M;
  std::map<uint64_t, uint64_t> Observed; ///< index -> interest score
  std::array<Bucket, 4> Agg;             ///< epochs folded so far
  std::vector<std::array<uint64_t, 4>> Weights;
};

void mergeIndex(FuzzReport &Into, const IndexRecord &R) {
  ++Into.ProgramsRun;
  Into.ChecksRun += R.Checks;
  Into.ProvedQueries += R.Proved;
  Into.UnknownQueries += R.Unknown;
  Into.EscalatedQueries += R.Escalated;
  Into.InjectedRuns += R.Injected ? 1 : 0;
  Into.FaultedQueries += R.Faulted;
  Into.DegradedQueries += R.Degraded;
  for (const FuzzFailure &F : R.Failures)
    Into.Failures.push_back(F);
}

/// Degraded retry for a query whose escalation ended in
/// Unknown(EngineFault): one re-run of \p Check on the seed enumerator
/// (ExhaustiveOracle: no intern pools, so the armed fault sites of the
/// reduced engine cannot fire again) under the escalation ceiling, which
/// usually produces a real answer. Only EngineFault retries —
/// cancellation must win, and budget exhaustion would exhaust the
/// smaller budget faster. Counts the query Faulted, and Degraded when the
/// retry answered (Proved/Refuted, or an honest budget-bound Unknown).
template <typename ReportT, typename CheckFn>
void retryFaulted(Verdict<ReportT> &Final, IndexRecord &Rec,
                  const FuzzOptions &Options, CheckFn Check) {
  if (!Final.isUnknown() || Final.Reason != TruncationReason::EngineFault)
    return;
  ++Rec.Faulted;
  Budget B(Options.Escalation.Ceiling, Options.Cancel);
  ExecLimits E;
  E.Shared = &B;
  E.ExhaustiveOracle = true;
  ExploreLimits X;
  X.Shared = &B;
  ReportT R = Check(E, X);
  switch (R.outcome()) {
  case GuaranteeOutcome::Holds:
    Final = Verdict<ReportT>::proved();
    ++Rec.Degraded;
    break;
  case GuaranteeOutcome::Violated:
    Final = Verdict<ReportT>::refuted(std::move(R));
    ++Rec.Degraded;
    break;
  case GuaranteeOutcome::Unknown:
    if (R.Reason != TruncationReason::EngineFault)
      ++Rec.Degraded; // Honest budget-bound Unknown, not a re-fault.
    break;
  }
}

} // namespace

uint64_t FuzzReport::uninjectedFailures() const {
  uint64_t N = 0;
  for (const FuzzFailure &F : Failures)
    if (!F.Injected)
      ++N;
  return N;
}

std::string FuzzReport::summary() const {
  std::string Out = "fuzz: " + std::to_string(ProgramsRun) + " programs, " +
                    std::to_string(ChecksRun) + " checks (" +
                    std::to_string(ProvedQueries) + " proved, " +
                    std::to_string(UnknownQueries) + " unknown, " +
                    std::to_string(EscalatedQueries) + " escalated), " +
                    std::to_string(Failures.size()) + " failures (" +
                    std::to_string(uninjectedFailures()) + " uninjected, " +
                    std::to_string(InjectedRuns) + " injected runs), " +
                    std::to_string(ElapsedMs) + "ms";
  if (FaultedQueries || DegradedQueries)
    Out += ", " + std::to_string(FaultedQueries) + " faulted/" +
           std::to_string(DegradedQueries) + " degraded";
  if (SkippedFromCheckpoint)
    Out += ", " + std::to_string(SkippedFromCheckpoint) + " resumed";
  if (DeadlineHit)
    Out += " [deadline hit]";
  if (Cancelled)
    Out += " [cancelled]";
  return Out;
}

std::string FuzzReport::toJson(bool IncludeVolatile) const {
  std::string Out = "{\n";
  auto Field = [&](const std::string &K, const std::string &V, bool Comma) {
    Out += "  \"" + K + "\": " + V + (Comma ? ",\n" : "\n");
  };
  Field("programs_run", std::to_string(ProgramsRun), true);
  Field("checks_run", std::to_string(ChecksRun), true);
  Field("proved", std::to_string(ProvedQueries), true);
  Field("unknown", std::to_string(UnknownQueries), true);
  Field("escalated", std::to_string(EscalatedQueries), true);
  Field("injected_runs", std::to_string(InjectedRuns), true);
  Field("faulted", std::to_string(FaultedQueries), true);
  Field("degraded", std::to_string(DegradedQueries), true);
  Field("uninjected_failures", std::to_string(uninjectedFailures()), true);
  Field("deadline_hit", DeadlineHit ? "true" : "false", true);
  if (IncludeVolatile) {
    Field("cancelled", Cancelled ? "true" : "false", true);
    Field("skipped_from_checkpoint", std::to_string(SkippedFromCheckpoint),
          true);
    Field("elapsed_ms", std::to_string(ElapsedMs), true);
  }
  Out += "  \"failures\": [";
  for (size_t I = 0; I < Failures.size(); ++I) {
    const FuzzFailure &F = Failures[I];
    Out += I ? ",\n    {" : "\n    {";
    Out += "\"program_index\": " + std::to_string(F.ProgramIndex);
    Out += ", \"property\": \"" + jsonEscape(F.Property) + "\"";
    Out += ", \"injected\": " + std::string(F.Injected ? "true" : "false");
    Out += ", \"detail\": \"" + jsonEscape(F.Detail) + "\"";
    Out += ", \"original_stmts\": " + std::to_string(F.OriginalStmts);
    Out += ", \"reduced_stmts\": " + std::to_string(F.ReducedStmts);
    Out += ", \"shrink_rounds\": " + std::to_string(F.ShrinkRounds);
    Out += ", \"chain_steps\": " + std::to_string(F.ChainSteps);
    Out += ", \"reduced_chain_steps\": " +
           std::to_string(F.ReducedChainSteps);
    Out += ", \"reduced_chain\": \"" + jsonEscape(F.ReducedChain) + "\"";
    Out += ", \"repro_path\": \"" + jsonEscape(F.ReproPath) + "\"";
    Out += ", \"reduced_source\": \"" + jsonEscape(F.ReducedSource) + "\"";
    Out += "}";
  }
  Out += Failures.empty() ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}

FuzzReport tracesafe::runFuzz(const FuzzOptions &Options) {
  FuzzReport Report;
  auto Start = std::chrono::steady_clock::now();
  auto ElapsedMs = [&]() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };
  auto CancelledNow = [&]() {
    return Options.Cancel && Options.Cancel->requested();
  };

  EscalationPolicy Esc = Options.Escalation;
  Esc.Cancel = Options.Cancel;

  SeedScheduler Sched(Options.Seed);

  // Budget for shrink-predicate re-checks: one mid-ladder rung.
  BudgetSpec ShrinkCheckSpec =
      Options.Escalation.Initial.scaled(Options.Escalation.Growth,
                                        Options.Escalation.Ceiling);

  auto Track = [](IndexRecord &R, VerdictKind Kind, size_t Attempts) {
    ++R.Checks;
    if (Attempts > 1)
      ++R.Escalated;
    if (Kind == VerdictKind::Unknown)
      ++R.Unknown;
    if (Kind == VerdictKind::Proved)
      ++R.Proved;
  };

  auto RecordFailure = [&](IndexRecord &Rec, uint64_t Index,
                           const std::string &Property, bool Injected,
                           std::string Detail, const Program &Orig,
                           const TransformFn &Transform, uint64_t ChainSeed) {
    FuzzFailure F;
    F.ProgramIndex = Index;
    F.Property = Property;
    F.Injected = Injected;
    F.Detail = std::move(Detail);
    F.OriginalSource = printProgram(Orig);
    F.OriginalStmts = countStatements(Orig);

    FailurePredicate Pred = [&](const Program &Q) {
      if (Q.threadCount() == 0)
        return false;
      std::optional<Program> TQ = Transform(Q);
      if (!TQ)
        return false;
      return propertyViolated(Q, *TQ, Property, ShrinkCheckSpec, ChainSeed,
                              Options.MaxChainSteps, Options.Cancel);
    };
    ShrinkResult SR = shrinkProgram(Orig, Pred, Options.Shrink);
    F.ReducedSource = printProgram(SR.Reduced);
    F.ReducedStmts = countStatements(SR.Reduced);
    F.ShrinkRounds = SR.Rounds;
    F.ShrinkCandidates = SR.CandidatesTried;

    if (!Injected) {
      // Satellite: minimise the rewrite chain too. The chain the failure
      // predicate used on the reduced program is regenerated from the
      // seed, then its step list is delta-debugged to a subsequence that
      // still reproduces when replayed with applyChain.
      Rng CR(ChainSeed);
      TransformChain Chain =
          randomChain(SR.Reduced, RuleSet::all(), Options.MaxChainSteps, CR);
      F.ChainSteps = Chain.Steps.size();
      ChainFailurePredicate CPred =
          [&](const std::vector<RewriteSite> &Steps) {
            std::optional<Program> TQ = applyChain(SR.Reduced, Steps);
            if (!TQ)
              return false;
            if (Property == "semantic-step") {
              Budget B(ShrinkCheckSpec, Options.Cancel);
              TransformChain C{std::move(*TQ), Steps};
              return semanticChainVerdict(SR.Reduced, C, B) ==
                     CheckVerdict::Fails;
            }
            return propertyViolated(SR.Reduced, *TQ, Property,
                                    ShrinkCheckSpec, ChainSeed,
                                    Options.MaxChainSteps, Options.Cancel);
          };
      std::vector<RewriteSite> Final = Chain.Steps;
      if (!Chain.Steps.empty() && CPred(Chain.Steps)) {
        ChainShrinkResult CS =
            shrinkChain(Chain.Steps, CPred, Options.Shrink);
        Final = CS.Steps;
      }
      F.ReducedChainSteps = Final.size();
      for (const RewriteSite &S : Final) {
        if (!F.ReducedChain.empty())
          F.ReducedChain += "; ";
        F.ReducedChain += S.str();
      }
    }

    if (!Options.ReproDir.empty()) {
      std::error_code Ec;
      std::filesystem::create_directories(Options.ReproDir, Ec);
      std::string Path = Options.ReproDir + "/repro_" +
                         std::to_string(Index) + "_" + Property + ".tsl";
      std::ofstream Os(Path);
      if (Os) {
        Os << "// tracesafe fuzz repro (minimised)\n"
           << "// property: " << Property << "\n"
           << "// run seed: " << Options.Seed
           << ", program index: " << Index << "\n"
           << "// injected unsafe pass: " << (F.Injected ? "yes" : "no")
           << "\n"
           << "// detail: " << F.Detail << "\n"
           << "// statements: " << F.OriginalStmts << " -> "
           << F.ReducedStmts << " in " << F.ShrinkRounds
           << " shrink rounds\n";
        if (!F.Injected)
          Os << "// chain: " << F.ChainSteps << " -> "
             << F.ReducedChainSteps << " steps"
             << (F.ReducedChain.empty() ? "" : ": " + F.ReducedChain)
             << "\n";
        Os << F.ReducedSource;
        F.ReproPath = Path;
      }
    }
    Rec.Failures.push_back(std::move(F));
  };

  // One fuzz iteration, accumulating into \p Rec. Everything here depends
  // only on (Options.Seed, I), so the campaign is deterministic for any
  // worker count — and a resumed index's journaled record is identical to
  // a re-run one.
  auto RunOne = [&](uint64_t I, IndexRecord &Rec) {
    uint64_t SubSeed = mixSeeds(Options.Seed, I);
    Rng R(SubSeed);

    // Vary the program shape so one run sweeps all disciplines and a mix
    // of thread counts / input use. The discipline itself is coverage-
    // guided (SeedScheduler): epoch 0 rotates uniformly, later epochs
    // weight the buckets that produced Unknowns and repros.
    GenOptions G = Options.Gen;
    G.Discipline = Sched.disciplineFor(I);
    if (I % 7 == 3)
      G.Threads = G.Threads < 3 ? G.Threads + 1 : G.Threads;
    G.AllowInput = I % 11 == 5;

    Program P = generateProgram(R, G);

    bool Injected = false;
    TransformFn Transform;
    uint64_t ChainSeed = mixSeeds(SubSeed, 0x5eed);
    if (Options.InjectUnsafe && Options.InjectEvery &&
        I % Options.InjectEvery == 0 && applyFirstUnsafe(P)) {
      Injected = true;
      Transform = [](const Program &Q) { return applyFirstUnsafe(Q); };
    } else {
      size_t MaxSteps = Options.MaxChainSteps;
      Transform = [ChainSeed, MaxSteps](const Program &Q)
          -> std::optional<Program> {
        return applySafeChain(Q, ChainSeed, MaxSteps);
      };
    }
    Rec.Injected = Injected;

    Program T = *Transform(P);

    Escalated<DrfGuaranteeReport> Drf = escalateDrfGuarantee(P, T, Esc);
    retryFaulted(Drf.Final, Rec, Options,
                 [&](const ExecLimits &E, const ExploreLimits &) {
                   return checkDrfGuarantee(P, T, E);
                 });
    Track(Rec, Drf.Final.Kind, Drf.Attempts.size());
    if (Drf.Final.isRefuted())
      RecordFailure(Rec, I, "drf-guarantee", Injected,
                    drfDetail(*Drf.Final.Witness), P, Transform, ChainSeed);

    if (Options.CheckThinAir) {
      Value C = freshConstantFor(P);
      Escalated<ThinAirReport> Ta = escalateThinAir(P, T, C, Esc);
      retryFaulted(Ta.Final, Rec, Options,
                   [&](const ExecLimits &E, const ExploreLimits &X) {
                     return checkThinAir(P, T, C, E, X);
                   });
      Track(Rec, Ta.Final.Kind, Ta.Attempts.size());
      if (Ta.Final.isRefuted())
        RecordFailure(Rec, I, "thin-air", Injected,
                      thinAirDetail(*Ta.Final.Witness), P, Transform,
                      ChainSeed);
    }

    if (Options.CheckSemanticSteps && !Injected) {
      // Satellite: Lemma 4/5 on every step of the safe chain, under one
      // mid-ladder budget (step checks are cheap relative to the
      // guarantee queries; escalation would triple the traceset builds).
      Rng CR(ChainSeed);
      TransformChain Chain =
          randomChain(P, RuleSet::all(), Options.MaxChainSteps, CR);
      Budget B(ShrinkCheckSpec, Options.Cancel);
      CheckVerdict V = semanticChainVerdict(P, Chain, B);
      Track(Rec,
            V == CheckVerdict::Holds    ? VerdictKind::Proved
            : V == CheckVerdict::Fails  ? VerdictKind::Refuted
                                        : VerdictKind::Unknown,
            1);
      if (V == CheckVerdict::Fails)
        RecordFailure(Rec, I, "semantic-step", false,
                      "chain step is not a semantic elimination/reordering "
                      "of its predecessor",
                      P, Transform, ChainSeed);
    }
  };

  // Resume: merge the journaled records and mark their indices done.
  std::map<uint64_t, IndexRecord> Resumed;
  Journal J;
  if (!Options.CheckpointPath.empty())
    J.open(Options.CheckpointPath, Options.Resume, Options.Seed,
           Options.Programs, Resumed);

  // Completion map: set once an index's record is merged (from the
  // journal or a finished run). Only the thread that runs an index
  // writes its element.
  std::vector<char> Completed(Options.Programs, 0);

  std::mutex ReportM; // guards Report during parallel merges
  for (auto &[Idx, R] : Resumed) {
    mergeIndex(Report, R);
    Sched.observe(Idx, R);
    ++Report.SkippedFromCheckpoint;
    Completed[Idx] = 1;
  }

  // Runs index I and commits it (merge + journal). An index interrupted
  // by cancellation is discarded instead — its results are cut-short
  // noise, and discarding is what lets a resumed campaign reproduce it
  // bit-for-bit. Returns false when RunOne threw (left uncommitted).
  auto RunCommit = [&](uint64_t I) {
    IndexRecord Rec;
    try {
      RunOne(I, Rec);
    } catch (...) {
      return false;
    }
    if (CancelledNow())
      return true; // Discarded; the campaign loop ends the run.
    {
      std::lock_guard<std::mutex> Lock(ReportM);
      mergeIndex(Report, Rec);
    }
    Sched.observe(I, Rec);
    J.record(I, Rec);
    Completed[I] = 1;
    return true;
  };

  // Cancellation and the whole-run deadline end a campaign early; such a
  // campaign is genuinely partial and is left that way.
  std::atomic<bool> DeadlineHit{false};
  auto Stopping = [&] {
    if (Options.DeadlineMs > 0 && ElapsedMs() >= Options.DeadlineMs)
      DeadlineHit.store(true, std::memory_order_relaxed);
    return CancelledNow() || DeadlineHit.load(std::memory_order_relaxed);
  };

  // Job threads claim program indices from a shared counter, one
  // scheduler epoch at a time (--jobs 1 is one job thread). The end of an
  // epoch is the completion barrier the coverage-guided scheduler relies
  // on: the weights for epoch k see all of epochs < k, for every job
  // count and every fault schedule. Merging is per-index under a lock and
  // failures are sorted afterwards, so the output is independent of
  // scheduling.
  const uint64_t Jobs =
      Options.Jobs ? Options.Jobs
                   : std::max(1u, std::thread::hardware_concurrency());
  for (uint64_t Begin = 0; Begin < Options.Programs; Begin += SchedulerEpoch) {
    if (CancelledNow() || DeadlineHit.load(std::memory_order_relaxed))
      break;
    const uint64_t End = std::min(Begin + SchedulerEpoch, Options.Programs);
    std::atomic<uint64_t> Next{Begin};
    auto Job = [&] {
      // A job thread contains its own faults: one that throws (the
      // TaskRun probe, or anything outside RunOne's containment) stops
      // claiming, and the epoch's other threads and the barrier below
      // run what it left.
      try {
        faultMaybeStall(FaultSite::TaskStall);
        faultThrowInjected(FaultSite::TaskRun);
        for (;;) {
          uint64_t I = Next.fetch_add(1, std::memory_order_relaxed);
          if (I >= End)
            return;
          if (Completed[I])
            continue;
          if (Stopping())
            return;
          RunCommit(I);
        }
      } catch (...) {
      }
    };
    std::vector<std::thread> Threads;
    for (uint64_t W = 0; W < std::min(Jobs, End - Begin); ++W)
      Threads.emplace_back(Job);
    for (std::thread &T : Threads)
      T.join();

    // Barrier: a faulted job thread can leave indices of this epoch
    // unrun. Run them inline before the next epoch's weights are built;
    // an index that *still* throws is committed as a faulted placeholder
    // so the campaign nevertheless completes.
    for (uint64_t I = Begin; I < End; ++I) {
      if (Completed[I])
        continue;
      if (Stopping())
        break;
      if (!RunCommit(I)) {
        IndexRecord Placeholder;
        Placeholder.Faulted = 1;
        mergeIndex(Report, Placeholder);
        J.record(I, Placeholder);
        Completed[I] = 1;
      }
    }
  }
  Report.DeadlineHit = DeadlineHit.load(std::memory_order_relaxed);
  Report.Cancelled = CancelledNow();

  std::sort(Report.Failures.begin(), Report.Failures.end(),
            [](const FuzzFailure &A, const FuzzFailure &B) {
              return std::tie(A.ProgramIndex, A.Property) <
                     std::tie(B.ProgramIndex, B.Property);
            });
  Report.ElapsedMs = ElapsedMs();
  return Report;
}
