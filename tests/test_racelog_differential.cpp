//===----------------------------------------------------------------------===//
///
/// \file
/// Differential test: the streaming vector-clock detector against the
/// enumerative §3 happens-before oracle.
///
/// Small .tsl programs (handwritten and generator-produced, across all
/// four generation disciplines) are explored into tracesets; every
/// maximal execution is encoded as a TSRL event log (tests/
/// Differential.h) and scanned by the streaming detector with both
/// engines — the epoch engine and the full-vector-clock oracle. For every
/// single trace the detector must report exactly the races the quadratic
/// HappensBefore matrix defines:
/// the same racy locations and the same first racing event per location,
/// race by race. The suite requires at least 200 generated traces, with
/// both racy and race-free ones represented.
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "racelog/Detect.h"
#include "Differential.h"
#include "support/Rng.h"
#include "trace/Enumerate.h"
#include "verify/ProgramGen.h"

#include <gtest/gtest.h>

using namespace tracesafe;
using namespace tracesafe::racelog;

namespace {

std::vector<ExpectedRace> project(const RaceLogReport &R) {
  std::vector<ExpectedRace> Out;
  for (const RaceRecord &Rec : R.Races)
    Out.push_back({Rec.Addr, Rec.EventIndex});
  return Out;
}

struct DiffTally {
  uint64_t Traces = 0;
  uint64_t RacyTraces = 0;
  uint64_t RaceFreeTraces = 0;
  uint64_t Events = 0;
};

/// Runs one interleaving through both detector engines and asserts
/// race-by-race equality with the HappensBefore ground truth.
void checkInterleaving(const Interleaving &I, DiffTally &Tally) {
  // Tiny blocks so even short traces span several CRC frames.
  DifferentialCase C = makeDifferentialCase(I, /*EventsPerBlock=*/8);
  for (bool Epochs : {true, false}) {
    RaceLogOptions O;
    O.Epochs = Epochs;
    O.MaxRaces = 1 << 20;
    RaceLogReport R = scanRaceLog(C.Log, O);
    ASSERT_TRUE(R.FormatOk);
    ASSERT_FALSE(R.Stats.Truncated);
    EXPECT_EQ(R.Stats.Events, C.Events);
    EXPECT_EQ(project(R), C.Races)
        << (Epochs ? "epoch" : "oracle") << " on trace: " << I.str();
    EXPECT_EQ(R.Stats.RacyLocations, C.Races.size());
  }
  ++Tally.Traces;
  Tally.Events += C.Events;
  (C.Races.empty() ? Tally.RaceFreeTraces : Tally.RacyTraces)++;
}

/// Explores \p P and differentially checks up to \p MaxTraces maximal
/// executions. Returns true when any checked trace was racy.
bool checkProgram(const Program &P, DiffTally &Tally,
                  uint64_t MaxTraces = 48) {
  ExploreLimits EL;
  EL.MaxActions = 12;
  Traceset T = programTraceset(P, defaultDomainFor(P, 2), EL);
  Budget B(BudgetSpec{/*DeadlineMs=*/0, /*MaxVisited=*/2'000'000,
                      /*MaxMemoryBytes=*/0});
  EnumerationLimits L;
  L.Shared = &B;
  uint64_t Seen = 0;
  bool AnyRacy = false;
  uint64_t Before = Tally.RacyTraces;
  forEachMaximalExecution(
      T,
      [&](const Interleaving &I) {
        checkInterleaving(I, Tally);
        return ++Seen < MaxTraces;
      },
      L);
  AnyRacy = Tally.RacyTraces > Before;
  return AnyRacy;
}

TEST(RaceLogDifferential, HandwrittenProgramsMatchTheOracle) {
  DiffTally Tally;
  // Racy: unsynchronised conflicting accesses.
  bool Racy = checkProgram(
      parseOrDie("thread { x := 1; r0 := y; }\n"
                 "thread { y := 1; r1 := x; print r1; }\n"),
      Tally);
  EXPECT_TRUE(Racy);
  // Lock-disciplined: race-free on every trace.
  bool LockRacy = checkProgram(
      parseOrDie("thread { sync m { x := 1; r0 := x; } }\n"
                 "thread { sync m { x := 2; } print 0; }\n"),
      Tally);
  EXPECT_FALSE(LockRacy);
  // Volatile hand-off: the classic message-passing idiom; the data access
  // races only in the interleavings where the flag read misses the write.
  checkProgram(
      parseOrDie(
          "volatile v;\n"
          "thread { x := 1; v := 1; }\n"
          "thread { r0 := v; if (r0 == 1) { r1 := x; } else { r1 := 9; } }\n"),
      Tally);
  EXPECT_GT(Tally.RacyTraces, 0u);
  EXPECT_GT(Tally.RaceFreeTraces, 0u);
}

TEST(RaceLogDifferential, GeneratedProgramsAcrossAllDisciplines) {
  DiffTally Tally;
  constexpr GenDiscipline Disciplines[] = {
      GenDiscipline::Racy, GenDiscipline::LockDiscipline,
      GenDiscipline::VolatileLocations, GenDiscipline::Mixed};
  Rng R(20260809);
  // Keep drawing programs round-robin over the disciplines until the
  // suite has differentially checked at least 200 traces.
  uint64_t Draw = 0;
  while (Tally.Traces < 200 && Draw < 400) {
    GenOptions GO;
    GO.Discipline = Disciplines[Draw % 4];
    GO.Threads = 2 + Draw % 2;
    GO.MaxStmtsPerThread = 4;
    GO.Locations = 2;
    ++Draw;
    checkProgram(generateProgram(R, GO), Tally, /*MaxTraces=*/24);
  }
  EXPECT_GE(Tally.Traces, 200u);
  // The discipline mix must exercise both verdicts, or the equality
  // checks above would be vacuous on one side.
  EXPECT_GT(Tally.RacyTraces, 0u);
  EXPECT_GT(Tally.RaceFreeTraces, 0u);
  RecordProperty("traces", static_cast<int>(Tally.Traces));
  RecordProperty("events", static_cast<int>(Tally.Events));
}

TEST(RaceLogDifferential, TracesetVerdictAgreesWithEnumerativeQuery) {
  // Aggregate cross-check: a traceset has a happens-before race (the
  // enumerative findHappensBeforeRace query) iff some maximal execution's
  // log scans Refuted.
  Rng R(77);
  for (int Prog = 0; Prog < 8; ++Prog) {
    GenOptions GO;
    GO.Discipline =
        Prog % 2 ? GenDiscipline::Racy : GenDiscipline::LockDiscipline;
    GO.MaxStmtsPerThread = 3;
    Program P = generateProgram(R, GO);
    ExploreLimits EL;
    EL.MaxActions = 10;
    Traceset T = programTraceset(P, defaultDomainFor(P, 2), EL);
    RaceReport Ref = findHappensBeforeRace(T);
    ASSERT_FALSE(Ref.Stats.Truncated);
    bool AnyStreamingRace = false;
    forEachMaximalExecution(T, [&](const Interleaving &I) {
      DifferentialCase C = makeDifferentialCase(I);
      if (scanRaceLog(C.Log).verdict() == VerdictKind::Refuted)
        AnyStreamingRace = true;
      return !AnyStreamingRace;
    });
    EXPECT_EQ(Ref.HasRace, AnyStreamingRace) << "program " << Prog;
  }
}

} // namespace
