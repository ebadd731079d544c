//===- tests/ObserverTest.cpp - Observability layer tests ---------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the DetectorObserver interface, the RunTrace recorder, and
/// the TraceExport serialization: (a) the callback sequence of an
/// observed run obeys the state machine documented in
/// docs/OBSERVABILITY.md, (b) JSON and CSV exports round-trip a RunTrace
/// exactly, and (c) attaching an observer leaves the DetectorRun output
/// bit-for-bit unchanged.
///
//===----------------------------------------------------------------------===//

#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"
#include "obs/TraceExport.h"
#include "support/Random.h"
#include "trace/BranchTrace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>

using namespace opd;

namespace {

/// Temp-file path helper; removes the file on destruction.
class TempFile {
  std::string Path;

public:
  explicit TempFile(const std::string &Suffix) {
    Path = testing::TempDir() + "opd_observer_test_" +
           std::to_string(::getpid()) + "_" + Suffix;
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }
};

/// Phase-rich trace: stable vocabulary blocks separated by noise bursts.
BranchTrace makePhasedTrace(unsigned Phases, unsigned PhaseLen,
                            unsigned NoiseLen, uint64_t Seed) {
  const unsigned StableSites = 16;
  const unsigned NoiseSites = 256;
  BranchTrace Trace;
  for (unsigned S = 0; S != StableSites + NoiseSites; ++S)
    Trace.internSite(ProfileElement(0, S, true));
  Xoshiro256 Rng(Seed);
  for (unsigned P = 0; P != Phases; ++P) {
    for (unsigned I = 0; I != PhaseLen; ++I)
      Trace.appendIndex(static_cast<SiteIndex>(Rng.nextBelow(StableSites)));
    for (unsigned I = 0; I != NoiseLen; ++I)
      Trace.appendIndex(static_cast<SiteIndex>(
          StableSites + Rng.nextBelow(NoiseSites)));
  }
  return Trace;
}

DetectorConfig makeConfig(uint32_t CW, TWPolicyKind Policy,
                          uint32_t Skip = 1) {
  DetectorConfig C;
  C.Window.CWSize = CW;
  C.Window.TWSize = CW;
  C.Window.SkipFactor = Skip;
  C.Window.TWPolicy = Policy;
  C.Model = ModelKind::UnweightedSet;
  C.TheAnalyzer = AnalyzerKind::Threshold;
  C.AnalyzerParam = 0.6;
  return C;
}

/// Runs \p Config over \p Trace with a RunTrace attached.
RunTrace observeRun(const BranchTrace &Trace, const DetectorConfig &Config,
                    DetectorRun *RunOut = nullptr) {
  std::unique_ptr<PhaseDetector> Detector =
      makeDetector(Config, Trace.numSites());
  RunTrace Observed;
  Observed.setDetectorName(Detector->describe());
  DetectorRun Run = runDetector(*Detector, Trace, &Observed);
  if (RunOut)
    *RunOut = std::move(Run);
  return Observed;
}

} // namespace

//===----------------------------------------------------------------------===//
// (a) Callback sequences follow the documented state machine
//===----------------------------------------------------------------------===//

TEST(ObserverSequenceTest, EventStateMachine) {
  BranchTrace Trace = makePhasedTrace(3, 2000, 600, 7);
  DetectorRun Run;
  RunTrace Observed =
      observeRun(Trace, makeConfig(128, TWPolicyKind::Adaptive), &Run);
  const std::vector<TraceEvent> &Events = Observed.events();
  ASSERT_GE(Events.size(), 4u);

  // The timeline is bracketed by exactly one RunBegin / RunEnd pair.
  EXPECT_EQ(Events.front().Kind, TraceEventKind::RunBegin);
  EXPECT_EQ(Events.front().A, Trace.size());
  EXPECT_EQ(Events.front().B, 1u);
  EXPECT_EQ(Events.back().Kind, TraceEventKind::RunEnd);
  EXPECT_EQ(Events.back().Offset, Trace.size());

  bool PhaseOpen = false;
  bool SawAnchorSinceEval = false;
  bool SawResizeSinceAnchor = false;
  uint64_t LastEvalOffset = 0;
  for (size_t I = 1; I + 1 != Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    switch (E.Kind) {
    case TraceEventKind::RunBegin:
    case TraceEventKind::RunEnd:
      FAIL() << "run bracket event in the middle of the timeline";
      break;
    case TraceEventKind::Evaluation:
      // Evaluation offsets advance monotonically through the stream,
      // and the analyzer's confidence is a fraction.
      EXPECT_GE(E.Offset, LastEvalOffset);
      EXPECT_GE(E.Confidence, 0.0);
      EXPECT_LE(E.Confidence, 1.0);
      LastEvalOffset = E.Offset;
      SawAnchorSinceEval = false;
      SawResizeSinceAnchor = false;
      break;
    case TraceEventKind::Anchor:
      // Anchors happen on a T->P flip, after its evaluation, at the
      // same stream offset, estimating a start at or before it.
      EXPECT_FALSE(PhaseOpen);
      EXPECT_EQ(E.Offset, LastEvalOffset);
      EXPECT_LE(E.A, E.Offset);
      SawAnchorSinceEval = true;
      break;
    case TraceEventKind::WindowResize:
      // Adaptive resize directly follows the anchor computation.
      EXPECT_TRUE(SawAnchorSinceEval);
      EXPECT_EQ(E.Offset, LastEvalOffset);
      SawResizeSinceAnchor = true;
      break;
    case TraceEventKind::WindowFlush:
      // Flushes happen while closing an open phase.
      EXPECT_TRUE(PhaseOpen);
      break;
    case TraceEventKind::PhaseBegin:
      // The stream-level open follows the model-level anchor/resize
      // (this config is Adaptive, so both are mandatory).
      EXPECT_FALSE(PhaseOpen);
      EXPECT_TRUE(SawAnchorSinceEval);
      EXPECT_TRUE(SawResizeSinceAnchor);
      PhaseOpen = true;
      break;
    case TraceEventKind::PhaseEnd:
      EXPECT_TRUE(PhaseOpen);
      PhaseOpen = false;
      break;
    }
  }
  EXPECT_FALSE(PhaseOpen);

  // The reconstructed intervals are exactly the detected phases, and a
  // phase-rich trace must actually produce some.
  EXPECT_EQ(Observed.phases(), Run.DetectedPhases);
  EXPECT_GT(Run.DetectedPhases.size(), 0u);

  // Counters agree with the timeline.
  const RunCounters &C = Observed.counters();
  EXPECT_EQ(C.Elements, Trace.size());
  EXPECT_EQ(C.PhasesOpened, Run.DetectedPhases.size());
  EXPECT_EQ(C.PhasesClosed, Run.DetectedPhases.size());
  EXPECT_EQ(C.Anchors, C.PhasesOpened);
  EXPECT_EQ(C.WindowResizes, C.PhasesOpened);
  uint64_t Evals = 0;
  for (const TraceEvent &E : Events)
    Evals += E.Kind == TraceEventKind::Evaluation;
  EXPECT_EQ(C.Evaluations, Evals);
}

TEST(ObserverSequenceTest, ConstantTWEmitsNoResize) {
  BranchTrace Trace = makePhasedTrace(2, 1500, 500, 11);
  RunTrace Observed =
      observeRun(Trace, makeConfig(128, TWPolicyKind::Constant));
  EXPECT_EQ(Observed.counters().WindowResizes, 0u);
  EXPECT_GT(Observed.counters().PhasesOpened, 0u);
  // Anchor estimates are still computed and reported on phase starts.
  EXPECT_EQ(Observed.counters().Anchors,
            Observed.counters().PhasesOpened);
}

TEST(ObserverSequenceTest, SkipFactorBatchSizeReported) {
  BranchTrace Trace = makePhasedTrace(2, 1500, 500, 13);
  RunTrace Observed = observeRun(
      Trace, makeConfig(128, TWPolicyKind::Constant, /*Skip=*/16));
  EXPECT_EQ(Observed.batchSize(), 16u);
  EXPECT_EQ(Observed.traceSize(), Trace.size());
}

TEST(ObserverSequenceTest, CountingObserverMatchesRunTrace) {
  BranchTrace Trace = makePhasedTrace(3, 2000, 600, 7);
  DetectorConfig Config = makeConfig(128, TWPolicyKind::Adaptive);
  RunTrace Observed = observeRun(Trace, Config);

  std::unique_ptr<PhaseDetector> Detector =
      makeDetector(Config, Trace.numSites());
  CountingObserver Counting;
  runDetector(*Detector, Trace, &Counting);
  EXPECT_EQ(Counting.counters(), Observed.counters());
}

//===----------------------------------------------------------------------===//
// (b) JSON / CSV round-trips
//===----------------------------------------------------------------------===//

TEST(TraceExportTest, JSONRoundTrip) {
  BranchTrace Trace = makePhasedTrace(3, 2000, 600, 19);
  RunTrace Observed =
      observeRun(Trace, makeConfig(128, TWPolicyKind::Adaptive));

  TempFile F("trace.json");
  ASSERT_TRUE(writeRunTraceJSON(Observed, F.path()));
  RunTrace Restored;
  IOStatus S = readRunTraceJSON(F.path(), Restored);
  ASSERT_TRUE(S) << S.Message;

  EXPECT_EQ(Restored.events(), Observed.events());
  EXPECT_EQ(Restored.counters(), Observed.counters());
  EXPECT_EQ(Restored.detectorName(), Observed.detectorName());
  EXPECT_EQ(Restored.traceSize(), Observed.traceSize());
  EXPECT_EQ(Restored.batchSize(), Observed.batchSize());
  EXPECT_EQ(Restored.phases(), Observed.phases());
  EXPECT_EQ(Restored.anchoredPhases(), Observed.anchoredPhases());
}

TEST(TraceExportTest, CSVRoundTrip) {
  BranchTrace Trace = makePhasedTrace(2, 1800, 700, 23);
  RunTrace Observed =
      observeRun(Trace, makeConfig(96, TWPolicyKind::Adaptive));

  TempFile F("trace.csv");
  ASSERT_TRUE(writeRunTraceCSV(Observed, F.path()));
  RunTrace Restored;
  IOStatus S = readRunTraceCSV(F.path(), Restored);
  ASSERT_TRUE(S) << S.Message;

  EXPECT_EQ(Restored.events(), Observed.events());
  EXPECT_EQ(Restored.counters(), Observed.counters());
  EXPECT_EQ(Restored.phases(), Observed.phases());
}

TEST(TraceExportTest, RejectsMalformedJSON) {
  TempFile F("bad.json");
  {
    std::FILE *Out = std::fopen(F.path().c_str(), "w");
    ASSERT_NE(Out, nullptr);
    std::fputs("{\"version\": 1, \"events\": [{\"type\": \"bogus\"}]}",
               Out);
    std::fclose(Out);
  }
  RunTrace Restored;
  EXPECT_FALSE(readRunTraceJSON(F.path(), Restored));

  TempFile G("bad.csv");
  {
    std::FILE *Out = std::fopen(G.path().c_str(), "w");
    ASSERT_NE(Out, nullptr);
    std::fputs("not,a,run,trace\n", Out);
    std::fclose(Out);
  }
  EXPECT_FALSE(readRunTraceCSV(G.path(), Restored));
}

//===----------------------------------------------------------------------===//
// (c) Observation does not perturb detection
//===----------------------------------------------------------------------===//

TEST(ObserverTransparencyTest, IdenticalRunsWithAndWithoutObserver) {
  BranchTrace Trace = makePhasedTrace(3, 2000, 600, 31);
  for (TWPolicyKind Policy :
       {TWPolicyKind::Constant, TWPolicyKind::Adaptive}) {
    DetectorConfig Config = makeConfig(128, Policy);
    std::unique_ptr<PhaseDetector> Plain =
        makeDetector(Config, Trace.numSites());
    DetectorRun Bare = runDetector(*Plain, Trace);

    std::unique_ptr<PhaseDetector> Watched =
        makeDetector(Config, Trace.numSites());
    RunTrace Observed;
    DetectorRun Traced = runDetector(*Watched, Trace, &Observed);

    // Identical per-element output, phases, and anchored phases.
    ASSERT_EQ(Bare.States.size(), Traced.States.size());
    for (uint64_t I = 0; I != Bare.States.size(); ++I)
      ASSERT_EQ(Bare.States.at(I), Traced.States.at(I)) << "element " << I;
    EXPECT_EQ(Bare.DetectedPhases, Traced.DetectedPhases);
    EXPECT_EQ(Bare.AnchoredPhases, Traced.AnchoredPhases);

    // The observer is detached after the run.
    EXPECT_EQ(Watched->observer(), nullptr);
  }
}

TEST(ObserverTransparencyTest, ReusingDetectorAfterObservedRun) {
  // An observed run followed by an unobserved run on the same detector
  // instance behaves like two unobserved runs (reset clears everything).
  BranchTrace Trace = makePhasedTrace(2, 1500, 500, 37);
  DetectorConfig Config = makeConfig(128, TWPolicyKind::Adaptive);
  std::unique_ptr<PhaseDetector> Detector =
      makeDetector(Config, Trace.numSites());

  RunTrace Observed;
  DetectorRun First = runDetector(*Detector, Trace, &Observed);
  DetectorRun Second = runDetector(*Detector, Trace);
  EXPECT_EQ(First.DetectedPhases, Second.DetectedPhases);
  EXPECT_EQ(Observed.phases(), First.DetectedPhases);
}
