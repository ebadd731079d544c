//===- tests/CoreDetectorTest.cpp - Analyzer/detector/runner tests ------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"
#include "core/RelatedWork.h"
#include "support/Random.h"
#include "trace/BranchTrace.h"

#include <gtest/gtest.h>

#include <limits>

using namespace opd;

namespace {

/// Builds a trace of `Blocks` alternating vocabularies: block k emits
/// `BlockLen` elements drawn from sites [k%2 * SitesPerBlock, ...). Two
/// distinct vocabularies produce crisp phase transitions.
BranchTrace makeAlternatingTrace(unsigned Blocks, unsigned BlockLen,
                                 unsigned SitesPerBlock, uint64_t Seed) {
  BranchTrace Trace;
  // Pre-intern all sites so indices are stable.
  for (unsigned S = 0; S != 2 * SitesPerBlock; ++S)
    Trace.internSite(ProfileElement(0, S, true));
  Xoshiro256 Rng(Seed);
  for (unsigned B = 0; B != Blocks; ++B) {
    unsigned Base = (B % 2) * SitesPerBlock;
    for (unsigned I = 0; I != BlockLen; ++I)
      Trace.appendIndex(Base + static_cast<SiteIndex>(
                                   Rng.nextBelow(SitesPerBlock)));
  }
  return Trace;
}

DetectorConfig makeConfig(uint32_t CW, TWPolicyKind Policy,
                          ModelKind Model = ModelKind::UnweightedSet,
                          AnalyzerKind Analyzer = AnalyzerKind::Threshold,
                          double Param = 0.6, uint32_t Skip = 1) {
  DetectorConfig C;
  C.Window.CWSize = CW;
  C.Window.TWSize = CW;
  C.Window.SkipFactor = Skip;
  C.Window.TWPolicy = Policy;
  C.Model = Model;
  C.TheAnalyzer = Analyzer;
  C.AnalyzerParam = Param;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Analyzers
//===----------------------------------------------------------------------===//

TEST(ThresholdAnalyzerTest, BoundaryIsInclusive) {
  ThresholdAnalyzer A(0.6);
  EXPECT_EQ(A.processValue(0.6), PhaseState::InPhase);
  EXPECT_EQ(A.processValue(0.59999), PhaseState::Transition);
  EXPECT_EQ(A.processValue(1.0), PhaseState::InPhase);
  EXPECT_EQ(A.processValue(0.0), PhaseState::Transition);
}

TEST(ThresholdAnalyzerTest, StatelessAcrossCalls) {
  ThresholdAnalyzer A(0.5);
  A.processValue(0.9);
  A.updateStats(0.9);
  A.resetStats();
  EXPECT_EQ(A.processValue(0.4), PhaseState::Transition);
}

TEST(AverageAnalyzerTest, OptimisticEntryWithEmptyStats) {
  AverageAnalyzer A(0.05);
  // No accumulated statistics: any value enters a phase.
  EXPECT_EQ(A.processValue(0.1), PhaseState::InPhase);
}

TEST(AverageAnalyzerTest, DropBelowAverageEndsPhase) {
  AverageAnalyzer A(0.05);
  A.resetStats();
  for (double V : {0.9, 0.9, 0.9, 0.88})
    A.updateStats(V);
  // Mean = 0.895, threshold = 0.845: 0.84 drops out, 0.85 stays in.
  EXPECT_EQ(A.processValue(0.84), PhaseState::Transition);
  EXPECT_EQ(A.processValue(0.85), PhaseState::InPhase);
}

TEST(AverageAnalyzerTest, PaperExample) {
  // "if the running average ... is 0.88 and the delta parameter is 0.02,
  // the analyzer reports a P state for values of 0.86 or higher."
  AverageAnalyzer A(0.02);
  A.updateStats(0.88);
  EXPECT_EQ(A.processValue(0.86), PhaseState::InPhase);
  EXPECT_EQ(A.processValue(0.859), PhaseState::Transition);
}

TEST(AverageAnalyzerTest, ResetStatsForgetsOldPhase) {
  AverageAnalyzer A(0.01);
  A.updateStats(0.95);
  EXPECT_EQ(A.processValue(0.5), PhaseState::Transition);
  A.resetStats();
  EXPECT_EQ(A.processValue(0.5), PhaseState::InPhase); // optimistic again
}

TEST(AverageAnalyzerTest, EntryThresholdExtensionGatesEntry) {
  AverageAnalyzer A(0.05, /*EntryThreshold=*/0.7);
  EXPECT_EQ(A.processValue(0.6), PhaseState::Transition);
  EXPECT_EQ(A.processValue(0.75), PhaseState::InPhase);
}

TEST(AnalyzerFactoryTest, CreatesAndDescribes) {
  std::unique_ptr<Analyzer> T = makeAnalyzer(AnalyzerKind::Threshold, 0.7);
  std::unique_ptr<Analyzer> A = makeAnalyzer(AnalyzerKind::Average, 0.1);
  EXPECT_NE(T->describe().find("threshold"), std::string::npos);
  EXPECT_NE(A->describe().find("average"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// PhaseDetector state machine
//===----------------------------------------------------------------------===//

TEST(PhaseDetectorTest, TransitionUntilWindowsFull) {
  DetectorConfig C = makeConfig(10, TWPolicyKind::Constant);
  std::unique_ptr<PhaseDetector> D = makeDetector(C, 4);
  SiteIndex S = 0;
  // First CW+TW = 20 elements cannot produce P.
  for (int I = 0; I < 19; ++I)
    EXPECT_EQ(D->processBatch(&S, 1), PhaseState::Transition);
  // From the 20th on, a uniform stream is perfectly similar.
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(D->processBatch(&S, 1), PhaseState::InPhase);
}

TEST(PhaseDetectorTest, VocabularyShiftEndsPhase) {
  DetectorConfig C = makeConfig(8, TWPolicyKind::Constant);
  std::unique_ptr<PhaseDetector> D = makeDetector(C, 2);
  SiteIndex A = 0, B = 1;
  bool SawInPhase = false, SawDrop = false;
  for (int I = 0; I < 60; ++I)
    SawInPhase |= D->processBatch(&A, 1) == PhaseState::InPhase;
  EXPECT_TRUE(SawInPhase);
  for (int I = 0; I < 20; ++I)
    SawDrop |= D->processBatch(&B, 1) == PhaseState::Transition;
  EXPECT_TRUE(SawDrop);
}

TEST(PhaseDetectorTest, ReusableAfterReset) {
  DetectorConfig C = makeConfig(6, TWPolicyKind::Adaptive);
  std::unique_ptr<PhaseDetector> D = makeDetector(C, 2);
  SiteIndex S = 0;
  for (int I = 0; I < 40; ++I)
    D->processBatch(&S, 1);
  D->reset();
  EXPECT_EQ(D->state(), PhaseState::Transition);
  // Same fill behavior as a fresh detector.
  for (int I = 0; I < 11; ++I)
    EXPECT_EQ(D->processBatch(&S, 1), PhaseState::Transition);
}

TEST(PhaseDetectorTest, DescribeMentionsEveryPolicy) {
  DetectorConfig C = makeConfig(16, TWPolicyKind::Adaptive,
                                ModelKind::WeightedSet,
                                AnalyzerKind::Average, 0.05);
  std::unique_ptr<PhaseDetector> D = makeDetector(C, 2);
  std::string Desc = D->describe();
  EXPECT_NE(Desc.find("weighted"), std::string::npos);
  EXPECT_NE(Desc.find("adaptive"), std::string::npos);
  EXPECT_NE(Desc.find("cw=16"), std::string::npos);
  EXPECT_NE(Desc.find("average"), std::string::npos);
}

TEST(DetectorConfigTest, FixedIntervalPredicate) {
  DetectorConfig C = makeConfig(100, TWPolicyKind::Constant,
                                ModelKind::UnweightedSet,
                                AnalyzerKind::Threshold, 0.5,
                                /*Skip=*/100);
  EXPECT_TRUE(C.isFixedInterval());
  C.Window.SkipFactor = 1;
  EXPECT_FALSE(C.isFixedInterval());
  C.Window.SkipFactor = 100;
  C.Window.TWPolicy = TWPolicyKind::Adaptive;
  EXPECT_FALSE(C.isFixedInterval());
}

TEST(DetectorConfigTest, ValidateConfigNamesTheFirstFieldAtFault) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const uint32_t Max = std::numeric_limits<uint32_t>::max();
  auto Check = [](uint32_t CW, uint32_t TW, uint32_t Skip, AnalyzerKind A,
                  double Param, ConfigLimits Limits = {}) {
    DetectorConfig C = makeConfig(CW, TWPolicyKind::Constant,
                                  ModelKind::UnweightedSet, A, Param, Skip);
    C.Window.TWSize = TW;
    return validateConfig(C, Limits);
  };
  const AnalyzerKind T = AnalyzerKind::Threshold;
  const AnalyzerKind H = AnalyzerKind::Hysteresis;

  EXPECT_EQ(Check(0, 1, 1, T, 0.5),
            "current-window size 0 outside [1, 4294967295]");
  EXPECT_EQ(Check(1, 0, 1, T, 0.5),
            "trailing-window size 0 outside [1, 4294967295]");
  EXPECT_EQ(Check(1, 1, 0, T, 0.5), "skip factor 0 outside [1, 4294967295]");
  EXPECT_EQ(Check(1, 1, 1, T, Inf), "analyzer parameter inf is not finite");
  EXPECT_EQ(Check(1, 1, 1, H, NaN), "analyzer parameter nan is not finite");
  EXPECT_EQ(Check(1, 1, 1, H, -0.5),
            "hysteresis enter threshold -0.5 is negative");
  EXPECT_EQ(Check(1, 1, 0, T, NaN), "skip factor 0 outside [1, 4294967295]");

  // Legal: every uint32_t size by default, degenerate but constructible
  // thresholds, and a hysteresis enter threshold of zero of either sign.
  EXPECT_EQ(Check(Max, Max, Max, T, -1.0), "");
  EXPECT_EQ(Check(1, 1, 1, T, 2.0), "");
  EXPECT_EQ(Check(1, 1, 1, H, 0.0), "");
  EXPECT_EQ(Check(1, 1, 1, H, -0.0), "");

  // Limits bound the sizes inclusively.
  ConfigLimits Limits{/*MaxWindow=*/1000, /*MaxSkip=*/10};
  EXPECT_EQ(Check(1000, 1000, 10, T, 0.5, Limits), "");
  EXPECT_EQ(Check(1000, 1001, 10, T, 0.5, Limits),
            "trailing-window size 1001 outside [1, 1000]");
  EXPECT_EQ(Check(1000, 1000, 11, T, 0.5, Limits),
            "skip factor 11 outside [1, 10]");
}

//===----------------------------------------------------------------------===//
// DetectorRunner
//===----------------------------------------------------------------------===//

TEST(DetectorRunnerTest, StatesCoverWholeTrace) {
  BranchTrace Trace = makeAlternatingTrace(6, 500, 5, 1);
  for (uint32_t Skip : {1u, 3u, 7u, 100u}) {
    DetectorConfig C = makeConfig(50, TWPolicyKind::Constant,
                                  ModelKind::UnweightedSet,
                                  AnalyzerKind::Threshold, 0.6, Skip);
    std::unique_ptr<PhaseDetector> D = makeDetector(C, Trace.numSites());
    DetectorRun Run = runDetector(*D, Trace);
    EXPECT_EQ(Run.States.size(), Trace.size()) << "skip=" << Skip;
  }
}

TEST(DetectorRunnerTest, DetectsAlternatingPhases) {
  BranchTrace Trace = makeAlternatingTrace(6, 800, 5, 2);
  DetectorConfig C = makeConfig(60, TWPolicyKind::Adaptive);
  std::unique_ptr<PhaseDetector> D = makeDetector(C, Trace.numSites());
  DetectorRun Run = runDetector(*D, Trace);
  // Six vocabulary blocks should yield roughly six detected phases.
  EXPECT_GE(Run.DetectedPhases.size(), 4u);
  EXPECT_LE(Run.DetectedPhases.size(), 9u);
  // Most of the trace is stable.
  EXPECT_GT(Run.States.numInPhase(), Trace.size() / 2);
}

TEST(DetectorRunnerTest, PhasesAreSortedAndDisjoint) {
  BranchTrace Trace = makeAlternatingTrace(8, 300, 4, 3);
  DetectorConfig C = makeConfig(40, TWPolicyKind::Adaptive,
                                ModelKind::WeightedSet,
                                AnalyzerKind::Average, 0.1);
  std::unique_ptr<PhaseDetector> D = makeDetector(C, Trace.numSites());
  DetectorRun Run = runDetector(*D, Trace);
  for (const std::vector<PhaseInterval> *Phases :
       {&Run.DetectedPhases, &Run.AnchoredPhases}) {
    uint64_t PrevEnd = 0;
    for (const PhaseInterval &P : *Phases) {
      EXPECT_LE(PrevEnd, P.Begin);
      EXPECT_LT(P.Begin, P.End);
      PrevEnd = P.End;
    }
  }
}

TEST(DetectorRunnerTest, AnchoredStartsNeverAfterDetectedStarts) {
  BranchTrace Trace = makeAlternatingTrace(6, 500, 5, 4);
  DetectorConfig C = makeConfig(50, TWPolicyKind::Adaptive);
  std::unique_ptr<PhaseDetector> D = makeDetector(C, Trace.numSites());
  DetectorRun Run = runDetector(*D, Trace);
  ASSERT_EQ(Run.AnchoredPhases.size(), Run.DetectedPhases.size());
  for (size_t I = 0; I != Run.DetectedPhases.size(); ++I) {
    EXPECT_LE(Run.AnchoredPhases[I].Begin, Run.DetectedPhases[I].Begin);
    EXPECT_EQ(Run.AnchoredPhases[I].End, Run.DetectedPhases[I].End);
  }
}

TEST(DetectorRunnerTest, AnchoringRecoversLatePhaseStart) {
  // The detector flags P only after the windows fill; the anchored start
  // should land near the true vocabulary change, well before the
  // detected start.
  BranchTrace Trace = makeAlternatingTrace(2, 2000, 5, 5);
  DetectorConfig C = makeConfig(100, TWPolicyKind::Adaptive);
  std::unique_ptr<PhaseDetector> D = makeDetector(C, Trace.numSites());
  DetectorRun Run = runDetector(*D, Trace);
  ASSERT_FALSE(Run.DetectedPhases.empty());
  // Second block starts at 2000. Find the detected phase starting after
  // that and check its anchored start is earlier (closer to 2000).
  for (size_t I = 0; I != Run.DetectedPhases.size(); ++I) {
    if (Run.DetectedPhases[I].Begin > 2000 &&
        Run.DetectedPhases[I].Begin < 2400) {
      EXPECT_LT(Run.AnchoredPhases[I].Begin, Run.DetectedPhases[I].Begin);
      EXPECT_GE(Run.AnchoredPhases[I].Begin, 1990u);
      return;
    }
  }
  // The phase covering the second block must exist.
  FAIL() << "no detected phase near the second block boundary";
}

TEST(DetectorRunnerTest, SkipFactorBatchesShareState) {
  BranchTrace Trace = makeAlternatingTrace(4, 400, 4, 6);
  DetectorConfig C = makeConfig(40, TWPolicyKind::Constant,
                                ModelKind::UnweightedSet,
                                AnalyzerKind::Threshold, 0.6, /*Skip=*/40);
  std::unique_ptr<PhaseDetector> D = makeDetector(C, Trace.numSites());
  DetectorRun Run = runDetector(*D, Trace);
  // One state per element, but states only change at batch boundaries.
  for (const StateRun &R : Run.States.runs())
    EXPECT_EQ(R.Begin % 40, 0u);
}

//===----------------------------------------------------------------------===//
// Related-work detectors
//===----------------------------------------------------------------------===//

TEST(LuDetectorTest, StableStreamStaysInPhase) {
  LuDetector::Options Opts;
  Opts.SampleSize = 64;
  LuDetector D(Opts);
  BranchTrace Trace = makeAlternatingTrace(1, 64 * 30, 4, 7);
  DetectorRun Run = runDetector(D, Trace);
  // After warmup the stable stream is one long phase.
  EXPECT_GT(Run.States.numInPhase(), Trace.size() / 2);
  EXPECT_LE(Run.DetectedPhases.size(), 2u);
}

TEST(LuDetectorTest, MeanShiftEndsPhase) {
  LuDetector::Options Opts;
  Opts.SampleSize = 64;
  LuDetector D(Opts);
  // Two blocks over disjoint site ranges: the mean site index jumps.
  BranchTrace Trace = makeAlternatingTrace(2, 64 * 20, 8, 8);
  DetectorRun Run = runDetector(D, Trace);
  EXPECT_GE(Run.DetectedPhases.size(), 2u);
}

TEST(DasDetectorTest, StableStreamStaysInPhase) {
  DasDetector::Options Opts;
  Opts.SampleSize = 64;
  Opts.Threshold = 0.8;
  BranchTrace Trace = makeAlternatingTrace(1, 64 * 30, 4, 9);
  DasDetector D(Opts, Trace.numSites());
  DetectorRun Run = runDetector(D, Trace);
  EXPECT_GT(Run.States.numInPhase(), Trace.size() / 2);
}

TEST(DasDetectorTest, VocabularyShiftEndsPhase) {
  DasDetector::Options Opts;
  Opts.SampleSize = 64;
  Opts.Threshold = 0.8;
  BranchTrace Trace = makeAlternatingTrace(4, 64 * 10, 6, 10);
  DasDetector D(Opts, Trace.numSites());
  DetectorRun Run = runDetector(D, Trace);
  EXPECT_GE(Run.DetectedPhases.size(), 2u);
}

TEST(RelatedWorkTest, DescribeIsInformative) {
  LuDetector Lu({});
  DasDetector Das({}, 8);
  EXPECT_NE(Lu.describe().find("lu"), std::string::npos);
  EXPECT_NE(Das.describe().find("pearson"), std::string::npos);
}
