//===- tests/IntegrationTest.cpp - Full-pipeline tests ------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests: workload -> traces -> oracle -> detector -> score,
/// plus sweep-harness behavior and the headline qualitative results the
/// paper reports (skip=1 beats fixed intervals; a perfect detector scores
/// 1.0; anchored scoring helps the adaptive policy).
///
//===----------------------------------------------------------------------===//

#include "core/DetectorRunner.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"
#include "metrics/Scoring.h"

#include <gtest/gtest.h>

using namespace opd;

namespace {

/// Shared small-scale benchmark set (built once; executing all workloads
/// per test would dominate the suite's runtime).
const std::vector<BenchmarkData> &smallBenchmarks() {
  static const std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks({"jess", "db", "jlex"}, {1000, 10000}, /*Scale=*/0.3);
  return Benchmarks;
}

} // namespace

TEST(IntegrationTest, PrepareBenchmarksBuildsEverything) {
  const std::vector<BenchmarkData> &Benchmarks = smallBenchmarks();
  ASSERT_EQ(Benchmarks.size(), 3u);
  for (const BenchmarkData &B : Benchmarks) {
    EXPECT_GT(B.Trace.size(), 0u);
    EXPECT_GT(B.CallLoop.size(), 0u);
    ASSERT_EQ(B.Baselines.size(), 2u);
    EXPECT_EQ(B.Baselines[0].totalElements(), B.Trace.size());
    EXPECT_EQ(B.mplIndex(10000), 1u);
  }
}

TEST(IntegrationTest, DetectorBeatsTrivialBaselines) {
  // A reasonable detector should outscore both the always-T and always-P
  // detectors on phase-rich workloads.
  const BenchmarkData &B = smallBenchmarks()[0]; // jess
  const BaselineSolution &Oracle = B.Baselines[1]; // MPL 10K

  DetectorConfig C;
  C.Window.CWSize = 5000;
  C.Window.TWSize = 5000;
  C.Window.TWPolicy = TWPolicyKind::Adaptive;
  C.Model = ModelKind::UnweightedSet;
  C.TheAnalyzer = AnalyzerKind::Threshold;
  C.AnalyzerParam = 0.6;
  std::unique_ptr<PhaseDetector> D = makeDetector(C, B.Trace.numSites());
  DetectorRun Run = runDetector(*D, B.Trace);
  AccuracyScore S = scoreDetection(Run.States, Oracle.states());

  StateSequence AllT = StateSequence::fromPhases({}, B.Trace.size());
  StateSequence AllP =
      StateSequence::fromPhases({{0, B.Trace.size()}}, B.Trace.size());
  AccuracyScore ST = scoreDetection(AllT, Oracle.states());
  AccuracyScore SP = scoreDetection(AllP, Oracle.states());
  EXPECT_GT(S.Score, ST.Score);
  EXPECT_GT(S.Score, SP.Score);
}

TEST(IntegrationTest, OracleFedBackScoresPerfectly) {
  for (const BenchmarkData &B : smallBenchmarks()) {
    for (const BaselineSolution &Oracle : B.Baselines) {
      AccuracyScore S =
          scoreDetection(Oracle.states(), Oracle.states());
      EXPECT_DOUBLE_EQ(S.Score, 1.0) << B.Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Sweep harness
//===----------------------------------------------------------------------===//

TEST(SweepTest, EnumerateCountsMatchCrossProduct) {
  SweepSpec Spec;
  Spec.CWSizes = {500, 1000};
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6},
                    {AnalyzerKind::Average, 0.05}};
  Spec.TWPolicies = {TWPolicyKind::Constant, TWPolicyKind::Adaptive};
  Spec.IncludeFixedInterval = true;
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  // 2 CW x 2 models x 2 analyzers x (2 policies + fixed interval) = 24.
  EXPECT_EQ(Configs.size(), 24u);
  unsigned FixedCount = 0;
  for (const DetectorConfig &C : Configs)
    FixedCount += C.isFixedInterval() ? 1 : 0;
  EXPECT_EQ(FixedCount, 8u);
}

TEST(SweepTest, AnchorAndResizeMultiplyEveryPolicy) {
  SweepSpec Spec;
  Spec.CWSizes = {500};
  Spec.Models = {ModelKind::UnweightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  // 2 anchors x 2 resizes x 2 policies = 8: the Constant points repeat
  // per anchor and resize, and pruning merges them (ConfigCanon).
  EXPECT_EQ(Configs.size(), 8u);
}

TEST(SweepTest, RunSweepScoresEveryConfigAgainstEveryMPL) {
  const BenchmarkData &B = smallBenchmarks()[1]; // db
  SweepSpec Spec;
  Spec.CWSizes = {500, 2000};
  Spec.Models = {ModelKind::UnweightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6},
                    {AnalyzerKind::Average, 0.1}};
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  SweepOptions Options;
  Options.ScoreAnchored = true;
  std::vector<RunScores> Runs =
      runSweep(B.Trace, B.Baselines, Configs, Options);
  ASSERT_EQ(Runs.size(), Configs.size());
  for (const RunScores &R : Runs) {
    ASSERT_EQ(R.PerMPL.size(), 2u);
    ASSERT_EQ(R.AnchoredPerMPL.size(), 2u);
    for (const AccuracyScore &S : R.PerMPL) {
      EXPECT_GE(S.Score, 0.0);
      EXPECT_LE(S.Score, 1.0);
    }
  }
}

TEST(SweepTest, BestScoreRespectsFilter) {
  const BenchmarkData &B = smallBenchmarks()[2]; // jlex
  SweepSpec Spec;
  Spec.CWSizes = {500};
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6}};
  std::vector<RunScores> Runs =
      runSweep(B.Trace, B.Baselines, enumerateCrossProduct(Spec), {});
  double BestAll =
      bestScore(Runs, 0, [](const DetectorConfig &) { return true; });
  double BestWeighted = bestScore(Runs, 0, [](const DetectorConfig &C) {
    return C.Model == ModelKind::WeightedSet;
  });
  EXPECT_GE(BestAll, BestWeighted);
  double BestNone =
      bestScore(Runs, 0, [](const DetectorConfig &) { return false; });
  EXPECT_DOUBLE_EQ(BestNone, -1.0);
}

TEST(SweepTest, SkipOneBeatsFixedIntervalOnAverage) {
  // The paper's headline window-policy result, checked on one benchmark
  // at small scale: skipFactor=1 detectors achieve a higher best score
  // than fixed-interval detectors (skip == CW size).
  const BenchmarkData &B = smallBenchmarks()[0]; // jess
  SweepSpec Spec;
  Spec.CWSizes = {500, 2000};
  Spec.Models = {ModelKind::UnweightedSet};
  Spec.Analyzers = paperAnalyzers();
  Spec.IncludeFixedInterval = true;
  std::vector<RunScores> Runs =
      runSweep(B.Trace, B.Baselines, enumerateCrossProduct(Spec), {});
  double BestSkip1 = bestScore(Runs, 0, [](const DetectorConfig &C) {
    return C.Window.SkipFactor == 1;
  });
  double BestFixed = bestScore(Runs, 0, [](const DetectorConfig &C) {
    return C.isFixedInterval();
  });
  EXPECT_GT(BestSkip1, BestFixed);
}

TEST(IntegrationTest, AnchoredScoringHelpsAdaptivePolicy) {
  // Figure 8's mechanism: anchor-corrected starts should not hurt, and
  // typically improve, the adaptive detector's score.
  const BenchmarkData &B = smallBenchmarks()[2]; // jlex
  SweepSpec Spec;
  Spec.CWSizes = {2000};
  Spec.TWPolicies = {TWPolicyKind::Adaptive};
  Spec.Models = {ModelKind::UnweightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6}};
  SweepOptions Options;
  Options.ScoreAnchored = true;
  std::vector<RunScores> Runs =
      runSweep(B.Trace, B.Baselines, enumerateCrossProduct(Spec), Options);
  ASSERT_EQ(Runs.size(), 1u);
  EXPECT_GE(Runs[0].AnchoredPerMPL[1].Score + 0.02,
            Runs[0].PerMPL[1].Score);
}

TEST(IntegrationTest, GoldenStabilityJess) {
  // Guards against accidental nondeterminism anywhere in the pipeline:
  // same workload, seed, and config must reproduce identical scores.
  const BenchmarkData &B = smallBenchmarks()[0];
  DetectorConfig C;
  C.Window.CWSize = 500;
  C.Window.TWSize = 500;
  C.Window.TWPolicy = TWPolicyKind::Adaptive;
  C.Model = ModelKind::UnweightedSet;
  C.TheAnalyzer = AnalyzerKind::Threshold;
  C.AnalyzerParam = 0.6;
  std::unique_ptr<PhaseDetector> D1 = makeDetector(C, B.Trace.numSites());
  std::unique_ptr<PhaseDetector> D2 = makeDetector(C, B.Trace.numSites());
  DetectorRun R1 = runDetector(*D1, B.Trace);
  DetectorRun R2 = runDetector(*D2, B.Trace);
  AccuracyScore S1 = scoreDetection(R1.States, B.Baselines[0].states());
  AccuracyScore S2 = scoreDetection(R2.States, B.Baselines[0].states());
  EXPECT_DOUBLE_EQ(S1.Score, S2.Score);
  EXPECT_EQ(R1.DetectedPhases.size(), R2.DetectedPhases.size());
}
