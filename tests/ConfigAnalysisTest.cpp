//===- tests/ConfigAnalysisTest.cpp - Config-space analyzer tests -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the config-space static analyzer the hard way: every merge
/// rule's claim of output equivalence is checked by brute force — both
/// class members run over real workload traces and their full state
/// sequences must be identical, not merely their scores.
///
//===----------------------------------------------------------------------===//

#include "analysis/ConfigAnalysis.h"
#include "analysis/Lint.h"
#include "core/DetectorRunner.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"
#include "metrics/Scoring.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

using namespace opd;

namespace {

/// Two small workloads at two MPLs; shared across tests.
const std::vector<BenchmarkData> &testBenchmarks() {
  static const std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks({"jess", "jlex"}, {1000, 10000}, /*Scale=*/0.25);
  return Benchmarks;
}

bool sameStates(const StateSequence &A, const StateSequence &B) {
  if (A.size() != B.size() || A.runs().size() != B.runs().size())
    return false;
  for (size_t I = 0; I != A.runs().size(); ++I) {
    const StateRun &RA = A.runs()[I];
    const StateRun &RB = B.runs()[I];
    if (RA.Begin != RB.Begin || RA.Length != RB.Length ||
        RA.State != RB.State)
      return false;
  }
  return true;
}

DetectorRun runConfig(const DetectorConfig &Config, const BranchTrace &Trace) {
  std::unique_ptr<PhaseDetector> Detector =
      makeDetector(Config, Trace.numSites());
  return runDetector(*Detector, Trace);
}

/// Asserts that \p A and \p B produce byte-identical state sequences and
/// identical per-MPL scores on every test benchmark; \p CheckAnchored
/// additionally requires identical anchor-corrected phases.
void expectEquivalent(const DetectorConfig &A, const DetectorConfig &B,
                      bool CheckAnchored) {
  for (const BenchmarkData &Bench : testBenchmarks()) {
    DetectorRun RunA = runConfig(A, Bench.Trace);
    DetectorRun RunB = runConfig(B, Bench.Trace);
    EXPECT_TRUE(sameStates(RunA.States, RunB.States))
        << Bench.Name << ": " << A.describe() << " vs " << B.describe();
    EXPECT_EQ(RunA.DetectedPhases, RunB.DetectedPhases) << Bench.Name;
    if (CheckAnchored) {
      EXPECT_EQ(RunA.AnchoredPhases, RunB.AnchoredPhases) << Bench.Name;
    }
    for (const BaselineSolution &Baseline : Bench.Baselines) {
      AccuracyScore SA = scoreDetection(RunA.States, Baseline.states());
      AccuracyScore SB = scoreDetection(RunB.States, Baseline.states());
      EXPECT_EQ(SA.Score, SB.Score) << Bench.Name;
      EXPECT_EQ(SA.Correlation, SB.Correlation) << Bench.Name;
      EXPECT_EQ(SA.Sensitivity, SB.Sensitivity) << Bench.Name;
      EXPECT_EQ(SA.FalsePositives, SB.FalsePositives) << Bench.Name;
    }
  }
}

DetectorConfig baseConfig() {
  DetectorConfig C;
  C.Window.CWSize = 500;
  C.Window.TWSize = 500;
  C.Window.SkipFactor = 10;
  C.Window.TWPolicy = TWPolicyKind::Constant;
  C.Window.Anchor = AnchorKind::RightmostNoisy;
  C.Window.Resize = ResizeKind::Slide;
  C.Model = ModelKind::UnweightedSet;
  C.TheAnalyzer = AnalyzerKind::Threshold;
  C.AnalyzerParam = 0.6;
  return C;
}

/// A small spec that exercises every merge rule: saturated and
/// unsatisfiable analyzers, both policies, dead anchors/resizes, and the
/// Fixed-Interval duplicate (CW 200 appears in SkipFactors).
SweepSpec degenerateSpec() {
  SweepSpec Spec;
  Spec.CWSizes = {200, 400};
  Spec.SkipFactors = {1, 200};
  Spec.IncludeFixedInterval = true;
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6},
                    {AnalyzerKind::Threshold, 0.0},
                    {AnalyzerKind::Threshold, 1.5},
                    {AnalyzerKind::Average, 1.0},
                    {AnalyzerKind::Hysteresis, 2.0}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  return Spec;
}

std::vector<std::string> diagnosticCodes(const DiagnosticEngine &Diags) {
  std::vector<std::string> Codes;
  for (const Diagnostic &D : Diags.diagnostics())
    Codes.push_back(D.Code);
  return Codes;
}

bool hasCode(const DiagnosticEngine &Diags, const std::string &Code) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Code == Code)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Canonicalizer basics
//===----------------------------------------------------------------------===//

TEST(ConfigCanonTest, NormalConfigUntouched) {
  DetectorConfig C = baseConfig();
  CanonResult Result = canonicalizeConfig(C);
  EXPECT_EQ(Result.Canonical, C);
  EXPECT_TRUE(Result.Applied.empty());
}

TEST(ConfigCanonTest, IdempotentAcrossTheDegenerateSpace) {
  for (bool Anchored : {false, true}) {
    ConfigCanonOptions Options;
    Options.AnchoredScoring = Anchored;
    for (const DetectorConfig &C : enumerateCrossProduct(degenerateSpec())) {
      CanonResult First = canonicalizeConfig(C, Options);
      CanonResult Second = canonicalizeConfig(First.Canonical, Options);
      EXPECT_EQ(Second.Canonical, First.Canonical);
      EXPECT_TRUE(Second.Applied.empty())
          << C.describe() << " -> " << First.Canonical.describe();
    }
  }
}

TEST(ConfigCanonTest, ConfigKeyIsInjectiveOverTheDegenerateSpace) {
  std::vector<DetectorConfig> Configs =
      enumerateCrossProduct(degenerateSpec());
  for (const DetectorConfig &A : Configs)
    for (const DetectorConfig &B : Configs)
      EXPECT_EQ(A == B, configKey(A) == configKey(B));
}

TEST(ConfigCanonTest, RuleNamesAreStable) {
  EXPECT_STREQ(mergeRuleName(MergeRule::DeadResizeConstantTW),
               "dead-resize-constant-tw");
  EXPECT_STREQ(mergeRuleName(MergeRule::SaturatedAnalyzerAlwaysP),
               "saturated-analyzer-always-p");
  EXPECT_STREQ(mergeRuleName(MergeRule::UnsatisfiableAnalyzerAlwaysT),
               "unsatisfiable-analyzer-always-t");
}

TEST(ConfigCanonTest, AnalyzerClassification) {
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Threshold, 0.6),
            AnalyzerRange::Normal);
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Threshold, 0.0),
            AnalyzerRange::AlwaysInPhase);
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Threshold, 1.0),
            AnalyzerRange::Normal);
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Threshold, 1.5),
            AnalyzerRange::AlwaysTransition);
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Average, 1.0),
            AnalyzerRange::AlwaysInPhase);
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Average, 0.2),
            AnalyzerRange::Normal);
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Hysteresis, 0.0),
            AnalyzerRange::AlwaysInPhase);
  // Negative enter thresholds are unconstructible (derived exit would
  // exceed them); classified Normal so no merge is ever claimed.
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Hysteresis, -0.5),
            AnalyzerRange::Normal);
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Hysteresis, 1.5),
            AnalyzerRange::AlwaysTransition);
  EXPECT_EQ(classifyAnalyzer(AnalyzerKind::Hysteresis, 0.7),
            AnalyzerRange::Normal);
}

//===----------------------------------------------------------------------===//
// Brute-force validation of every merge rule
//===----------------------------------------------------------------------===//

TEST(MergeRuleTest, DeadResizeConstantTW) {
  DetectorConfig A = baseConfig();
  DetectorConfig B = A;
  B.Window.Resize = ResizeKind::Move;
  // A Constant TW never resizes; even the anchored output must match.
  expectEquivalent(A, B, /*CheckAnchored=*/true);
  EXPECT_EQ(canonicalizeConfig(A).Canonical, canonicalizeConfig(B).Canonical);
}

TEST(MergeRuleTest, DeadAnchorUnanchored) {
  DetectorConfig A = baseConfig();
  DetectorConfig B = A;
  B.Window.Anchor = AnchorKind::LeftmostNonNoisy;
  // Plain states match; the anchor only moves the anchored starts.
  expectEquivalent(A, B, /*CheckAnchored=*/false);

  ConfigCanonOptions Unanchored;
  Unanchored.AnchoredScoring = false;
  EXPECT_EQ(canonicalizeConfig(A, Unanchored).Canonical,
            canonicalizeConfig(B, Unanchored).Canonical);
  // With anchored scoring observed, the merge must NOT happen.
  EXPECT_NE(canonicalizeConfig(A).Canonical, canonicalizeConfig(B).Canonical);
}

TEST(MergeRuleTest, SaturatedAnalyzerAlwaysP) {
  DetectorConfig A = baseConfig();
  A.TheAnalyzer = AnalyzerKind::Threshold;
  A.AnalyzerParam = 0.0;
  DetectorConfig B = A;
  B.TheAnalyzer = AnalyzerKind::Average;
  B.AnalyzerParam = 1.0;
  DetectorConfig C = A;
  C.TheAnalyzer = AnalyzerKind::Hysteresis;
  C.AnalyzerParam = 0.0;
  expectEquivalent(A, B, /*CheckAnchored=*/true);
  expectEquivalent(A, C, /*CheckAnchored=*/true);
  EXPECT_EQ(canonicalizeConfig(A).Canonical, canonicalizeConfig(B).Canonical);
  EXPECT_EQ(canonicalizeConfig(A).Canonical, canonicalizeConfig(C).Canonical);
}

TEST(MergeRuleTest, DeadModelSaturated) {
  DetectorConfig A = baseConfig();
  A.AnalyzerParam = 0.0;
  DetectorConfig B = A;
  B.Model = ModelKind::WeightedSet;
  DetectorConfig C = A;
  C.Model = ModelKind::ManhattanBBV;
  expectEquivalent(A, B, /*CheckAnchored=*/true);
  expectEquivalent(A, C, /*CheckAnchored=*/true);
  EXPECT_EQ(canonicalizeConfig(A).Canonical, canonicalizeConfig(B).Canonical);
}

TEST(MergeRuleTest, DeadPolicySaturated) {
  DetectorConfig A = baseConfig();
  A.AnalyzerParam = 0.0;
  DetectorConfig B = A;
  B.Window.TWPolicy = TWPolicyKind::Adaptive;
  // The single phase start anchors before any resize, so even the
  // anchored output is policy-independent under an always-P analyzer.
  expectEquivalent(A, B, /*CheckAnchored=*/true);
  EXPECT_EQ(canonicalizeConfig(A).Canonical, canonicalizeConfig(B).Canonical);

  DetectorConfig C = B;
  C.Window.Resize = ResizeKind::Move;
  expectEquivalent(A, C, /*CheckAnchored=*/true);
}

TEST(MergeRuleTest, DeadWindowSplitSaturated) {
  DetectorConfig A = baseConfig();
  A.AnalyzerParam = 0.0;
  A.Window.CWSize = 600;
  A.Window.TWSize = 400;
  A.Window.SkipFactor = 7;
  DetectorConfig B = A;
  B.Window.CWSize = 999;
  B.Window.TWSize = 1;
  // Only CW+TW gates the flip; the anchored starts DO depend on the
  // split, so this merge exists only for unanchored scoring.
  expectEquivalent(A, B, /*CheckAnchored=*/false);

  ConfigCanonOptions Unanchored;
  Unanchored.AnchoredScoring = false;
  EXPECT_EQ(canonicalizeConfig(A, Unanchored).Canonical,
            canonicalizeConfig(B, Unanchored).Canonical);
  EXPECT_NE(canonicalizeConfig(A).Canonical, canonicalizeConfig(B).Canonical);
}

TEST(MergeRuleTest, UnsatisfiableAnalyzerAlwaysT) {
  DetectorConfig A = baseConfig();
  A.AnalyzerParam = 1.5;
  DetectorConfig B = baseConfig();
  B.TheAnalyzer = AnalyzerKind::Hysteresis;
  B.AnalyzerParam = 2.0;
  B.Window.CWSize = 900;
  B.Window.TWSize = 300;
  B.Window.SkipFactor = 50;
  B.Window.TWPolicy = TWPolicyKind::Adaptive;
  B.Model = ModelKind::WeightedSet;
  // Entirely different windows, model, and policy: the output is all-T
  // either way, so the whole configuration is dead.
  expectEquivalent(A, B, /*CheckAnchored=*/true);
  EXPECT_EQ(canonicalizeConfig(A).Canonical, canonicalizeConfig(B).Canonical);

  for (const BenchmarkData &Bench : testBenchmarks()) {
    DetectorRun Run = runConfig(A, Bench.Trace);
    ASSERT_EQ(Run.States.runs().size(), 1u);
    EXPECT_EQ(Run.States.runs()[0].State, PhaseState::Transition);
    EXPECT_TRUE(Run.DetectedPhases.empty());
  }
}

/// The negative case the issue demands: a rule the checker cannot prove
/// stays unmerged. WeightedSet and ManhattanBBV similarities agree
/// mathematically (sum-of-mins == 1 - L1/2) but round differently in
/// floating point, so configs differing only in that choice must stay in
/// separate classes.
TEST(MergeRuleTest, ManhattanWeightedStayUnmerged) {
  DetectorConfig A = baseConfig();
  A.Model = ModelKind::WeightedSet;
  DetectorConfig B = A;
  B.Model = ModelKind::ManhattanBBV;
  for (bool Anchored : {false, true}) {
    ConfigCanonOptions Options;
    Options.AnchoredScoring = Anchored;
    EXPECT_NE(canonicalizeConfig(A, Options).Canonical,
              canonicalizeConfig(B, Options).Canonical);
  }
}

//===----------------------------------------------------------------------===//
// Partitioning
//===----------------------------------------------------------------------===//

TEST(PartitionTest, FixedIntervalDuplicatesMergeAsIdentical) {
  SweepSpec Spec;
  Spec.CWSizes = {200};
  Spec.SkipFactors = {200};
  Spec.TWPolicies = {TWPolicyKind::Constant};
  Spec.IncludeFixedInterval = true;
  Spec.Models = {ModelKind::UnweightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6}};

  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  ASSERT_EQ(Configs.size(), 2u);
  ConfigPartition Partition = partitionConfigs(Configs);
  ASSERT_EQ(Partition.Classes.size(), 1u);
  ASSERT_EQ(Partition.Classes[0].Rules.size(), 1u);
  EXPECT_EQ(Partition.Classes[0].Rules[0], MergeRule::IdenticalConfig);
}

TEST(PartitionTest, ClassMembersCoverEveryConfigExactlyOnce) {
  std::vector<DetectorConfig> Configs =
      enumerateCrossProduct(degenerateSpec());
  ConfigPartition Partition = partitionConfigs(Configs);
  std::vector<bool> Seen(Configs.size(), false);
  for (size_t ClassIdx = 0; ClassIdx != Partition.Classes.size();
       ++ClassIdx) {
    const ConfigClass &Class = Partition.Classes[ClassIdx];
    EXPECT_EQ(Class.Representative, Class.Members.front());
    for (size_t Member : Class.Members) {
      EXPECT_FALSE(Seen[Member]);
      Seen[Member] = true;
      EXPECT_EQ(Partition.ClassOf[Member], ClassIdx);
    }
  }
  for (bool S : Seen)
    EXPECT_TRUE(S);
}

TEST(PartitionTest, PaperCrossProductPrunesAtLeast20Percent) {
  for (bool Anchored : {false, true}) {
    ConfigCanonOptions Options;
    Options.AnchoredScoring = Anchored;
    SweepAnalysis Analysis = analyzeSweep(paperCrossSpec(), Options);
    EXPECT_EQ(Analysis.NumConfigs, 10080u);
    EXPECT_GE(Analysis.RunsPruned * 100, Analysis.NumConfigs * 20)
        << "anchored=" << Anchored;
  }
}

// The paper preset's shared-scan plan: the pruned space collapses to
// one trace pass per (model, CW, TW) shape. 28 passes cover every
// representative; the largest group's size depends on how far the
// canonicalizer merges (anchored scoring forbids the anchor-field
// merge, leaving more representatives per shape). A change here means
// either the paper space or the plan keying moved — both are
// deliberate events.
TEST(PartitionTest, PaperCrossProductSharedScanPlanIsPinned) {
  for (bool Anchored : {false, true}) {
    ConfigCanonOptions Options;
    Options.AnchoredScoring = Anchored;
    SweepAnalysis Analysis = analyzeSweep(paperCrossSpec(), Options);
    EXPECT_EQ(Analysis.NumSharedGroups, 28u) << "anchored=" << Anchored;
    EXPECT_EQ(Analysis.LargestSharedGroup, Anchored ? 260u : 210u)
        << "anchored=" << Anchored;
  }
}

//===----------------------------------------------------------------------===//
// Pruned sweeps
//===----------------------------------------------------------------------===//

TEST(PrunedSweepTest, BitIdenticalScoresAndCorrectStats) {
  SweepSpec Spec = degenerateSpec();
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);

  for (bool Anchored : {false, true}) {
    SweepOptions Plain;
    Plain.ScoreAnchored = Anchored;
    SweepOptions Pruned = Plain;
    Pruned.Prune = true;

    for (const BenchmarkData &Bench : testBenchmarks()) {
      SweepStats PlainStats, PrunedStats;
      std::vector<RunScores> Full =
          runSweep(Bench.Trace, Bench.Baselines, Configs, Plain,
                   &PlainStats);
      std::vector<RunScores> Reduced =
          runSweep(Bench.Trace, Bench.Baselines, Configs, Pruned,
                   &PrunedStats);

      ASSERT_EQ(Full.size(), Reduced.size());
      for (size_t I = 0; I != Full.size(); ++I) {
        EXPECT_EQ(Reduced[I].Config, Configs[I]);
        ASSERT_EQ(Full[I].PerMPL.size(), Reduced[I].PerMPL.size());
        for (size_t M = 0; M != Full[I].PerMPL.size(); ++M) {
          EXPECT_EQ(Full[I].PerMPL[M].Score, Reduced[I].PerMPL[M].Score);
          EXPECT_EQ(Full[I].PerMPL[M].Correlation,
                    Reduced[I].PerMPL[M].Correlation);
          EXPECT_EQ(Full[I].PerMPL[M].Sensitivity,
                    Reduced[I].PerMPL[M].Sensitivity);
          EXPECT_EQ(Full[I].PerMPL[M].FalsePositives,
                    Reduced[I].PerMPL[M].FalsePositives);
        }
        ASSERT_EQ(Full[I].AnchoredPerMPL.size(),
                  Reduced[I].AnchoredPerMPL.size());
        for (size_t M = 0; M != Full[I].AnchoredPerMPL.size(); ++M)
          EXPECT_EQ(Full[I].AnchoredPerMPL[M].Score,
                    Reduced[I].AnchoredPerMPL[M].Score);
      }

      EXPECT_EQ(PlainStats.NumConfigs, Configs.size());
      EXPECT_EQ(PlainStats.RunsExecuted, Configs.size());
      EXPECT_EQ(PlainStats.RunsPruned, 0u);

      ConfigCanonOptions Canon;
      Canon.AnchoredScoring = Anchored;
      size_t NumClasses = partitionConfigs(Configs, Canon).Classes.size();
      EXPECT_EQ(PrunedStats.NumConfigs, Configs.size());
      EXPECT_EQ(PrunedStats.RunsExecuted, NumClasses);
      EXPECT_EQ(PrunedStats.RunsPruned, Configs.size() - NumClasses);
      EXPECT_LT(PrunedStats.RunsExecuted, PrunedStats.NumConfigs);
    }
  }
}

TEST(PrunedSweepTest, BestScoreSlicesMatchUnpruned) {
  // The paper's headline numbers are bestScore() maxima over slices of
  // the space; pruning must reproduce them bit-for-bit per table slice.
  SweepSpec Spec;
  Spec.CWSizes = {250, 500};
  Spec.SkipFactors = {10, 250};
  Spec.IncludeFixedInterval = true;
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6},
                    {AnalyzerKind::Threshold, 0.0},
                    {AnalyzerKind::Average, 0.05}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);

  SweepOptions Pruned;
  Pruned.Prune = true;
  const BenchmarkData &Bench = testBenchmarks()[0];
  std::vector<RunScores> Full =
      runSweep(Bench.Trace, Bench.Baselines, Configs);
  std::vector<RunScores> Reduced =
      runSweep(Bench.Trace, Bench.Baselines, Configs, Pruned);

  for (size_t MPLIdx = 0; MPLIdx != Bench.MPLs.size(); ++MPLIdx) {
    for (TWPolicyKind Policy :
         {TWPolicyKind::Constant, TWPolicyKind::Adaptive}) {
      auto Slice = [&](const DetectorConfig &C) {
        return C.Window.TWPolicy == Policy && !C.isFixedInterval();
      };
      EXPECT_EQ(bestScore(Full, MPLIdx, Slice),
                bestScore(Reduced, MPLIdx, Slice));
    }
    auto Fixed = [](const DetectorConfig &C) { return C.isFixedInterval(); };
    EXPECT_EQ(bestScore(Full, MPLIdx, Fixed),
              bestScore(Reduced, MPLIdx, Fixed));
    for (ModelKind Model :
         {ModelKind::UnweightedSet, ModelKind::WeightedSet}) {
      auto Slice = [&](const DetectorConfig &C) { return C.Model == Model; };
      EXPECT_EQ(bestScore(Full, MPLIdx, Slice),
                bestScore(Reduced, MPLIdx, Slice));
    }
  }
}

TEST(RunSweepDeathTest, RejectsEmptyConfigLists) {
  const BenchmarkData &Bench = testBenchmarks()[0];
  EXPECT_DEATH(runSweep(Bench.Trace, Bench.Baselines, {}),
               "empty configuration list");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(ConfigLintTest, CleanSpecStaysClean) {
  DiagnosticEngine Diags;
  lintSweepSpec(benchSweepSpec("table2", paperAnalyzers()), {}, Diags);
  EXPECT_TRUE(Diags.empty()) << Diags.renderAll();
}

TEST(ConfigLintTest, AllBenchSpecsAndThePaperSpaceAreWarningFree) {
  // benchSweepNames() ends with "paper", the full cross product.
  for (const std::string &Name : benchSweepNames()) {
    DiagnosticEngine Diags;
    lintSweepSpec(benchSweepSpec(Name, paperAnalyzers()), {}, Diags);
    EXPECT_LT(Diags.maxSeverity(), DiagSeverity::Warning)
        << Name << ":\n" << Diags.renderAll();
  }
}

TEST(ConfigLintTest, EmptyDimensionIsAnError) {
  SweepSpec Spec = benchSweepSpec("table2", paperAnalyzers());
  Spec.CWSizes.clear();
  DiagnosticEngine Diags;
  lintSweepSpec(Spec, {}, Diags);
  EXPECT_TRUE(hasCode(Diags, "empty-dimension"));
  EXPECT_EQ(Diags.maxSeverity(), DiagSeverity::Error);
  EXPECT_EQ(exitCodeForSeverity(Diags.maxSeverity(), !Diags.empty()), 2);
}

TEST(ConfigLintTest, EmptyPolicyDimensionWithFixedIntervalIsAWarning) {
  SweepSpec Spec = benchSweepSpec("table2", paperAnalyzers());
  Spec.TWPolicies.clear();
  DiagnosticEngine Diags;
  lintSweepSpec(Spec, {}, Diags);
  EXPECT_TRUE(hasCode(Diags, "empty-dimension"));
  EXPECT_EQ(Diags.maxSeverity(), DiagSeverity::Warning);
}

TEST(ConfigLintTest, ZeroWindowIsAnError) {
  SweepSpec Spec = benchSweepSpec("table2", paperAnalyzers());
  Spec.SkipFactors = {0};
  DiagnosticEngine Diags;
  lintSweepSpec(Spec, {}, Diags);
  EXPECT_TRUE(hasCode(Diags, "empty-window"));
  EXPECT_EQ(Diags.maxSeverity(), DiagSeverity::Error);
}

TEST(ConfigLintTest, DegenerateAnalyzersAreFlagged) {
  SweepSpec Spec;
  Spec.CWSizes = {500};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.0},
                    {AnalyzerKind::Threshold, 1.5},
                    {AnalyzerKind::Hysteresis, 0.1},
                    {AnalyzerKind::Threshold, 1.0},
                    {AnalyzerKind::Average, -0.1}};
  DiagnosticEngine Diags;
  lintSweepSpec(Spec, {}, Diags);
  EXPECT_TRUE(hasCode(Diags, "analyzer-always-inphase"));
  EXPECT_TRUE(hasCode(Diags, "analyzer-always-transition"));
  EXPECT_TRUE(hasCode(Diags, "hysteresis-no-exit"));
  EXPECT_TRUE(hasCode(Diags, "threshold-knife-edge"));
  EXPECT_TRUE(hasCode(Diags, "average-nonpositive-delta"));
  EXPECT_EQ(Diags.maxSeverity(), DiagSeverity::Warning);
}

TEST(ConfigLintTest, NegativeHysteresisEnterIsAnError) {
  SweepSpec Spec;
  Spec.CWSizes = {500};
  Spec.Analyzers = {{AnalyzerKind::Hysteresis, -0.2}};
  DiagnosticEngine Diags;
  lintSweepSpec(Spec, {}, Diags);
  EXPECT_TRUE(hasCode(Diags, "invalid-analyzer-param"));
  EXPECT_EQ(Diags.maxSeverity(), DiagSeverity::Error);
}

TEST(ConfigLintTest, StructuralWarningsAndNotes) {
  SweepSpec Spec;
  Spec.CWSizes = {200, 200};
  Spec.SkipFactors = {1, 400, 200};
  Spec.IncludeFixedInterval = true;
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6}};
  DiagnosticEngine Diags;
  lintSweepSpec(Spec, {}, Diags);
  EXPECT_TRUE(hasCode(Diags, "duplicate-dimension-value"));
  EXPECT_TRUE(hasCode(Diags, "skip-exceeds-cw"));
  EXPECT_TRUE(hasCode(Diags, "fixed-interval-overlap"));
}

TEST(ConfigLintTest, TraceLengthChecks) {
  SweepSpec Spec;
  Spec.CWSizes = {600};
  Spec.SkipFactors = {1, 2000};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6}};
  ConfigLintOptions Options;
  Options.TraceLen = 1000;
  DiagnosticEngine Diags;
  lintSweepSpec(Spec, Options, Diags);
  EXPECT_TRUE(hasCode(Diags, "window-exceeds-trace"));
  EXPECT_TRUE(hasCode(Diags, "skip-exceeds-trace"));

  DiagnosticEngine Clean;
  Options.TraceLen = 100000;
  Spec.SkipFactors = {1};
  lintSweepSpec(Spec, Options, Clean);
  EXPECT_FALSE(hasCode(Clean, "window-exceeds-trace"));
  EXPECT_FALSE(hasCode(Clean, "skip-exceeds-trace"));
}

TEST(ConfigLintTest, SingleConfigLint) {
  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 750;
  C.AnalyzerParam = 1.5;
  ConfigLintOptions Options;
  Options.TraceLen = 900;
  DiagnosticEngine Diags;
  lintConfig(C, Options, Diags);
  std::vector<std::string> Codes = diagnosticCodes(Diags);
  EXPECT_EQ(Codes, (std::vector<std::string>{"analyzer-always-transition",
                                             "skip-exceeds-cw",
                                             "window-exceeds-trace"}));
}

TEST(ConfigLintTest, ErrorsTakeTheirVerdictFromValidateConfig) {
  const double Inf = std::numeric_limits<double>::infinity();
  auto WithAnalyzer = [](AnalyzerKind Kind, double Param) {
    DetectorConfig C = baseConfig();
    C.TheAnalyzer = Kind;
    C.AnalyzerParam = Param;
    return C;
  };
  DetectorConfig ZeroTW = baseConfig();
  ZeroTW.Window.TWSize = 0;
  // A +inf threshold is an error, not merely always-transition.
  const std::pair<const char *, DetectorConfig> Cases[] = {
      {"empty-window", ZeroTW},
      {"invalid-analyzer-param",
       WithAnalyzer(AnalyzerKind::Hysteresis, -0.5)},
      {"invalid-analyzer-param",
       WithAnalyzer(AnalyzerKind::Average,
                    std::numeric_limits<double>::quiet_NaN())},
      {"invalid-analyzer-param", WithAnalyzer(AnalyzerKind::Threshold, Inf)},
  };
  for (const auto &[Code, Config] : Cases) {
    std::string Why = validateConfig(Config);
    ASSERT_FALSE(Why.empty());
    DiagnosticEngine Diags;
    lintConfig(Config, {}, Diags);
    EXPECT_EQ(diagnosticCodes(Diags), std::vector<std::string>{Code}) << Why;
    EXPECT_NE(Diags.diagnostics().front().Message.find(Why),
              std::string::npos);
  }
  DiagnosticEngine Clean;
  lintConfig(baseConfig(), {}, Clean);
  EXPECT_NE(Clean.maxSeverity(), DiagSeverity::Error);

  SweepSpec Spec;
  Spec.CWSizes = {500};
  Spec.TWFactors = {0};
  Spec.Analyzers = {{AnalyzerKind::Threshold, Inf}};
  DiagnosticEngine SpecDiags;
  lintSweepSpec(Spec, {}, SpecDiags);
  EXPECT_TRUE(hasCode(SpecDiags, "empty-window"));
  EXPECT_TRUE(hasCode(SpecDiags, "invalid-analyzer-param"));
  EXPECT_FALSE(hasCode(SpecDiags, "analyzer-always-transition"));
}

//===----------------------------------------------------------------------===//
// Spec enumeration
//===----------------------------------------------------------------------===//

// Every named spec enumerates to its pinned size, and every one but the
// paper's full cross product is already free of provable duplicates:
// one class per config under either canon mode. The bench specs need no
// enumerator of their own that skips points pruning would merge.
TEST(SweepSpecTest, NamedSpecsHaveTheirSizesAndOnlyPaperHasDuplicates) {
  const std::map<std::string, size_t> Sizes = {
      {"table2", 420}, {"fig4", 420}, {"fig5", 160},
      {"fig6", 80},    {"fig7", 480}, {"fig8", 200},
      {"ablation13", 240},            {"paper", 10080}};
  ASSERT_EQ(benchSweepNames().size(), Sizes.size());
  for (const std::string &Name : benchSweepNames()) {
    std::vector<DetectorConfig> Configs =
        enumerateCrossProduct(benchSweepSpec(Name, paperAnalyzers()));
    ASSERT_EQ(Sizes.count(Name), 1u) << Name;
    EXPECT_EQ(Configs.size(), Sizes.at(Name)) << Name;
    if (Name == "paper")
      continue;
    for (bool Anchored : {false, true}) {
      ConfigCanonOptions Options;
      Options.AnchoredScoring = Anchored;
      EXPECT_EQ(partitionConfigs(Configs, Options).Classes.size(),
                Configs.size())
          << Name << " anchored=" << Anchored;
    }
  }
}

TEST(SweepSpecTest, PaperCrossSpecHasTheDocumentedSize) {
  // 7 CW x 2 TW factors x 2 models x 10 analyzers x 2 anchors x
  // 2 resizes x (2 policies x 4 skips + fixed) = 10080.
  EXPECT_EQ(enumerateCrossProduct(paperCrossSpec()).size(), 10080u);
}

TEST(SweepSpecTest, BenchSpecFactoriesMatchTheFigures) {
  SweepSpec Fig7 = benchSweepSpec("fig7", reducedAnalyzers());
  EXPECT_EQ(Fig7.TWPolicies,
            std::vector<TWPolicyKind>{TWPolicyKind::Adaptive});
  EXPECT_EQ(Fig7.Anchors.size(), 2u);
  EXPECT_EQ(Fig7.Resizes.size(), 2u);
  SweepSpec Fig6 = benchSweepSpec("fig6", paperAnalyzers());
  EXPECT_EQ(Fig6.Models,
            std::vector<ModelKind>{ModelKind::UnweightedSet});
  SweepSpec Table2 = benchSweepSpec("table2", reducedAnalyzers());
  EXPECT_TRUE(Table2.IncludeFixedInterval);
  EXPECT_EQ(Table2.CWSizes.size(), 7u);
}

} // namespace
