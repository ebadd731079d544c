//===- tests/FastDetectorTest.cpp - Fast-path differential tests --------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The monomorphic fast-path detectors (core/FastDetector.h) are only
/// admissible because they are bit-identical to the reference
/// PhaseDetector. This suite is the guard: it streams a real workload
/// trace through both paths across the whole configuration shape space —
/// every model, TW policy, analyzer kind, anchor, resize, and the skip-
/// factor/window-size corner cases — and requires equal StateSequences,
/// detected phases, and anchored phases, run by run. It also holds
/// detector reuse via reconfigure() to fresh-detector output, and the
/// sweep harness's scores (shared-scan engine, pruned or not) to the
/// scores of the serving detector run config by config, and the analyzer
/// decision functions both fast engines call (core/FastKernels.h) to the
/// reference analyzers on similarity values no trace produces.
///
//===----------------------------------------------------------------------===//

#include "DifferentialGrid.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "core/FastKernels.h"
#include "core/SweepSpec.h"
#include "core/WindowedModel.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"
#include "metrics/Scoring.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <set>

using namespace opd;

namespace {

/// Which window edges a lockstep batch drive reached (see
/// driveBatchesInLockstep).
struct BatchEdgeCounts {
  /// Batches right after a Slide phase entry that moved CW elements into
  /// the TW, long enough to refill the CW and then grow the TW in phase.
  unsigned SlideRefillThenGrowth = 0;
  /// Batches longer than CW + TW right after a phase end.
  unsigned LongBatchAfterPhaseEnd = 0;
};

/// Feeds \p Elements to a reference and a fast detector through
/// processBatch, with batch lengths cycling through \p Lengths, and
/// requires the same state and phase-start estimate after every call.
void driveBatchesInLockstep(const DetectorConfig &Config,
                            const std::vector<SiteIndex> &Elements,
                            SiteIndex NumSites,
                            const std::vector<size_t> &Lengths,
                            BatchEdgeCounts &Counts) {
  std::unique_ptr<PhaseDetector> Reference = makeDetector(Config, NumSites);
  std::unique_ptr<FastDetectorBase> Fast = makeFastDetector(Config, NumSites);
  const WindowConfig &W = Config.Window;
  std::string Desc = Config.describe();
  PhaseState Prev = PhaseState::Transition;
  // CW elements the last phase entry moved into the TW (Slide only).
  uint64_t Moved = 0;
  bool JustEnded = false;
  size_t Offset = 0;
  for (size_t Call = 0; Offset != Elements.size(); ++Call) {
    size_t N = std::min(Lengths[Call % Lengths.size()],
                        Elements.size() - Offset);
    if (Moved != 0 && N > Moved)
      ++Counts.SlideRefillThenGrowth;
    if (JustEnded && N > W.CWSize + W.TWSize)
      ++Counts.LongBatchAfterPhaseEnd;

    PhaseState S = Reference->processBatch(Elements.data() + Offset, N);
    ASSERT_EQ(S, Fast->processBatch(Elements.data() + Offset, N))
        << Desc << " call " << Call;
    ASSERT_EQ(Reference->lastPhaseStartEstimate(),
              Fast->lastPhaseStartEstimate())
        << Desc << " call " << Call;
    Offset += N;

    Moved = 0;
    if (Prev == PhaseState::Transition && S == PhaseState::InPhase &&
        W.TWPolicy == TWPolicyKind::Adaptive && W.Resize == ResizeKind::Slide) {
      // Out of phase the windows are exactly full at entry, so the
      // estimate places the anchor at TW index A; Slide moves
      // min(A, CW) elements.
      uint64_t A = Reference->lastPhaseStartEstimate() -
                   (Offset - W.CWSize - W.TWSize);
      Moved = std::min<uint64_t>(A, W.CWSize);
    }
    JustEnded = Prev == PhaseState::InPhase && S == PhaseState::Transition;
    Prev = S;
  }
}

} // namespace

TEST(FastDetectorTest, ShapeIndexIsABijectionOverTheShapeSpace) {
  std::set<size_t> Seen;
  DetectorConfig C;
  for (ModelKind M : {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                      ModelKind::ManhattanBBV})
    for (TWPolicyKind P : {TWPolicyKind::Constant, TWPolicyKind::Adaptive})
      for (AnalyzerKind A : {AnalyzerKind::Threshold, AnalyzerKind::Average,
                             AnalyzerKind::Hysteresis}) {
        C.Model = M;
        C.Window.TWPolicy = P;
        C.TheAnalyzer = A;
        size_t Index = fastShapeIndex(C);
        EXPECT_LT(Index, NumFastShapes);
        EXPECT_TRUE(Seen.insert(Index).second)
            << "duplicate shape index " << Index;
      }
  EXPECT_EQ(Seen.size(), NumFastShapes);
}

// The decision functions against makeAnalyzer()'s analyzers, driven as
// PhaseDetector drives them (resetStats on both phase edges, updateStats
// on P->P), step for step. A trace only yields finite similarities in
// [0, 1]; here the values include ties at each threshold, -0.0, NaN and
// +-inf, and the parameters values below 0.15 (where the hysteresis exit
// threshold clamps to 0) and non-finite ones. Hysteresis takes no NaN,
// -inf or negative enter threshold: validateConfig() rejects those, and
// the reference constructor asserts on them.
TEST(FastDetectorTest, DecisionFunctionsMatchReferenceAnalyzers) {
  using namespace fastkernels;
  constexpr double Inf = std::numeric_limits<double>::infinity();
  constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<AnalyzerKind, std::vector<double>>> Cases = {
      {AnalyzerKind::Threshold,
       {0.5, 0.8, 0.1, 0.0, -0.0, -0.25, 1.0, NaN, Inf, -Inf}},
      {AnalyzerKind::Average,
       {0.01, 0.3, 0.0, -0.0, -0.1, 1.0, NaN, Inf, -Inf}},
      {AnalyzerKind::Hysteresis,
       {0.6, 0.15, std::nextafter(0.15, 0.0), 0.1, 0.0, -0.0, 1.0, Inf}},
  };
  Xoshiro256 Rng(31);
  for (const auto &[Kind, Params] : Cases) {
    for (double Param : Params) {
      double Exit = hysteresisExitThreshold(Param);
      // Ties at either threshold and at their neighbours, plus the
      // special values and a few ordinary similarities.
      std::vector<double> Pool = {Param, Exit,  std::nextafter(Param, -Inf),
                                  std::nextafter(Param, Inf), 0.0,  -0.0,
                                  1.0,   0.5,   NaN,   Inf,   -Inf};
      for (int I = 0; I != 4; ++I)
        Pool.push_back(Rng.nextDouble());
      for (int Seq = 0; Seq != 200; ++Seq) {
        std::unique_ptr<Analyzer> Reference = makeAnalyzer(Kind, Param);
        RunningStats ReferenceStats;
        MeanStats Stats;
        PhaseState Hyst = PhaseState::Transition;
        PhaseState State = PhaseState::Transition;
        double Sim = 0.5;
        for (int Step = 0; Step != 48; ++Step) {
          // Repeats build equal runs, so the running mean ties the
          // next value.
          if (!Rng.nextBool(0.4))
            Sim = Pool[Rng.nextBelow(Pool.size())];
          PhaseState Want = Reference->processValue(Sim);
          PhaseState Got =
              Kind == AnalyzerKind::Threshold ? decideThreshold(Sim, Param)
              : Kind == AnalyzerKind::Average
                  ? decideAverage(Sim, Param, Stats)
                  : decideHysteresis(Sim, Param, Exit, Hyst);
          ASSERT_EQ(Got, Want)
              << analyzerKindName(Kind) << " " << Param << ", sequence "
              << Seq << " step " << Step << ", similarity " << Sim;
          if (State != Want) {
            Reference->resetStats();
            ReferenceStats.reset();
            Stats = MeanStats();
          } else if (State == PhaseState::InPhase) {
            Reference->updateStats(Sim);
            ReferenceStats.push(Sim);
            Stats.push(Sim);
          }
          ASSERT_EQ(Stats.N, ReferenceStats.count());
          ASSERT_EQ(std::bit_cast<uint64_t>(Stats.Mean),
                    std::bit_cast<uint64_t>(ReferenceStats.mean()));
          State = Want;
        }
      }
    }
  }
}

TEST(FastDetectorTest, DescribeMatchesReferenceWithFastSuffix) {
  const BenchmarkData &B = testBenchmark();
  for (const DetectorConfig &Config : differentialConfigs()) {
    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Config, B.Trace.numSites());
    std::unique_ptr<FastDetectorBase> Fast =
        makeFastDetector(Config, B.Trace.numSites());
    EXPECT_EQ(Fast->describe(), Reference->describe() + " [fast]");
    EXPECT_EQ(Fast->batchSize(), Reference->batchSize());
  }
}

// The load-bearing test: every configuration in the shape/corner-case
// cross product produces bit-identical output through both paths.
TEST(FastDetectorTest, BitIdenticalToReferenceAcrossTheConfigSpace) {
  const BenchmarkData &B = testBenchmark();
  std::vector<DetectorConfig> Configs = differentialConfigs();
  ASSERT_GT(Configs.size(), 500u);
  for (const DetectorConfig &Config : Configs) {
    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Config, B.Trace.numSites());
    std::unique_ptr<FastDetectorBase> Fast =
        makeFastDetector(Config, B.Trace.numSites());
    DetectorRun ReferenceRun = runDetector(*Reference, B.Trace);
    DetectorRun FastRun = runDetector(*Fast, B.Trace);
    expectRunsEqual(ReferenceRun, FastRun, Config);
  }
}

// Arena lifetime rule: a reconfigure()d instance must behave exactly
// like a freshly constructed one, across heterogeneous parameters and
// with state left over from a previous trace run.
TEST(FastDetectorTest, ReconfiguredArenaMatchesFreshDetectors) {
  const BenchmarkData &B = testBenchmark();
  std::array<std::unique_ptr<FastDetectorBase>, NumFastShapes> Arena;
  DetectorRun ArenaRun;
  for (const DetectorConfig &Config : differentialConfigs()) {
    std::unique_ptr<FastDetectorBase> &Slot =
        Arena[fastShapeIndex(Config)];
    if (Slot)
      Slot->reconfigure(Config);
    else
      Slot = makeFastDetector(Config, B.Trace.numSites());

    std::unique_ptr<FastDetectorBase> Fresh =
        makeFastDetector(Config, B.Trace.numSites());
    runDetector(*Slot, B.Trace, ArenaRun);
    DetectorRun FreshRun = runDetector(*Fresh, B.Trace);
    expectRunsEqual(FreshRun, ArenaRun, Config);
  }
}

// The sweep no longer runs fast detectors, but its scores must still be
// the ones the serving detector gives each configuration on its own:
// one FastPhaseDetector per config, scored against every baseline,
// equals runSweep's output (shared-scan engine, with and without
// equivalence-class pruning fanning scores out to class members).
TEST(FastDetectorTest, SweepScoresMatchServingDetector) {
  const BenchmarkData &B = testBenchmark();
  SweepSpec Spec;
  Spec.CWSizes = {250};
  Spec.SkipFactors = {1, 10};
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6},
                    {AnalyzerKind::Average, 0.05},
                    // Always in phase: gives pruning classes to fan out.
                    {AnalyzerKind::Threshold, 0.0}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);

  std::vector<std::vector<AccuracyScore>> Plain, Anchored;
  for (const DetectorConfig &Config : Configs) {
    std::unique_ptr<FastDetectorBase> Fast =
        makeFastDetector(Config, B.Trace.numSites());
    DetectorRun Run = runDetector(*Fast, B.Trace);
    Plain.emplace_back();
    Anchored.emplace_back();
    for (const BaselineSolution &Baseline : B.Baselines) {
      Plain.back().push_back(scoreDetection(Run.States, Baseline.states()));
      Anchored.back().push_back(
          scoreDetection(Run.AnchoredPhases, Baseline.states()));
    }
  }

  for (bool Prune : {false, true}) {
    SweepOptions Options;
    Options.ScoreAnchored = true;
    Options.Prune = Prune;
    SweepStats Stats;
    std::vector<RunScores> Sweep =
        runSweep(B.Trace, B.Baselines, Configs, Options, &Stats);
    EXPECT_EQ(Stats.RunsPruned > 0, Prune);

    ASSERT_EQ(Sweep.size(), Configs.size());
    for (size_t I = 0; I != Sweep.size(); ++I) {
      std::string Desc = Configs[I].describe();
      EXPECT_EQ(Sweep[I].Config, Configs[I]) << Desc;
      ASSERT_EQ(Sweep[I].PerMPL.size(), Plain[I].size()) << Desc;
      ASSERT_EQ(Sweep[I].AnchoredPerMPL.size(), Anchored[I].size()) << Desc;
      for (size_t M = 0; M != Plain[I].size(); ++M) {
        EXPECT_EQ(Sweep[I].PerMPL[M].Score, Plain[I][M].Score) << Desc;
        EXPECT_EQ(Sweep[I].PerMPL[M].Correlation, Plain[I][M].Correlation)
            << Desc;
        EXPECT_EQ(Sweep[I].PerMPL[M].Sensitivity, Plain[I][M].Sensitivity)
            << Desc;
        EXPECT_EQ(Sweep[I].PerMPL[M].FalsePositives,
                  Plain[I][M].FalsePositives)
            << Desc;
        EXPECT_EQ(Sweep[I].AnchoredPerMPL[M].Score, Anchored[I][M].Score)
            << Desc;
      }
    }
  }
}

// consumeTrace()'s default batch loop and the fast override must agree
// on partial trailing batches (trace size not a multiple of skip).
TEST(FastDetectorTest, PartialTrailingBatchMatchesReference) {
  const BenchmarkData &B = testBenchmark();
  DetectorConfig Config;
  Config.Window.CWSize = 100;
  Config.Window.TWSize = 100;
  Config.Window.SkipFactor = 97; // Never divides the trace evenly.
  Config.Model = ModelKind::WeightedSet;
  Config.TheAnalyzer = AnalyzerKind::Threshold;
  Config.AnalyzerParam = 0.6;
  std::unique_ptr<PhaseDetector> Reference =
      makeDetector(Config, B.Trace.numSites());
  std::unique_ptr<FastDetectorBase> Fast =
      makeFastDetector(Config, B.Trace.numSites());
  DetectorRun ReferenceRun = runDetector(*Reference, B.Trace);
  DetectorRun FastRun = runDetector(*Fast, B.Trace);
  ASSERT_NE(B.Trace.size() % Config.Window.SkipFactor, 0u);
  expectRunsEqual(ReferenceRun, FastRun, Config);
}

// processBatch with batch lengths unrelated to the skip factor, chosen to
// straddle every edge of the fast model's batched window advance: the
// first batch fills the CW, fills the TW and reaches the steady state,
// and outgrows the buffer's first 1024-element allocation; later ones
// refill a Slide-shrunk CW and then grow the TW in phase, or follow a
// phase end with more than CW + TW elements. A second run keeps one
// phase open past CompactionThreshold, so buffer compaction falls inside
// batches.
TEST(FastDetectorTest, BatchEdgesMatchReference) {
  const BenchmarkData &B = testBenchmark();
  const std::vector<SiteIndex> &Trace = B.Trace.elements();
  SiteIndex NumSites = B.Trace.numSites();

  const std::vector<size_t> Lengths = {1500, 1, 350, 7, 130, 401, 3,
                                       64,   999, 5, 257, 2, 333};
  BatchEdgeCounts Counts;
  for (ModelKind M : {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                      ModelKind::ManhattanBBV})
    for (TWPolicyKind P : {TWPolicyKind::Constant, TWPolicyKind::Adaptive})
      for (AnchorKind Anchor :
           {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy})
        for (ResizeKind R : {ResizeKind::Slide, ResizeKind::Move})
          for (double Param : {0.5, 0.9}) {
            if (P == TWPolicyKind::Constant &&
                (Anchor != AnchorKind::RightmostNoisy ||
                 R != ResizeKind::Slide))
              continue;
            DetectorConfig Config;
            Config.Model = M;
            Config.Window.CWSize = 30;
            Config.Window.TWSize = 300;
            Config.Window.SkipFactor = 10;
            Config.Window.TWPolicy = P;
            Config.Window.Anchor = Anchor;
            Config.Window.Resize = R;
            Config.AnalyzerParam = Param;
            ASSERT_NO_FATAL_FAILURE(driveBatchesInLockstep(
                Config, Trace, NumSites, Lengths, Counts));
          }
  EXPECT_GT(Counts.SlideRefillThenGrowth, 0u);
  EXPECT_GT(Counts.LongBatchAfterPhaseEnd, 0u);

  // Compaction inside a batch. With a constant TW Head advances one per
  // steady-state element and only returns to zero through compaction (or
  // a phase end), which fires once the default CW + TW (2000) have filled
  // and Head has passed CompactionThreshold. The first batch crosses it
  // by itself; always in phase (threshold 0), Head crosses it again
  // through ordinary batches within 140K elements.
  std::vector<SiteIndex> Long;
  while (Long.size() <= 140000)
    Long.insert(Long.end(), Trace.begin(), Trace.end());
  const std::vector<size_t> LongLengths = {
      WindowedModel::CompactionThreshold + 4000, 97, 4099, 13, 777, 2, 12289};
  for (ModelKind M : {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                      ModelKind::ManhattanBBV})
    for (double Param : {0.0, 0.5}) {
      DetectorConfig Config;
      Config.Model = M;
      Config.Window.SkipFactor = 97;
      Config.AnalyzerParam = Param;
      ASSERT_NO_FATAL_FAILURE(
          driveBatchesInLockstep(Config, Long, NumSites, LongLengths, Counts));
    }
}
