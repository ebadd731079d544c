//===- tests/MonitorTest.cpp - Stability + policy-matrix tests ------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"
#include "metrics/Stability.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

using namespace opd;

namespace {

SyntheticTrace abTrace(unsigned Phases = 4, uint64_t PhaseLen = 4000,
                       uint64_t TransLen = 1500) {
  SyntheticSpec Spec;
  Spec.NumPhases = Phases;
  Spec.NumBehaviors = 2;
  Spec.PhaseLength = PhaseLen;
  Spec.TransitionLength = TransLen;
  Spec.NoiseProbability = 0.05;
  Spec.Seed = 17;
  return generateSynthetic(Spec);
}

} // namespace

//===----------------------------------------------------------------------===//
// Stability statistics
//===----------------------------------------------------------------------===//

TEST(StabilityTest, EmptySequence) {
  StabilityStats S = computeStability(StateSequence());
  EXPECT_DOUBLE_EQ(S.InPhaseFraction, 0.0);
  EXPECT_EQ(S.NumPhases, 0u);
}

TEST(StabilityTest, CountsRunsAndChanges) {
  StateSequence Seq;
  Seq.append(PhaseState::Transition, 100);
  Seq.append(PhaseState::InPhase, 300);
  Seq.append(PhaseState::Transition, 100);
  Seq.append(PhaseState::InPhase, 500);
  StabilityStats S = computeStability(Seq);
  EXPECT_DOUBLE_EQ(S.InPhaseFraction, 0.8);
  EXPECT_EQ(S.NumPhases, 2u);
  EXPECT_DOUBLE_EQ(S.PhaseLengths.mean(), 400.0);
  EXPECT_DOUBLE_EQ(S.GapLengths.mean(), 100.0);
  EXPECT_DOUBLE_EQ(S.ChangesPerMillion, 3.0 / 1000.0 * 1e6);
}

TEST(StabilityTest, AlwaysPHasNoChanges) {
  StateSequence Seq;
  Seq.append(PhaseState::InPhase, 1000);
  StabilityStats S = computeStability(Seq);
  EXPECT_DOUBLE_EQ(S.InPhaseFraction, 1.0);
  EXPECT_DOUBLE_EQ(S.ChangesPerMillion, 0.0);
  EXPECT_EQ(S.NumPhases, 1u);
}

//===----------------------------------------------------------------------===//
// Full policy-matrix property sweep (parameterized)
//===----------------------------------------------------------------------===//

using MatrixParam =
    std::tuple<ModelKind, TWPolicyKind, AnalyzerKind, uint32_t>;

class DetectorMatrixTest : public testing::TestWithParam<MatrixParam> {};

TEST_P(DetectorMatrixTest, InvariantsHoldAcrossTheWholeMatrix) {
  auto [Model, Policy, Analyzer, Skip] = GetParam();
  SyntheticTrace T = abTrace(3, 3000, 1000);

  DetectorConfig C;
  C.Window.CWSize = 150;
  C.Window.TWSize = 150;
  C.Window.SkipFactor = Skip;
  C.Window.TWPolicy = Policy;
  C.Model = Model;
  C.TheAnalyzer = Analyzer;
  C.AnalyzerParam = Analyzer == AnalyzerKind::Average ? 0.05 : 0.6;

  std::unique_ptr<PhaseDetector> D = makeDetector(C, T.Trace.numSites());
  DetectorRun Run = runDetector(*D, T.Trace);

  // Output covers the trace exactly.
  ASSERT_EQ(Run.States.size(), T.Trace.size());
  // Phases sorted, disjoint, nonempty; anchors never after starts.
  ASSERT_EQ(Run.AnchoredPhases.size(), Run.DetectedPhases.size());
  uint64_t PrevEnd = 0;
  for (size_t I = 0; I != Run.DetectedPhases.size(); ++I) {
    const PhaseInterval &P = Run.DetectedPhases[I];
    ASSERT_LE(PrevEnd, P.Begin);
    ASSERT_LT(P.Begin, P.End);
    ASSERT_LE(Run.AnchoredPhases[I].Begin, P.Begin);
    PrevEnd = P.End;
  }
  // States before the windows can fill are all T.
  uint64_t FillSpan = 2 * 150;
  for (const PhaseInterval &P : Run.DetectedPhases)
    ASSERT_GE(P.Begin, FillSpan - Skip > 0 ? FillSpan - Skip : 0);
  // Re-running is deterministic.
  std::unique_ptr<PhaseDetector> D2 = makeDetector(C, T.Trace.numSites());
  DetectorRun Run2 = runDetector(*D2, T.Trace);
  ASSERT_EQ(Run.DetectedPhases.size(), Run2.DetectedPhases.size());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DetectorMatrixTest,
    testing::Combine(
        testing::Values(ModelKind::UnweightedSet, ModelKind::WeightedSet,
                        ModelKind::ManhattanBBV),
        testing::Values(TWPolicyKind::Constant, TWPolicyKind::Adaptive),
        testing::Values(AnalyzerKind::Threshold, AnalyzerKind::Average,
                        AnalyzerKind::Hysteresis),
        testing::Values(1u, 13u, 150u)));
