//===- tests/KernelBoundsTest.cpp - Kernel value-range certifier tests --------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the interval-domain kernel certifier
/// (analysis/KernelBounds.h), plus the acceptance gate of the whole
/// scheme: the CheckedKernelArith shadow detectors stream a real
/// workload trace through every configuration of the fast-path
/// differential cross product, and every runtime value the probe
/// observes must fall inside the certified interval for its quantity —
/// with zero arithmetic overflows — on both the reference and the fast
/// path. A certificate the shadow run cannot violate is what licenses
/// its no-wraparound claim.
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelBounds.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

using namespace opd;

namespace {

DetectorConfig makeConfig(ModelKind Model, TWPolicyKind Policy,
                          AnalyzerKind Analyzer, uint32_t CW, uint32_t TW,
                          double Param = 0.5) {
  DetectorConfig C;
  C.Model = Model;
  C.Window.TWPolicy = Policy;
  C.Window.CWSize = CW;
  C.Window.TWSize = TW;
  C.TheAnalyzer = Analyzer;
  C.AnalyzerParam = Param;
  return C;
}

bool hasCode(const DiagnosticEngine &Diags, const char *Code) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Code == Code)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Interval derivation
//===----------------------------------------------------------------------===//

TEST(KernelBoundsTest, ConstantTWBoundsNeedNoTraceStats) {
  // A constant TW caps every quantity from the config alone.
  KernelCertificate Cert =
      certifyKernel(makeConfig(ModelKind::WeightedSet, TWPolicyKind::Constant,
                               AnalyzerKind::Threshold, 100, 200));
  EXPECT_TRUE(Cert.NoWraparound);
  EXPECT_EQ(Cert.bound(KernelQuantity::CWCount).Max, 100u);
  EXPECT_EQ(Cert.bound(KernelQuantity::TWCount).Max, 200u);
  EXPECT_EQ(Cert.bound(KernelQuantity::CWTotal).Max, 100u);
  EXPECT_EQ(Cert.bound(KernelQuantity::TWTotal).Max, 200u);
  EXPECT_EQ(Cert.bound(KernelQuantity::ProductCWTW).Max, 100u * 200u);
  EXPECT_EQ(Cert.bound(KernelQuantity::MinSum).Max, 100u * 200u);
  EXPECT_FALSE(Cert.bound(KernelQuantity::CWDistinct).Applicable);
  EXPECT_EQ(Cert.bound(KernelQuantity::ProductCWTW).Bits, 15u); // 20000
  EXPECT_EQ(Cert.Exactness, ThresholdExactness::ExactWithin53);

  DiagnosticEngine Diags;
  lintCertificate(Cert, Diags);
  EXPECT_TRUE(Diags.empty());
}

TEST(KernelBoundsTest, AdaptiveTWIsUnboundedWithoutATraceLength) {
  DetectorConfig C = makeConfig(ModelKind::WeightedSet, TWPolicyKind::Adaptive,
                                AnalyzerKind::Threshold, 100, 100);
  KernelCertificate Cert = certifyKernel(C);
  EXPECT_FALSE(Cert.NoWraparound);
  EXPECT_TRUE(Cert.bound(KernelQuantity::CWCount).Bounded);
  EXPECT_FALSE(Cert.bound(KernelQuantity::TWCount).Bounded);
  EXPECT_FALSE(Cert.bound(KernelQuantity::ProductCWTW).Bounded);

  DiagnosticEngine Diags;
  lintCertificate(Cert, Diags);
  EXPECT_TRUE(hasCode(Diags, "kernel-unbounded-tw"));
  EXPECT_FALSE(Diags.hasErrors());

  // A trace length closes the gap: every quantity becomes bounded.
  TraceBounds Stats;
  Stats.TraceLen = 1000000;
  KernelCertificate Tight = certifyKernel(C, Stats);
  EXPECT_TRUE(Tight.NoWraparound);
  EXPECT_EQ(Tight.bound(KernelQuantity::TWCount).Max, 1000000u);
  EXPECT_EQ(Tight.bound(KernelQuantity::ProductCWTW).Max,
            uint64_t(100) * 1000000u);
}

TEST(KernelBoundsTest, TraceStatsTightenMonotonically) {
  DetectorConfig C = makeConfig(ModelKind::WeightedSet, TWPolicyKind::Adaptive,
                                AnalyzerKind::Threshold, 500, 500);
  TraceBounds Small, Large;
  Small.TraceLen = 1000000;
  Large.TraceLen = 2000000;
  KernelCertificate SC = certifyKernel(C, Small);
  KernelCertificate LC = certifyKernel(C, Large);
  for (size_t Q = 0; Q != NumKernelQuantities; ++Q) {
    if (!SC.Bounds[Q].Applicable)
      continue;
    EXPECT_LE(SC.Bounds[Q].Max, LC.Bounds[Q].Max)
        << kernelQuantityName(static_cast<KernelQuantity>(Q));
    EXPECT_LE(SC.Bounds[Q].Bits, LC.Bounds[Q].Bits);
  }

  // A multiplicity bound can only tighten further.
  TraceBounds WithMult = Small;
  WithMult.MaxMultiplicity = 300;
  KernelCertificate MC = certifyKernel(C, WithMult);
  EXPECT_EQ(MC.bound(KernelQuantity::CWCount).Max, 300u);
  EXPECT_LE(MC.bound(KernelQuantity::ProductCWTW).Max,
            SC.bound(KernelQuantity::ProductCWTW).Max);
}

TEST(KernelBoundsTest, AdversarialBoundaryConfigIsRejected) {
  // CW at 4e9 with an 8e9-element trace: the TW count bound exceeds
  // uint32_t and the cross products exceed uint64_t. Both must surface
  // as errors — this config may not run on the integer kernels.
  DetectorConfig C =
      makeConfig(ModelKind::WeightedSet, TWPolicyKind::Adaptive,
                 AnalyzerKind::Threshold, 4000000000u, 4000000000u);
  TraceBounds Stats;
  Stats.TraceLen = 8000000000ull;
  KernelCertificate Cert = certifyKernel(C, Stats);
  EXPECT_FALSE(Cert.NoWraparound);
  EXPECT_FALSE(Cert.bound(KernelQuantity::TWCount).FitsStorage);
  EXPECT_TRUE(Cert.bound(KernelQuantity::TWCount).Bounded);
  EXPECT_FALSE(Cert.bound(KernelQuantity::ProductTWCW).FitsStorage);
  EXPECT_EQ(Cert.bound(KernelQuantity::ProductTWCW).Bits, 65u);
  EXPECT_EQ(Cert.bound(KernelQuantity::ProductTWCW).Max, UINT64_MAX)
      << "saturated for reporting";

  DiagnosticEngine Diags;
  lintCertificate(Cert, Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_TRUE(hasCode(Diags, "kernel-count-overflow"));
  EXPECT_TRUE(hasCode(Diags, "kernel-product-overflow"));
}

TEST(KernelBoundsTest, NearLimitProductsWarnWithoutError) {
  // 2^30 x 2^30 = 2^60: fits uint64_t but within the 6-bit guard band.
  KernelCertificate Cert = certifyKernel(
      makeConfig(ModelKind::WeightedSet, TWPolicyKind::Constant,
                 AnalyzerKind::Threshold, uint32_t(1) << 30, uint32_t(1) << 30));
  EXPECT_TRUE(Cert.NoWraparound);
  DiagnosticEngine Diags;
  lintCertificate(Cert, Diags);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(hasCode(Diags, "kernel-product-near-64bit"));
}

//===----------------------------------------------------------------------===//
// Threshold-exactness classification
//===----------------------------------------------------------------------===//

TEST(KernelBoundsTest, ExactnessClassification) {
  // Unweighted threshold: both comparison operands are distinct-site
  // counts < 2^32, always exact in double.
  EXPECT_EQ(certifyKernel(makeConfig(ModelKind::UnweightedSet,
                                     TWPolicyKind::Constant,
                                     AnalyzerKind::Threshold, 1u << 30,
                                     1u << 30))
                .Exactness,
            ThresholdExactness::ExactWithin53);
  // Weighted threshold: exact while MinSum stays below 2^53...
  EXPECT_EQ(certifyKernel(makeConfig(ModelKind::WeightedSet,
                                     TWPolicyKind::Constant,
                                     AnalyzerKind::Threshold, 1000, 1000))
                .Exactness,
            ThresholdExactness::ExactWithin53);
  // ...and needs the margin fallback once 2^27 x 2^27 = 2^54 exceeds it.
  EXPECT_EQ(certifyKernel(makeConfig(ModelKind::WeightedSet,
                                     TWPolicyKind::Constant,
                                     AnalyzerKind::Threshold, 1u << 27,
                                     1u << 27))
                .Exactness,
            ThresholdExactness::MarginFallback);
  // Average/Hysteresis consume the quotient; Manhattan is FP-valued.
  EXPECT_EQ(certifyKernel(makeConfig(ModelKind::WeightedSet,
                                     TWPolicyKind::Constant,
                                     AnalyzerKind::Average, 1000, 1000, 0.05))
                .Exactness,
            ThresholdExactness::QuotientPath);
  EXPECT_EQ(certifyKernel(makeConfig(ModelKind::ManhattanBBV,
                                     TWPolicyKind::Constant,
                                     AnalyzerKind::Threshold, 1000, 1000))
                .Exactness,
            ThresholdExactness::QuotientPath);

  EXPECT_STREQ(thresholdExactnessName(ThresholdExactness::ExactWithin53),
               "exact-53");
  EXPECT_STREQ(thresholdExactnessName(ThresholdExactness::MarginFallback),
               "margin-fallback");
  EXPECT_STREQ(thresholdExactnessName(ThresholdExactness::QuotientPath),
               "quotient-path");
}

//===----------------------------------------------------------------------===//
// Certificate merging
//===----------------------------------------------------------------------===//

TEST(KernelBoundsTest, MergeJoinsIntervalsAndWeakensClaims) {
  DetectorConfig Small = makeConfig(ModelKind::WeightedSet,
                                    TWPolicyKind::Constant,
                                    AnalyzerKind::Threshold, 100, 100);
  DetectorConfig Big = makeConfig(ModelKind::WeightedSet,
                                  TWPolicyKind::Constant,
                                  AnalyzerKind::Threshold, 1u << 27, 1u << 27);
  KernelCertificate Into = certifyKernel(Small);
  KernelCertificate Other = certifyKernel(Big);
  ASSERT_EQ(Into.Shape, Other.Shape);
  mergeCertificate(Into, Other);
  EXPECT_EQ(Into.NumConfigs, 2u);
  EXPECT_EQ(Into.bound(KernelQuantity::CWCount).Max, uint64_t(1) << 27);
  EXPECT_EQ(Into.bound(KernelQuantity::ProductCWTW).Max, uint64_t(1) << 54);
  EXPECT_TRUE(Into.NoWraparound);
  // The merged exactness is the weaker claim.
  EXPECT_EQ(Into.Exactness, ThresholdExactness::MarginFallback);

  // Merging an unbounded certificate poisons the join.
  KernelCertificate Unbounded = certifyKernel(
      makeConfig(ModelKind::WeightedSet, TWPolicyKind::Adaptive,
                 AnalyzerKind::Threshold, 100, 100));
  KernelCertificate Target = certifyKernel(
      makeConfig(ModelKind::WeightedSet, TWPolicyKind::Adaptive,
                 AnalyzerKind::Threshold, 50, 50),
      TraceBounds{1000000, 0, 0});
  ASSERT_EQ(Target.Shape, Unbounded.Shape);
  EXPECT_TRUE(Target.NoWraparound);
  mergeCertificate(Target, Unbounded);
  EXPECT_FALSE(Target.NoWraparound);
  EXPECT_FALSE(Target.bound(KernelQuantity::TWCount).Bounded);
}

//===----------------------------------------------------------------------===//
// The batch-kernel verdict against the lint findings
//===----------------------------------------------------------------------===//

namespace {

/// A value whose bit length is uniform in [0, 64], capped at \p Max, so
/// both tiny and near-2^64 magnitudes are common.
uint64_t randomMagnitude(std::mt19937_64 &Rng, uint64_t Max) {
  unsigned Bits = static_cast<unsigned>(Rng() % 65);
  uint64_t V = Bits == 64 ? Rng() : Rng() & ((uint64_t(1) << Bits) - 1);
  return std::min(V, Max);
}

/// Trace statistics from all unknown up to 2^64 - 1 elements.
TraceBounds randomStats(std::mt19937_64 &Rng) {
  TraceBounds Stats;
  switch (Rng() % 4) {
  case 0:
    Stats.TraceLen = 0;
    break;
  case 1:
    Stats.TraceLen = UINT64_MAX;
    break;
  default:
    Stats.TraceLen = randomMagnitude(Rng, UINT64_MAX);
  }
  if (Rng() % 2)
    Stats.MaxMultiplicity = randomMagnitude(Rng, UINT64_MAX);
  if (Rng() % 2)
    Stats.NumSites = static_cast<SiteIndex>(randomMagnitude(Rng, UINT32_MAX));
  return Stats;
}

/// A config of shape \p Shape with CW and TW up to 3 * 10^9.
DetectorConfig randomConfig(std::mt19937_64 &Rng, size_t Shape) {
  const uint64_t MaxWindow = 3000000000u;
  auto CW = static_cast<uint32_t>(1 + randomMagnitude(Rng, MaxWindow - 1));
  auto TW = static_cast<uint32_t>(1 + randomMagnitude(Rng, MaxWindow - 1));
  return makeConfig(static_cast<ModelKind>(Shape / 6),
                    static_cast<TWPolicyKind>((Shape / 3) % 2),
                    static_cast<AnalyzerKind>(Shape % 3), CW, TW);
}

} // namespace

// admitsBatchLanes is the verdict perfbench reads; it must refuse exactly
// the certificates config_check and kernel_check flag as wrapping or
// unbounded, on single and merged certificates alike.
TEST(KernelBoundsTest, AdmissionAgreesWithLint) {
  std::mt19937_64 Rng(24);
  size_t Admitted = 0, Refused = 0;
  for (size_t I = 0; I != 20000; ++I) {
    size_t Shape = Rng() % NumFastShapes;
    KernelCertificate Cert =
        certifyKernel(randomConfig(Rng, Shape), randomStats(Rng));
    if (I % 2)
      mergeCertificate(
          Cert, certifyKernel(randomConfig(Rng, Shape), randomStats(Rng)));

    DiagnosticEngine Diags;
    lintCertificate(Cert, Diags);
    bool LintRefuses = hasCode(Diags, "kernel-count-overflow") ||
                       hasCode(Diags, "kernel-product-overflow") ||
                       hasCode(Diags, "kernel-unbounded-tw");
    bool Admits = admitsBatchLanes(Cert);
    ASSERT_NE(Admits, LintRefuses) << Cert.Config.describe();
    ++(Admits ? Admitted : Refused);
  }
  EXPECT_GT(Admitted, 0u);
  EXPECT_GT(Refused, 0u);
}

//===----------------------------------------------------------------------===//
// The acceptance gate: shadow-instrumented detectors across the full
// differential cross product never leave their certified intervals.
//===----------------------------------------------------------------------===//

namespace {

/// One small-scale workload (shared with tests/FastDetectorTest.cpp).
const BenchmarkData &testBenchmark() {
  static const std::vector<BenchmarkData> Data =
      prepareBenchmarks({"jess"}, {1000, 10000}, /*Scale=*/0.1);
  return Data.front();
}

/// The same shape-and-corner-case cross product the fast-path
/// differential suite streams (~1700 configs).
std::vector<DetectorConfig> differentialConfigs() {
  SweepSpec Spec;
  Spec.CWSizes = {50, 400};
  Spec.TWFactors = {1, 2};
  Spec.SkipFactors = {1, 10, 500};
  Spec.IncludeFixedInterval = true;
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                 ModelKind::ManhattanBBV};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.5},
                    {AnalyzerKind::Threshold, 0.8},
                    {AnalyzerKind::Average, 0.01},
                    {AnalyzerKind::Average, 0.3},
                    {AnalyzerKind::Hysteresis, 0.6},
                    {AnalyzerKind::Hysteresis, 0.1}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  return enumerateCrossProduct(Spec);
}

/// Exact per-trace statistics, so the certified intervals are as tight
/// as the certifier can make them — the hardest version of the claim.
TraceBounds exactStats(const BranchTrace &Trace) {
  TraceBounds Stats;
  Stats.TraceLen = Trace.size();
  Stats.NumSites = Trace.numSites();
  std::vector<uint64_t> Mult(Trace.numSites(), 0);
  for (uint64_t I = 0; I != Trace.size(); ++I)
    ++Mult[Trace[I]];
  Stats.MaxMultiplicity =
      Mult.empty() ? 0 : *std::max_element(Mult.begin(), Mult.end());
  return Stats;
}

void expectObservationsWithin(const KernelValueProbe &Probe,
                              const KernelCertificate &Cert,
                              const DetectorConfig &Config,
                              const char *Path) {
  EXPECT_EQ(Probe.totalOverflows(), 0u)
      << Path << " " << Config.describe();
  for (size_t Q = 0; Q != NumKernelQuantities; ++Q) {
    KernelQuantity Quantity = static_cast<KernelQuantity>(Q);
    uint64_t Observed = Probe.observedMax(Quantity);
    const QuantityBound &Bound = Cert.Bounds[Q];
    if (!Bound.Applicable) {
      EXPECT_EQ(Observed, 0u)
          << Path << " " << Config.describe() << ": inapplicable quantity "
          << kernelQuantityName(Quantity) << " was computed";
      continue;
    }
    ASSERT_TRUE(Bound.Bounded)
        << Path << " " << Config.describe() << ": "
        << kernelQuantityName(Quantity)
        << " unbounded despite exact trace stats";
    EXPECT_LE(Observed, Bound.Max)
        << Path << " " << Config.describe() << ": observed "
        << kernelQuantityName(Quantity) << " above its certified bound";
  }
}

} // namespace

TEST(KernelBoundsTest, ShadowRunStaysWithinCertifiedBounds) {
  const BenchmarkData &B = testBenchmark();
  TraceBounds Stats = exactStats(B.Trace);
  std::vector<DetectorConfig> Configs = differentialConfigs();
  ASSERT_GT(Configs.size(), 500u);

  for (const DetectorConfig &Config : Configs) {
    KernelCertificate Cert = certifyKernel(Config, Stats);
    EXPECT_TRUE(Cert.NoWraparound) << Config.describe();

    KernelValueProbe ReferenceProbe;
    std::unique_ptr<PhaseDetector> Reference =
        makeCheckedDetector(Config, B.Trace.numSites(), ReferenceProbe);
    runDetector(*Reference, B.Trace);
    expectObservationsWithin(ReferenceProbe, Cert, Config, "reference");

    KernelValueProbe FastProbe;
    std::unique_ptr<FastDetectorBase> Fast =
        makeCheckedFastDetector(Config, B.Trace.numSites(), FastProbe);
    runDetector(*Fast, B.Trace);
    expectObservationsWithin(FastProbe, Cert, Config, "fast");
  }
}

TEST(KernelBoundsTest, ShadowDetectorsMatchPlainDetectors) {
  // The instrumentation must be an observer, not a fork: checked and
  // plain detectors produce identical output on a weighted config that
  // exercises the delta paths.
  const BenchmarkData &B = testBenchmark();
  DetectorConfig Config =
      makeConfig(ModelKind::WeightedSet, TWPolicyKind::Adaptive,
                 AnalyzerKind::Threshold, 400, 400, 0.6);
  KernelValueProbe Probe;
  std::unique_ptr<PhaseDetector> Plain =
      makeDetector(Config, B.Trace.numSites());
  std::unique_ptr<PhaseDetector> Checked =
      makeCheckedDetector(Config, B.Trace.numSites(), Probe);
  DetectorRun PlainRun = runDetector(*Plain, B.Trace);
  DetectorRun CheckedRun = runDetector(*Checked, B.Trace);
  ASSERT_EQ(PlainRun.States.runs().size(), CheckedRun.States.runs().size());
  EXPECT_EQ(PlainRun.DetectedPhases, CheckedRun.DetectedPhases);
  EXPECT_EQ(PlainRun.AnchoredPhases, CheckedRun.AnchoredPhases);
  // And the probe actually saw the kernel work.
  EXPECT_GT(Probe.observedMax(KernelQuantity::MinSum), 0u);
  EXPECT_EQ(Probe.totalOverflows(), 0u);
}
