//===- tests/DifferentialGrid.h - The differential suites' grid -*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixtures the differential suites share (FastDetectorTest,
/// SharedScanTest, KernelBoundsTest, BatchKernelTest), so the
/// reference == fast == shared-scan contract is checked on one grid: one
/// workload, one config cross product, one run comparison, and the
/// batch-kernel backend helpers.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_TESTS_DIFFERENTIALGRID_H
#define OPD_TESTS_DIFFERENTIALGRID_H

#include "core/BatchKernel.h"
#include "core/DetectorRunner.h"
#include "core/SweepSpec.h"
#include "harness/Experiment.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace opd {

/// One small-scale workload shared by all differential tests.
inline const BenchmarkData &testBenchmark() {
  static const std::vector<BenchmarkData> Data =
      prepareBenchmarks({"jess"}, {1000, 10000}, /*Scale=*/0.1);
  return Data.front();
}

/// The shape-and-corner-case cross product (~1700 configs): all three
/// models, both TW policies, all three analyzer kinds (two parameters
/// each), both anchors and resizes, a skip factor above the CW size
/// (exercising the flush seed clamp), and Fixed Interval.
inline std::vector<DetectorConfig> differentialConfigs() {
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

/// Requires \p Actual to be \p Expected run for run, with the same
/// detected and anchored phases. Failures name \p Config and, when
/// given, the differential \p Leg.
inline void expectRunsEqual(const DetectorRun &Expected,
                            const DetectorRun &Actual,
                            const DetectorConfig &Config,
                            const char *Leg = nullptr) {
  std::string Desc = Config.describe();
  if (Leg)
    Desc += std::string(" [") + Leg + "]";
  ASSERT_EQ(Expected.States.size(), Actual.States.size()) << Desc;
  const std::vector<StateRun> &ER = Expected.States.runs();
  const std::vector<StateRun> &AR = Actual.States.runs();
  ASSERT_EQ(ER.size(), AR.size()) << Desc;
  for (size_t I = 0; I != ER.size(); ++I) {
    ASSERT_EQ(ER[I].Begin, AR[I].Begin) << Desc << " run " << I;
    ASSERT_EQ(ER[I].Length, AR[I].Length) << Desc << " run " << I;
    ASSERT_EQ(ER[I].State, AR[I].State) << Desc << " run " << I;
  }
  ASSERT_EQ(Expected.DetectedPhases, Actual.DetectedPhases) << Desc;
  ASSERT_EQ(Expected.AnchoredPhases, Actual.AnchoredPhases) << Desc;
}

/// Restores the batch-kernel backend a test pinned (the slot is process
/// state; leaking a forced backend would silently change what every
/// later test exercises).
class BackendGuard {
  BatchBackend Saved = activeBatchBackend();

public:
  ~BackendGuard() { setBatchBackend(Saved); }
};

/// The batch-kernel backends this host runs: Portable first, then AVX2
/// and AVX-512 when compiled in and supported.
inline std::vector<BatchBackend> runnableBackends() {
  std::vector<BatchBackend> B{BatchBackend::Portable};
  for (BatchBackend Simd : {BatchBackend::AVX2, BatchBackend::AVX512})
    if (batchBackendAvailable(Simd))
      B.push_back(Simd);
  return B;
}

} // namespace opd

#endif // OPD_TESTS_DIFFERENTIALGRID_H
