//===- tests/BatchKernelTest.cpp - SoA batch kernel tests ---------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch kernel layer (core/BatchKernel.h) is only admissible
/// because every primitive is bit-identical across backends. This suite
/// pins that claim: the min-sum sweep and the anchor scans against naive
/// oracles over zero-padded partial blocks and lane-saturating values on
/// every runnable backend, and whole weighted detector runs against the
/// reference detector per backend (including mid-block window flushes).
/// It also pins admitsBatchLanes' verdict on all 18 shapes.
///
//===----------------------------------------------------------------------===//

#include "DifferentialGrid.h"
#include "analysis/KernelBounds.h"
#include "core/BatchKernel.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"

#include <gtest/gtest.h>

#include <random>

using namespace opd;

namespace {

/// \p Counts (one per slot, \p Width entries per slot) extended with
/// zero slots to whole min-sum blocks, the size the dispatched sums read.
std::vector<uint32_t> padded(std::vector<uint32_t> Counts, size_t Width) {
  Counts.resize(Width * wholeMinSumBlocks(Counts.size() / Width), 0);
  return Counts;
}

/// Naive mod-2^64 oracle for batchMinSum over interleaved (cw, tw)
/// pairs.
uint64_t naiveMinSum(const std::vector<uint32_t> &Pairs, uint64_t NCW,
                     uint64_t NTW) {
  uint64_t Sum = 0;
  for (size_t I = 0; I * 2 + 1 < Pairs.size(); ++I)
    Sum += std::min(Pairs[2 * I] * NTW, Pairs[2 * I + 1] * NCW);
  return Sum;
}

/// Weighted-model configurations exercising the batch-kernel paths:
/// adaptive growth (the per-element recompute), both anchors and
/// resizes (the blocked scans via the constant-policy dense kernels are
/// covered by the unweighted config), and window sizes that are not
/// multiples of the 8-wide blocks so flushes land mid-block and the
/// sweep always has a remainder tail.
std::vector<DetectorConfig> batchConfigs() {
  SweepSpec Spec;
  Spec.CWSizes = {37, 64, 400};
  Spec.TWFactors = {1, 2};
  Spec.SkipFactors = {1, 10};
  Spec.Models = {ModelKind::WeightedSet, ModelKind::UnweightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.5},
                    {AnalyzerKind::Threshold, 0.8},
                    {AnalyzerKind::Average, 0.01},
                    {AnalyzerKind::Hysteresis, 0.6}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  return enumerateCrossProduct(Spec);
}

/// The shape with index \p S (the inverse of fastShapeIndex), with
/// window parameters that certify cleanly under a bounded trace.
DetectorConfig shapeConfig(size_t S) {
  DetectorConfig C;
  C.TheAnalyzer = static_cast<AnalyzerKind>(S % 3);
  C.Window.TWPolicy = static_cast<TWPolicyKind>((S / 3) % 2);
  C.Model = static_cast<ModelKind>(S / 6);
  C.Window.CWSize = 100;
  C.Window.TWSize = 100;
  C.Window.SkipFactor = 1;
  C.AnalyzerParam = 0.5;
  return C;
}

} // namespace

TEST(BatchKernelBackendTest, EnvOverrideOnlyForcesThePortableFallback) {
  for (BatchBackend Detected : {BatchBackend::Portable, BatchBackend::AVX2,
                                BatchBackend::AVX512}) {
    // The documented fallback spellings force Portable...
    for (const char *Off : {"off", "portable", "0", "scalar"})
      EXPECT_EQ(batchBackendFromEnv(Off, Detected), BatchBackend::Portable)
          << Off;
    // ...and nothing can enable lanes the hardware detection did not:
    // unset/empty/"on"/garbage all keep the detected backend.
    EXPECT_EQ(batchBackendFromEnv(nullptr, Detected), Detected);
    EXPECT_EQ(batchBackendFromEnv("", Detected), Detected);
    EXPECT_EQ(batchBackendFromEnv("on", Detected), Detected);
    EXPECT_EQ(batchBackendFromEnv("avx2", Detected), Detected);
    EXPECT_EQ(batchBackendFromEnv("avx512", Detected), Detected);
    EXPECT_EQ(batchBackendFromEnv("bogus", Detected), Detected);
  }
}

TEST(BatchKernelBackendTest, SetBackendIsBoundedByAvailability) {
  BackendGuard Guard;
  EXPECT_TRUE(batchBackendAvailable(BatchBackend::Portable));
  EXPECT_TRUE(setBatchBackend(BatchBackend::Portable));
  EXPECT_EQ(activeBatchBackend(), BatchBackend::Portable);
  for (BatchBackend B : {BatchBackend::AVX2, BatchBackend::AVX512}) {
    bool Enabled = setBatchBackend(B);
    EXPECT_EQ(Enabled, batchBackendAvailable(B)) << batchBackendName(B);
    // A refused request must leave the process on the fallback, not on a
    // backend the host cannot execute.
    EXPECT_EQ(activeBatchBackend(), Enabled ? B : BatchBackend::Portable)
        << batchBackendName(B);
    if (!simdCompiledIn()) {
      EXPECT_FALSE(Enabled) << batchBackendName(B);
    }
  }
  // AVX-512 hosts run the AVX2 anchor scans.
  if (batchBackendAvailable(BatchBackend::AVX512)) {
    EXPECT_TRUE(batchBackendAvailable(BatchBackend::AVX2));
  }
}

TEST(BatchKernelMinSumTest, MatchesNaiveAcrossTailSizesOnEveryBackend) {
  BackendGuard Guard;
  std::mt19937 Rng(7);
  std::uniform_int_distribution<uint32_t> Count(0, 5000);
  // Sizes straddling the 8-slot blocks; the dispatched sums read the
  // arrays zero-padded to whole blocks.
  for (size_t N : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 31u, 64u,
                   100u, 1000u}) {
    std::vector<uint32_t> Pairs(2 * N);
    for (uint32_t &P : Pairs)
      P = Count(Rng);
    // The split form reads the tw counts as Left - Prefix from their own
    // arrays; the odd lanes of its pair array hold noise it must not
    // read.
    std::vector<uint32_t> CWPairs = Pairs, Left(N), Prefix(N);
    for (size_t I = 0; I != N; ++I) {
      Prefix[I] = Count(Rng);
      Left[I] = Pairs[2 * I + 1] + Prefix[I];
      CWPairs[2 * I + 1] = Count(Rng);
    }
    for (uint64_t NCW : {0ull, 1ull, 4999ull, 1000000ull})
      for (uint64_t NTW : {0ull, 3ull, 5001ull}) {
        uint64_t Expected = naiveMinSum(Pairs, NCW, NTW);
        ASSERT_EQ(batchMinSumPortable(Pairs.data(), N, NCW, NTW), Expected);
        ASSERT_EQ(batchMinSumSplitPortable(CWPairs.data(), Left.data(),
                                           Prefix.data(), N, NCW, NTW),
                  Expected);
        std::vector<uint32_t> PPairs = padded(Pairs, 2),
                              PCWPairs = padded(CWPairs, 2),
                              PLeft = padded(Left, 1),
                              PPrefix = padded(Prefix, 1);
        size_t Whole = wholeMinSumBlocks(N);
        for (BatchBackend B : runnableBackends()) {
          ASSERT_TRUE(setBatchBackend(B));
          ASSERT_EQ(batchMinSum(PPairs.data(), Whole, NCW, NTW), Expected)
              << "N=" << N << " backend=" << batchBackendName(B);
          ASSERT_EQ(batchMinSumSplit(PCWPairs.data(), PLeft.data(),
                                     PPrefix.data(), Whole, NCW, NTW),
                    Expected)
              << "N=" << N << " backend=" << batchBackendName(B);
        }
      }
  }
}

TEST(BatchKernelMinSumTest, LaneSaturatingValuesStayExact) {
  BackendGuard Guard;
  // Counts at the uint32_t lane limit with totals just under the 2^32
  // dispatch guard: every product approaches 2^64 (so the sign-flip
  // unsigned-compare path runs) and the sum wraps mod 2^64 — which both
  // backends must do identically, since mod-2^64 addition commutes.
  const uint64_t Total = (1ull << 32) - 1;
  std::vector<uint32_t> Pairs(2 * 21);
  for (size_t I = 0; I != 21; ++I) {
    Pairs[2 * I] = UINT32_MAX - static_cast<uint32_t>(I);
    Pairs[2 * I + 1] = static_cast<uint32_t>(I * 97 + 1);
  }
  std::vector<uint32_t> TW(21);
  for (size_t I = 0; I != 21; ++I)
    TW[I] = Pairs[2 * I + 1];
  uint64_t Expected = naiveMinSum(Pairs, Total, Total - 2);
  Pairs = padded(Pairs, 2);
  TW = padded(TW, 1);
  std::vector<uint32_t> Zero(TW.size(), 0);
  for (BatchBackend B : runnableBackends()) {
    ASSERT_TRUE(setBatchBackend(B));
    ASSERT_EQ(batchMinSum(Pairs.data(), 24, Total, Total - 2), Expected)
        << batchBackendName(B);
    ASSERT_EQ(batchMinSumSplit(Pairs.data(), TW.data(), Zero.data(), 24,
                               Total, Total - 2),
              Expected)
        << batchBackendName(B);
  }
}

TEST(BatchKernelMinSumTest, SplitFormTakesTheDifferenceModulo2To32) {
  BackendGuard Guard;
  // Attached shards read their tw counts as Left - Prefix, where Left is
  // a running count that may have wrapped past 2^32 while Prefix, an
  // older snapshot of it, has not: numerically Left < Prefix, and only
  // the uint32 difference is the count. Every lane below wraps so.
  std::mt19937 Rng(11);
  std::uniform_int_distribution<uint32_t> Count(8, 5000);
  for (size_t N : {1u, 3u, 4u, 7u, 8u, 9u, 13u, 16u, 37u, 100u}) {
    std::vector<uint32_t> Pairs(2 * N), Left(N), Prefix(N), TW(N), Zero(N);
    for (size_t I = 0; I != N; ++I) {
      Pairs[2 * I] = Count(Rng);
      TW[I] = Pairs[2 * I + 1] = Count(Rng);
      Prefix[I] = UINT32_MAX - static_cast<uint32_t>(I % 7);
      Left[I] = Prefix[I] + TW[I];
      ASSERT_LT(Left[I], Prefix[I]);
    }
    for (uint64_t NCW : {1ull, 4999ull, 1000000ull})
      for (uint64_t NTW : {3ull, 5001ull, (1ull << 32) - 1}) {
        uint64_t Expected = naiveMinSum(Pairs, NCW, NTW);
        ASSERT_EQ(batchMinSumSplitPortable(Pairs.data(), Left.data(),
                                           Prefix.data(), N, NCW, NTW),
                  Expected)
            << "N=" << N;
        std::vector<uint32_t> PPairs = padded(Pairs, 2),
                              PLeft = padded(Left, 1),
                              PPrefix = padded(Prefix, 1),
                              PTW = padded(TW, 1), PZero = padded(Zero, 1);
        size_t Whole = wholeMinSumBlocks(N);
        for (BatchBackend B : runnableBackends()) {
          ASSERT_TRUE(setBatchBackend(B));
          uint64_t Split = batchMinSumSplit(PPairs.data(), PLeft.data(),
                                            PPrefix.data(), Whole, NCW, NTW);
          ASSERT_EQ(Split, Expected)
              << "N=" << N << " backend=" << batchBackendName(B);
          // The split form over the counts themselves agrees.
          ASSERT_EQ(Split, batchMinSumSplit(PPairs.data(), PTW.data(),
                                            PZero.data(), Whole, NCW, NTW))
              << "N=" << N << " backend=" << batchBackendName(B);
        }
      }
  }
}

TEST(BatchKernelMinSumTest, TotalsBeyondTheLaneGuardTakeThePortablePath) {
  BackendGuard Guard;
  // Totals at or above 2^32 cannot use the 32x32->64 lane multiply; the
  // dispatcher must fall back so results still match the wrapping
  // scalar loop bit for bit.
  const uint64_t Wide = (1ull << 32) + 12345;
  std::vector<uint32_t> Pairs = {7, 11, 100000, 3, UINT32_MAX, 1, 0, 42,
                                 13, 13};
  uint64_t Expected = naiveMinSum(Pairs, Wide, 999);
  uint64_t Expected2 = naiveMinSum(Pairs, 999, Wide);
  Pairs = padded(Pairs, 2);
  for (BatchBackend B : runnableBackends()) {
    ASSERT_TRUE(setBatchBackend(B));
    ASSERT_EQ(batchMinSum(Pairs.data(), 8, Wide, 999), Expected);
    ASSERT_EQ(batchMinSum(Pairs.data(), 8, 999, Wide), Expected2);
  }
}

TEST(BatchKernelMinSumTest, ZeroPadLanesLeaveBothSumsUnchanged) {
  BackendGuard Guard;
  // The kernels read whole blocks, with every count of the slots past
  // the live ones at zero. Over live counts up to their totals, and
  // totals up to the lane limit (so both AVX2 compare forms run), the
  // padded read must give the live slots' sums on every backend.
  std::mt19937_64 Rng(13);
  for (size_t N : {1u, 5u, 8u, 13u, 29u})
    for (uint64_t NCW : {1ull, 4999ull, (1ull << 32) - 1})
      for (uint64_t NTW : {3ull, 5001ull, (1ull << 32) - 1}) {
        size_t Whole = wholeMinSumBlocks(N);
        std::vector<uint32_t> Pairs(2 * Whole, 0), Left(Whole, 0),
            Prefix(Whole, 0);
        for (size_t I = 0; I != N; ++I) {
          Pairs[2 * I] = static_cast<uint32_t>(Rng() % (NCW + 1));
          Pairs[2 * I + 1] = static_cast<uint32_t>(Rng() % (NTW + 1));
          Prefix[I] = static_cast<uint32_t>(Rng());
          Left[I] = Prefix[I] + Pairs[2 * I + 1];
        }
        uint64_t Expected = batchMinSumPortable(Pairs.data(), N, NCW, NTW);
        ASSERT_EQ(batchMinSumSplitPortable(Pairs.data(), Left.data(),
                                           Prefix.data(), N, NCW, NTW),
                  Expected);
        for (BatchBackend B : runnableBackends()) {
          ASSERT_TRUE(setBatchBackend(B));
          ASSERT_EQ(batchMinSum(Pairs.data(), Whole, NCW, NTW), Expected)
              << "N=" << N << " backend=" << batchBackendName(B);
          ASSERT_EQ(batchMinSumSplit(Pairs.data(), Left.data(),
                                     Prefix.data(), Whole, NCW, NTW),
                    Expected)
              << "N=" << N << " backend=" << batchBackendName(B);
        }
      }
}

TEST(BatchKernelAnchorTest, ScansMatchTheOracleOnEveryBackend) {
  BackendGuard Guard;
  // A small site table with a mix of zero and nonzero counts, scanned
  // through windows of every length up to several blocks, with the
  // zero-count element planted at every offset (plus all-zero and
  // all-nonzero windows).
  std::vector<uint32_t> Counts(32);
  for (size_t S = 0; S != Counts.size(); ++S)
    Counts[S] = S % 2 ? static_cast<uint32_t>(S) : 0;
  std::mt19937 Rng(11);
  for (uint64_t N : {0u, 1u, 2u, 7u, 8u, 9u, 16u, 23u, 40u}) {
    for (int Pattern = 0; Pattern != 4; ++Pattern) {
      std::vector<SiteIndex> Elements(N);
      for (uint64_t I = 0; I != N; ++I) {
        switch (Pattern) {
        case 0: // all noisy (zero-count sites)
          Elements[I] = static_cast<SiteIndex>((I * 2) % 32);
          break;
        case 1: // none noisy
          Elements[I] = static_cast<SiteIndex>((I * 2 + 1) % 32);
          break;
        default: // random mix
          Elements[I] = static_cast<SiteIndex>(Rng() % 32);
        }
      }
      uint64_t Right =
          batchRightmostNoisyPortable(Counts.data(), Elements.data(), N);
      uint64_t Left =
          batchLeftmostNonNoisyPortable(Counts.data(), Elements.data(), N);
      for (BatchBackend B : runnableBackends()) {
        ASSERT_TRUE(setBatchBackend(B));
        ASSERT_EQ(batchRightmostNoisy(Counts.data(), Elements.data(), N),
                  Right)
            << "N=" << N << " pattern=" << Pattern << " backend="
            << batchBackendName(B);
        ASSERT_EQ(batchLeftmostNonNoisy(Counts.data(), Elements.data(), N),
                  Left)
            << "N=" << N << " pattern=" << Pattern << " backend="
            << batchBackendName(B);
      }
    }
  }
  // The planted single-zero sweep: rightmost must report exactly 1 +
  // the plant position, leftmost exactly the first odd (nonzero) site.
  for (uint64_t N : {9u, 17u}) {
    for (uint64_t Plant = 0; Plant != N; ++Plant) {
      std::vector<SiteIndex> Elements(N, 1); // site 1: nonzero count
      Elements[Plant] = 0;                   // site 0: zero count
      for (BatchBackend B : runnableBackends()) {
        ASSERT_TRUE(setBatchBackend(B));
        ASSERT_EQ(batchRightmostNoisy(Counts.data(), Elements.data(), N),
                  Plant + 1);
        ASSERT_EQ(batchLeftmostNonNoisy(Counts.data(), Elements.data(), N),
                  Plant == 0 ? 1u : 0u);
      }
    }
  }
}

// The load-bearing differential: whole weighted/unweighted detector runs
// — including mid-block window flushes, resizes, and anchor scans — are
// bit-identical to the reference detector on every runnable backend.
TEST(BatchKernelDifferentialTest, DetectorRunsBitIdenticalPerBackend) {
  BackendGuard Guard;
  const BenchmarkData &Bench = testBenchmark();
  for (const DetectorConfig &Config : batchConfigs()) {
    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Config, Bench.Trace.numSites());
    DetectorRun ReferenceRun = runDetector(*Reference, Bench.Trace);
    for (BatchBackend B : runnableBackends()) {
      ASSERT_TRUE(setBatchBackend(B));
      std::unique_ptr<FastDetectorBase> Fast =
          makeFastDetector(Config, Bench.Trace.numSites());
      DetectorRun FastRun = runDetector(*Fast, Bench.Trace);
      expectRunsEqual(ReferenceRun, FastRun, Config, batchBackendName(B));
    }
  }
}

// All 18 monomorphic shapes against the certifier: a bounded trace
// admits every shape; an unbounded trace leaves every adaptive shape's
// TW-dependent quantities uncertified, which must refuse.
TEST(BatchKernelLanePlanTest, EighteenShapesMatchTheCertifierVerdict) {
  TraceBounds Bounded;
  Bounded.TraceLen = 2000000;
  for (size_t S = 0; S != NumFastShapes; ++S) {
    DetectorConfig C = shapeConfig(S);
    ASSERT_EQ(fastShapeIndex(C), S);

    KernelCertificate Cert = certifyKernel(C, Bounded);
    EXPECT_TRUE(Cert.NoWraparound) << C.describe();
    EXPECT_TRUE(admitsBatchLanes(Cert)) << C.describe();

    KernelCertificate Unbounded = certifyKernel(C, TraceBounds());
    bool Adaptive = C.Window.TWPolicy == TWPolicyKind::Adaptive;
    EXPECT_EQ(admitsBatchLanes(Unbounded), !Adaptive)
        << C.describe() << ": adaptive TW growth without a trace bound "
        << "cannot be certified";
  }
}
