//===- core/BatchKernel.h - SoA batch kernel primitives ---------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structure-of-arrays batch primitives for the fast-path window kernels
/// (core/FastDetector.cpp): the weighted min-sum recompute as a
/// contiguous sweep over packed per-site count lanes, and the anchor
/// membership scans as blocked gathers over the trailing-window element
/// buffer. Each primitive has SIMD implementations (AVX2, and for the
/// min-sum AVX-512) selected by runtime dispatch and a portable
/// scalar-block fallback that compiles everywhere; all produce
/// bit-identical results, so the differential suites gate every path
/// interchangeably.
///
/// Bit-identity argument, per primitive:
///
///  * batchMinSum computes sum_i min(cw_i*NTW, tw_i*NCW) — an integer
///    sum of non-negative terms, so evaluation order cannot perturb the
///    result. The SIMD paths run only when both window totals fit 32
///    bits: then every product fits 64 bits exactly (32x32->64 widening
///    multiplies) and the full sum is bounded by NCW*NTW < 2^64, so the
///    per-lane partial sums (each a subset of the terms) cannot wrap.
///    Totals of 2^32 or more fall back to the portable loop, which
///    wraps mod 2^64 exactly as the reference kernel's scalar arithmetic
///    does.
///  * The anchor scans are pure reads (find the first/last
///    zero-count element); any traversal produces the same index.
///
/// Exactness needs no admission step: the runtime totals guard above is
/// the whole condition. Callers may still pin a whole shared-scan group
/// to the portable loops with SharedScanEngineBase::setBatchKernels()
/// (tests use it to cover the scalar anchor scans); the output is the
/// same either way.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_BATCHKERNEL_H
#define OPD_CORE_BATCHKERNEL_H

#include "core/SimilarityKernel.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace opd {

/// The batch-kernel implementation selected at runtime.
enum class BatchBackend : uint8_t {
  Portable, ///< Scalar block loops; compiles and runs everywhere.
  AVX2,     ///< 256-bit SIMD sweeps/gathers (x86-64 with AVX2 only).
  AVX512,   ///< 512-bit min-sum blocks (AVX-512F/VL), AVX2 anchor scans.
};

/// Stable mnemonic for \p B ("portable" / "avx2" / "avx512").
const char *batchBackendName(BatchBackend B);

/// True when the SIMD code paths were compiled into this binary (x86-64,
/// not disabled via -DOPD_DISABLE_SIMD=ON). Says nothing about the CPU.
bool simdCompiledIn();

/// True when backend \p B can actually run here: Portable always, a SIMD
/// backend when compiled in and the CPU reports its instruction sets.
bool batchBackendAvailable(BatchBackend B);

/// Resolves the OPD_SIMD environment override against the
/// hardware-detected backend \p Detected: "off"/"portable"/"0" force
/// Portable; anything else (including unset/empty/"on"/"avx2") keeps
/// \p Detected — the override can drop to the fallback but cannot enable
/// lanes the host lacks. Pure function, exposed for tests.
BatchBackend batchBackendFromEnv(const char *Value, BatchBackend Detected);

/// Slots per min-sum block. The min-sum bodies read whole blocks and run
/// no scalar tail, so callers size their count arrays to whole blocks and
/// keep every count of the slots past the live ones at zero: such a slot
/// adds min(0, 0) = 0. (A zero cw count alone would not do: the AVX2
/// body's signed lane compare assumes every tw count is at most NTW.)
constexpr size_t MinSumBlock = 8;

/// \p N rounded up to whole min-sum blocks.
constexpr size_t wholeMinSumBlocks(size_t N) {
  return (N + MinSumBlock - 1) / MinSumBlock * MinSumBlock;
}

/// One backend's bodies, chosen once with the backend (at start-up from
/// the CPU and OPD_SIMD, or by setBatchBackend()), so a call costs one
/// load and an indirect call rather than a backend check. The min-sum
/// bodies take a whole number of blocks and are exact only when both
/// totals are below 2^32 (minSumLanesExact); batchMinSum and
/// batchMinSumSplit apply that guard.
struct BatchKernels {
  /// The backend these bodies implement.
  BatchBackend Backend;
  /// batchMinSum's body.
  uint64_t (*MinSum)(const uint32_t *Pairs, size_t N, uint64_t NCW,
                     uint64_t NTW);
  /// batchMinSumSplit's body.
  uint64_t (*MinSumSplit)(const uint32_t *CWPairs, const uint32_t *Left,
                          const uint32_t *Prefix, size_t N, uint64_t NCW,
                          uint64_t NTW);
  /// batchRightmostNoisy's body.
  uint64_t (*RightmostNoisy)(const uint32_t *Counts,
                             const SiteIndex *Elements, uint64_t N);
  /// batchLeftmostNonNoisy's body.
  uint64_t (*LeftmostNonNoisy)(const uint32_t *Counts,
                               const SiteIndex *Elements, uint64_t N);
};

namespace detail {
/// The active backend's bodies (see activeBatchKernels()).
extern std::atomic<const BatchKernels *> ActiveBatchKernels;
} // namespace detail

/// The bodies of the backend the batch primitives dispatch to.
inline const BatchKernels &activeBatchKernels() {
  return *detail::ActiveBatchKernels.load(std::memory_order_relaxed);
}

/// The backend the batch primitives dispatch to: the widest one the CPU
/// runs, unless overridden by OPD_SIMD in the environment (read once at
/// start-up) or by setBatchBackend().
inline BatchBackend activeBatchBackend() {
  return activeBatchKernels().Backend;
}

/// Overrides the active backend (benchmarks pin each matrix leg; tests
/// run each runnable one). Best-effort: requesting a backend the host
/// cannot run leaves the backend Portable and returns false.
bool setBatchBackend(BatchBackend B);

/// sum over i < N of min(Pairs[2i]*NTW, Pairs[2i+1]*NCW), mod 2^64, by
/// the portable scalar loop, for any \p N: the fallback past the lane
/// guard and the oracle the differential tests compare against.
uint64_t batchMinSumPortable(const uint32_t *Pairs, size_t N, uint64_t NCW,
                             uint64_t NTW);

/// batchMinSumSplit's sum by the portable scalar loop, for any \p N.
uint64_t batchMinSumSplitPortable(const uint32_t *CWPairs,
                                  const uint32_t *Left,
                                  const uint32_t *Prefix, size_t N,
                                  uint64_t NCW, uint64_t NTW);

/// Whether the SIMD min-sum lanes are exact for totals \p NCW and \p NTW:
/// both below 2^32 (see the file comment).
inline bool minSumLanesExact(uint64_t NCW, uint64_t NTW) {
  return ((NCW | NTW) >> 32) == 0;
}

/// sum over i < N of min(Pairs[2i]*NTW, Pairs[2i+1]*NCW), mod 2^64 —
/// the weighted kernel's MinSum recompute over a packed roster whose
/// per-site CW/TW counts are stored as adjacent (cw, tw) uint32 pairs.
/// The interleaved layout is what makes the SIMD sweep cheap: one
/// 256-bit load delivers four whole pairs (a 512-bit load eight) with
/// the cw counts already in
/// the even 32-bit lanes and the tw counts in the odd lanes, which is
/// exactly the operand form the 32x32->64 lane multiply consumes — no
/// widening shuffles per block. \p N must be a whole number of blocks
/// (MinSumBlock). Dispatches to the active backend when both totals fit
/// 32 bits (exactness guard, see file comment) and to the portable loop
/// otherwise, so the result is bit-identical to the portable loop for
/// every input.
inline uint64_t batchMinSum(const uint32_t *Pairs, size_t N, uint64_t NCW,
                            uint64_t NTW) {
  assert(N % MinSumBlock == 0 && "min-sum reads whole blocks");
  if (minSumLanesExact(NCW, NTW))
    return activeBatchKernels().MinSum(Pairs, N, NCW, NTW);
  return batchMinSumPortable(Pairs, N, NCW, NTW);
}

/// batchMinSum with the tw counts taken as Left[i] - Prefix[i] (uint32
/// arithmetic, mod 2^32) instead of the odd lanes: sum over i < N of
/// min(CWPairs[2i]*NTW, uint32(Left[i] - Prefix[i])*NCW), mod 2^64. The
/// shared-scan engine's attached shards hold their TW as a prefix
/// snapshot against the group's running counts (core/SharedScan.cpp);
/// the difference is exact whenever the true tw count is below 2^32,
/// even where Left has wrapped below Prefix. Same block rule, dispatch
/// and exactness guard as batchMinSum.
inline uint64_t batchMinSumSplit(const uint32_t *CWPairs,
                                 const uint32_t *Left,
                                 const uint32_t *Prefix, size_t N,
                                 uint64_t NCW, uint64_t NTW) {
  assert(N % MinSumBlock == 0 && "min-sum reads whole blocks");
  if (minSumLanesExact(NCW, NTW))
    return activeBatchKernels().MinSumSplit(CWPairs, Left, Prefix, N, NCW,
                                            NTW);
  return batchMinSumSplitPortable(CWPairs, Left, Prefix, N, NCW, NTW);
}

/// RightmostNoisy anchor scan: 1 + the largest I < N with
/// Counts[Elements[I]] == 0, or 0 when every element's count is nonzero
/// (the exact value KernelWindows::anchor's descending loop returns).
/// Dispatches to the active backend.
inline uint64_t batchRightmostNoisy(const uint32_t *Counts,
                                    const SiteIndex *Elements, uint64_t N) {
  return activeBatchKernels().RightmostNoisy(Counts, Elements, N);
}

/// LeftmostNonNoisy anchor scan: the smallest I < N with
/// Counts[Elements[I]] != 0, or N when every element's count is zero.
/// Dispatches to the active backend.
inline uint64_t batchLeftmostNonNoisy(const uint32_t *Counts,
                                      const SiteIndex *Elements,
                                      uint64_t N) {
  return activeBatchKernels().LeftmostNonNoisy(Counts, Elements, N);
}

/// batchRightmostNoisy pinned to the portable loop (test oracle).
uint64_t batchRightmostNoisyPortable(const uint32_t *Counts,
                                     const SiteIndex *Elements, uint64_t N);

/// batchLeftmostNonNoisy pinned to the portable loop (test oracle).
uint64_t batchLeftmostNonNoisyPortable(const uint32_t *Counts,
                                       const SiteIndex *Elements,
                                       uint64_t N);

} // namespace opd

#endif // OPD_CORE_BATCHKERNEL_H
