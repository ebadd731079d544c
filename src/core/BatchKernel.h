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
/// buffer. Each primitive has an AVX2 implementation selected by runtime
/// dispatch and a portable scalar-block fallback that compiles
/// everywhere; both produce bit-identical results, so the PR 4
/// differential suite gates either path interchangeably.
///
/// Bit-identity argument, per primitive:
///
///  * batchMinSum computes sum_i min(cw_i*NTW, tw_i*NCW) — an integer
///    sum of non-negative terms, so evaluation order cannot perturb the
///    result. The AVX2 path runs only when both window totals fit 32
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

#include <cstdint>

namespace opd {

/// The batch-kernel implementation selected at runtime.
enum class BatchBackend : uint8_t {
  Portable, ///< Scalar block loops; compiles and runs everywhere.
  AVX2,     ///< 256-bit SIMD sweeps/gathers (x86-64 with AVX2 only).
};

/// Stable mnemonic for \p B ("portable" / "avx2").
const char *batchBackendName(BatchBackend B);

/// True when the AVX2 code paths were compiled into this binary (x86-64,
/// not disabled via -DOPD_DISABLE_SIMD=ON). Says nothing about the CPU.
bool simdCompiledIn();

/// True when the AVX2 backend can actually run: compiled in and the CPU
/// reports AVX2 support.
bool simdAvailable();

/// Resolves the OPD_SIMD environment override against the
/// hardware-detected backend \p Detected: "off"/"portable"/"0" force
/// Portable; anything else (including unset/empty/"on"/"avx2") keeps
/// \p Detected — the override can drop to the fallback but cannot enable
/// lanes the host lacks. Pure function, exposed for tests.
BatchBackend batchBackendFromEnv(const char *Value, BatchBackend Detected);

/// The backend the batch primitives dispatch to: AVX2 when available,
/// unless overridden by OPD_SIMD in the environment (read once) or by
/// setBatchBackend().
BatchBackend activeBatchBackend();

/// Overrides the active backend (benchmarks pin each matrix leg; tests
/// force the fallback). Best-effort: requesting AVX2 on a host without
/// it leaves the backend Portable and returns false.
bool setBatchBackend(BatchBackend B);

/// sum over i < N of min(Pairs[2i]*NTW, Pairs[2i+1]*NCW), mod 2^64 —
/// the weighted kernel's MinSum recompute over a packed roster whose
/// per-site CW/TW counts are stored as adjacent (cw, tw) uint32 pairs.
/// The interleaved layout is what makes the AVX2 sweep cheap: one
/// 256-bit load delivers four whole pairs with the cw counts already in
/// the even 32-bit lanes and the tw counts in the odd lanes, which is
/// exactly the operand form the 32x32->64 lane multiply consumes — no
/// widening shuffles per block. Dispatches to the active backend; the
/// AVX2 sweep runs only when both totals fit 32 bits (exactness guard,
/// see file comment), so the result is bit-identical to the portable
/// loop for every input.
uint64_t batchMinSum(const uint32_t *Pairs, size_t N, uint64_t NCW,
                     uint64_t NTW);

/// batchMinSum pinned to the portable scalar-block loop (differential
/// tests compare the dispatched result against this).
uint64_t batchMinSumPortable(const uint32_t *Pairs, size_t N, uint64_t NCW,
                             uint64_t NTW);

/// batchMinSum with the tw counts taken as Left[i] - Prefix[i] (uint32
/// arithmetic, mod 2^32) instead of the odd lanes: sum over i < N of
/// min(CWPairs[2i]*NTW, uint32(Left[i] - Prefix[i])*NCW), mod 2^64. The
/// shared-scan engine's attached shards hold their TW as a prefix
/// snapshot against the group's running counts (core/SharedScan.cpp);
/// the difference is exact whenever the true tw count is below 2^32,
/// even where Left has wrapped below Prefix. Same dispatch and exactness
/// guard as batchMinSum.
uint64_t batchMinSumSplit(const uint32_t *CWPairs, const uint32_t *Left,
                          const uint32_t *Prefix, size_t N, uint64_t NCW,
                          uint64_t NTW);

/// batchMinSumSplit pinned to the portable scalar loop.
uint64_t batchMinSumSplitPortable(const uint32_t *CWPairs,
                                  const uint32_t *Left,
                                  const uint32_t *Prefix, size_t N,
                                  uint64_t NCW, uint64_t NTW);

/// RightmostNoisy anchor scan: 1 + the largest I < N with
/// Counts[Elements[I]] == 0, or 0 when every element's count is nonzero
/// (the exact value KernelWindows::anchor's descending loop returns).
/// Dispatches to the active backend.
uint64_t batchRightmostNoisy(const uint32_t *Counts,
                             const SiteIndex *Elements, uint64_t N);

/// LeftmostNonNoisy anchor scan: the smallest I < N with
/// Counts[Elements[I]] != 0, or N when every element's count is zero.
/// Dispatches to the active backend.
uint64_t batchLeftmostNonNoisy(const uint32_t *Counts,
                               const SiteIndex *Elements, uint64_t N);

/// batchRightmostNoisy pinned to the portable loop (test oracle).
uint64_t batchRightmostNoisyPortable(const uint32_t *Counts,
                                     const SiteIndex *Elements, uint64_t N);

/// batchLeftmostNonNoisy pinned to the portable loop (test oracle).
uint64_t batchLeftmostNonNoisyPortable(const uint32_t *Counts,
                                       const SiteIndex *Elements,
                                       uint64_t N);

} // namespace opd

#endif // OPD_CORE_BATCHKERNEL_H
